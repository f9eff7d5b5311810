"""Workloads of the koszuldepth benchmark and the gate that checks their output.

Every workload is exhaustive: it covers a whole (n, k) range or every subset
of a fixed ground set, so it has no inputs to sample and uses no randomness.
The benchmark seed only shuffles the order in which runs are made.

The gate reads the plain-text output of the ``koszuldepth`` command, as a
user sees it, and compares its verdicts and counts with the values pinned
here.  ``smoke`` selects the same commands at tiny sizes, for the
benchmark's own tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

WORKLOAD_NAMES = ("sweep", "deep", "laws")

_VERDICT = re.compile(r"(PASS|FAIL) (.+)")


@dataclass(frozen=True)
class Step:
    """One ``koszuldepth`` invocation with its expected exit code."""

    argv: tuple[str, ...]
    exit_code: int
    gate: Callable[[str], list[str]]  # stdout -> problems; empty means correct


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]
    jobs: int  # worker processes the CLI is given
    tasks: tuple[tuple[int, int, bool], ...]  # (n, k, rank) verified, for the traced replay


@dataclass(frozen=True)
class Block:
    """One report in the CLI output: the lines above a PASS or FAIL line."""

    verdict: str
    name: str
    lines: tuple[str, ...]


def split_reports(stdout: str) -> tuple[list[Block], list[str]]:
    blocks: list[Block] = []
    pending: list[str] = []
    for line in stdout.splitlines():
        m = _VERDICT.fullmatch(line)
        if m:
            blocks.append(Block(m[1], m[2], tuple(pending)))
            pending = []
        else:
            pending.append(line)
    return blocks, pending


def _find(pattern: str, lines: tuple[str, ...]) -> tuple[int, ...] | None:
    for line in lines:
        m = re.search(pattern, line)
        if m:
            return tuple(int(g) for g in m.groups())
    return None


def verify_counts(block: Block) -> dict[str, int | None]:
    """Counts of one ``verify`` report, read from its text lines."""
    summands = _find(r"^stanley decomposition of M\(\d+,\d+\): (\d+) summands$", block.lines)
    hilbert = _find(r"^hilbert identity \(squarefree\): (\d+) degrees checked, (\d+) failures$",
                    block.lines)
    supports = _find(r"^families: (\d+) supports, sizes ok, two-form agreement held$", block.lines)
    triangle = _find(r"^triangle condition \(squashed order\): (\d+) violations$", block.lines)
    rank = _find(r"^exact rank: (\d+) sign matrices, (\d+) rank deficient$", block.lines)
    min_z = _find(r"^depth: \|Z\| sizes .*, minimum (\d+) = n-1 attained by \d+ summands$",
                  block.lines)
    return {
        "summands": summands and summands[0],
        "hilbert_failures": hilbert and hilbert[1],
        "supports": supports and supports[0],
        "triangle_violations": triangle and triangle[0],
        "rank_checked": rank[0] if rank else 0,
        "rank_failures": rank[1] if rank else 0,
        "min_Z": min_z and min_z[0],
    }


def verify_tasks(all_n: int) -> tuple[tuple[int, int], ...]:
    """The (n, k) points ``verify --all-n`` covers, in output order."""
    return tuple((n, k) for n in range(2, all_n + 1) for k in range(max(n // 2, 1), n))


def _compare(label: str, got: dict, want: dict) -> list[str]:
    return [f"{label}: {key} is {got.get(key)!r}, pinned {value!r}"
            for key, value in want.items() if got.get(key) != value]


def _blocks_or_problems(stdout: str, names: list[str], verdict: str) -> tuple[list[Block], list[str]]:
    blocks, trailing = split_reports(stdout)
    problems = []
    if trailing:
        problems.append(f"{len(trailing)} output lines after the last verdict")
    got = [b.name for b in blocks]
    if got != names:
        problems.append(f"reports {got[:3]}... ({len(got)}) differ from the pinned {len(names)}")
    problems += [f"{b.name}: verdict {b.verdict}, pinned {verdict}"
                 for b in blocks if b.verdict != verdict]
    return blocks, problems


def sweep_gate(all_n: int, reports: int) -> Callable[[str], list[str]]:
    names = [f"stanley decomposition n={n} k={k}" for n, k in verify_tasks(all_n)]
    if len(names) != reports:
        raise ValueError(f"--all-n {all_n} gives {len(names)} reports, pinned {reports}")

    def gate(stdout: str) -> list[str]:
        blocks, problems = _blocks_or_problems(stdout, names, "PASS")
        for b in blocks:
            c = verify_counts(b)
            if c["supports"] is None or c["rank_checked"] != c["supports"]:
                problems.append(f"{b.name}: rank checked on {c['rank_checked']} of "
                                f"{c['supports']} supports")
            problems += _compare(b.name, c, {"hilbert_failures": 0, "triangle_violations": 0,
                                             "rank_failures": 0})
        return problems

    return gate


def deep_gate(n: int, k: int, pinned: dict[str, int]) -> Callable[[str], list[str]]:
    name = f"stanley decomposition n={n} k={k}"

    def gate(stdout: str) -> list[str]:
        blocks, problems = _blocks_or_problems(stdout, [name], "PASS")
        for b in blocks:
            problems += _compare(b.name, verify_counts(b),
                                 {**pinned, "hilbert_failures": 0, "triangle_violations": 0,
                                  "rank_checked": 0})
        return problems

    return gate


def matching_gate(n: int, subsets: int, pairs: int, upper_level_sets: int) -> Callable[[str], list[str]]:
    names = [f"inverse law n={n}", f"index equivalence n={n}", f"greedy agreement n={n}"]
    patterns = (
        (r"^inverse law: (\d+) subsets, psi defined on \d+, image\(psi\) == domain\(phi\): yes, "
         r"(\d+) counterexamples$", {"subsets": subsets}),
        (r"^index equivalence: (\d+) \(G, M\) pairs, (\d+) disagreements$", {"pairs": pairs}),
        (r"^greedy agreement: (\d+) sets on total levels \(size >= \d+\), (\d+) mismatches;",
         {"upper_level_sets": upper_level_sets}),
    )

    def gate(stdout: str) -> list[str]:
        blocks, problems = _blocks_or_problems(stdout, names, "PASS")
        for b, (pattern, pinned) in zip(blocks, patterns):
            found = _find(pattern, b.lines)
            if found is None:
                problems.append(f"{b.name}: summary line missing")
                continue
            (key, value), = pinned.items()
            problems += _compare(b.name, {key: found[0], "failures": found[1]},
                                 {key: value, "failures": 0})
        return problems

    return gate


def lemma_gate(n: int, triples: int, failures: int) -> Callable[[str], list[str]]:
    name = f"index increment n={n}"
    shown = min(failures, 20)

    def gate(stdout: str) -> list[str]:
        blocks, problems = _blocks_or_problems(stdout, [name], "FAIL")
        for b in blocks:
            found = _find(r"^index increment: (\d+) admissible triples \(\d+ with non-negative "
                          r"restricted peak, \d+ below\), (\d+) failures$", b.lines)
            got = {"triples": found and found[0], "failures": found and found[1],
                   "shown": sum(1 for line in b.lines if line.startswith("counterexample: ")),
                   "more": _find(r"^\.\.\. and (\d+) more counterexamples$", b.lines)}
            problems += _compare(b.name, got, {"triples": triples, "failures": failures,
                                               "shown": shown,
                                               "more": (failures - shown,) if failures > shown
                                               else None})
        return problems

    return gate


def workloads(smoke: bool = False) -> dict[str, Workload]:
    """The benchmark workloads; ``smoke`` gives the same commands at tiny sizes."""
    if smoke:
        all_n, reports = 6, 11
        n, k, deep = 8, 4, {"supports": 163, "summands": 99, "min_Z": 7}
        mn, inverse, pairs, upper = 8, 256, 6561, 93
        ln, triples, failures = 7, 519, 40
    else:
        all_n, reports = 11, 35
        n, k, deep = 14, 7, {"supports": 9908, "summands": 5812, "min_Z": 13}
        mn, inverse, pairs, upper = 14, 16384, 4782969, 6476
        ln, triples, failures = 11, 43843, 1344
    sweep_argv = ("verify", "--all-n", str(all_n), "--rank", "always", "--jobs", "2")
    return {
        "sweep": Workload("sweep", (Step(sweep_argv, 0, sweep_gate(all_n, reports)),), 2,
                          tuple((tn, tk, True) for tn, tk in verify_tasks(all_n))),
        "deep": Workload("deep", (Step(("verify", str(n), str(k), "--rank", "never"), 0,
                                       deep_gate(n, k, deep)),), 1, ((n, k, False),)),
        # check-lemma exits 1: the index-increment lemma has real counterexamples
        # and its acceptance criterion stays red, so a FAIL with exactly the
        # pinned number of failures is the correct result.
        "laws": Workload("laws", (
            Step(("check-matching", str(mn)), 0, matching_gate(mn, inverse, pairs, upper)),
            Step(("check-lemma", str(ln)), 1, lemma_gate(ln, triples, failures)),
        ), 1, ()),
    }
