"""Traced in-process replay of one benchmark workload.

Run as a fresh process per workload, so the package's ``lru_cache`` tables
start cold as they do in the CLI:

    PYTHONPATH=src python3 perfbench/trace.py --workload deep [--smoke]

It wraps public functions of every ``koszuldepth`` layer from outside,
changing no line of the package, and runs two phases:

* ``run``: the workload's CLI commands through ``cli.main`` in this process,
  serially (``--jobs 1``), with their output gated as in an untraced run.
* ``replay`` (verify workloads only): per (n, k) task, ``build_decomposition``
  and ``verify_hilbert``, then per support ``contribution_family`` ->
  ``triangle_check`` -> ``sign_matrix`` -> ``rank_full`` when the task checks
  rank.

Modules that import a function by name keep their own binding, so each
binding a caller actually uses is wrapped.  Counts and spans are kept in
memory per phase and printed as one JSON object on the last line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import time
from collections import Counter
from math import comb
from typing import Callable

from workloads import WORKLOAD_NAMES, workloads

from koszuldepth import bits, checks, cli, decomposition, koszul, matching, subsets
from koszuldepth.report import Report
from koszuldepth.subsets import Subset


class Tracer:
    """Per-phase call counts and spans for wrapped functions.

    A span is (name, start, end, parent span index); spans of one phase
    share that phase's list.
    """

    def __init__(self) -> None:
        self.counts: dict[str, Counter] = {}
        self.spans: dict[str, list] = {}
        self._stack: list[int] = []
        self.enter("run")

    def enter(self, phase: str) -> None:
        """Record from now on into ``phase``."""
        self._counts = self.counts.setdefault(phase, Counter())
        self._spans = self.spans.setdefault(phase, [])

    def add(self, name: str, amount: int) -> None:
        """Record a count computed from results in the current phase."""
        self._counts[name] += amount

    def counted(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self._counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def timed(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        def wrapper(*args, **kwargs):
            spans = self._spans
            self._counts[name] += 1
            index = len(spans)
            spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    @staticmethod
    def patch(owners: list[object], attr: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap ``attr`` on each owner (module, class or dict) that binds it,
        for the rest of this process."""
        for owner in owners:
            if isinstance(owner, dict):
                owner[attr] = make(owner[attr])
            else:
                setattr(owner, attr, make(getattr(owner, attr)))

    def summary(self) -> dict:
        """Per phase: counts, and per-name span totals with self time (the
        duration minus the time covered by child spans)."""
        out = {}
        for phase, spans in self.spans.items():
            child_time = [0.0] * len(spans)
            for name, start, end, parent in spans:
                if parent is not None:
                    child_time[parent] += end - start
            agg: dict[str, dict] = {}
            for i, (name, start, end, _) in enumerate(spans):
                a = agg.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
                a["count"] += 1
                a["total_s"] += end - start
                a["self_s"] += end - start - child_time[i]
                a["max_s"] = max(a["max_s"], end - start)
            out[phase] = {"counts": dict(self.counts[phase]), "spans": agg}
        return out


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the benchmark's per-layer metrics read."""
    t = tracer

    def counted(name):
        return lambda fn: t.counted(name, fn)

    def timed(name, on_result=None):
        return lambda fn: t.timed(name, fn, on_result)

    def rank_cells(args, matrix):
        t.add("decomposition.rank_cells", len(matrix) * (len(matrix[0]) if matrix else 0))

    def report_text(args, text):
        t.add("report.failures", len(args[0].failures))

    t.patch([Subset], "__init__", counted("subsets.Subset.new"))
    t.patch([subsets, matching, decomposition, cli], "lattice_path",
            counted("subsets.lattice_path"))
    for name in ("psi", "phi", "psi_tilde", "index"):
        t.patch([matching], name, counted(f"matching.{name}"))
    t.patch([matching], "greedy_lex_matching", timed("matching.greedy_lex_matching"))
    t.patch([bits, checks, decomposition], "match_tables", timed("bits.match_tables"))
    t.patch([bits, checks, decomposition], "phi_index", counted("bits.phi_index"))
    t.patch([bits, checks], "psi_index_table", timed("bits.psi_index_table"))
    t.patch([koszul, decomposition], "generator_m", timed("koszul.generator_m"))
    t.patch([koszul, decomposition], "boundary_sign", counted("koszul.boundary_sign"))
    t.patch([koszul, decomposition], "dim_oracle", counted("koszul.dim_oracle"))
    for name in ("build_decomposition", "verify_hilbert", "contribution_family",
                 "triangle_check", "rank_full", "verify_stanley", "index_step_check"):
        t.patch([decomposition], name, timed(f"decomposition.{name}"))
    t.patch([decomposition], "sign_matrix", timed("decomposition.sign_matrix", rank_cells))
    # cli._CHECKS holds the check functions it was built with
    t.patch([decomposition], "index_step_sweep", timed("decomposition.index_step_sweep"))
    t.patch([cli._CHECKS], "lemma-ind", timed("decomposition.index_step_sweep"))
    for name, key in (("check_inverse_law", "inverse"), ("check_index_equivalence", "index-eq"),
                      ("check_greedy_agreement", "greedy")):
        t.patch([checks], name, timed(f"checks.{name}"))
        t.patch([cli._CHECKS], key, timed(f"checks.{name}"))
    t.patch([Report], "text", timed("report.text", report_text))


def run_phase(workload) -> list[str]:
    problems = []
    for step in workload.steps:
        argv = list(step.argv)
        if "--jobs" in argv:
            argv[argv.index("--jobs") + 1] = "1"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        label = " ".join(step.argv)
        if code != step.exit_code:
            problems.append(f"{label}: exit code {code}, pinned {step.exit_code}")
        problems += [f"{label}: {p}" for p in step.gate(out.getvalue())]
    return problems


def replay_phase(workload) -> list[str]:
    problems = []
    for n, k, rank in workload.tasks:
        decomp = decomposition.build_decomposition(n, k)
        if not decomposition.verify_hilbert(decomp, "squarefree").passed:
            problems.append(f"replay ({n},{k}): hilbert identity failed")
        for m_mask in range(1, 1 << n):
            size = m_mask.bit_count()
            if size < k:
                continue
            M = Subset.from_mask(n, m_mask)
            family = decomposition.contribution_family(n, k, M)
            if len(family.members) != comb(size - 1, k - 1):
                problems.append(f"replay ({n},{k}) {M}: family size {len(family.members)}")
            if not decomposition.triangle_check(family).passed:
                problems.append(f"replay ({n},{k}) {M}: triangle violation")
            if rank and not decomposition.rank_full(decomposition.sign_matrix(family)):
                problems.append(f"replay ({n},{k}) {M}: rank deficient")
    return problems


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    workload = workloads(args.smoke)[args.workload]

    tracer = Tracer()
    install(tracer)
    seconds = {}
    start = time.perf_counter()
    problems = run_phase(workload)
    seconds["run"] = time.perf_counter() - start
    if workload.tasks:
        tracer.enter("replay")
        start = time.perf_counter()
        problems += replay_phase(workload)
        seconds["replay"] = time.perf_counter() - start
    print(json.dumps({"problems": problems, "seconds": seconds, "phases": tracer.summary()}))


if __name__ == "__main__":
    main()
