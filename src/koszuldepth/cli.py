"""Command line front end: exploration queries and batch verification.

Exit codes: 0 verified / computed, 1 counterexample found, 2 usage or range
error.  All output is deterministic; sweep workloads can be spread over
worker processes without changing the emitted text.
"""

from __future__ import annotations

# compiled before argparse is resident, for a lower peak; decomposition loads per command
from . import checks, matching
from .report import Report
from .subsets import RANK_AUTO_MAX_N, Subset, check_ground, lattice_path, parse_subset

import argparse
import os
import sys


def _dumps(obj) -> str:
    """``json.dumps``, imported on first use: only ``--format json`` output
    pays for importing ``json``."""
    import json
    return json.dumps(obj)


def _verify_tasks(tasks: list[tuple], workers: int) -> list[Report]:
    """``verify_stanley`` on every task, in ``workers`` processes counting
    this one, with the reports in task order.

    Child ``w`` of the ``workers - 1`` forked before any task runs takes
    ``tasks[w::workers]`` and pickles ``(ok, reports or exception)`` into its
    own pipe; this process takes ``tasks[0::workers]``, then reads each pipe
    to EOF.  A task's exception is re-raised here.  A child that sends
    nothing or exits non-zero raises ``RuntimeError``, so a lost share never
    reads as a PASS.  Every child is reaped before this returns or raises.
    ``verify_stanley`` is read off its module at each call, where the
    benchmark tracer wraps it.
    """
    from . import decomposition
    children = []  # (pid, read end of its pipe), not yet reaped
    try:
        for w in range(1, workers):
            import pickle  # only a run that forks pays for importing it
            read, write = os.pipe()
            # the command line starts no thread, so the child is a whole copy
            pid = os.fork()
            if pid == 0:
                # leave by os._exit alone: never return into the caller's
                # stack, never flush stdio buffers copied from the parent
                code = 1
                try:
                    # hold no read end of any pipe: once the parent closes
                    # one, a write to it must fail, not wait for a reader here
                    os.close(read)
                    for _, pipe in children:
                        pipe.close()
                    try:
                        payload = (True, [decomposition.verify_stanley(*task)
                                          for task in tasks[w::workers]])
                    except Exception as exc:
                        payload = (False, exc)
                    with open(write, "wb") as pipe:
                        pickle.dump(payload, pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children.append((pid, open(read, "rb")))
        results = [None] * len(tasks)
        results[0::workers] = [decomposition.verify_stanley(*task) for task in tasks[0::workers]]
        for w in range(1, workers):
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if code or not data:
                raise RuntimeError(f"verify worker {w} exited with code {code} "
                                   f"after sending {len(data)} bytes")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results[w::workers] = value
        return results
    finally:
        # closing a pipe first unblocks a child still writing to it
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)


def render_path(G: Subset) -> list[str]:
    """ASCII drawing of the lattice path, one row per height unit, with the
    first and last peak positions marked beneath the axis."""
    path = lattice_path(G)
    h = path.heights
    n = G.n
    rows = []
    for level in range(max(h), min(h), -1):
        chars = [" "]  # origin column
        for g in range(1, n + 1):
            if h[g] > h[g - 1] and h[g] == level:
                chars.append("/")
            elif h[g] < h[g - 1] and h[g - 1] == level:
                chars.append("\\")
            else:
                chars.append(" ")
        rows.append("".join(chars).rstrip())
    rows.append("-" * (n + 1))
    for glyph, pos in (("ν", path.nu), ("μ", path.mu)):
        marker = [" "] * (n + 1)
        marker[pos] = glyph
        rows.append("".join(marker).rstrip())
    return rows


def _match_str(result) -> str:
    return str(result.value) if result.defined else "undefined"


def cmd_path(args) -> int:
    G = parse_subset(args.n, args.set)
    path = lattice_path(G)
    down = matching.psi(G)
    up = matching.phi(G)
    if args.format == "json":
        print(_dumps({
            "n": G.n,
            "G": list(G),
            "heights": list(path.heights),
            "alpha": path.alpha,
            "peaks": list(path.peaks),
            "nu": path.nu,
            "mu": path.mu,
            "psi": list(down.value) if down.defined else None,
            "phi": list(up.value) if up.defined else None,
            "render": render_path(G),
        }))
        return 0
    print(f"G = {G}   n = {G.n}")
    for row in render_path(G):
        print(row)
    print("heights: " + " ".join(str(x) for x in path.heights))
    peaks = "{" + ",".join(str(p) for p in path.peaks) + "}"
    print(f"alpha = {path.alpha}   N = {peaks}   nu = {path.nu}   mu = {path.mu}")
    print(f"psi(G) = {_match_str(down)}" + (f"   (removes {down.pivot})" if down.defined else ""))
    print(f"phi(G) = {_match_str(up)}" + (f"   (adds {up.pivot})" if up.defined else ""))
    return 0


def cmd_match(args) -> int:
    """``psi`` or ``phi``, named by the subcommand."""
    result = getattr(matching, args.command)(parse_subset(args.n, args.set))
    if args.format == "json":
        print(_dumps({
            "defined": result.defined,
            "value": list(result.value) if result.defined else None,
            "pivot": result.pivot,
        }))
    else:
        print(_match_str(result))
    return 0


def cmd_index(args) -> int:
    M = parse_subset(args.n, args.M)
    G = parse_subset(args.n, args.G)
    value = matching.index(G, M)
    if args.format == "json":
        print(_dumps({"index": value}))
    else:
        print(value)
    return 0


def cmd_family(args) -> int:
    from . import decomposition
    M = parse_subset(args.n, args.M)
    family = decomposition.contribution_family(args.n, args.k, M)
    matrix = decomposition.sign_matrix(family) if args.matrix else None
    if args.format == "json":
        payload = {
            "n": args.n,
            "k": args.k,
            "M": list(M),
            "members": [
                {
                    "G": list(mem.G),
                    "index": mem.index,
                    "distinguished": list(matching.psi_tilde(mem.G).value),
                }
                for mem in family.members
            ],
        }
        if matrix is not None:
            payload["sign_matrix"] = matrix
        print(_dumps(payload))
        return 0
    print(f"family for M = {M}, n = {args.n}, k = {args.k}: {len(family.members)} members")
    for mem in family.members:
        t = matching.psi_tilde(mem.G).value
        print(f"{mem.G}  index {mem.index}  distinguished {t}")
    if matrix is not None:
        print("sign matrix (columns: (k-1)-subsets of M in squashed order):")
        for row in matrix:
            print(" ".join(f"{e:+d}" if e else " 0" for e in row))
    return 0


def cmd_decompose(args) -> int:
    from . import decomposition
    decomp = decomposition.build_decomposition(args.n, args.k)
    if args.format == "json":
        print(_dumps(decomposition.decomposition_to_dict(decomp)))
        return 0
    print(f"stanley decomposition of M({args.n},{args.k}): {len(decomp.summands)} summands")
    for sm in decomp.summands:
        removed = "-" if sm.removed is None else str(sm.removed)
        print(f"S={sm.S} Z={sm.Z} removed={removed} G={sm.G} m={sm.m.text()}")
    return 0


def cmd_verify(args) -> int:
    from . import decomposition
    rank = {"auto": None, "always": True, "never": False}[args.rank]
    if args.box is not None and args.box < 0:
        raise ValueError(f"--box needs a depth >= 0, got {args.box}")
    if args.jobs < 1:
        raise ValueError(f"--jobs needs at least 1 worker, got {args.jobs}")
    if args.all_n is not None:
        if args.n is not None or args.k is not None:
            raise ValueError("give either n and k or --all-n N, not both")
        check_ground(args.all_n)
        if args.all_n < 2:
            raise ValueError(f"--all-n needs N >= 2, the smallest n with a valid k; got {args.all_n}")
        tasks = [
            (n, k, rank, args.box)
            for n in range(2, args.all_n + 1)
            for k in decomposition.upper_half(n)
        ]
    elif args.n is None or args.k is None:
        raise ValueError("provide n and k, or --all-n N")
    else:
        # verify_stanley checks the range first, in this process: one task forks nothing
        tasks = [(args.n, args.k, rank, args.box)]

    # this process works too, so --jobs W forks W - 1 children, and never more
    # processes than tasks: none for a single task or for --jobs 1
    results = _verify_tasks(tasks, min(args.jobs, len(tasks)))

    all_passed = all(r.passed for r in results)
    if args.format == "json":
        reports = [{**r.to_json(), "lines": r.lines} for r in results]
        print(_dumps({"passed": all_passed, "reports": reports}))
    else:
        for r in results:
            print(r.text())
    return 0 if all_passed else 1


_CHECKS = {
    "inverse": checks.check_inverse_law,
    "index-eq": checks.check_index_equivalence,
    "greedy": checks.check_greedy_agreement,
    "lemma-ind": checks.index_step_sweep,
}


def _run_checks(n: int, which: list[str], fmt: str) -> int:
    check_ground(n)
    reports: list[Report] = [_CHECKS[name](n) for name in which]
    ok = all(r.passed for r in reports)
    if fmt == "json":
        print(_dumps({"passed": ok, "reports": [r.to_json() for r in reports]}))
    else:
        for r in reports:
            print(r.text())
    return 0 if ok else 1


def cmd_check_matching(args) -> int:
    which = args.which or ["inverse", "index-eq", "greedy"]
    for i, name in enumerate(which):
        if name not in ("inverse", "index-eq", "greedy"):
            raise ValueError(f"unknown matching check {name!r}")
        if name in which[:i]:
            raise ValueError(f"matching check {name!r} given more than once")
    return _run_checks(args.n, which, args.format)


def cmd_check_lemma(args) -> int:
    if args.n < 2:
        raise ValueError(
            f"check-lemma needs n >= 2, the smallest n with an admissible triple; got {args.n}"
        )
    return _run_checks(args.n, ["lemma-ind"], args.format)


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="koszuldepth",
        description="Explore and verify the depth-(n-1) decomposition of the "
        "upper Koszul syzygy modules.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("path", help="draw the lattice path of a subset")
    sp.add_argument("n", type=int)
    sp.add_argument("set", help="subset, e.g. {1,4,7} or 147 for n <= 9")
    _add_format(sp)
    sp.set_defaults(func=cmd_path)

    for name, help_text in (
        ("psi", "apply the downward matching"),
        ("phi", "apply the upward matching"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("n", type=int)
        sp.add_argument("set")
        _add_format(sp)
        sp.set_defaults(func=cmd_match)

    sp = sub.add_parser("index", help="index of G inside M")
    sp.add_argument("n", type=int)
    sp.add_argument("M")
    sp.add_argument("G")
    _add_format(sp)
    sp.set_defaults(func=cmd_index)

    sp = sub.add_parser("family", help="contributing generators for a support")
    sp.add_argument("n", type=int)
    sp.add_argument("k", type=int)
    sp.add_argument("M")
    sp.add_argument("--matrix", action="store_true", help="also print the sign matrix")
    _add_format(sp)
    sp.set_defaults(func=cmd_family)

    sp = sub.add_parser("decompose", help="emit the full decomposition")
    sp.add_argument("n", type=int)
    sp.add_argument("k", type=int)
    _add_format(sp)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("verify", help="verify the decomposition for (n, k) or a sweep")
    sp.add_argument("n", type=int, nargs="?")
    sp.add_argument("k", type=int, nargs="?")
    sp.add_argument("--all-n", type=int, default=None, metavar="N",
                    help="verify every valid (n, k) with n <= N")
    sp.add_argument("--box", type=int, default=None, metavar="D",
                    help="also run the boxed dimension check with entries up to D "
                    "(recommended maxima: n = 9 at D = 2, n = 12 at D = 1)")
    sp.add_argument("--rank", choices=("auto", "always", "never"), default="auto",
                    help=f"GF(2) rank checking (auto: on for n <= {RANK_AUTO_MAX_N}; "
                    "forced, it peaked at 164 MB at (17, 8) and 480 MB at (18, 9))")
    sp.add_argument("--jobs", type=int, default=1, metavar="W",
                    help="processes for sweeps, this one included, at most one per (n, k) task")
    _add_format(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("check-matching", help="matching law suites (inverse, index-eq, greedy)")
    sp.add_argument("n", type=int,
                    help="every suite runs up to 20 (all three: about 3 s at 50 MB)")
    sp.add_argument("which", nargs="*", metavar="which",
                    help="any of: inverse, index-eq, greedy (default: all three)")
    _add_format(sp)
    sp.set_defaults(func=cmd_check_matching)

    sp = sub.add_parser("check-lemma", help="exhaustive index increment check")
    sp.add_argument("n", type=int, help="at least 2; recommended maximum 17")
    _add_format(sp)
    sp.set_defaults(func=cmd_check_lemma)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
