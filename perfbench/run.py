#!/usr/bin/env python3
"""Benchmark harness for the koszuldepth verifier.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload deep --seed 1 --seconds 36 --trace 0

With ``--trace 0`` it runs the workload's ``koszuldepth`` commands as
separate processes, repeatedly for about ``--seconds`` seconds, gates every
run's exit code, verdicts and pinned counts, and reports the end-to-end
metrics as medians: ``wall_s`` per workload run, ``peak_rss_mb`` of the
largest process of a run, and ``setup_s``, the time to import
``koszuldepth.cli`` in a fresh interpreter.  With ``--trace 1`` it runs the
workload untraced for a reference wall time, then twice as a traced
in-process replay (``trace.py``), checks that every count repeats exactly,
and reports the per-layer metrics.  ``--workload all`` measures every
workload, interleaved.  ``--smoke`` runs the same commands at tiny sizes.

The seed only shuffles the order of runs and set-up probes; the workloads
are exhaustive and use no randomness.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it are a readable table and the run context.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOAD_NAMES, Workload, workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "koszuldepth"

SETUP_PER_ROUND = 5  # set-up probes interleaved with each round of workload runs
SETUP_MIN = 21  # set-up probes per measurement, at least
MIN_RUNS = 2  # runs per workload in a measurement, at least, so wall_s is a median
TRACE_REPLAYS = 2  # traced replays per workload; their counts must agree
PROCESS_TIMEOUT_S = 170
SETUP_CODE = ("import time\nstart = time.perf_counter()\nimport koszuldepth.cli\n"
              "print(time.perf_counter() - start)")

# Per-layer metrics read from a traced replay: (metric, unit, phase, kind, source).
# kind "span" sums the source's span durations; "count" reads its call count,
# or a count the tracer computed from results.
LAYER_METRICS = (
    ("bits.match_tables_s", "s", "run", "span", "bits.match_tables"),
    ("bits.match_tables.calls", "count", "run", "count", "bits.match_tables"),
    ("bits.phi_index.calls", "count", "run", "count", "bits.phi_index"),
    ("bits.psi_index_table_s", "s", "run", "span", "bits.psi_index_table"),
    ("subsets.Subset.new", "count", "run", "count", "subsets.Subset.new"),
    ("subsets.lattice_path.calls", "count", "run", "count", "subsets.lattice_path"),
    ("matching.psi.calls", "count", "run", "count", "matching.psi"),
    ("matching.phi.calls", "count", "run", "count", "matching.phi"),
    ("matching.psi_tilde.calls", "count", "run", "count", "matching.psi_tilde"),
    ("matching.index.calls", "count", "run", "count", "matching.index"),
    ("matching.greedy_lex_matching_s", "s", "run", "span", "matching.greedy_lex_matching"),
    ("koszul.generator_m.calls", "count", "run", "count", "koszul.generator_m"),
    ("koszul.generator_m_s", "s", "run", "span", "koszul.generator_m"),
    ("koszul.boundary_sign.calls", "count", "run", "count", "koszul.boundary_sign"),
    ("koszul.dim_oracle.calls", "count", "run", "count", "koszul.dim_oracle"),
    ("decomposition.build_decomposition_s", "s", "replay", "span",
     "decomposition.build_decomposition"),
    ("decomposition.verify_hilbert_s", "s", "replay", "span", "decomposition.verify_hilbert"),
    ("decomposition.contribution_family_s", "s", "replay", "span",
     "decomposition.contribution_family"),
    ("decomposition.contribution_family.calls", "count", "replay", "count",
     "decomposition.contribution_family"),
    ("decomposition.triangle_check_s", "s", "replay", "span", "decomposition.triangle_check"),
    ("decomposition.sign_matrix_s", "s", "replay", "span", "decomposition.sign_matrix"),
    ("decomposition.rank_full_s", "s", "replay", "span", "decomposition.rank_full"),
    ("decomposition.rank_cells", "count", "replay", "count", "decomposition.rank_cells"),
    ("decomposition.verify_stanley_s", "s", "run", "span", "decomposition.verify_stanley"),
    ("decomposition.index_step_sweep_s", "s", "run", "span", "decomposition.index_step_sweep"),
    ("decomposition.index_step_check.calls", "count", "run", "count",
     "decomposition.index_step_check"),
    ("checks.check_inverse_law_s", "s", "run", "span", "checks.check_inverse_law"),
    ("checks.check_index_equivalence_s", "s", "run", "span", "checks.check_index_equivalence"),
    ("checks.check_greedy_agreement_s", "s", "run", "span", "checks.check_greedy_agreement"),
    ("report.failures", "count", "run", "count", "report.failures"),
    ("report.text_s", "s", "run", "span", "report.text"),
)
DERIVED_METRICS = (
    ("cli.task_s.max", "s"),
    ("cli.task_s.sum", "s"),
    ("cli.straggler_share", "ratio"),
    ("cli.pool_efficiency", "ratio"),
    ("trace.run_s", "s"),
    ("trace.total_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
RUN_METRICS = (("wall_s", "s"), ("peak_rss_mb", "MB"))  # medians over workload runs
END_TO_END = (*RUN_METRICS, ("setup_s", "s"))


@dataclass(frozen=True)
class Finished:
    stdout: str
    stderr: str
    code: int
    wall_s: float
    peak_rss_mb: float  # largest resident set of the process or any child it waited for


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_process(argv: list[str]) -> Finished:
    """Run ``argv`` from the checkout root through ``launch.py`` and wait for
    it and its children; a run past the timeout is killed and reads as failed."""
    err: list[str] = []
    with subprocess.Popen([sys.executable, str(HERE / "launch.py"), *argv], cwd=ROOT,
                          env=child_env(), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.terminate)
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        killer.start()
        reader.start()
        try:
            out = proc.stdout.read()
            reader.join()
            proc.wait()
        finally:
            killer.cancel()
    stderr, _, last = err[0].rstrip("\n").rpartition("\n")
    try:
        code, wall, peak = last.split()
        return Finished(out, stderr, int(code), float(wall), float(peak))
    except ValueError:
        return Finished(out, err[0], -1 if proc.returncode == 0 else proc.returncode, 0.0, 0.0)


def run_workload(workload: Workload, rng: random.Random) -> dict:
    """One run of a workload: its commands in a seed-shuffled order, gated."""
    steps = list(workload.steps)
    rng.shuffle(steps)
    load_before = os.getloadavg()
    wall = peak = 0.0
    problems: list[str] = []
    for step in steps:
        done = run_process([sys.executable, "-m", "koszuldepth", *step.argv])
        wall += done.wall_s
        peak = max(peak, done.peak_rss_mb)
        label = " ".join(step.argv)
        found = step.gate(done.stdout)
        if done.code != step.exit_code:
            found.insert(0, f"exit code {done.code}, pinned {step.exit_code}")
        if found and done.stderr.strip():
            found.append(f"stderr: {done.stderr.strip()[-300:]}")
        problems += [f"{label}: {p}" for p in found]
    return {"workload": workload.name, "order": [" ".join(s.argv) for s in steps],
            "wall_s": wall, "peak_rss_mb": peak, "load_before": load_before,
            "load_after": os.getloadavg(), "problems": problems}


def run_setup() -> dict:
    """One set-up probe: import ``koszuldepth.cli`` in a fresh interpreter."""
    done = run_process([sys.executable, "-c", SETUP_CODE])
    try:
        value = float(done.stdout) if done.code == 0 else None
    except ValueError:
        value = None
    problems = [] if value is not None else [f"import failed: {done.stderr.strip()[-300:]}"]
    return {"workload": "setup", "setup_s": value, "problems": problems}


def describe(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def measure(selected: list[Workload], seconds: float, rng: random.Random, setup: bool,
            min_runs: int) -> tuple[dict[str, list[dict]], list[dict]]:
    """Rounds of one run per workload (and set-up probes), in seed-shuffled
    order, until each workload has ``min_runs`` runs and the next round
    would overrun the time budget."""
    budget = seconds * len(selected)
    runs: dict[str, list[dict]] = {w.name: [] for w in selected}
    probes: list[dict] = []
    start = time.perf_counter()
    while True:
        if all(len(r) >= min_runs for r in runs.values()):
            est = sum(statistics.median(r["wall_s"] for r in runs[w.name]) for w in selected)
            if time.perf_counter() - start + est > budget:
                break
        events: list[Workload | None] = list(selected) + [None] * (SETUP_PER_ROUND * setup)
        rng.shuffle(events)
        for event in events:
            if event is None:
                probes.append(run_setup())
            else:
                runs[event.name].append(run_workload(event, rng))
    while setup and len(probes) < SETUP_MIN:
        probes.append(run_setup())
    return runs, probes


def replay(workload: Workload, smoke: bool) -> dict:
    argv = [sys.executable, str(HERE / "trace.py"), "--workload", workload.name]
    done = run_process(argv + ["--smoke"] * smoke)
    try:
        result = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"problems": [f"traced replay exited {done.code}: {done.stderr.strip()[-300:]}"]}
    result["total_s"] = done.wall_s
    if done.code != 0:
        result["problems"].append(f"traced replay exited {done.code}")
    return result


def layer_values(result: dict) -> dict[str, float]:
    phases = result["phases"]
    out = {}
    for metric, _, phase, kind, source in LAYER_METRICS:
        data = phases.get(phase, {"counts": {}, "spans": {}})
        if kind == "span":
            out[metric] = data["spans"].get(source, {}).get("total_s", 0.0)
        else:
            out[metric] = data["counts"].get(source, 0)
    tasks = phases["run"]["spans"].get("decomposition.verify_stanley", {})
    out["cli.task_s.max"] = tasks.get("max_s", 0.0)
    out["cli.task_s.sum"] = tasks.get("total_s", 0.0)
    out["cli.straggler_share"] = out["cli.task_s.max"] / out["cli.task_s.sum"] if tasks else 0.0
    out["trace.run_s"] = result["seconds"]["run"]
    out["trace.total_s"] = result["total_s"]
    return out


def count_mismatches(results: list[dict]) -> list[str]:
    """Every count must repeat exactly across replays."""
    first = results[0]["phases"]
    problems = []
    for other in results[1:]:
        for phase in sorted(set(first) | set(other["phases"])):
            a = first.get(phase, {}).get("counts", {})
            b = other["phases"].get(phase, {}).get("counts", {})
            problems += [f"{phase} {name}: {a.get(name)} then {b.get(name)}"
                         for name in sorted(set(a) | set(b)) if a.get(name) != b.get(name)]
    return problems


def trace(workload: Workload, seconds: float, rng: random.Random, smoke: bool) -> dict:
    """Untraced reference runs, then traced replays; per-layer metrics.

    The reference gets half the time budget, as the replays take longer."""
    runs, _ = measure([workload], seconds / 2, rng, setup=False, min_runs=1)
    runs = runs[workload.name]
    replays = [replay(workload, smoke) for _ in range(TRACE_REPLAYS)]
    problems = [p for r in runs for p in r["problems"]]
    failed = sum(bool(r["problems"]) for r in runs) + sum(bool(r["problems"]) for r in replays)
    if not any(r["problems"] for r in replays):
        mismatches = count_mismatches(replays)
        failed += bool(mismatches)
        problems += [f"count differs between traced replays: {m}" for m in mismatches]
    problems += [p for r in replays for p in r["problems"]]
    metrics: dict[str, dict] = {}
    if not any(r["problems"] for r in replays):
        values = [layer_values(r) for r in replays]
        wall_ref = statistics.median(r["wall_s"] for r in runs)
        units = {m: u for m, u, *_ in LAYER_METRICS} | dict(DERIVED_METRICS)
        # counts are equal across replays (checked above); times take the median
        merged = {m: statistics.median(v[m] for v in values) if units[m] != "count"
                  else values[0][m] for m in values[0]}
        merged["cli.pool_efficiency"] = merged["cli.task_s.sum"] / (workload.jobs * wall_ref)
        merged["trace.overhead_ratio"] = merged["trace.total_s"] / wall_ref
        metrics = {m: {"value": merged[m], "unit": units[m]} for m in units}
    return {"attempted": len(runs) + len(replays), "failed": failed, "problems": problems,
            "metrics": metrics, "runs": runs,
            "replay_seconds": [r.get("seconds") for r in replays]}


def end_to_end(runs: list[dict], setup: dict) -> dict:
    """Medians of a workload's runs, with the set-up time measured alongside."""
    stats = {name: {"unit": unit, **describe([r[name] for r in runs])}
             for name, unit in RUN_METRICS}
    if setup:
        stats["setup_s"] = setup
    return {"attempted": len(runs), "failed": sum(bool(r["problems"]) for r in runs),
            "stats": stats, "problems": [p for r in runs for p in r["problems"]],
            "metrics": {m: {"value": s["median"], "unit": s["unit"]} for m, s in stats.items()},
            "runs": runs}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def context(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    version = next((line.split("=", 1)[1].strip().strip("\"'")
                    for line in (PACKAGE / "__init__.py").read_text().splitlines()
                    if line.startswith("__version__")), None)
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "package_version": version, "git_commit": git_commit(),
            "source_sha256": digest.hexdigest(), "load_avg": os.getloadavg(),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke}


def table(name: str, report: dict) -> list[str]:
    lines = [f"workload {name}: {report['attempted']} attempted, {report['failed']} failed, "
             f"failed_share {report['failed'] / report['attempted']:.3f}"]
    if "stats" in report:
        for metric, s in report["stats"].items():
            lines.append(f"  {metric:<14} {s['median']:10.4f} {s['unit']:<3} median of {s['n']}"
                         f"  (q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, min {s['min']:.4f}, "
                         f"max {s['max']:.4f})")
    else:
        for metric, m in report["metrics"].items():
            lines.append(f"  {metric:<40} {m['value']:14.6g} {m['unit']}")
    lines += [f"  FAILED: {p}" for p in report["problems"][:20]]
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description="koszuldepth benchmark harness")
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="the same commands at tiny sizes, for the benchmark's own tests")
    args = ap.parse_args()
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no koszuldepth sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    defined = workloads(args.smoke)
    names = list(WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
    selected = [defined[n] for n in names]
    ctx = context(args)
    warm = run_setup()  # compiles the package's bytecode; not timed
    if warm["problems"]:
        print(f"FAILED: {warm['problems'][0]}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    reports: dict[str, dict] = {}
    probes: list[dict] = []
    if args.trace:
        order = list(selected)
        rng.shuffle(order)
        for w in order:
            reports[w.name] = trace(w, args.seconds, rng, args.smoke)
    else:
        runs, probes = measure(selected, args.seconds, rng, setup=True, min_runs=MIN_RUNS)
        setup_values = [p["setup_s"] for p in probes if p["setup_s"] is not None]
        setup = {"unit": "s", **describe(setup_values)} if setup_values else {}
        for w in selected:
            reports[w.name] = end_to_end(runs[w.name], setup)
        ctx["probes"] = probes
    ctx["load_avg_end"] = os.getloadavg()

    for name in names:
        print("\n".join(table(name, reports[name])))
    print(json.dumps({"context": ctx, "runs": {n: reports[n]["runs"] for n in names}}))
    metrics = {}
    for name in names:
        for metric, value in reports[name]["metrics"].items():
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = value
    attempted = sum(r["attempted"] for r in reports.values()) + len(probes)
    failed = sum(r["failed"] for r in reports.values()) + sum(bool(p["problems"]) for p in probes)
    correct = failed == 0 and all(not r["problems"] for r in reports.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
