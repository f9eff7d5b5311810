"""The command line surface: formats, exit codes, determinism."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from koszuldepth import decomposition
from koszuldepth.cli import main
from koszuldepth.report import Report

REPO = Path(__file__).resolve().parent.parent


# Complete verify output, pinned byte for byte: the text of `verify 9 4`
# (rank on) and the JSON of `verify 8 4 --format json`.
VERIFY_9_4 = (
    "stanley decomposition of M(9,4): 219 summands\n"
    "hilbert identity (squarefree): 511 degrees checked, 0 failures\n"
    "families: 382 supports, sizes ok, two-form agreement held\n"
    "triangle condition (squashed order): 0 violations\n"
    "exact rank: 382 sign matrices, 0 rank deficient\n"
    "depth: |Z| sizes [8, 9], minimum 8 = n-1 attained by 163 summands\n"
    "conclusion: sdepth M(9,4) >= 8 verified by this decomposition; "
    "equality with 8 = n-1 follows from the known Hilbert depth upper bound "
    "(Bruns, Krattenthaler & Uliczka 2010), which is cited here, not verified.\n"
    "PASS stanley decomposition n=9 k=4\n"
)

VERIFY_8_4_JSON = {
    "passed": True,
    "reports": [{
        "name": "stanley decomposition n=8 k=4",
        "passed": True,
        "counts": {
            "hilbert_supports": 255,
            "hilbert_failures": 0,
            "summands": 99,
            "supports": 163,
            "row_failures": 0,
            "triangle_violations": 0,
            "family_size_mismatches": 0,
            "rank_checked": 163,
            "rank_failures": 0,
            "min_Z": 7,
        },
        "failures": [],
        "lines": [
            "stanley decomposition of M(8,4): 99 summands",
            "hilbert identity (squarefree): 255 degrees checked, 0 failures",
            "families: 163 supports, sizes ok, two-form agreement held",
            "triangle condition (squashed order): 0 violations",
            "exact rank: 163 sign matrices, 0 rank deficient",
            "depth: |Z| sizes [7, 8], minimum 7 = n-1 attained by 64 summands",
            "conclusion: sdepth M(8,4) >= 7 verified by this decomposition; "
            "equality with 7 = n-1 follows from the known Hilbert depth upper bound "
            "(Bruns, Krattenthaler & Uliczka 2010), which is cited here, not verified.",
        ],
    }],
}


# The largest tasks of the rank sweep, pinned the same way: the text of
# `verify 11 6 --rank always` and the JSON of `verify 10 5 --rank always
# --format json`.
VERIFY_11_6 = (
    "stanley decomposition of M(11,6): 638 summands\n"
    "hilbert identity (squarefree): 2047 degrees checked, 0 failures\n"
    "families: 1024 supports, sizes ok, two-form agreement held\n"
    "triangle condition (squashed order): 0 violations\n"
    "exact rank: 1024 sign matrices, 0 rank deficient\n"
    "depth: |Z| sizes [10, 11], minimum 10 = n-1 attained by 386 summands\n"
    "conclusion: sdepth M(11,6) >= 10 verified by this decomposition; "
    "equality with 10 = n-1 follows from the known Hilbert depth upper bound "
    "(Bruns, Krattenthaler & Uliczka 2010), which is cited here, not verified.\n"
    "PASS stanley decomposition n=11 k=6\n"
)

VERIFY_10_5_JSON = {
    "passed": True,
    "reports": [{
        "name": "stanley decomposition n=10 k=5",
        "passed": True,
        "counts": {
            "hilbert_supports": 1023,
            "hilbert_failures": 0,
            "summands": 382,
            "supports": 638,
            "row_failures": 0,
            "triangle_violations": 0,
            "family_size_mismatches": 0,
            "rank_checked": 638,
            "rank_failures": 0,
            "min_Z": 9,
        },
        "failures": [],
        "lines": [
            "stanley decomposition of M(10,5): 382 summands",
            "hilbert identity (squarefree): 1023 degrees checked, 0 failures",
            "families: 638 supports, sizes ok, two-form agreement held",
            "triangle condition (squashed order): 0 violations",
            "exact rank: 638 sign matrices, 0 rank deficient",
            "depth: |Z| sizes [9, 10], minimum 9 = n-1 attained by 256 summands",
            "conclusion: sdepth M(10,5) >= 9 verified by this decomposition; "
            "equality with 9 = n-1 follows from the known Hilbert depth upper bound "
            "(Bruns, Krattenthaler & Uliczka 2010), which is cited here, not verified.",
        ],
    }],
}


# Complete check output, pinned byte for byte: the text of `check-lemma 7`
# (exit 1: the unrestricted increment claim fails) and the JSON of
# `check-matching 8 --format json`.
CHECK_LEMMA_7 = (
    "index increment: 519 admissible triples "
    "(399 with non-negative restricted peak, 120 below), 40 failures\n"
    "counterexample: M={1,3,5,7} G={3,5,7} H={1,5,7}: case 2, index 0 != expected 1 (index of G: 1)\n"
    "counterexample: M={1,2,3,5,7} G={3,5,7} H={1,5,7}: case 2, index 2 != expected 1 (index of G: 1)\n"
    "counterexample: M={1,4,5,7} G={4,5,7} H={1,4,7}: case 2, index 0 != expected 1 (index of G: 1)\n"
    "counterexample: M={1,2,4,5,7} G={4,5,7} H={1,4,7}: case 2, index 2 != expected 1 (index of G: 1)\n"
    "counterexample: M={1,3,4,5,7} G={3,5,7} H={1,5,7}: case 2, index 0 != expected 1 (index of G: 1)\n"
    "counterexample: M={1,3,4,5,7} G={4,5,7} H={1,4,7}: case 2, index 0 != expected 1 (index of G: 1)\n"
    "counterexample: M={1,2,3,4,5,7} G={3,5,7} H={1,5,7}: case 2, index 2 != expected 1 (index of G: 1)\n"
    "counterexample: M={1,2,3,4,5,7} G={4,5,7} H={1,4,7}: case 2, index 2 != expected 1 (index of G: 1)\n"
    "counterexample: M={1,3,6,7} G={3,6,7} H={1,6,7}: case 2, index 0 != expected 1 (index of G: 1)\n"
    "counterexample: M={1,2,3,6,7} G={3,6,7} H={1,6,7}: case 2, index 2 != expected 1 (index of G: 1)\n"
    "counterexample: M={1,4,6,7} G={4,6,7} H={1,4,6}: case 2, index 0 != expected 1 (index of G: 1)\n"
    "counterexample: M={1,2,4,6,7} G={4,6,7} H={1,4,6}: case 2, index 2 != expected 1 (index of G: 1)\n"
    "counterexample: M={1,3,4,6,7} G={3,6,7} H={1,6,7}: case 2, index 0 != expected 1 (index of G: 1)\n"
    "counterexample: M={1,3,4,6,7} G={4,6,7} H={1,4,6}: case 2, index 0 != expected 1 (index of G: 1)\n"
    "counterexample: M={1,2,3,4,6,7} G={3,6,7} H={1,6,7}: case 2, index 2 != expected 1 (index of G: 1)\n"
    "counterexample: M={1,2,3,4,6,7} G={4,6,7} H={1,4,6}: case 2, index 2 != expected 1 (index of G: 1)\n"
    "counterexample: M={1,5,6,7} G={5,6,7} H={1,5,6}: case 2, index 0 != expected 1 (index of G: 1)\n"
    "counterexample: M={1,2,5,6,7} G={5,6,7} H={1,5,6}: case 2, index 2 != expected 1 (index of G: 1)\n"
    "counterexample: M={1,3,5,6,7} G={3,5,7} H={1,5,7}: case 2, index 0 != expected 1 (index of G: 1)\n"
    "counterexample: M={1,3,5,6,7} G={3,6,7} H={1,6,7}: case 2, index 0 != expected 1 (index of G: 1)\n"
    "... and 20 more counterexamples\n"
    "FAIL index increment n=7\n"
)

CHECK_MATCHING_8_JSON = {
    "passed": True,
    "reports": [
        {
            "name": "inverse law n=8",
            "passed": True,
            "counts": {"subsets": 256, "psi_defined": 186, "failures": 0},
            "failures": [],
        },
        {
            "name": "index equivalence n=8",
            "passed": True,
            "counts": {"pairs": 6561, "failures": 0},
            "failures": [],
        },
        {
            "name": "greedy agreement n=8",
            "passed": True,
            "counts": {"upper_level_sets": 93, "upper_mismatches": 0, "low_level_mismatches": 0},
            "failures": [],
        },
    ],
}


# Complete chain output, pinned byte for byte: the text of `family 9 4
# {1,2,5,7,9} --matrix` here, and under golden/ the text of `decompose 7 3`
# and the JSON of `decompose 8 4 --format json` (the goldens of the law
# sweeps and of two `verify` runs are there too, below).
FAMILY_9_4_MATRIX = (
    "family for M = {1,2,5,7,9}, n = 9, k = 4: 4 members\n"
    "{1,2,5,7}  index 0  distinguished {1,5,7}\n"
    "{1,2,5,9}  index 0  distinguished {1,5,9}\n"
    "{1,2,7,9}  index 0  distinguished {1,7,9}\n"
    "{2,5,7,9}  index 0  distinguished {5,7,9}\n"
    "sign matrix (columns: (k-1)-subsets of M in squashed order):\n"
    "-1 +1 -1 +1  0  0  0  0  0  0\n"
    "-1  0  0  0 +1 -1 +1  0  0  0\n"
    " 0 -1  0  0 +1  0  0 -1 +1  0\n"
    " 0  0  0 -1  0  0 +1  0 -1 +1\n"
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_path_golden(capsys):
    code, out, _ = run(capsys, "path", "7", "{1,4,7}")
    assert code == 0
    assert out == (
        "G = {1,4,7}   n = 7\n"
        " /\\\n"
        "   \\/\\\n"
        "      \\/\n"
        "--------\n"
        " ν\n"
        " μ\n"
        "heights: 0 1 0 -1 0 -1 -2 -1\n"
        "alpha = 1   N = {1}   nu = 1   mu = 1\n"
        "psi(G) = {4,7}   (removes 1)\n"
        "phi(G) = {1,2,4,7}   (adds 2)\n"
    )


def test_path_edge_cases(capsys):
    code, out, _ = run(capsys, "path", "3", "{}")
    assert code == 0
    assert "psi(G) = undefined" in out and "phi(G) = {1}" in out
    code, out, _ = run(capsys, "path", "3", "123")
    assert code == 0
    assert "psi(G) = {1,2}" in out and "phi(G) = undefined" in out


def test_path_json(capsys):
    code, out, _ = run(capsys, "path", "7", "147", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["heights"] == [0, 1, 0, -1, 0, -1, -2, -1]
    assert data["psi"] == [4, 7] and data["phi"] == [1, 2, 4, 7]
    assert data["nu"] == 1 and data["mu"] == 1


def test_psi_phi_index_commands(capsys):
    assert run(capsys, "psi", "7", "{1,2,4,5,7}")[1] == "{1,2,4,7}\n"
    assert run(capsys, "phi", "7", "{1,2,4,5,7}")[1] == "undefined\n"
    assert run(capsys, "index", "7", "12457", "147")[1] == "2\n"
    code, out, _ = run(capsys, "psi", "3", "{2}", "--format", "json")
    assert json.loads(out) == {"defined": False, "value": None, "pivot": None}
    code, out, _ = run(capsys, "index", "7", "12457", "147", "--format", "json")
    assert code == 0 and json.loads(out) == {"index": 2}


def test_family_text(capsys):
    code, out, _ = run(capsys, "family", "7", "3", "12457")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family for M = {1,2,4,5,7}, n = 7, k = 3: 6 members"
    assert "{1,4,7}  index 2  distinguished {4,7}" in lines
    assert sum(1 for l in lines if "index 0" in l) == 5


def test_family_json_and_matrix(capsys):
    code, out, _ = run(capsys, "family", "7", "3", "12457", "--matrix", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["members"]) == 6
    assert {"G": [1, 4, 7], "index": 2, "distinguished": [4, 7]} in data["members"]
    assert len(data["sign_matrix"]) == 6 and len(data["sign_matrix"][0]) == 10


def test_family_support_too_small(capsys):
    code, _, err = run(capsys, "family", "7", "3", "{1,2}")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("decompose", "7", "3"), "decompose_7_3.txt"),
        (("decompose", "8", "4", "--format", "json"), "decompose_8_4.json"),
    ],
)
def test_decompose_golden(capsys, argv, golden):
    # every summand's S, Z, removed element, G and generator text, signs
    # and term order included
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "argv, code, golden",
    [
        (("check-lemma", "9", "--format", "json"), 1, "check_lemma_9.json"),
        (("check-matching", "10", "--format", "json"), 0, "check_matching_10.json"),
    ],
)
def test_law_sweep_golden(capsys, argv, code, golden):
    # the whole output of both law sweeps, every counterexample in order
    assert run(capsys, *argv) == (code, (GOLDEN / golden).read_text(), "")


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("verify", "10", "5", "--format", "json"), "verify_10_5.json"),
        (("verify", "9", "4", "--box", "2"), "verify_9_4_box_2.txt"),
    ],
)
def test_verify_whole_stdout_golden(capsys, argv, golden):
    # the whole report, rank checked by default, and with the box identity
    # merged after the depth line
    assert run(capsys, *argv) == (0, (GOLDEN / golden).read_text(), "")


def test_family_matrix_golden(capsys):
    assert run(capsys, "family", "9", "4", "{1,2,5,7,9}", "--matrix") == (0, FAMILY_9_4_MATRIX, "")


def test_decompose_json_schema(capsys):
    code, out, _ = run(capsys, "decompose", "3", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 3 and data["k"] == 1
    assert len(data["summands"]) == 4
    assert data["summands"][0] == {"S": [1], "Z": [1, 3], "removed": 2, "G": [1], "m": "+x1*e{}"}
    last = data["summands"][-1]
    assert last["removed"] is None and last["m"] == "+x1*x2*x3*e{}"
    sizes = [len(s["S"]) for s in data["summands"]]
    assert sizes == sorted(sizes)


def test_verify_pass_and_conclusion(capsys):
    code, out, _ = run(capsys, "verify", "7", "3")
    assert code == 0
    assert "PASS" in out
    assert "sdepth M(7,3) >= 6" in out
    assert "cited" in out and "not verified" in out


def test_verify_golden_text(capsys):
    code, out, _ = run(capsys, "verify", "9", "4")
    assert code == 0
    assert out == VERIFY_9_4


def test_verify_golden_json(capsys):
    code, out, _ = run(capsys, "verify", "8", "4", "--format", "json")
    assert code == 0
    assert out == json.dumps(VERIFY_8_4_JSON) + "\n"


def test_verify_golden_rank_sweep_tasks(capsys):
    code, out, _ = run(capsys, "verify", "11", "6", "--rank", "always")
    assert code == 0
    assert out == VERIFY_11_6
    code, out, _ = run(capsys, "verify", "10", "5", "--rank", "always", "--format", "json")
    assert code == 0
    assert out == json.dumps(VERIFY_10_5_JSON) + "\n"


def test_verify_text_counts_cut_counterexamples(capsys, monkeypatch):
    def failing(n, k, check_rank=None, box_depth=None):
        rep = Report(f"stanley decomposition n={n} k={k}")
        for i in range(25):
            rep.fail(f"failure {i}")
        return rep

    monkeypatch.setattr(decomposition, "verify_stanley", failing)
    code, out, _ = run(capsys, "verify", "6", "3")
    assert code == 1
    assert out == (
        "".join(f"counterexample: failure {i}\n" for i in range(20))
        + "... and 5 more counterexamples\n"
        + "FAIL stanley decomposition n=6 k=3\n"
    )


def test_verify_out_of_range(capsys):
    code, _, err = run(capsys, "verify", "4", "1")
    assert code == 2 and "floor(n/2)" in err


def test_verify_all_n(capsys):
    code, out, _ = run(capsys, "verify", "--all-n", "5", "--box", "2")
    assert code == 0
    assert out.count("PASS") == sum(1 for n in range(2, 6) for _ in range(max(n // 2, 1), n))


def test_verify_box_conclusion_comes_last(capsys, monkeypatch):
    # the conclusion follows every check, the box check included
    code, out, _ = run(capsys, "verify", "4", "2", "--box", "2")
    lines = out.splitlines()
    assert code == 0
    assert lines[-3] == "hilbert identity (box): 81 degrees checked, 0 failures"
    assert lines[-2].startswith("conclusion: sdepth M(4,2) >= 3 verified")
    assert lines[-1] == "PASS stanley decomposition n=4 k=2"


def test_verify_box_failure_draws_no_conclusion(capsys, monkeypatch):
    # an oracle wrong only off the squarefree degrees fails the box check
    # alone, and then no conclusion is drawn
    real = decomposition.dim_oracle
    monkeypatch.setattr(
        decomposition, "dim_oracle",
        lambda n, k, m: real(n, k, m) + (max(m.exponents) >= 2),
    )
    code, out, _ = run(capsys, "verify", "4", "2", "--box", "2")
    assert code == 1
    assert "hilbert identity (box): 81 degrees checked, 65 failures" in out
    assert "hilbert identity (squarefree): 15 degrees checked, 0 failures" in out
    assert "conclusion:" not in out
    assert out.endswith("FAIL stanley decomposition n=4 k=2\n")


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "5", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["reports"][0]["counts"]["min_Z"] == 4


def test_verify_jobs_flag(capsys):
    # this process and its forked children split the tasks by stride and
    # print exactly what one process prints, the box check and JSON included;
    # at --all-n 7 the 15 tasks give strides of unequal length, and --jobs 7
    # asks for more processes than --all-n 4 has tasks
    for sweep in (["--all-n", "4"], ["--all-n", "7"]):
        for extra in ([], ["--box", "1"], ["--box", "1", "--format", "json"]):
            serial = run(capsys, "verify", *sweep, "--jobs", "1", *extra)
            assert serial[0] == 0 and "sdepth M(4,2)" in serial[1]
            assert ("hilbert identity (box): " in serial[1]) == bool(extra)
            for jobs in ("2", "3", "7"):
                assert run(capsys, "verify", *sweep, "--jobs", jobs, *extra) == serial


def test_verify_forks_never_more_processes_than_tasks(capsys, monkeypatch):
    # --jobs W counts this process, so it forks min(W, tasks) - 1 children:
    # none for one task or for --jobs 1
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    expected = {}
    for argv in (["7", "3"], ["--all-n", "3"], ["--all-n", "4"]):
        expected[tuple(argv)] = run(capsys, "verify", *argv)
    assert forks == []
    # (n, k) tasks: 1 for one pair, 3 up to n = 3, 5 up to n = 4
    for argv, jobs, children in ((["7", "3"], 6, 0), (["--all-n", "3"], 6, 2),
                                 (["--all-n", "4"], 6, 4), (["--all-n", "4"], 2, 1),
                                 (["--all-n", "4"], 1, 0)):
        assert run(capsys, "verify", *argv, "--jobs", str(jobs)) == expected[tuple(argv)]
        assert len(forks) == children
        forks.clear()


def _fault_at(monkeypatch, task, fault):
    """Make ``verify_stanley`` call ``fault()`` on the (n, k) ``task``."""
    verify = decomposition.verify_stanley

    def faulty(n, k, *rest):
        if (n, k) == task:
            fault()
        return verify(n, k, *rest)

    monkeypatch.setattr(decomposition, "verify_stanley", faulty)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs", ["2", "3"])
@pytest.mark.parametrize("task", [(3, 1), (3, 2), (4, 3)])
def test_verify_task_error_as_in_one_process(capsys, monkeypatch, task, jobs):
    # the tasks of --all-n 4 are (2,1) (3,1) (3,2) (4,2) (4,3): at --jobs 2
    # the child runs (3,1) and (4,2), at --jobs 3 child 1 runs (3,1) and (4,3)
    # and child 2 runs (3,2); an error raised in any share is reported as
    # the serial run reports it, and every child is reaped
    def fault():
        raise ValueError(f"no verdict for {task}")

    _fault_at(monkeypatch, task, fault)
    serial = run(capsys, "verify", "--all-n", "4", "--jobs", "1")
    assert serial == (2, "", f"error: no verdict for {task}\n")
    assert run(capsys, "verify", "--all-n", "4", "--jobs", jobs) == serial
    _assert_no_child_left()


@pytest.mark.parametrize("how", ["exit 0", "exit 3", "killed", "exit 5 after sending"])
def test_verify_lost_child_share_raises(capsys, monkeypatch, how):
    # a child that leaves without sending its reports, or exits non-zero
    # after sending them, makes the run raise, never print a verdict; the
    # faults fire only outside this process
    parent = os.getpid()

    def fault():
        assert os.getpid() != parent, "the task (3,1) ran in the main process"
        if how == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(3 if how == "exit 3" else 0)

    if how == "exit 5 after sending":
        leave = os._exit
        monkeypatch.setattr(os, "_exit", lambda code: leave(code or 5))
    else:
        _fault_at(monkeypatch, (3, 1), fault)
    with pytest.raises(RuntimeError, match="verify worker 1 exited"):
        main(["verify", "--all-n", "4", "--jobs", "2"])
    assert "PASS" not in capsys.readouterr().out
    _assert_no_child_left()


@pytest.mark.parametrize("jobs", ["2", "3"])
def test_verify_main_share_error_unblocks_a_writing_child(capsys, monkeypatch, jobs):
    # each child's reports overfill its pipe while this process's own share
    # raises: no child may stay blocked on its write, and each is reaped
    verify = decomposition.verify_stanley

    def faulty(n, k, *rest):
        if (n, k) == (2, 1):
            raise ValueError("no verdict for (2, 1)")
        report = verify(n, k, *rest)
        report.lines.append("x" * (1 << 20))
        return report

    monkeypatch.setattr(decomposition, "verify_stanley", faulty)

    def timeout(*_):
        raise TimeoutError("verify did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        assert run(capsys, "verify", "--all-n", "4", "--jobs", jobs) == (
            2, "", "error: no verdict for (2, 1)\n")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    _assert_no_child_left()


def test_check_commands(capsys):
    code, out, _ = run(capsys, "check-matching", "8", "inverse")
    assert code == 0 and out.endswith("PASS inverse law n=8\n")
    code, out, _ = run(capsys, "check-matching", "6", "index-eq")
    assert code == 0 and out.count("PASS") == 1
    code, out, _ = run(capsys, "check-matching", "6")
    assert code == 0 and out.count("PASS") == 3


def test_check_golden_text(capsys):
    code, out, _ = run(capsys, "check-lemma", "7")
    assert code == 1
    assert out == CHECK_LEMMA_7


def test_check_golden_json(capsys):
    code, out, _ = run(capsys, "check-matching", "8", "--format", "json")
    assert code == 0
    assert out == json.dumps(CHECK_MATCHING_8_JSON) + "\n"


def test_check_lemma_finds_counterexamples(capsys):
    # the unrestricted increment claim is false; the checker must say so
    code, out, _ = run(capsys, "check-lemma", "3")
    assert code == 1
    assert "FAIL" in out
    assert "M={1,3} G={3} H={1}" in out
    code, out, _ = run(capsys, "check-lemma", "4")
    assert code == 0  # even ground sets have no below-axis cases


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["family"])
    assert exc.value.code == 2
    # the single-suite `check` subcommand is gone; check-matching and
    # check-lemma cover every suite
    with pytest.raises(SystemExit) as exc:
        main(["check", "8", "inverse"])
    assert exc.value.code == 2
    code, _, err = run(capsys, "path", "7", "{8}")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "path", "99", "{1}")
    assert code == 2
    code, out, err = run(capsys, "check-matching", "5", "bogus")
    assert code == 2 and out == "" and err.startswith("error:")
    # a repeated suite would print its report twice
    code, out, err = run(capsys, "check-matching", "4", "inverse", "inverse")
    assert code == 2 and out == "" and err.startswith("error:")
    # runs that would check nothing are refused, not passed
    for argv in (
        ("verify", "6", "3", "--box", "-1"),
        ("verify", "--all-n", "1"),
        ("verify", "6", "3", "--jobs", "0"),
        ("verify", "--all-n", "4", "--jobs", "-2"),
        # n and k would be ignored by the sweep
        ("verify", "7", "3", "--all-n", "3"),
        ("check-lemma", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")


def test_verify_usage_errors_run_no_task(capsys, monkeypatch):
    # a verify run without its (n, k), or with a sweep it cannot run, leaves
    # by main's one exit-2 path before any task runs
    calls = []
    monkeypatch.setattr(decomposition, "verify_stanley", lambda *task: calls.append(task))
    for argv in (
        ("verify",),
        ("verify", "7"),
        ("verify", "--all-n", "1"),
        ("verify", "--all-n", "21", "--jobs", "2"),
        ("verify", "7", "3", "--all-n", "3"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: ")
    assert run(capsys, "verify", "--rank", "never") == (
        2, "", "error: provide n and k, or --all-n N\n")
    assert calls == []


def test_determinism(capsys):
    a = run(capsys, "family", "9", "4", "{1,2,5,7,9}", "--matrix")
    b = run(capsys, "family", "9", "4", "{1,2,5,7,9}", "--matrix")
    assert a == b
    a = run(capsys, "decompose", "6", "3", "--format", "json")
    b = run(capsys, "decompose", "6", "3", "--format", "json")
    assert a == b


def test_benchmark_tracer_installs():
    # the benchmark tracer wraps package names by attribute; a renamed or
    # deleted name breaks it, so install it against the current package
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    script = (
        "import importlib.util, sys\n"
        "sys.path.insert(0, 'perfbench')\n"
        "spec = importlib.util.spec_from_file_location('tracer', 'perfbench/trace.py')\n"
        "mod = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(mod)\n"
        "mod.install(mod.Tracer())\n"
        "print('installed')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=REPO
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "installed\n"


@pytest.mark.parametrize("workload", ["sweep", "deep", "laws"])
def test_benchmark_tracer_smoke_run(workload):
    # the traced run and replay at smoke sizes: every wrapped name is called
    # through, and the gated output and replay find no problem
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/trace.py", "--workload", workload, "--smoke"],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["problems"] == []


def test_cli_import_skips_dataclasses_and_the_pool():
    # every koszuldepth process pays for its imports, and the command line
    # needs neither dataclasses nor concurrent.futures nor json to start;
    # only JSON output imports json, and a sweep over --jobs 2 forks its
    # helper without concurrent.futures or multiprocessing.  Only modules
    # new after the interpreter's own start-up count, so a site hook that
    # loads one of them does not trip the test.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    for run_verify in ("", "koszuldepth.cli.main(['verify', '--all-n', '4', '--jobs', '2'])\n"):
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import koszuldepth.cli\n"
            + run_verify +
            "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=REPO
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "koszuldepth.cli" in loaded
        assert ("PASS" in loaded) == bool(run_verify)
        assert {"dataclasses", "concurrent.futures", "multiprocessing", "json"} & loaded == set()


def test_package_import_loads_only_the_named_module():
    # the package binds nothing but its version, so importing one module
    # compiles no other
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    script = (
        "import sys\n"
        "import koszuldepth.subsets\n"
        "print('\\n'.join(m for m in sys.modules if m.startswith('koszuldepth.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=REPO
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["koszuldepth.subsets"]


# The modules behind verify, family and decompose alone.
_VERIFY_MODULES = {"koszuldepth.decomposition", "koszuldepth.maskchecks", "koszuldepth.koszul"}


_LOADS = [
    (("check-matching", "6"), 0, False),
    (("check-lemma", "5"), 1, False),
    (("path", "7", "147"), 0, False),
    (("psi", "7", "147"), 0, False),
    (("phi", "7", "147"), 0, False),
    (("index", "7", "12457", "147"), 0, False),
    (("verify", "4", "2"), 0, True),
    (("family", "7", "3", "12457"), 0, True),
    (("decompose", "4", "2"), 0, True),
]


@pytest.mark.parametrize("argv, code, verifies", _LOADS, ids=[argv[0] for argv, *_ in _LOADS])
def test_each_command_loads_the_verify_modules_only_if_it_runs_them(argv, code, verifies):
    # a fresh interpreter per command: the law sweeps and the single-subset
    # queries compile none of decomposition, maskchecks and koszul
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    script = (
        "import contextlib, io, sys\n"
        "from koszuldepth.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, *(m for m in sys.modules if m.startswith('koszuldepth.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, cwd=REPO
    )
    assert proc.returncode == 0, proc.stderr
    got, *loaded = proc.stdout.split()
    assert int(got) == code
    assert "koszuldepth.cli" in loaded
    assert _VERIFY_MODULES & set(loaded) == (_VERIFY_MODULES if verifies else set())


def test_module_entrypoint():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "koszuldepth", "index", "7", "12457", "147"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"


# Spawns its arguments and prints the exit code and the child's peak RSS in
# KB.  A child's peak record starts at its spawner's own, so spawning from
# this small interpreter, not from pytest, keeps pytest's peak out of it.
_PEAK_LAUNCHER = (
    "import os, sys\n"
    "pid = os.posix_spawnp(sys.argv[1], sys.argv[1:], os.environ)\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def test_verify_18_9_peak_memory():
    # the chain table in flat arrays and the rows streamed from it: a
    # regression to a dict of tuples or a materialised script (35.7 MB)
    # fails here; and check-matching 18 on its psi/phi tables in int arrays
    # and greedy's used set in a bytearray (43.5 MB as tuples and a set)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    for argv, verdict, bound_mb in (
        (["verify", "18", "9", "--rank", "never"], "PASS stanley decomposition n=18 k=9", 28),
        (["check-matching", "18"], "PASS greedy agreement n=18", 32),
    ):
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_LAUNCHER, sys.executable, "-m", "koszuldepth", *argv],
            capture_output=True, text=True, env=env, cwd=REPO, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[-2] == verdict
        code, peak_kb = map(int, lines[-1].split())
        assert code == 0
        assert peak_kb < bound_mb * 1024, f"{' '.join(argv)} peaked at {peak_kb / 1024:.1f} MB"
