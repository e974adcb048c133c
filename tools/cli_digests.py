"""Digests of a fixed list of saddleflow CLI calls, to compare two checkouts.

Usage:

    PYTHONPATH=path/to/checkout/src python tools/cli_digests.py > digests.txt

Each call runs in-process (saddleflow.cli.run_cli) in a fresh temporary
directory, with relative --out paths, so that the printed paths are the
same on every run. Per call it prints the argv, the exit code, and the
sha256 of stdout, of stderr and of every file the call wrote. Running it
with each checkout's src/ on PYTHONPATH and diffing the two outputs shows
every call whose output changed by a single byte.

The calls: simulate and spectrum on the 16 eq-qp problems of the
benchmark's pool, kkt-check and certify on its 16 logistic 10x8 problems,
sweep-eta on 5 of them, the four subcommands on one problem file that
takes the generic Euler path (a logistic objective under equality
constraints), three calls that stop early (a diverging simulate, a
sweep-eta horizon shorter than one step, a kkt-check below the rounding
floor) plus a kkt-check whose Newton solve stalls from the origin, and,
so that save_problem and load_problem meet every constraint kind and
both objectives, gen on both generators and kkt-check and certify on an
inequality and a two-sided problem file, and, so that the augmented Euler
kernel runs at rho other than 1 and through the two-sided soft
threshold, simulate and sweep-eta on logistic 10x8 at --rho 0.5 and on
the two-sided file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

# The benchmark's problem pools (perfbench/workloads.py), copied here so
# that the list does not depend on the checkout under test.
EQ_QP_SEEDS = (1, 19, 23, 29, 31, 32, 38, 42, 53, 58, 67, 84, 107, 111, 113, 116)
LOGISTIC_SEEDS = (3, 11, 34, 36, 38, 40, 58, 59, 66, 102, 117, 124, 138, 139, 145, 151)
LOGISTIC = ("--problem", "logistic", "--n", "10", "--m", "8")
# The problem file of the generic Euler path, written by write_problem_files.
PROBLEM_FILE = "problem.txt"


def calls() -> list:
    """The argv of every call, in order; "OUT" stands for the call's own
    output directory."""
    out = []
    for seed in EQ_QP_SEEDS:
        eq_qp = ("--problem", "eq-qp", "--seed", str(seed))
        out.append(("simulate", *eq_qp, "--horizon", "5"))
        out.append(("spectrum", *eq_qp, "--eta-grid", "0.01:100:200:log"))
    for seed in LOGISTIC_SEEDS:
        out.append(("kkt-check", *LOGISTIC, "--seed", str(seed)))
        out.append(("certify", *LOGISTIC, "--seed", str(seed)))
    for seed in LOGISTIC_SEEDS[:5]:
        out.append(("sweep-eta", *LOGISTIC, "--seed", str(seed),
                    "--eta-grid", "0.25:4:8:log", "--horizon", "50"))
    generic = ("--problem", PROBLEM_FILE)
    out += [("simulate", *generic, "--horizon", "2"),
            ("sweep-eta", *generic, "--eta-grid", "0.5:2:3", "--horizon", "2"),
            ("kkt-check", *generic),
            ("certify", *generic),
            ("simulate", "--problem", "eq-qp", "--seed", "1", "--delta", "1"),
            ("sweep-eta", "--problem", "logistic", "--seed", "1", "--eta-grid", "1:2:2",
             "--horizon", "1e-9"),
            ("kkt-check", "--problem", "logistic", "--n", "10", "--m", "8", "--seed", "3",
             "--tol", "1e-17"),
            ("kkt-check", "--problem", "logistic", "--n", "4", "--m", "3", "--seed", "8",
             "--tol", "1e-12"),
            ("gen", "--problem", "eq-qp", "--seed", "42"),
            ("gen", *LOGISTIC, "--seed", "3")]
    for name in ("inequality.txt", "two-sided.txt"):
        out += [("kkt-check", "--problem", name), ("certify", "--problem", name)]
    for problem in ((*LOGISTIC, "--seed", "3", "--rho", "0.5"), ("--problem", "two-sided.txt")):
        out += [("simulate", *problem),
                ("sweep-eta", *problem, "--eta-grid", "0.25:4:8:log", "--horizon", "50")]
    return [(*argv, "--out", "OUT") for argv in out]


def write_problem_files():
    """Write, in the current directory, PROBLEM_FILE, the generic-path
    problem: logistic 5x2 seed 4's objective and constraint rows, as
    equalities; inequality.txt, logistic 6x3 seed 5; and two-sided.txt,
    eq-qp seed 7's objective under the band b - 0.5 <= A x <= b + 0.5."""
    from saddleflow import (ConstrainedProblem, EqualityConstraints, TwoSidedConstraints,
                            gen_equality_qp, gen_logistic_ineq, save_problem)

    p = gen_logistic_ineq(4, n=5, m=2, n_data=20)
    save_problem(Path(PROBLEM_FILE), ConstrainedProblem(
        p.objective, EqualityConstraints(p.constraints.A, p.constraints.b)))
    save_problem(Path("inequality.txt"), gen_logistic_ineq(5, n=6, m=3, n_data=20))
    p = gen_equality_qp(7)
    A, b = p.constraints.A, p.constraints.b
    save_problem(Path("two-sided.txt"),
                 ConstrainedProblem(p.objective, TwoSidedConstraints(A, b - 0.5, b + 0.5)))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(argv, out_dir: str) -> tuple:
    """(exit code, [(name, sha256)]) of one run_cli call in the current
    directory, with "OUT" in argv replaced by out_dir: stdout, stderr,
    then each file under out_dir by its relative path."""
    from saddleflow.cli import run_cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_cli([out_dir if arg == "OUT" else arg for arg in argv])
    shas = [("stdout", _sha(stdout.getvalue().encode())),
            ("stderr", _sha(stderr.getvalue().encode()))]
    root = Path(out_dir)
    if root.is_dir():
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            shas.append((path.relative_to(root).as_posix(), _sha(path.read_bytes())))
    return code, shas


def run(argvs, stream=sys.stdout):
    """Digest each argv in a fresh temporary directory and print the
    digests to stream."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            write_problem_files()
            for i, argv in enumerate(argvs):
                code, shas = digest(argv, f"out{i:03d}")
                print(" ".join(argv), file=stream)
                print(f"  exit {code}", file=stream)
                for name, sha in shas:
                    print(f"  {sha}  {name}", file=stream)
        finally:
            os.chdir(home)


if __name__ == "__main__":
    run(calls())
