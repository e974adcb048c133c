"""The package's public surface."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import saddleflow
from saddleflow import (
    DimensionMismatchError,
    DynamicsParams,
    TwoSidedConstraints,
    build_certificate_eq,
    build_certificate_rank,
    eta_sweep,
    gen_equality_qp,
    gen_logistic_ineq,
    kkt_residual,
    lti_matrix,
    simulate,
    solve_equilibrium,
    vector_field,
    xi_bound,
)


def test_all_lists_every_public_name():
    public = {
        name for name, value in vars(saddleflow).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(saddleflow.__all__) == public
    assert len(saddleflow.__all__) == len(public)


GUARD = """
import sys
import saddleflow
assert "scipy.special" not in sys.modules, "import saddleflow loaded scipy.special"
from saddleflow.cli import run_cli
for problem in (["eq-qp"], ["logistic", "--n-data", "10"]):
    assert run_cli(["certify", "--problem", *problem, "--n", "3", "--m", "2"]) in (0, 1)
assert "scipy.stats" not in sys.modules, "certify loaded scipy.stats"
"""


def test_import_and_certify_leave_scipy_modules_unloaded():
    src = str(Path(saddleflow.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", GUARD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# Every public entry that takes a point, as (argument name, call(bad)):
# call passes bad as that argument and a fitting point everywhere else.
_PROBLEM = gen_logistic_ineq(3, n=4, m=3, n_data=20)
_PARAMS = DynamicsParams()
_FIELD = vector_field(_PROBLEM, _PARAMS)
_OK = np.zeros(7)
POINT_ENTRIES = {
    "solve_equilibrium z0": ("z0", lambda bad: solve_equilibrium(_PROBLEM, _PARAMS, z0=bad)),
    "kkt_residual z": ("z", lambda bad: kkt_residual(_PROBLEM, bad)),
    "xi_bound z0": ("z0", lambda bad: xi_bound(_PROBLEM, _PARAMS, bad, _OK)),
    "xi_bound z_star": ("z_star", lambda bad: xi_bound(_PROBLEM, _PARAMS, _OK, bad)),
    "build_certificate_rank z0": (
        "z0", lambda bad: build_certificate_rank(_PROBLEM, _PARAMS, bad, _OK)),
    "build_certificate_rank z_star": (
        "z_star", lambda bad: build_certificate_rank(_PROBLEM, _PARAMS, _OK, bad)),
    "simulate z0": ("z0", lambda bad: simulate(_FIELD, bad, 0.01, 0.01)),
    "simulate eq": ("eq", lambda bad: simulate(_FIELD, _OK, 0.01, 0.01, eq=bad)),
}


@pytest.mark.parametrize("length", [6, 8])
@pytest.mark.parametrize("entry", list(POINT_ENTRIES))
def test_every_point_entry_refuses_a_point_of_another_length(entry, length):
    # a point is the stacked z = (x, lam) of length n + m = 7 on logistic
    # 4x3; one entry short or long is refused, naming the argument
    name, call = POINT_ENTRIES[entry]
    with pytest.raises(DimensionMismatchError, match=f"^{name} must have length 7, "):
        call(np.zeros(length))


def test_no_point_entry_takes_a_stack():
    # every entry wants one point and refuses a (K, d) stack of them
    for name, call in POINT_ENTRIES.values():
        with pytest.raises(DimensionMismatchError, match=rf"got shape \(2, 7\)"):
            call(np.zeros((2, 7)))


# Public names retired with their one-step or proof-lemma role, as
# (module, name): none is exported or left on its old module.
RETIRED = [
    ("integrator", "euler_step"),
    ("errors", "NonFiniteFieldError"),
    ("certificates", "lyapunov_value"),
    ("dynamics", "gamma_coefficients"),
    ("certificates", "gamma_block_margin"),
    ("certificates", "rank_block_margin"),
]


@pytest.mark.parametrize("module, name", RETIRED, ids=[name for _, name in RETIRED])
def test_retired_names_stay_retired(module, name):
    assert name not in saddleflow.__all__
    assert not hasattr(saddleflow, name)
    assert not hasattr(importlib.import_module(f"saddleflow.{module}"), name)


# Results that hold arrays, each built twice from one seed and once from
# another: (name, build(seed)).
ARRAY_RESULTS = [
    ("Equilibrium", lambda seed: solve_equilibrium(gen_equality_qp(seed))),
    ("LyapunovCertificate",
     lambda seed: build_certificate_eq(gen_equality_qp(seed), DynamicsParams())),
    ("LtiSystem", lambda seed: lti_matrix(gen_equality_qp(seed))),
    ("EqualityConstraints", lambda seed: gen_equality_qp(seed).constraints),
    ("InequalityConstraints",
     lambda seed: gen_logistic_ineq(seed, n=4, m=3, n_data=20).constraints),
    ("TwoSidedConstraints", lambda seed: _two_sided(gen_equality_qp(seed).constraints)),
    ("EtaSweepResult", lambda seed: eta_sweep(gen_equality_qp(seed), [0.5, 2.0])),
]


def _two_sided(rows):
    return TwoSidedConstraints(A=rows.A, b_lo=rows.b - 1.0, b_hi=rows.b + 1.0)


@pytest.mark.parametrize("build", [b for _, b in ARRAY_RESULTS],
                         ids=[name for name, _ in ARRAY_RESULTS])
def test_results_holding_arrays_compare_by_value(build):
    first, again, other = build(42), build(42), build(1)
    assert first is not again and first == again and not first != again
    assert first != other and not first == other
    assert first != "a string"
    with pytest.raises(TypeError, match="unhashable"):
        hash(first)


def test_a_problem_equals_itself_only():
    # an objective oracle has no value equality, so a problem compares by
    # identity: the same seed twice gives two unequal problems
    first, again = gen_equality_qp(42), gen_equality_qp(42)
    assert first == first and not first != first
    assert first != again and not first == again
    assert first.constraints == again.constraints
