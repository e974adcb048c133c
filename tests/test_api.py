"""The package's public surface."""

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
    build_certificate_ineq,
    build_certificate_rank,
    euler_step,
    gamma_coefficients,
    gen_logistic_ineq,
    kkt_residual,
    lyapunov_value,
    rk4_step,
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
_CERT = build_certificate_ineq(_PROBLEM, _PARAMS)
_OK = np.zeros(7)
POINT_ENTRIES = {
    "solve_equilibrium z0": ("z0", lambda bad: solve_equilibrium(_PROBLEM, _PARAMS, z0=bad)),
    "kkt_residual z": ("z", lambda bad: kkt_residual(_PROBLEM, bad)),
    "lyapunov_value z": ("z", lambda bad: lyapunov_value(_CERT, bad, _OK)),
    "lyapunov_value z_star": ("z_star", lambda bad: lyapunov_value(_CERT, _OK, bad)),
    "gamma_coefficients z": ("z", lambda bad: gamma_coefficients(_PROBLEM, _PARAMS, bad, _OK)),
    "gamma_coefficients z_star": (
        "z_star", lambda bad: gamma_coefficients(_PROBLEM, _PARAMS, _OK, bad)),
    "xi_bound z0": ("z0", lambda bad: xi_bound(_PROBLEM, _PARAMS, bad, _OK)),
    "xi_bound z_star": ("z_star", lambda bad: xi_bound(_PROBLEM, _PARAMS, _OK, bad)),
    "build_certificate_rank z0": (
        "z0", lambda bad: build_certificate_rank(_PROBLEM, _PARAMS, bad, _OK)),
    "build_certificate_rank z_star": (
        "z_star", lambda bad: build_certificate_rank(_PROBLEM, _PARAMS, _OK, bad)),
    "euler_step z": ("z", lambda bad: euler_step(_FIELD, bad, 0.01)),
    "rk4_step z": ("z", lambda bad: rk4_step(_FIELD, bad, 0.01)),
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


def test_only_the_steps_take_a_stack_of_points():
    # euler_step and rk4_step map a (K, d) stack of the augmented field;
    # every other entry wants one point and refuses a stack
    for entry, (name, call) in POINT_ENTRIES.items():
        if entry in ("euler_step z", "rk4_step z"):
            assert call(np.zeros((2, 7))).shape == (2, 7)
        else:
            with pytest.raises(DimensionMismatchError, match=rf"got shape \(2, 7\)"):
                call(np.zeros((2, 7)))
