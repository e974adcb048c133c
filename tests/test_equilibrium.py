"""Tests for KKT residuals and equilibrium solving."""

import time

import numpy as np
import pytest

from saddleflow import equilibrium
from saddleflow import (
    ConstrainedProblem,
    DynamicsParams,
    EqualityConstraints,
    InequalityConstraints,
    LogisticObjective,
    MaxIterationsError,
    ObjectiveOracle,
    QuadraticObjective,
    TwoSidedConstraints,
    gen_equality_qp,
    gen_logistic_ineq,
    kkt_residual,
    solve_equilibrium,
    vector_field,
)
from saddleflow.equilibrium import _integrate_to_equilibrium

UNIT = DynamicsParams(eta=1.0, rho=1.0)

# Oracle fixture: the KKT system of min 1/2 ||x||^2 s.t. x1 + x2 = 1 is the
# 3x3 linear solve [[1,0,1],[0,1,1],[1,1,0]] @ (x1,x2,lam) = (0,0,1), whose
# solution is x = (1/2, 1/2), lam = -1/2.
EQ_QP_SOLUTION = (0.5, 0.5, -0.5)


def eq_qp():
    return ConstrainedProblem(
        QuadraticObjective(np.eye(2)),
        EqualityConstraints(A=np.array([[1.0, 1.0]]), b=np.array([1.0])),
    )


def ineq_qp(b):
    return ConstrainedProblem(
        QuadraticObjective(np.eye(2)),
        InequalityConstraints(A=np.array([[1.0, 0.0]]), b=np.array([float(b)])),
    )


def test_kkt_oracle_linear_solve():
    K = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    sol = np.linalg.solve(K, np.array([0.0, 0.0, 1.0]))
    assert np.allclose(sol, EQ_QP_SOLUTION)


def test_kkt_residual_at_solution():
    res = kkt_residual(eq_qp(), np.array([0.5, 0.5, -0.5]))
    assert res.stationarity == pytest.approx(0.0, abs=1e-15)
    assert res.primal == pytest.approx(0.0, abs=1e-15)
    assert res.dual == 0.0
    assert res.complementarity == 0.0
    assert res.total == pytest.approx(0.0, abs=1e-15)


def test_kkt_residual_at_origin():
    res = kkt_residual(eq_qp(), np.zeros(3))
    assert res.stationarity == pytest.approx(0.0, abs=1e-15)
    assert res.primal == pytest.approx(1.0)
    assert res.total == pytest.approx(1.0)


def test_kkt_residual_strictly_feasible_inequality():
    res = kkt_residual(ineq_qp(1.0), np.array([0.5, 0.0, 0.0]))
    assert res.stationarity == pytest.approx(0.5)  # ||grad f|| = ||x||
    assert res.primal == 0.0
    assert res.dual == 0.0
    assert res.complementarity == pytest.approx(0.0, abs=1e-15)


def test_kkt_residual_flags_negative_multiplier():
    res = kkt_residual(ineq_qp(1.0), np.array([0.0, 0.0, -0.3]))
    assert res.dual == pytest.approx(0.3)


def test_kkt_total_is_max_of_components():
    res = kkt_residual(ineq_qp(1.0), np.array([2.0, 0.0, -0.3]))
    assert res.total == max(res.stationarity, res.primal, res.dual,
                            res.complementarity)


def test_solve_equality_qp():
    eq = solve_equilibrium(eq_qp(), UNIT)
    assert np.allclose(eq.x_star, EQ_QP_SOLUTION[:2], atol=1e-9)
    assert eq.lambda_star[0] == pytest.approx(EQ_QP_SOLUTION[2], abs=1e-9)
    assert eq.residual.total <= 1e-9
    assert eq.active_set == (0,)  # equalities are always active
    # z* is one read-only stacked vector; x* and lambda* are its parts
    assert np.array_equal(eq.z, np.concatenate([eq.x_star, eq.lambda_star]))
    for part in (eq.z, eq.x_star, eq.lambda_star):
        assert not part.flags.writeable


def test_solve_active_inequality():
    # stationarity x + lam a = 0 with a^T x = -1 gives x = (-1, 0), lam = 1
    eq = solve_equilibrium(ineq_qp(-1.0), UNIT)
    assert np.allclose(eq.x_star, [-1.0, 0.0], atol=1e-8)
    assert eq.lambda_star[0] == pytest.approx(1.0, abs=1e-8)
    assert eq.active_set == (0,)


def test_solve_inactive_inequality():
    eq = solve_equilibrium(ineq_qp(1.0), UNIT)
    assert np.allclose(eq.x_star, [0.0, 0.0], atol=1e-8)
    assert eq.lambda_star[0] == pytest.approx(0.0, abs=1e-8)
    assert eq.active_set == ()


def test_equilibria_agree_across_starts():
    rng = np.random.default_rng(7)
    p = ConstrainedProblem(
        QuadraticObjective(np.eye(3) * 2.0, q=rng.standard_normal(3)),
        InequalityConstraints(A=rng.standard_normal((2, 3)),
                              b=rng.standard_normal(2)),
    )
    tol = 1e-9
    sols = []
    for _ in range(5):
        z0 = rng.standard_normal(5) * 2.0
        z0[3:] = np.abs(z0[3:])
        e = solve_equilibrium(p, UNIT, tol=tol, z0=z0)
        assert e.residual.total <= tol
        sols.append(e.z)
    sols = np.array(sols)
    assert np.max(np.linalg.norm(sols - sols[0], axis=1)) <= 10 * tol


def test_field_vanishes_at_equilibrium():
    rng = np.random.default_rng(15)
    tol = 1e-9
    peq = ConstrainedProblem(
        QuadraticObjective(np.eye(3) * 2.0, q=rng.standard_normal(3)),
        EqualityConstraints(A=rng.standard_normal((2, 3)), b=rng.standard_normal(2)),
    )
    e = solve_equilibrium(peq, UNIT, tol=tol)
    d = vector_field(peq, UNIT)(e.z)
    assert np.linalg.norm(d) <= 10 * tol

    pin = ConstrainedProblem(
        QuadraticObjective(np.eye(3) * 2.0, q=rng.standard_normal(3)),
        InequalityConstraints(A=rng.standard_normal((2, 3)), b=rng.standard_normal(2)),
    )
    e = solve_equilibrium(pin, UNIT, tol=tol)
    d = vector_field(pin, UNIT)(e.z)
    assert np.linalg.norm(d) <= 10 * tol


def test_two_sided_equilibrium_and_splits():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((3, 4))
    # narrow band forces some rows active on either side
    p = ConstrainedProblem(
        QuadraticObjective(np.eye(4) * 2.0, q=rng.standard_normal(4)),
        TwoSidedConstraints(A=A, b_lo=np.array([-0.2, -0.05, -3.0]),
                            b_hi=np.array([0.2, 0.05, 3.0])),
    )
    e = solve_equilibrium(p, UNIT)
    assert e.residual.total <= 1e-9
    d = vector_field(p, UNIT)(e.z)
    assert np.linalg.norm(d) <= 1e-8
    lam = e.lambda_star
    upper = np.maximum(lam, 0.0)
    lower = -np.minimum(lam, 0.0)
    assert np.array_equal(upper * lower, np.zeros(3))


def test_two_sided_kkt_residual_by_hand():
    # min 1/2 x^2 s.t. -1 <= x <= 1: interior optimum, residual 0 at (0, 0)
    p = ConstrainedProblem(
        QuadraticObjective(np.eye(1)),
        TwoSidedConstraints(A=np.array([[1.0]]), b_lo=np.array([-1.0]),
                            b_hi=np.array([1.0])),
    )
    res = kkt_residual(p, np.zeros(2))
    assert res.total == pytest.approx(0.0, abs=1e-15)
    # x outside the band: primal violation is the distance past the edge
    res = kkt_residual(p, np.array([2.0, 0.0]))
    assert res.primal == pytest.approx(1.0)


def _wrong_hessian_qp(hess=lambda x: -np.eye(3)):
    """min 1/2 ||x||^2 under two random inequalities, with an oracle whose
    Hessian is wrong (the true one is I), so Newton cannot succeed."""
    rng = np.random.default_rng(33)
    objective = ObjectiveOracle(lambda x: 0.5 * x @ x, lambda x: x, 1.0, 1.0, hess=hess)
    return ConstrainedProblem(objective, InequalityConstraints(
        A=rng.standard_normal((2, 3)), b=rng.standard_normal(2) - 2.0))


@pytest.mark.parametrize("tol", [0.0, -1e-9, np.nan])
def test_tolerance_must_be_positive(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        solve_equilibrium(gen_logistic_ineq(3, n=4, m=3, n_data=20), UNIT, tol=tol)


def test_max_iterations_error_on_tiny_budget():
    # Newton stalls, so the flow is integrated, for at most max_steps steps
    with pytest.raises(MaxIterationsError, match="within 3 steps.*newton stalled"):
        solve_equilibrium(_wrong_hessian_qp(), UNIT, max_steps=3)


@pytest.mark.parametrize("hess, why", [
    (lambda x: -np.eye(3), "no descent"),
    (lambda x: np.zeros((3, 3)), "singular Jacobian"),
    (lambda x: np.full((3, 3), np.nan), "non-finite step"),
    (lambda x: 1e-3 * np.eye(3), "iteration cap"),
])
def test_stalled_newton_falls_back_to_integration(hess, why):
    p = _wrong_hessian_qp(hess)
    eq = solve_equilibrium(p, UNIT)
    assert eq.method == "integration" and eq.euler_steps > 0
    assert eq.fallback_reason.startswith(f"newton stalled at iteration {eq.newton_iterations}, ")
    assert eq.fallback_reason.endswith(why)
    assert eq.residual.total <= 1e-9
    right = solve_equilibrium(ConstrainedProblem(QuadraticObjective(np.eye(3)),
                                                 p.constraints), UNIT)
    assert right.method == "newton"
    assert np.max(np.abs(eq.z - right.z)) <= 1e-8


def test_fallback_integrates_at_eta_1():
    # the equilibrium does not depend on eta, and neither does the solve
    p = _wrong_hessian_qp()
    at_1 = solve_equilibrium(p, UNIT)
    at_3 = solve_equilibrium(p, DynamicsParams(eta=3.0))
    assert at_1.method == at_3.method == "integration"
    assert at_3.z.tobytes() == at_1.z.tobytes()
    assert (at_3.residual, at_3.active_set) == (at_1.residual, at_1.active_set)
    assert (at_3.euler_steps, at_3.newton_iterations, at_3.fallback_reason) == (
        at_1.euler_steps, at_1.newton_iterations, at_1.fallback_reason)


@pytest.mark.parametrize("p, tol", [(gen_equality_qp(42), 1e-20),
                                    (gen_logistic_ineq(3, n=10, m=8), 1e-17)],
                         ids=["eq-qp seed 42", "logistic seed 3"])
def test_tolerance_below_rounding_stops_at_once(p, tol, monkeypatch):
    # Newton stalls on a step below rounding, where integrating cannot get
    # lower either: the solve says so at once instead of integrating
    def refuse(*args, **kwargs):
        raise AssertionError("integrated below the rounding floor")

    monkeypatch.setattr(equilibrium, "_integrate_to_equilibrium", refuse)
    start = time.perf_counter()
    with pytest.raises(MaxIterationsError,
                       match=rf"KKT residual \S+ did not reach {tol:g}: newton found no "
                             r"descent at iteration \d+ on a step of \S+, below the rounding"):
        solve_equilibrium(p, UNIT, tol=tol)
    assert time.perf_counter() - start < 1.0


def _newton_against_integration_problems():
    rng = np.random.default_rng(21)
    D, y = rng.standard_normal((30, 4)), rng.choice([-1.0, 1.0], size=30)
    return {
        "logistic seed 3": gen_logistic_ineq(3, n=10, m=8),
        "logistic seed 7": gen_logistic_ineq(7, n=10, m=8),
        # criterion 6's two-sided QP
        "two-sided": ConstrainedProblem(
            QuadraticObjective(np.diag([1.0, 2.0, 3.0]), np.array([1.0, -2.0, 0.5])),
            TwoSidedConstraints(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]]),
                                np.array([-0.2, -0.05]), np.array([0.2, 0.05]))),
        "logistic equality": ConstrainedProblem(
            LogisticObjective(D, y, 0.1),
            EqualityConstraints(A=rng.standard_normal((2, 4)), b=rng.standard_normal(2))),
    }


@pytest.mark.parametrize("name", list(_newton_against_integration_problems()))
def test_newton_agrees_with_integration(name):
    # the fast path against its slow reference, both stopped at KKT 1e-9
    p = _newton_against_integration_problems()[name]
    fast = solve_equilibrium(p, UNIT, tol=1e-9)
    slow = _integrate_to_equilibrium(p, UNIT.rho, 1e-9)
    assert fast.method == "newton" and slow.method == "integration"
    assert np.max(np.abs(fast.z - slow.z)) <= 1e-8
    assert fast.active_set == slow.active_set


def test_newton_counts_on_logistic_seed_3():
    eq = solve_equilibrium(gen_logistic_ineq(3, n=10, m=8), UNIT, tol=1e-9)
    assert eq.method == "newton" and eq.fallback_reason == ""
    assert 1 <= eq.newton_iterations <= 12
    assert eq.euler_steps == 0


def test_equality_qp_is_one_exact_kkt_solve():
    # from the origin the first Newton step is the KKT solve
    # [[W, A^T], [-A, 0]] z = (-q, -b), bit for bit
    rng = np.random.default_rng(4)
    p = gen_equality_qp(42)
    p = ConstrainedProblem(QuadraticObjective(p.objective.W, rng.standard_normal(5)),
                           p.constraints)
    W, q = p.objective.W, p.objective.q
    A, b = p.constraints.A, p.constraints.b
    K = np.block([[W, A.T], [-A, np.zeros((2, 2))]])
    exact = np.linalg.solve(K, np.concatenate([-q, -b]))
    eq = solve_equilibrium(p, DynamicsParams(eta=3.0, rho=2.0))
    assert eq.z.tobytes() == exact.tobytes()
    assert (eq.method, eq.newton_iterations, eq.euler_steps) == ("newton", 1, 0)


def test_active_set_uses_tolerance():
    eq = solve_equilibrium(ineq_qp(0.0), UNIT)
    # constraint x1 <= 0 is weakly active at the unconstrained optimum
    assert eq.active_set == (0,)
