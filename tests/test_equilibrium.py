"""Tests for KKT residuals and equilibrium solving."""

import numpy as np
import pytest

from saddleflow import (
    ConstrainedProblem,
    DimensionMismatchError,
    DynamicsParams,
    EqualityConstraints,
    InequalityConstraints,
    MaxIterationsError,
    QuadraticObjective,
    State,
    TwoSidedConstraints,
    aug_pdgd_field,
    aug_pdgd_ts_field,
    gen_equality_qp,
    kkt_residual,
    pdgd_eq_field,
    solve_equilibrium,
)

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
    s = State(x=np.array([0.5, 0.5]), lam=np.array([-0.5]))
    res = kkt_residual(eq_qp(), s)
    assert res.stationarity == pytest.approx(0.0, abs=1e-15)
    assert res.primal == pytest.approx(0.0, abs=1e-15)
    assert res.dual == 0.0
    assert res.complementarity == 0.0
    assert res.total == pytest.approx(0.0, abs=1e-15)


def test_kkt_residual_at_origin():
    s = State(x=np.zeros(2), lam=np.zeros(1))
    res = kkt_residual(eq_qp(), s)
    assert res.stationarity == pytest.approx(0.0, abs=1e-15)
    assert res.primal == pytest.approx(1.0)
    assert res.total == pytest.approx(1.0)


def test_kkt_residual_strictly_feasible_inequality():
    s = State(x=np.array([0.5, 0.0]), lam=np.zeros(1))
    res = kkt_residual(ineq_qp(1.0), s)
    assert res.stationarity == pytest.approx(0.5)  # ||grad f|| = ||x||
    assert res.primal == 0.0
    assert res.dual == 0.0
    assert res.complementarity == pytest.approx(0.0, abs=1e-15)


def test_kkt_residual_flags_negative_multiplier():
    s = State(x=np.zeros(2), lam=np.array([-0.3]))
    res = kkt_residual(ineq_qp(1.0), s)
    assert res.dual == pytest.approx(0.3)


def test_kkt_total_is_max_of_components():
    s = State(x=np.array([2.0, 0.0]), lam=np.array([-0.3]))
    res = kkt_residual(ineq_qp(1.0), s)
    assert res.total == max(res.stationarity, res.primal, res.dual,
                            res.complementarity)


def test_solve_equality_qp():
    eq = solve_equilibrium(eq_qp(), UNIT)
    assert np.allclose(eq.x_star, EQ_QP_SOLUTION[:2], atol=1e-9)
    assert eq.lambda_star[0] == pytest.approx(EQ_QP_SOLUTION[2], abs=1e-9)
    assert eq.residual.total <= 1e-9
    assert eq.active_set == (0,)  # equalities are always active


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
        sols.append(e.state.stacked())
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
    d = pdgd_eq_field(peq, UNIT, e.state).stacked()
    assert np.linalg.norm(d) <= 10 * tol

    pin = ConstrainedProblem(
        QuadraticObjective(np.eye(3) * 2.0, q=rng.standard_normal(3)),
        InequalityConstraints(A=rng.standard_normal((2, 3)), b=rng.standard_normal(2)),
    )
    e = solve_equilibrium(pin, UNIT, tol=tol)
    d = aug_pdgd_field(pin, UNIT, e.state).stacked()
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
    d = aug_pdgd_ts_field(p, UNIT, e.state).stacked()
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
    res = kkt_residual(p, State(x=np.zeros(1), lam=np.zeros(1)))
    assert res.total == pytest.approx(0.0, abs=1e-15)
    # x outside the band: primal violation is the distance past the edge
    res = kkt_residual(p, State(x=np.array([2.0]), lam=np.zeros(1)))
    assert res.primal == pytest.approx(1.0)


def test_max_iterations_error_on_tiny_budget():
    rng = np.random.default_rng(33)
    p = ConstrainedProblem(
        QuadraticObjective(np.eye(3)),
        InequalityConstraints(A=rng.standard_normal((2, 3)),
                              b=rng.standard_normal(2) - 2.0),
    )
    with pytest.raises(MaxIterationsError):
        solve_equilibrium(p, UNIT, max_steps=3)


def test_z0_accepts_plain_arrays_and_states():
    p = ineq_qp(-1.0)
    a = solve_equilibrium(p, UNIT, z0=np.array([2.0, 0.0, 0.5]))
    b = solve_equilibrium(p, UNIT, z0=State(x=np.array([2.0, 0.0]),
                                            lam=np.array([0.5])))
    assert np.allclose(a.x_star, b.x_star, atol=1e-9)
    # a start of the wrong length is refused the same way in either form,
    # on an integrated flow and on the equality QP's exact solve alike
    for q in (p, gen_equality_qp(42)):
        size = q.dim_n + q.dim_m
        for z0 in (np.zeros(size + 1), State(x=np.zeros(q.dim_n), lam=np.zeros(q.dim_m + 1)),
                   np.zeros(size - 1), State(x=np.zeros(q.dim_n - 1), lam=np.zeros(q.dim_m))):
            with pytest.raises(DimensionMismatchError, match="z0 must have length"):
                solve_equilibrium(q, UNIT, z0=z0)


def test_active_set_uses_tolerance():
    eq = solve_equilibrium(ineq_qp(0.0), UNIT)
    # constraint x1 <= 0 is weakly active at the unconstrained optimum
    assert eq.active_set == (0,)
