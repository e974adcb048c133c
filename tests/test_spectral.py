"""Tests for LTI spectral rates and the eta saturation analysis."""

import numpy as np
import pytest

from saddleflow import (
    ConstrainedProblem,
    DynamicsParams,
    EqualityConstraints,
    InequalityConstraints,
    InfeasibleError,
    InvalidInputError,
    QuadraticObjective,
    build_certificate_eq,
    certified_rate,
    eta_sweep,
    gen_equality_qp,
    gen_logistic_ineq,
    lti_matrix,
    saturation_knee,
)
from saddleflow.spectral import KNEE_DECADES, KNEE_ETA0

# Oracle fixture: the stacked flow matrix for W = [1], A = [1] has
# characteristic polynomial s^2 + s + eta; for eta >= 1/4 the roots are
# complex with real part -1/2, so the decay rate is exactly 0.5.
SCALAR_RATE = 0.5
SCALAR = ConstrainedProblem(QuadraticObjective([[1.0]]), EqualityConstraints([[1.0]], [0.0]))


def _quadratic(W, A):
    return ConstrainedProblem(QuadraticObjective(W), EqualityConstraints(A, np.zeros(len(A))))


def test_scalar_saddle_eta_one():
    # oracle: roots of s^2 + s + 1 are (-1 +- i sqrt(3)) / 2
    roots = np.roots([1.0, 1.0, 1.0])
    assert max(roots.real) == pytest.approx(-SCALAR_RATE)
    sys = lti_matrix(SCALAR, eta=1.0)
    assert np.allclose(sys.G, [[-1.0, -1.0], [1.0, 0.0]])
    assert sys.rate == pytest.approx(SCALAR_RATE, rel=1e-12)


def test_scalar_saddle_eta_four():
    # oracle: roots of s^2 + s + 4 still have real part -1/2
    roots = np.roots([1.0, 1.0, 4.0])
    assert max(roots.real) == pytest.approx(-SCALAR_RATE)
    sys = lti_matrix(SCALAR, eta=4.0)
    assert sys.rate == pytest.approx(SCALAR_RATE, rel=1e-12)


def test_eta_sweep_saturated_scalar():
    table = eta_sweep(SCALAR, np.array([1.0, 4.0, 100.0]))
    assert np.allclose(table.rates, SCALAR_RATE, rtol=1e-10)
    assert table.etas.shape == table.rates.shape == table.certified.shape


def test_eta_sweep_refuses_an_empty_nonpositive_or_nan_grid():
    for grid in ([], [1.0, 0.0], [1.0, -2.0], [np.nan, 1.0], [1.0, np.nan]):
        with pytest.raises(ValueError, match="nonempty and positive"):
            eta_sweep(SCALAR, np.array(grid))


def test_eta_to_zero_rate_vanishes():
    # roots of s^2 + s + eta approach {0, -1}: the slow root is about -eta
    eta = 1e-6
    sys = lti_matrix(SCALAR, eta=eta)
    assert sys.rate == pytest.approx(eta, rel=1e-2)


def test_rate_dominates_certified_rate():
    table = eta_sweep(SCALAR, np.array([0.1, 1.0, 10.0]))
    assert np.all(table.rates >= table.certified - 1e-9)


def test_certified_rate_matches_certificate_tau():
    p = gen_equality_qp(42)
    for eta in (0.1, 1.0, 7.0):
        cert = build_certificate_eq(p, DynamicsParams(eta=eta))
        assert certified_rate(p, eta) == cert.tau / 2.0
        assert eta_sweep(p, [eta]).certified[0] == cert.tau / 2.0


def test_hurwitz_on_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n + 1))
        M = rng.standard_normal((n, n))
        W = M @ M.T + 0.5 * np.eye(n)
        A = rng.standard_normal((m, n))
        eta = float(rng.uniform(0.05, 20.0))
        p = _quadratic(W, A)
        sys = lti_matrix(p, eta=eta)
        assert sys.abscissa < 0.0
        assert sys.rate >= certified_rate(p, eta) - 1e-9


def test_lti_matrix_input_validation():
    # the flow must be linear: vector_field decides, and every spectral
    # entry refuses a nonlinear flow with the same words
    logistic = gen_logistic_ineq(3, n=4, m=3, n_data=20)
    quadratic_ineq = ConstrainedProblem(QuadraticObjective(np.eye(2)),
                                        InequalityConstraints([[1.0, 1.0]], [1.0]))
    for p in (logistic, quadratic_ineq):
        for call in (lambda: lti_matrix(p), lambda: eta_sweep(p, [1.0]),
                     lambda: saturation_knee(p)):
            with pytest.raises(InvalidInputError, match="the flow must be linear"):
                call()
    for eta in (0.0, np.inf):
        with pytest.raises(ValueError, match="eta must be positive"):
            lti_matrix(SCALAR, eta=eta)
    # a finite eta whose eta A overflows leaves no spectrum to take
    with pytest.raises(InfeasibleError, match=r"overflows at eta = 1e\+308"):
        lti_matrix(gen_equality_qp(1), eta=1e308)


def test_lti_matrix_block_layout():
    # G is [[-W, -A^T], [eta A, 0]], written out, bit for bit
    rng = np.random.default_rng(12)
    W = np.eye(3) * 2.0
    A = rng.standard_normal((2, 3))
    eta = 1.5
    G = lti_matrix(_quadratic(W, A), eta=eta).G
    assert np.array_equal(G[:3, :3], -W)
    assert np.array_equal(G[:3, 3:], -A.T)
    assert np.array_equal(G[3:, :3], eta * A)
    assert np.array_equal(G[3:, 3:], np.zeros((2, 2)))


def test_saturation_knee_on_seeded_qp():
    p = gen_equality_qp(42)
    knee = saturation_knee(p)
    assert knee > 0
    # past the knee the rate gains less than 5% per decade
    r10 = lti_matrix(p, eta=10.0 * knee).rate
    r100 = lti_matrix(p, eta=100.0 * knee).rate
    assert r100 <= 1.05 * r10
    # below the knee the rate is non-decreasing in eta
    grid = np.geomspace(knee / 100.0, knee, 9)
    rates = [lti_matrix(p, eta=e).rate for e in grid]
    assert np.all(np.diff(rates) >= -1e-9)


def test_saturation_knee_returns_the_last_grid_point_without_a_knee():
    # W = [1e5], A = [1]: s^2 + 1e5 s + eta has the slow root about eta / 1e5
    # until eta nears 1e10 / 4, so every decade of the grid gains tenfold
    p = _quadratic([[1e5]], [[1.0]])
    last = KNEE_ETA0 * 10.0 ** KNEE_DECADES
    assert saturation_knee(p) == pytest.approx(last, rel=1e-12)
    assert lti_matrix(p, eta=10.0 * last).rate > 9.0 * lti_matrix(p, eta=last).rate
