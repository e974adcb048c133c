"""Tests for LTI spectral rates and the eta saturation analysis."""

import numpy as np
import pytest

from saddleflow import (
    DynamicsParams,
    NotSymmetricError,
    build_certificate_eq,
    certified_rate,
    eta_sweep,
    gen_equality_qp,
    lti_matrix,
    saturation_knee,
)

# Oracle fixture: the stacked flow matrix for W = [1], A = [1] has
# characteristic polynomial s^2 + s + eta; for eta >= 1/4 the roots are
# complex with real part -1/2, so the decay rate is exactly 0.5.
SCALAR_RATE = 0.5


def test_pure_gradient_flow():
    sys = lti_matrix(np.array([[1.0]]))
    assert np.allclose(sys.G, [[-1.0]])
    assert sys.abscissa == pytest.approx(-1.0)
    assert sys.rate == pytest.approx(1.0)
    W = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert np.array_equal(lti_matrix(W, np.zeros((0, 2)), eta=5.0).G, -W)


def test_scalar_saddle_eta_one():
    # oracle: roots of s^2 + s + 1 are (-1 +- i sqrt(3)) / 2
    roots = np.roots([1.0, 1.0, 1.0])
    assert max(roots.real) == pytest.approx(-SCALAR_RATE)
    sys = lti_matrix(np.array([[1.0]]), np.array([[1.0]]), eta=1.0)
    assert np.allclose(sys.G, [[-1.0, -1.0], [1.0, 0.0]])
    assert sys.rate == pytest.approx(SCALAR_RATE, rel=1e-12)


def test_scalar_saddle_eta_four():
    # oracle: roots of s^2 + s + 4 still have real part -1/2
    roots = np.roots([1.0, 1.0, 4.0])
    assert max(roots.real) == pytest.approx(-SCALAR_RATE)
    sys = lti_matrix(np.array([[1.0]]), np.array([[1.0]]), eta=4.0)
    assert sys.rate == pytest.approx(SCALAR_RATE, rel=1e-12)


def test_eta_sweep_saturated_scalar():
    table = eta_sweep(np.array([[1.0]]), np.array([[1.0]]), np.array([1.0, 4.0, 100.0]))
    assert np.allclose(table.rates, SCALAR_RATE, rtol=1e-10)
    assert table.etas.shape == table.rates.shape == table.certified.shape


def test_eta_sweep_refuses_an_empty_nonpositive_or_nan_grid():
    for grid in ([], [1.0, 0.0], [1.0, -2.0], [np.nan, 1.0], [1.0, np.nan]):
        with pytest.raises(ValueError, match="nonempty and positive"):
            eta_sweep(np.array([[1.0]]), np.array([[1.0]]), np.array(grid))


def test_eta_to_zero_rate_vanishes():
    # roots of s^2 + s + eta approach {0, -1}: the slow root is about -eta
    eta = 1e-6
    sys = lti_matrix(np.array([[1.0]]), np.array([[1.0]]), eta=eta)
    assert sys.rate == pytest.approx(eta, rel=1e-2)


def test_rate_dominates_certified_rate():
    table = eta_sweep(np.array([[1.0]]), np.array([[1.0]]),
                      np.array([0.1, 1.0, 10.0]))
    assert np.all(table.rates >= table.certified - 1e-9)


def test_certified_rate_matches_certificate_tau():
    p = gen_equality_qp(42)
    W, A = p.objective.W, p.constraints.A
    for eta in (0.1, 1.0, 7.0):
        cert = build_certificate_eq(p, DynamicsParams(eta=eta))
        assert certified_rate(W, A, eta) == pytest.approx(cert.tau / 2.0)


def test_hurwitz_on_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n + 1))
        M = rng.standard_normal((n, n))
        W = M @ M.T + 0.5 * np.eye(n)
        A = rng.standard_normal((m, n))
        eta = float(rng.uniform(0.05, 20.0))
        sys = lti_matrix(W, A, eta=eta)
        assert sys.abscissa < 0.0
        assert sys.rate >= certified_rate(W, A, eta) - 1e-9


def test_lti_matrix_input_validation():
    with pytest.raises(NotSymmetricError):
        lti_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        lti_matrix(np.diag([1.0, -1.0]))


def test_lti_matrix_block_layout():
    rng = np.random.default_rng(12)
    W = np.eye(3) * 2.0
    A = rng.standard_normal((2, 3))
    eta = 1.5
    sys = lti_matrix(W, A, eta=eta)
    assert np.allclose(sys.G[:3, :3], -W)
    assert np.allclose(sys.G[:3, 3:], -A.T)
    assert np.allclose(sys.G[3:, :3], eta * A)
    assert np.allclose(sys.G[3:, 3:], 0.0)


def test_saturation_knee_on_seeded_qp():
    p = gen_equality_qp(42)
    W, A = p.objective.W, p.constraints.A
    knee = saturation_knee(W, A)
    assert knee > 0
    # past the knee the rate gains less than 5% per decade
    r10 = lti_matrix(W, A, eta=10.0 * knee).rate
    r100 = lti_matrix(W, A, eta=100.0 * knee).rate
    assert r100 <= 1.05 * r10
    # below the knee the rate is non-decreasing in eta
    grid = np.geomspace(knee / 100.0, knee, 9)
    rates = [lti_matrix(W, A, eta=e).rate for e in grid]
    assert np.all(np.diff(rates) >= -1e-9)
