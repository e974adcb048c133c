"""Tests for the problem data model and declared-regularity validation."""

import numpy as np
import pytest

from saddleflow import (
    ConstrainedProblem,
    DimensionMismatchError,
    DynamicsParams,
    EqualityConstraints,
    InequalityConstraints,
    InvalidBandError,
    LogisticObjective,
    NotSymmetricError,
    ObjectiveOracle,
    QuadraticObjective,
    RankDeficientError,
    SpectralBounds,
    TwoSidedConstraints,
    spectral_bounds,
    validate_problem,
)
from saddleflow.problem import _fd_jacobian, _matvec

from oracles import logistic_grad, logistic_value

# Oracle fixtures for spectral_bounds (hand eigenvalues of A A^T).
#   A = I2          -> A A^T = I2,        spectrum {1, 1}
#   A = [1 1]       -> A A^T = [2],       spectrum {2}
#   A = diag(1, 2)  -> A A^T = diag(1,4), spectrum {1, 4}
SPECTRUM_IDENTITY = (1.0, 1.0)
SPECTRUM_ROW = (2.0, 2.0)
SPECTRUM_DIAG = (1.0, 4.0)


def test_spectral_bounds_identity():
    got = spectral_bounds(np.eye(2))
    assert got.kappa1 == pytest.approx(SPECTRUM_IDENTITY[0])
    assert got.kappa2 == pytest.approx(SPECTRUM_IDENTITY[1])


def test_spectral_bounds_single_row():
    # oracle: A A^T = [[2]], only eigenvalue 2
    assert np.linalg.eigvalsh(np.array([[2.0]]))[0] == SPECTRUM_ROW[0]
    got = spectral_bounds(np.array([[1.0, 1.0]]))
    assert got.kappa1 == pytest.approx(SPECTRUM_ROW[0])
    assert got.kappa2 == pytest.approx(SPECTRUM_ROW[1])


def test_spectral_bounds_diagonal():
    # oracle: A A^T = diag(1, 4)
    A = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert np.allclose(A @ A.T, np.diag([1.0, 4.0]))
    got = spectral_bounds(A)
    assert got.kappa1 == pytest.approx(SPECTRUM_DIAG[0])
    assert got.kappa2 == pytest.approx(SPECTRUM_DIAG[1])


def test_spectral_bounds_rank_deficient():
    # A A^T = [[2,4],[4,8]] is singular (rows are parallel)
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    assert abs(np.linalg.det(A @ A.T)) < 1e-12
    with pytest.raises(RankDeficientError):
        spectral_bounds(A)


def test_validate_consistent_quadratic_passes():
    p = ConstrainedProblem(
        QuadraticObjective(np.eye(2)),
        EqualityConstraints(A=np.eye(2), b=np.zeros(2)),
    )
    rep = validate_problem(p)
    assert rep.passed
    assert rep.secant_pass_rate == 1.0
    assert rep.notes == ()


def test_validate_overdeclared_mu_fails():
    # f = 1/2 ||x||^2 has secant ratio exactly 1 on every pair, so a
    # declared mu = 2 must be reported as violated on all samples.
    obj = ObjectiveOracle(
        value=lambda x: 0.5 * float(x @ x),
        grad=lambda x: x,
        mu=2.0,
        ell=2.0,
    )
    p = ConstrainedProblem(obj, EqualityConstraints(A=np.eye(2), b=np.zeros(2)))
    rep = validate_problem(p)
    assert not rep.passed
    assert rep.secant_pass_rate == 0.0
    assert rep.secant_min == pytest.approx(1.0)
    assert rep.secant_max == pytest.approx(1.0)


def test_validate_reports_rank_deficiency():
    p = ConstrainedProblem(
        QuadraticObjective(np.eye(2)),
        EqualityConstraints(A=np.array([[1.0, 1.0], [2.0, 2.0]]), b=np.zeros(2)),
        bounds=SpectralBounds(kappa1=1.0, kappa2=10.0),
    )
    rep = validate_problem(p)
    assert not rep.passed
    assert not rep.rank_ok


def _raise(x):
    raise ArithmeticError("no value here")


@pytest.mark.parametrize("value, grad, note", [
    (lambda x: float(x @ x), lambda x: np.zeros(3), "grad returned shape (3,), expected (2,)"),
    (lambda x: float("nan"), lambda x: 2.0 * x, "objective value at 0 is not finite"),
    (_raise, lambda x: 2.0 * x, "objective evaluation failed: no value here"),
], ids=["grad-shape", "nan-value", "raises"])
def test_validate_reports_a_broken_oracle_in_its_notes(value, grad, note):
    # each is reported, never raised, and the secant sampling is skipped
    p = ConstrainedProblem(ObjectiveOracle(value, grad, 2.0, 2.0),
                           EqualityConstraints(A=np.eye(2), b=np.zeros(2)))
    rep = validate_problem(p)
    assert not rep.passed and not rep.dims_ok and rep.rank_ok
    assert note in rep.notes


def test_constraint_sets_keep_their_positional_order_and_read_only_fields():
    A, b = np.array([[1.0, 2.0], [3.0, 4.0]]), [1.0, 2.0]
    for cons in (EqualityConstraints(A, b), InequalityConstraints(A, b),
                 TwoSidedConstraints(A, b, [3.0, 4.0])):
        assert np.array_equal(cons.A, A) and cons.A is not A
        rhs = [getattr(cons, name) for name in ("b", "b_lo", "b_hi") if hasattr(cons, name)]
        assert [r.tolist() for r in rhs] == ([b] if len(rhs) == 1 else [b, [3.0, 4.0]])
        for array in (cons.A, *rhs):
            assert not array.flags.writeable
    assert EqualityConstraints(A, b) == EqualityConstraints(A, np.array(b))
    assert EqualityConstraints(A, b) != InequalityConstraints(A, b)
    with pytest.raises(DimensionMismatchError, match="A has 2 rows but b_hi has 3 entries"):
        TwoSidedConstraints(A, b, np.ones(3))


def test_constrained_problem_rejects_singular_a_without_bounds():
    with pytest.raises(RankDeficientError):
        ConstrainedProblem(
            QuadraticObjective(np.eye(2)),
            EqualityConstraints(A=np.array([[1.0, 1.0], [2.0, 2.0]]), b=np.zeros(2)),
        )


def test_secant_property_on_random_quadratics():
    # inner-product form of the secant bound on sampled pairs
    rng = np.random.default_rng(123)
    for _ in range(10):
        n = rng.integers(2, 6)
        M = rng.standard_normal((n, n))
        W = M @ M.T + np.eye(n)
        obj = QuadraticObjective(W)
        for _ in range(20):
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            d = x - y
            val = (obj.grad(x) - obj.grad(y)) @ d
            assert obj.mu * (d @ d) - 1e-9 <= val <= obj.ell * (d @ d) + 1e-9


def test_quadratic_objective_constants_match_eigenvalues():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((4, 4))
    W = M @ M.T + 2.0 * np.eye(4)
    obj = QuadraticObjective(W, q=rng.standard_normal(4))
    eigs = np.linalg.eigvalsh(W)
    assert obj.mu == pytest.approx(eigs[0])
    assert obj.ell == pytest.approx(eigs[-1])
    x = rng.standard_normal(4)
    assert obj.value(x) == pytest.approx(0.5 * x @ W @ x + obj.q @ x)
    assert np.allclose(obj.grad(x), W @ x + obj.q)


def test_quadratic_objective_rejects_bad_w():
    with pytest.raises(NotSymmetricError):
        QuadraticObjective(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        QuadraticObjective(np.diag([1.0, -1.0]))
    with pytest.raises(DimensionMismatchError):
        QuadraticObjective(np.eye(2), q=np.zeros(3))


def test_logistic_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    D = rng.standard_normal((20, 4))
    y = np.where(rng.standard_normal(20) > 0, 1.0, -1.0)
    obj = LogisticObjective(D, y, reg=0.1)
    x = rng.standard_normal(4) * 0.5
    g = obj.grad(x)
    h = 1e-6
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        fd = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_logistic_objective_constants():
    rng = np.random.default_rng(10)
    D = rng.standard_normal((30, 5))
    y = np.where(rng.standard_normal(30) > 0, 1.0, -1.0)
    obj = LogisticObjective(D, y, reg=0.2)
    assert obj.mu == pytest.approx(0.2)
    assert obj.ell == pytest.approx(0.2 + 0.25 * np.linalg.eigvalsh(D.T @ D)[-1])
    # zero logits give k log 2 plus no ridge term
    assert obj.value(np.zeros(5)) == pytest.approx(30 * np.log(2.0))


def test_logistic_objective_refuses_a_reg_that_is_not_positive_and_finite():
    # an infinite reg used to end a certificate in an eigenvalue failure
    D, y = np.eye(2), np.array([1.0, -1.0])
    for reg in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="reg must be positive and finite"):
            LogisticObjective(D, y, reg)


def test_logistic_objective_no_overflow_at_large_logits():
    D = np.array([[1000.0], [-1000.0]])
    y = np.array([1.0, 1.0])
    obj = LogisticObjective(D, y, reg=0.1)
    v = obj.value(np.array([5.0]))
    assert np.isfinite(v)
    assert np.all(np.isfinite(obj.grad(np.array([5.0]))))


def test_constraint_sets_validate_dimensions():
    with pytest.raises(DimensionMismatchError):
        EqualityConstraints(A=np.eye(2), b=np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        InequalityConstraints(A=np.eye(2), b=np.zeros(1))
    with pytest.raises(DimensionMismatchError):
        TwoSidedConstraints(A=np.eye(2), b_lo=np.zeros(2), b_hi=np.zeros(3))


def test_two_sided_band_must_be_strict():
    with pytest.raises(InvalidBandError):
        TwoSidedConstraints(
            A=np.eye(2), b_lo=np.array([0.0, 1.0]), b_hi=np.array([1.0, 1.0])
        )


def test_containers_are_immutable():
    cons = EqualityConstraints(A=np.eye(2), b=np.zeros(2))
    with pytest.raises(ValueError):
        cons.A[0, 0] = 5.0
    obj = QuadraticObjective(np.eye(2))
    with pytest.raises(ValueError):
        obj.W[0, 0] = 3.0


def test_objective_oracle_rejects_bad_constants():
    with pytest.raises(ValueError):
        ObjectiveOracle(value=lambda x: 0.0, grad=lambda x: x, mu=0.0, ell=1.0)
    with pytest.raises(ValueError):
        ObjectiveOracle(value=lambda x: 0.0, grad=lambda x: x, mu=2.0, ell=1.0)


def test_dynamics_params_positive():
    params = DynamicsParams()
    assert params.eta == 1.0 and params.rho == 1.0
    with pytest.raises(ValueError):
        DynamicsParams(eta=0.0)
    with pytest.raises(ValueError):
        DynamicsParams(rho=-1.0)
    for bad in ({"eta": np.inf}, {"rho": np.inf}, {"eta": np.nan}, {"rho": np.nan}):
        with pytest.raises(ValueError, match="must be positive and finite"):
            DynamicsParams(**bad)


def test_spectral_bounds_container_ordering():
    with pytest.raises(ValueError):
        SpectralBounds(kappa1=2.0, kappa2=1.0)
    with pytest.raises(ValueError):
        SpectralBounds(kappa1=0.0, kappa2=1.0)


def test_matvec_rows_have_the_bits_of_one_product():
    # a stacked product gives each row exactly M @ row, for either memory
    # layout of M and for rows sliced out of a wider stack
    rng = np.random.default_rng(21)
    for r, c in ((7, 3), (10, 8), (8, 10), (100, 50), (18, 18)):
        for M in (rng.standard_normal((r, c)), np.asfortranarray(rng.standard_normal((r, c)))):
            X = rng.standard_normal((6, c + 4))[:, 2: c + 2]
            got = _matvec(M, X)
            assert got.shape == (6, r)
            for row, x in zip(got, X):
                assert np.array_equal(row, M @ x)
            assert np.array_equal(_matvec(M, X[0]), M @ X[0])


def test_stacked_gradients_match_row_by_row():
    # grad of a (K, n) stack is grad of each row, bit for bit; a user's
    # callable only ever sees single points
    rng = np.random.default_rng(22)
    D = rng.standard_normal((30, 6))
    y = rng.integers(0, 2, 30) * 2.0 - 1.0
    W = rng.standard_normal((6, 6))
    seen = []

    def user_grad(x):
        seen.append(x.shape)
        return 2.0 * x

    logistic = LogisticObjective(D, y, 0.1)
    objectives = (logistic, QuadraticObjective(W @ W.T + np.eye(6), rng.standard_normal(6)),
                  ObjectiveOracle(lambda x: float(x @ x), user_grad, 2.0, 2.0))
    X = rng.standard_normal((5, 6))
    for obj in objectives:
        got = obj.grad(X)
        assert got.shape == (5, 6)
        for row, x in zip(got, X):
            assert np.array_equal(row, obj.grad(x))
    assert set(seen) == {(6,)}


@pytest.mark.parametrize("scale", [1.0, 1e3], ids=["margins", "saturated margins"])
def test_logistic_value_and_gradient_are_the_textbook_bits(scale):
    # the pre-signed rows R = -diag(y) D give the bits of the expressions
    # written out from D and y, also where sigma and log(1 + e^u) saturate
    rng = np.random.default_rng(23)
    D = rng.standard_normal((30, 6))
    y = rng.integers(0, 2, 30) * 2.0 - 1.0
    logistic = LogisticObjective(D, y, 0.1)
    X = scale * rng.standard_normal((200, 6))
    if scale > 1:
        assert np.abs(D @ X.T).max() > 1e3
    for x in X:
        assert logistic.grad(x).tobytes() == logistic_grad(D, y, 0.1, x).tobytes()
        assert logistic.value(x) == logistic_value(D, y, 0.1, x)
    assert logistic.grad(X).tobytes() == np.array(
        [logistic_grad(D, y, 0.1, x) for x in X]).tobytes()


def test_analytic_hessians_match_finite_differences():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((6, 6))
    quadratic = QuadraticObjective(M @ M.T + np.eye(6), rng.standard_normal(6))
    logistic = LogisticObjective(rng.standard_normal((40, 6)),
                                 rng.choice([-1.0, 1.0], size=40), 0.1)
    for objective in (quadratic, logistic):
        for _ in range(5):
            x = 2.0 * rng.standard_normal(6)
            H = objective.hess(x)
            assert H.shape == (6, 6)
            err = np.linalg.norm(H - _fd_jacobian(objective.grad, x))
            assert err <= 1e-5 * np.linalg.norm(H)
    assert quadratic.hess(np.zeros(6)) is quadratic.W


def test_oracle_without_hess_takes_finite_differences():
    oracle = ObjectiveOracle(lambda x: float(np.sum(np.cosh(x))), np.sinh, 1.0, 10.0)
    x = np.array([0.3, -1.2])
    np.testing.assert_allclose(oracle.hess(x), np.diag(np.cosh(x)), rtol=1e-5)
