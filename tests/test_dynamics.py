"""Tests for the three saddle flows and their piecewise-linear helpers."""

import numpy as np
import pytest

from saddleflow import (
    AffineVectorField,
    ConstrainedProblem,
    DynamicsParams,
    EqualityConstraints,
    InequalityConstraints,
    InvalidBandError,
    LogisticObjective,
    ObjectiveOracle,
    QuadraticObjective,
    TwoSidedConstraints,
    vector_field,
)
from saddleflow.dynamics import _AugmentedField
from saddleflow.integrator import _advance

from oracles import gamma_coefficients

UNIT = DynamicsParams(eta=1.0, rho=1.0)


def scalar_eq_problem():
    # min 1/2 x^2  s.t.  x = 1
    return ConstrainedProblem(
        QuadraticObjective(np.eye(1)),
        EqualityConstraints(A=np.array([[1.0]]), b=np.array([1.0])),
    )


def scalar_ineq_problem(b=0.0):
    # min 1/2 x^2  s.t.  x <= b
    return ConstrainedProblem(
        QuadraticObjective(np.eye(1)),
        InequalityConstraints(A=np.array([[1.0]]), b=np.array([float(b)])),
    )


def scalar_ts_problem(lo=-1.0, hi=1.0):
    # min 1/2 x^2  s.t.  lo <= x <= hi
    return ConstrainedProblem(
        QuadraticObjective(np.eye(1)),
        TwoSidedConstraints(A=np.array([[1.0]]), b_lo=np.array([float(lo)]),
                            b_hi=np.array([float(hi)])),
    )


def multiplier(p, rho=1.0):
    """The effective multiplier m(ax, lam) of p's augmented field."""
    return _AugmentedField(p, DynamicsParams(rho=rho)).multiplier


def penalty_value(kind, ax, bounds, lam, rho):
    """Test oracle: the smoothed constraint penalty at (ax, lam).

    The penalty is the partial maximization of the augmented Lagrangian
    term over the auxiliary slack; its gradient in ax is the effective
    multiplier and its gradient in lam is (m - lam) / rho. bounds is b
    for kind "inequality" and (b_lo, b_hi) for kind "two-sided".
    """
    dead = -lam * lam / (2.0 * rho)
    if kind == "inequality":
        r = ax - bounds
        return np.where(rho * r + lam >= 0, r * lam + 0.5 * rho * r * r, dead)
    lo, hi = bounds
    y = rho * ax + lam
    r_hi = ax - hi
    r_lo = ax - lo
    upper = r_hi * lam + 0.5 * rho * r_hi * r_hi
    lower = r_lo * lam + 0.5 * rho * r_lo * r_lo
    return np.where(y > rho * hi, upper, np.where(y < rho * lo, lower, dead))


def state(x, lam):
    """The stacked point z = (x, lam)."""
    return np.concatenate([np.atleast_1d(np.asarray(x, dtype=float)),
                           np.atleast_1d(np.asarray(lam, dtype=float))])


def flow(p, x, lam, params=UNIT):
    """(dx, dlam) of p's flow at the scalar point z = (x, lam)."""
    return vector_field(p, params)(np.array([x, lam], dtype=float))


def test_equality_field_fixed_point():
    # x* = 1, lam* = -1 solves the KKT system of min 1/2 x^2 s.t. x = 1
    assert flow(scalar_eq_problem(), 1.0, -1.0) == pytest.approx([0.0, 0.0], abs=0.0)


def test_equality_field_hand_values():
    # hand evaluation: dx = -x - lam, dlam = x - 1
    p = scalar_eq_problem()
    assert flow(p, 0.0, 0.0) == pytest.approx([0.0, -1.0])
    assert flow(p, 2.0, 0.0) == pytest.approx([-2.0, 1.0])


def test_effective_multiplier_inequality_branches():
    m = multiplier(scalar_ineq_problem(b=0.0))
    # active branch: rho (ax - b) + lam = 2 + 1 = 3
    assert m(np.array([2.0]), np.array([1.0])) == pytest.approx([3.0])
    # clipped branch: -2 + 1 < 0 -> 0
    assert m(np.array([-2.0]), np.array([1.0])) == pytest.approx([0.0])


def test_effective_multiplier_two_sided_dead_zone():
    # rho ax + lam = 1.5 inside the band [1, 2] -> 0
    got = multiplier(scalar_ts_problem(1.0, 2.0))(np.array([1.5]), np.array([0.0]))
    assert got == pytest.approx([0.0])


def test_soft_threshold_cases():
    # on the band [1, 2], at rho = 1 and lam = 0: S(y) with y = ax
    m = multiplier(scalar_ts_problem(1.0, 2.0))
    assert m(np.array([1.5]), np.array([0.0])) == pytest.approx([0.0])
    assert m(np.array([3.0]), np.array([0.0])) == pytest.approx([1.0])  # y - hi
    assert m(np.array([0.0]), np.array([0.0])) == pytest.approx([-1.0])  # y - lo
    with pytest.raises(InvalidBandError):
        scalar_ts_problem(2.0, 1.0)


def test_soft_threshold_vectorized():
    # a (3, 1) stack of states, one row each side of the band and one inside
    ax = np.array([[0.0], [1.5], [3.0]])
    got = multiplier(scalar_ts_problem(1.0, 2.0))(ax, np.zeros((3, 1)))
    assert np.allclose(got, [[-1.0], [0.0], [1.0]])


def test_penalty_value_inequality():
    # active: r lam + rho r^2 / 2 = 0 + (2/2) * 1 = 1
    assert penalty_value("inequality", 1.0, 0.0, 0.0, 2.0) == pytest.approx(1.0)
    # clipped: -lam^2 / (2 rho)
    assert penalty_value("inequality", -3.0, 0.0, 1.0, 1.0) == pytest.approx(-0.5)


def test_penalty_value_two_sided_dead_zone():
    # y = rho ax + lam = 3 inside [0, 10] -> -lam^2 / (2 rho) = -2
    got = penalty_value("two-sided", 1.0, (0.0, 10.0), 2.0, 1.0)
    assert got == pytest.approx(-2.0)


def test_penalty_gradients_match_finite_differences():
    # central differences, step 1e-6, away from the branch boundary
    rng = np.random.default_rng(21)
    h = 1e-6
    for _ in range(50):
        rho = float(rng.uniform(0.5, 2.0))
        ax = float(rng.uniform(-3.0, 3.0))
        lam = float(rng.uniform(-2.0, 2.0))
        b = 0.0
        if abs(rho * (ax - b) + lam) < 1e-2:
            continue
        m = multiplier(scalar_ineq_problem(b), rho)(np.array([ax]), np.array([lam]))[0]
        d_ax = (penalty_value("inequality", ax + h, b, lam, rho)
                - penalty_value("inequality", ax - h, b, lam, rho)) / (2 * h)
        d_lam = (penalty_value("inequality", ax, b, lam + h, rho)
                 - penalty_value("inequality", ax, b, lam - h, rho)) / (2 * h)
        assert d_ax == pytest.approx(m, rel=1e-5, abs=1e-6)
        assert d_lam == pytest.approx((m - lam) / rho, rel=1e-5, abs=1e-6)


def test_penalty_gradients_two_sided():
    rng = np.random.default_rng(22)
    h = 1e-6
    lo, hi = -1.0, 1.0
    for _ in range(50):
        rho = float(rng.uniform(0.5, 2.0))
        ax = float(rng.uniform(-3.0, 3.0))
        lam = float(rng.uniform(-2.0, 2.0))
        y = rho * ax + lam
        if min(abs(y - rho * lo), abs(y - rho * hi)) < 1e-2:
            continue
        m = multiplier(scalar_ts_problem(lo, hi), rho)(np.array([ax]), np.array([lam]))[0]
        d_ax = (penalty_value("two-sided", ax + h, (lo, hi), lam, rho)
                - penalty_value("two-sided", ax - h, (lo, hi), lam, rho)) / (2 * h)
        d_lam = (penalty_value("two-sided", ax, (lo, hi), lam + h, rho)
                 - penalty_value("two-sided", ax, (lo, hi), lam - h, rho)) / (2 * h)
        assert d_ax == pytest.approx(m, rel=1e-5, abs=1e-6)
        assert d_lam == pytest.approx((m - lam) / rho, rel=1e-5, abs=1e-6)


def test_augmented_field_hand_values():
    p = scalar_ineq_problem(b=0.0)
    assert flow(p, 0.0, 0.0) == pytest.approx([0.0, 0.0])
    # multiplier = max(1, 0) = 1: dx = -1 - 1, dlam = (1 - 0) / 1
    assert flow(p, 1.0, 0.0) == pytest.approx([-2.0, 1.0])
    # multiplier = 0: dx = -(-1), dlam = 0
    assert flow(p, -1.0, 0.0) == pytest.approx([1.0, 0.0])


def test_two_sided_field_hand_values():
    p = scalar_ts_problem()
    assert flow(p, 0.0, 0.0) == pytest.approx([0.0, 0.0])
    # S(2) = 1 on band [-1, 1]: dx = -2 - 1, dlam = 1
    assert flow(p, 2.0, 0.0) == pytest.approx([-3.0, 1.0])
    assert flow(p, -2.0, 0.0) == pytest.approx([3.0, -1.0])


def test_aug_pdgd_dual_rate_nonnegative_at_zero_multiplier():
    # if lam_j = 0 then dlam_j = eta max(rho (ax - b), 0) / rho >= 0
    rng = np.random.default_rng(31)
    p = ConstrainedProblem(
        QuadraticObjective(np.eye(5)),
        InequalityConstraints(A=rng.standard_normal((4, 5)),
                              b=rng.standard_normal(4)),
    )
    field = vector_field(p, DynamicsParams(eta=2.0, rho=0.7))
    for _ in range(200):
        lam = np.abs(rng.standard_normal(4))
        lam[rng.integers(0, 4)] = 0.0
        dlam = field(np.concatenate([rng.standard_normal(5) * 3.0, lam]))[5:]
        assert np.all(dlam[lam == 0.0] >= 0.0)


def test_gamma_coefficients_scalar_cases():
    # the secant gain of the field's multiplier, by hand: its argument is
    # y = rho (a x - b) + lam = x + lam here
    p = scalar_ineq_problem(b=0.0)
    # y = 2, y* = 1, both on the positive branch
    g = gamma_coefficients(p, UNIT, state(2.0, 0.0), state(1.0, 0.0))
    assert g[0] == pytest.approx(1.0)
    # y = -1, y* = -2, both clipped
    g = gamma_coefficients(p, UNIT, state(-1.0, 0.0), state(-2.0, 0.0))
    assert g[0] == pytest.approx(0.0)
    # y = 1, y* = -1 straddles the kink: (1 - 0) / (1 - (-1))
    g = gamma_coefficients(p, UNIT, state(1.0, 0.0), state(-1.0, 0.0))
    assert g[0] == pytest.approx(0.5)


def test_gamma_coefficients_always_in_unit_interval():
    # the field's multiplier is monotone and 1-Lipschitz in its scalar
    # argument, so every unclipped secant gain lies in [0, 1], up to the
    # rounding of the two differences it divides
    rng = np.random.default_rng(44)
    A = rng.standard_normal((3, 5))
    params = DynamicsParams(eta=1.5, rho=0.8)
    for cons in (InequalityConstraints(A=A, b=rng.standard_normal(3)),
                 TwoSidedConstraints(A=A, b_lo=-np.ones(3), b_hi=np.ones(3))):
        p = ConstrainedProblem(QuadraticObjective(np.eye(5)), cons)
        for _ in range(200):
            s = state(rng.standard_normal(5) * 2, rng.standard_normal(3))
            e = state(rng.standard_normal(5) * 2, rng.standard_normal(3))
            g = gamma_coefficients(p, params, s, e)
            assert np.all(g >= -1e-12) and np.all(g <= 1.0 + 1e-12)


def test_gamma_reconstructs_dual_field_inequality():
    # dual block identity dlam = eta Gamma A (x - x*) + (eta/rho)(Gamma - I)(lam - lam*)
    # at the exactly-known equilibrium of min 1/2 ||x||^2 s.t. x_1 <= -1
    p = ConstrainedProblem(
        QuadraticObjective(np.eye(2)),
        InequalityConstraints(A=np.array([[1.0, 0.0]]), b=np.array([-1.0])),
    )
    eq = state([-1.0, 0.0], 1.0)
    rng = np.random.default_rng(52)
    for _ in range(100):
        params = DynamicsParams(eta=float(rng.uniform(0.5, 3)),
                                rho=float(rng.uniform(0.5, 3)))
        s = state(rng.standard_normal(2) * 3, np.abs(rng.standard_normal(1)) * 2)
        dlam = vector_field(p, params)(s)[2:]
        gam = gamma_coefficients(p, params, s, eq)
        A = p.constraints.A
        recon = (params.eta * gam * (A @ (s[:2] - eq[:2]))
                 + (params.eta / params.rho) * (gam - 1.0) * (s[2:] - eq[2:]))
        assert np.allclose(dlam, recon, rtol=1e-12, atol=1e-12)
        # secant inner-product bounds on the primal block
        dx = s[:2] - eq[:2]
        val = (p.objective.grad(s[:2]) - p.objective.grad(eq[:2])) @ dx
        assert p.objective.mu * (dx @ dx) - 1e-9 <= val <= p.objective.ell * (dx @ dx) + 1e-9


def test_gamma_reconstructs_dual_field_two_sided():
    p = scalar_ts_problem()
    eq = state(0.0, 0.0)  # unconstrained optimum interior to the band
    rng = np.random.default_rng(53)
    for _ in range(100):
        params = DynamicsParams(eta=float(rng.uniform(0.5, 3)),
                                rho=float(rng.uniform(0.5, 3)))
        s = state(rng.standard_normal() * 3, rng.standard_normal() * 2)
        dlam = vector_field(p, params)(s)[1:]
        gam = gamma_coefficients(p, params, s, eq)
        A = p.constraints.A
        recon = (params.eta * gam * (A @ (s[:1] - eq[:1]))
                 + (params.eta / params.rho) * (gam - 1.0) * (s[1:] - eq[1:]))
        assert np.allclose(dlam, recon, rtol=1e-12, atol=1e-12)


def test_vector_field_matches_the_flow_formulas():
    # each flow of the module docstring written out with numpy, against
    # vector_field: the affine G z + g form for the equality QP, the
    # oracle-gradient form for a logistic objective under the same
    # equalities, the augmented form for the other two
    rng = np.random.default_rng(63)
    W = np.eye(3) * 2.0
    q = rng.standard_normal(3)
    A = rng.standard_normal((2, 3))
    b = rng.standard_normal(2)
    eta, rho = 1.7, 0.6
    data = np.random.default_rng(64)
    logistic = LogisticObjective(data.standard_normal((6, 3)),
                                 data.choice([-1.0, 1.0], size=6), reg=0.1)

    def equality(x, lam, grad=lambda x: W @ x + q):
        return -grad(x) - A.T @ lam, eta * (A @ x - b)

    def augmented(m, x, lam):
        return -(W @ x + q) - A.T @ m, (eta / rho) * (m - lam)

    cases = [
        (QuadraticObjective(W, q=q), EqualityConstraints(A=A, b=b), equality),
        (QuadraticObjective(W, q=q), InequalityConstraints(A=A, b=b),
         lambda x, lam: augmented(np.maximum(rho * (A @ x - b) + lam, 0.0), x, lam)),
        (QuadraticObjective(W, q=q), TwoSidedConstraints(A=A, b_lo=-np.ones(2), b_hi=np.ones(2)),
         lambda x, lam: augmented(np.maximum(np.minimum(rho * A @ x + lam + rho, 0.0),
                                             rho * A @ x + lam - rho), x, lam)),
        (logistic, EqualityConstraints(A=A, b=b),
         lambda x, lam: equality(x, lam, grad=logistic.grad)),
    ]
    for objective, cons, formula in cases:
        field = vector_field(ConstrainedProblem(objective, cons),
                             DynamicsParams(eta=eta, rho=rho))
        assert isinstance(field, AffineVectorField) == (formula is equality)
        for _ in range(20):
            z = rng.standard_normal(5)
            want = np.concatenate(formula(z[:3], z[3:]))
            assert np.allclose(field(z), want, rtol=1e-12, atol=1e-14)


def test_stacked_euler_steps_match_each_column():
    # a (K, d) stack steps every column with its own eta and delta, and
    # with the dual form its own a = delta eta / rho picks (a > 1 on the
    # last column): each column gets the bits of its own one-column step
    rng = np.random.default_rng(31)
    A = rng.standard_normal((3, 4))
    grid = [DynamicsParams(eta=eta, rho=0.8) for eta in (0.5, 2.0, 6.0)]
    delta = np.array([0.1, 0.3, 0.25])  # a = 0.0625, 0.75, 1.875
    for cons in (InequalityConstraints(A=A, b=rng.standard_normal(3)),
                 TwoSidedConstraints(A=A, b_lo=-np.ones(3), b_hi=np.ones(3))):
        p = ConstrainedProblem(QuadraticObjective(np.eye(4)), cons)
        stacked = _AugmentedField(p, grid)
        Z = rng.standard_normal((3, 7))
        step, dz = stacked.euler_block(Z, delta, 1)[0], stacked(Z)
        block = _advance(stacked)(Z, delta, 5)
        assert block.shape == (5, 3, 7)
        for k, params in enumerate(grid):
            field = vector_field(p, params)
            assert np.array_equal(dz[k], field(Z[k]))
            assert np.array_equal(step[k], field.euler_block(Z[k], delta[k], 1)[0])
            z = Z[k]
            for row in block[:, k]:
                z = field.euler_block(z, delta[k], 1)[0]
                assert np.array_equal(row, z)
    with pytest.raises(ValueError, match="shared rho"):
        _AugmentedField(p, [UNIT, DynamicsParams(eta=1.0, rho=2.0)])


def _oracle_euler_step(p, params, z, delta):
    """One Euler step z + delta * field(z) of p's flow at params, written out
    from the formulas: the effective multiplier m = max(rho (A x - b) + lam, 0),
    or the soft threshold of y = rho A x + lam, the primal block
    x + delta (-grad f(x) - A^T m) and the dual block as the convex
    combination (1 - a) lam + a m, or as lam + a (m - lam) where
    a = delta eta / rho > 1."""
    n, rho, cons = p.dim_n, params.rho, p.constraints
    x, lam = z[:n], z[n:]
    if isinstance(cons, InequalityConstraints):
        m = np.maximum(rho * (cons.A @ x - cons.b) + lam, 0.0)
    else:
        y = rho * (cons.A @ x) + lam
        m = np.maximum(np.minimum(y - rho * cons.b_lo, 0.0), y - rho * cons.b_hi)
    a = delta * params.eta / rho
    dual = (1.0 - a) * lam + a * m if a <= 1.0 else lam + a * (m - lam)
    dx = -p.objective.grad(x) - cons.A.T.copy() @ m
    return np.concatenate([x + delta * dx, dual])


def _blocks(field, z, delta, k, count=3):
    """count euler_block calls of k steps, each from the last row of the
    one before, as one array of rows."""
    blocks = []
    for _ in range(count):
        blocks.append(field.euler_block(z, delta, k))
        z = blocks[-1][-1]
    return np.concatenate(blocks)


@pytest.mark.parametrize("k", [1, 7, 256])
def test_augmented_euler_block_is_step_by_step_euler(k):
    # the fused kernel, bit for bit, against one oracle step at a time over
    # three blocks: one state, a (K, d) stack whose columns all have
    # a <= 1 (one fused update per step) and one whose columns lie on both
    # sides of a = 1, inequality and two-sided constraints, the logistic
    # objective's pre-signed rows, and a black-box oracle (no _stacks)
    # whose grad hands back its own argument (the kernel may not write
    # into it); at rho = 0.8 and at rho = 1, where the kernel leaves out
    # the product by rho
    for rho in (0.8, 1.0):
        _check_augmented_blocks(k, rho)


def _check_augmented_blocks(k, rho):
    rng = np.random.default_rng(57)
    A = rng.standard_normal((3, 4))
    objectives = [QuadraticObjective(np.eye(4) + 0.1 * np.ones((4, 4))),
                  LogisticObjective(rng.standard_normal((9, 4)),
                                    rng.choice([-1.0, 1.0], size=9), reg=0.1),
                  ObjectiveOracle(lambda x: 0.5 * x @ x, lambda x: x, 1.0, 1.0)]
    constraints = [InequalityConstraints(A=A, b=rng.standard_normal(3)),
                   TwoSidedConstraints(A=A, b_lo=-np.ones(3), b_hi=np.ones(3))]
    grid = [DynamicsParams(eta=eta, rho=rho) for eta in (0.5, 2.0, 6.0)]
    delta = np.array([0.1, 0.3, 0.25])  # a = 0.0625, 0.75, 1.875 at rho = 0.8
    for objective in objectives:
        for cons in constraints:
            p = ConstrainedProblem(objective, cons)
            for cols in ([0, 1], [0, 1, 2]):
                Z = rng.standard_normal((len(cols), 7))
                Z_before = Z.tobytes()
                block = _blocks(_AugmentedField(p, [grid[c] for c in cols]), Z, delta[cols], k)
                assert block.shape == (3 * k, len(cols), 7) and Z.tobytes() == Z_before
                for i, c in enumerate(cols):
                    one = _blocks(vector_field(p, grid[c]), Z[i], delta[c], k)
                    assert one.shape == (3 * k, 7)
                    z = Z[i]
                    for j in range(3 * k):
                        z = _oracle_euler_step(p, grid[c], z, delta[c])
                        assert block[j, i].tobytes() == z.tobytes()
                        assert one[j].tobytes() == z.tobytes()
