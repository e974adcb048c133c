"""Tests for Lyapunov certificate construction and LMI verification."""

import dataclasses
import itertools

import numpy as np
import pytest

from saddleflow import certificates
from saddleflow import (
    CertificateVariant,
    ConstrainedProblem,
    DimensionMismatchError,
    DynamicsParams,
    EqualityConstraints,
    InequalityConstraints,
    InfeasibleError,
    InvalidInputError,
    NoSlackError,
    ObjectiveOracle,
    QuadraticObjective,
    TwoSidedConstraints,
    build_certificate_eq,
    build_certificate_ineq,
    build_certificate_rank,
    build_p_matrix,
    condition_number,
    lmi_check,
    lmi_sweep,
    rank_inequality_margins,
    simulate,
    solve_c_rank,
    vector_field,
    xi_bound,
)
from saddleflow.experiments import gen_logistic_ineq

from oracles import gamma_block_margin, rank_block_margin

UNIT = DynamicsParams(eta=1.0, rho=1.0)

# Oracle fixture for the scalar equality LMI margin: with B = [1], A = [1],
# eta = 1, c = 4, tau = 0.25 the matrix -G^T P - P G - tau P equals
# [[5, 0.75], [0.75, 1]], whose eigenvalues are (6 +- sqrt(18.25)) / 2.
LMI_EQ_SCALAR_MARGIN = 0.8639990636706174

# Oracle fixture for solve_c_rank at unit constants, gamma_bar = 0: bisection
# on the three inequalities brackets the feasibility boundary inside
# (10.0, 10.1); condition 3 reads 2c - 1.5 >= 2 (3 + 1/(2c))^2 there.
C_RANK_UNIT = 10.050953850369734


def unit_eq_problem():
    # mu = ell = kappa1 = kappa2 = 1
    return ConstrainedProblem(
        QuadraticObjective(np.eye(1)),
        EqualityConstraints(A=np.array([[1.0]]), b=np.array([0.0])),
    )


def unit_ineq_problem(b=0.0):
    return ConstrainedProblem(
        QuadraticObjective(np.eye(1)),
        InequalityConstraints(A=np.array([[1.0]]), b=np.array([float(b)])),
    )


def random_problem(seed, n=4, m=2, kind="inequality"):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    W = M @ M.T + np.eye(n)
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    if kind == "equality":
        cons = EqualityConstraints(A=A, b=b)
    elif kind == "inequality":
        cons = InequalityConstraints(A=A, b=b)
    else:
        cons = TwoSidedConstraints(A=A, b_lo=b - 1.0, b_hi=b + 1.0)
    return ConstrainedProblem(QuadraticObjective(W, q=rng.standard_normal(n)), cons)


def test_equality_certificate_unit_constants():
    cert = build_certificate_eq(unit_eq_problem(), UNIT)
    assert cert.c == pytest.approx(4.0)
    assert cert.tau == pytest.approx(0.25)
    assert cert.variant is CertificateVariant.EQUALITY


def test_equality_certificate_formula():
    # mu = 1, ell = 2, kappa1 = kappa2 = 1: c = 4 max(2, 1) = 8,
    # tau = min(eta kappa1 / (4 ell), kappa1 mu / (4 kappa2)) = 1/8
    p = ConstrainedProblem(
        QuadraticObjective(np.diag([1.0, 2.0])),
        EqualityConstraints(A=np.array([[1.0, 0.0]]), b=np.array([0.0])),
    )
    cert = build_certificate_eq(p, UNIT)
    assert cert.c == pytest.approx(8.0)
    assert cert.tau == pytest.approx(0.125)
    assert cert.tau == pytest.approx(min(1.0 / (4 * 2.0), 1.0 * 1.0 / (4 * 1.0)))


def test_p_matrix_block_formula():
    P = build_p_matrix(np.array([[1.0]]), eta=1.0, c=4.0)
    assert np.allclose(P, [[4.0, 1.0], [1.0, 4.0]])


def test_p_matrix_block_structure_general():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((2, 3))
    eta, c = 1.7, 9.0
    P = build_p_matrix(A, eta, c)
    assert np.allclose(P[:3, :3], eta * c * np.eye(3))
    assert np.allclose(P[:3, 3:], eta * A.T)
    assert np.allclose(P[3:, :3], eta * A)
    assert np.allclose(P[3:, 3:], c * np.eye(2))
    assert np.allclose(P, P.T)


def test_inequality_certificate_unit_constants():
    cert = build_certificate_ineq(unit_ineq_problem(), UNIT)
    assert cert.c == pytest.approx(20.0)
    assert cert.tau == pytest.approx(0.025)
    assert cert.variant is CertificateVariant.INEQUALITY


def test_inequality_certificate_rho_two():
    # max(2, 1)^2 max(1/2, 1)^2 = 4: c = 80, tau = 1/160
    cert = build_certificate_ineq(unit_ineq_problem(), DynamicsParams(eta=1.0, rho=2.0))
    assert cert.c == pytest.approx(80.0)
    assert cert.tau == pytest.approx(1.0 / 160.0)


def test_inequality_certificate_small_kappa1():
    # kappa1 = 0.5, kappa2 = 1: c = 20 (1/0.5) = 40, tau = 0.5/80
    p = ConstrainedProblem(
        QuadraticObjective(np.eye(2)),
        InequalityConstraints(A=np.array([[np.sqrt(0.5), 0.0], [0.0, 1.0]]),
                              b=np.zeros(2)),
    )
    assert p.bounds.kappa1 == pytest.approx(0.5)
    assert p.bounds.kappa2 == pytest.approx(1.0)
    cert = build_certificate_ineq(p, UNIT)
    assert cert.c == pytest.approx(40.0)
    assert cert.tau == pytest.approx(0.00625)


def test_two_sided_certificate_reuses_inequality_constants():
    pts = random_problem(8, kind="two-sided")
    pin = ConstrainedProblem(
        pts.objective,
        InequalityConstraints(A=pts.constraints.A, b=pts.constraints.b_hi),
    )
    cts = build_certificate_ineq(pts, DynamicsParams(eta=1.3, rho=0.9))
    cin = build_certificate_ineq(pin, DynamicsParams(eta=1.3, rho=0.9))
    assert cts.variant is CertificateVariant.TWO_SIDED
    assert cts.c == cin.c and cts.tau == cin.tau
    assert np.allclose(cts.P, cin.P)


def test_certificates_positive_definite():
    # Cholesky succeeds and c^2 > eta kappa2 on random instances
    for seed in range(8):
        p = random_problem(seed)
        params = DynamicsParams(eta=float(0.5 + seed / 4), rho=1.0)
        cert = build_certificate_ineq(p, params)
        np.linalg.cholesky(cert.P)
        assert cert.c**2 > params.eta * p.bounds.kappa2
        peq = random_problem(seed, kind="equality")
        ceq = build_certificate_eq(peq, params)
        np.linalg.cholesky(ceq.P)
        assert ceq.c**2 > params.eta * peq.bounds.kappa2
        assert ceq.tau == pytest.approx(params.eta * peq.bounds.kappa1 / ceq.c)
        assert cert.tau == pytest.approx(params.eta * p.bounds.kappa1 / (2 * cert.c))


def test_xi_bound_displaced_start():
    # (rho ||a|| + sqrt(eta)) * 1 + 0 + 0 + 0 = 2 for the scalar instance
    p = unit_ineq_problem(b=0.0)
    aux = xi_bound(p, UNIT, np.array([1.0, 0.0]), np.zeros(2))
    assert aux.xi == pytest.approx(2.0)
    assert aux.gamma_bar == 0.0  # the only constraint is active at x* = 0
    assert aux.m1 == 1
    assert aux.inactive == ()


def test_xi_bound_gamma_bar_formula():
    # instance built so xi = 2 and eps = 1 exactly: gamma_bar = 2/3
    p = ConstrainedProblem(
        QuadraticObjective(np.eye(2), q=np.array([0.0, 1.0])),
        InequalityConstraints(A=np.eye(2), b=np.zeros(2)),
    )
    eq = np.array([0.0, -1.0, 0.0, 0.0])  # x* = (0,-1), lam* = 0
    z0 = np.array([0.0, -0.5, 0.0, 0.0])  # distance 1/2
    aux = xi_bound(p, UNIT, z0, eq)
    assert aux.xi == pytest.approx(2.0)
    assert aux.eps_slack == pytest.approx(1.0)
    assert aux.gamma_bar == pytest.approx(2.0 / 3.0)
    assert aux.gamma_bar == pytest.approx(aux.xi / (aux.xi + 1.0 * aux.eps_slack))
    assert aux.m1 == 1 and aux.inactive == (1,)


def test_xi_bound_zero_displacement():
    p = unit_ineq_problem(b=0.0)
    eq = np.zeros(2)
    aux = xi_bound(p, UNIT, eq, eq)
    assert aux.xi == 0.0
    assert aux.gamma_bar == 0.0


def test_xi_bound_no_slack_error():
    # a violated constraint classified inactive has nonpositive slack
    p = unit_ineq_problem(b=0.0)
    bogus = np.array([1.0, 0.0])
    with pytest.raises(NoSlackError):
        xi_bound(p, UNIT, bogus, bogus)


def test_solve_c_rank_unit_constants():
    # oracle: independent bisection on the three margins
    lo, hi = 0.0, 64.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        m = rank_inequality_margins(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, mid)
        if np.all(m >= 0):
            hi = mid
        else:
            lo = mid
    assert hi == pytest.approx(C_RANK_UNIT, abs=1e-9)
    got = solve_c_rank(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0)
    assert 10.0 < got < 10.1
    assert got == pytest.approx(C_RANK_UNIT, abs=2e-6)
    assert np.all(rank_inequality_margins(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, got) >= 0)


def test_rank_inequality_margins_individual_boundaries():
    # inequality 1 alone: c >= rho kappa2 = 1
    m_at_1 = rank_inequality_margins(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0)
    assert m_at_1[0] == pytest.approx(0.0)
    assert rank_inequality_margins(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.99)[0] < 0
    # inequality 2 alone: (2c - 3)/2 >= 4 at unit constants, boundary c = 5.5
    m_at_55 = rank_inequality_margins(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 5.5)
    assert m_at_55[1] == pytest.approx(0.0)
    assert rank_inequality_margins(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 5.49)[1] < 0


def test_solve_c_rank_monotonicity():
    base = dict(mu=1.0, ell=1.0, kappa1=1.0, kappa2=1.0, eta=1.0, rho=1.0,
                gamma_bar=0.0)

    def solve(**kw):
        a = dict(base)
        a.update(kw)
        return solve_c_rank(a["mu"], a["ell"], a["kappa1"], a["kappa2"],
                            a["eta"], a["rho"], a["gamma_bar"])

    tol = 1e-5
    assert solve(mu=2.0) <= solve(mu=1.0) + tol  # non-increasing in mu
    assert solve(ell=2.0) >= solve(ell=1.0) - tol  # non-decreasing in ell
    assert solve(kappa2=2.0) >= solve(kappa2=1.0) - tol
    assert solve(gamma_bar=0.5) >= solve(gamma_bar=0.0) - tol
    assert solve(gamma_bar=0.9) >= solve(gamma_bar=0.5) - tol


def test_solve_c_rank_infeasible_gamma_bar():
    with pytest.raises(InfeasibleError):
        solve_c_rank(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


def test_solve_c_rank_returns_where_floats_are_wider_than_its_tolerance():
    # c near 1e18: adjacent floats are further apart than C_RANK_TOL, so the
    # bisection stops once its midpoint is an end of the bracket
    c = solve_c_rank(1.0, 1.0, 1.0, 1.0, 1.0, 1e9, 0.5)
    assert np.spacing(c) > certificates.C_RANK_TOL
    assert np.all(rank_inequality_margins(1.0, 1.0, 1.0, 1.0, 1.0, 1e9, 0.5, c) >= 0)
    assert not np.all(rank_inequality_margins(1.0, 1.0, 1.0, 1.0, 1.0, 1e9, 0.5, 0.99 * c) >= 0)


def test_solve_c_rank_overflow_is_infeasible():
    # eta^2 past the float range raises OverflowError in the margins; that c
    # counts as infeasible, so no c is found and InfeasibleError says so
    with pytest.raises(OverflowError):
        rank_inequality_margins(1.0, 1.0, 1.0, 1.0, 1e200, 1.0, 0.5, 1.0)
    with pytest.raises(InfeasibleError, match="no feasible c"):
        solve_c_rank(1.0, 1.0, 1.0, 1.0, 1e200, 1.0, 0.5)


def test_lyapunov_value_quadratic_form():
    # V(z) = (z - z*)^T P (z - z*), as a run records it at its start
    p = unit_eq_problem()
    cert = build_certificate_eq(p, UNIT)  # P = [[4,1],[1,4]]
    field = vector_field(p, UNIT)

    def lyapunov_value(z, eq):
        return simulate(field, z, 0.1, 0.1, cert=cert, eq=eq).v_values[0]

    eq = np.array([0.3, -0.7])
    same = lyapunov_value(eq, eq)
    assert same == 0.0
    assert lyapunov_value(eq + [1.0, 0.0], eq) == pytest.approx(4.0)
    s = eq + 1.0
    assert lyapunov_value(s, eq) == pytest.approx(10.0)
    wide = np.zeros(3)
    for args in ((wide, eq), (s, wide), (np.zeros(1), eq)):
        with pytest.raises(DimensionMismatchError):
            lyapunov_value(*args)


def test_lmi_check_equality_scalar():
    # oracle first: eigenvalues of [[5, 0.75], [0.75, 1]] by hand formula
    lo = (6.0 - np.sqrt(18.25)) / 2.0
    assert lo == pytest.approx(LMI_EQ_SCALAR_MARGIN, abs=1e-15)
    p = unit_eq_problem()
    cert = build_certificate_eq(p, UNIT)
    got = lmi_check(cert, p, UNIT, B=np.array([[1.0]]))
    assert got == pytest.approx(LMI_EQ_SCALAR_MARGIN, rel=1e-12)


def test_lmi_check_fails_for_inflated_tau():
    p = unit_eq_problem()
    cert = build_certificate_eq(p, UNIT)
    bad = dataclasses.replace(cert, tau=10.0)
    assert lmi_check(bad, p, UNIT, B=np.array([[1.0]])) < 0


def test_lmi_check_inequality_scalar_vertex():
    p = unit_ineq_problem()
    cert = build_certificate_ineq(p, UNIT)  # c = 20
    got = lmi_check(cert, p, UNIT, B=np.array([[1.0]]), Gamma=np.array([0.0]))
    assert got >= 0.0


def test_lmi_check_dimension_errors():
    p = unit_eq_problem()
    cert = build_certificate_eq(p, UNIT)
    with pytest.raises(DimensionMismatchError, match="^B must be 1x1"):
        lmi_check(cert, p, UNIT, B=np.eye(2))
    # a Gamma outside [0, 1]^m, or a non-finite Gamma or B, is refused
    # by name; logistic 4x3 seed 3 gave a margin of -8.1e11 at
    # Gamma = (2, -1, 0.5) and numpy's LinAlgError at a NaN entry
    p = gen_logistic_ineq(3, n=4, m=3, n_data=20)
    cert = build_certificate_ineq(p, UNIT)
    B = p.objective.mu * np.eye(4)
    for gamma in ([2.0, -1.0, 0.5], [0.5, np.nan, 0.5], [0.0, 0.0, np.inf],
                  [0.0, 0.0, -1e-12]):
        with pytest.raises(InvalidInputError, match="^Gamma must be finite and in"):
            lmi_check(cert, p, UNIT, B, np.array(gamma))
    with pytest.raises(InvalidInputError, match="^Gamma must be finite and in"):
        lmi_check(cert, p, UNIT, B)
    bad = B.copy()
    bad[0, 1] = np.nan
    with pytest.raises(InvalidInputError, match="^B must be finite"):
        lmi_check(cert, p, UNIT, bad, np.full(3, 0.5))
    with pytest.raises(DimensionMismatchError, match="^Gamma needs 3 diagonal entries"):
        lmi_check(cert, p, UNIT, B, np.full(2, 0.5))
    assert np.isfinite(lmi_check(cert, p, UNIT, B, np.array([0.0, 1.0, 0.5])))


def test_lmi_sweep_equality_passes():
    p = random_problem(3, kind="equality")
    cert = build_certificate_eq(p, UNIT)
    rep = lmi_sweep(cert, p, UNIT, b_samples=100, seed=0)
    assert rep.verdict == "pass"
    assert rep.min_margin >= 0.0  # the equality LMI is PSD with slack
    assert rep.samples_checked == 100


def test_lmi_sweep_inequality_vertex_count():
    p = random_problem(4, n=4, m=2, kind="inequality")
    cert = build_certificate_ineq(p, UNIT)
    rep = lmi_sweep(cert, p, UNIT, b_samples=50, seed=1)
    assert rep.verdict == "pass"
    assert rep.samples_checked == 50 * 4  # 2^2 Gamma vertices per B


def test_lmi_sweep_tightness_probe():
    p = random_problem(3, kind="equality")
    cert = build_certificate_eq(p, UNIT)
    bad = dataclasses.replace(cert, tau=10.0 * cert.tau)
    rep = lmi_sweep(bad, p, UNIT, b_samples=50, seed=0)
    assert rep.verdict == "fail"
    assert rep.min_margin < -1e-8 * np.linalg.eigvalsh(cert.P)[-1]


def test_lmi_sweep_two_sided():
    p = random_problem(9, n=3, m=2, kind="two-sided")
    cert = build_certificate_ineq(p, UNIT)
    rep = lmi_sweep(cert, p, UNIT, b_samples=30, seed=2)
    assert rep.verdict == "pass"


def test_gamma_block_bound_holds_on_vertices():
    # c >= rho kappa2 makes the dual coupling block PSD
    rng = np.random.default_rng(17)
    for _ in range(5):
        m, n = 3, 5
        A = rng.standard_normal((m, n))
        eta = float(rng.uniform(0.5, 2.0))
        rho = float(rng.uniform(0.5, 2.0))
        k2 = float(np.linalg.eigvalsh(A @ A.T)[-1])
        for c in (rho * k2, 2.0 * rho * k2):
            for bits in itertools.product([0.0, 1.0], repeat=m):
                margin = gamma_block_margin(A, eta, rho, c, np.array(bits))
                assert margin >= -1e-8 * eta * k2


def test_rank_block_bound_holds_on_capped_vertices():
    # Q2 >= (eta kappa1 / 2) I at the solve_c_rank choice of c
    p = ConstrainedProblem(
        QuadraticObjective(np.eye(3), q=np.array([-2.0, 0.0, 0.0])),
        InequalityConstraints(A=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                              b=np.array([1.0, 1.0])),
    )
    eq = np.array([1.0, 0.0, 0.0, 1.0, 0.0])  # x* = (1, 0, 0), lam* = (1, 0)
    z0 = np.zeros(5)
    cert = build_certificate_rank(p, UNIT, z0, eq)
    aux = cert.rank_aux
    A = p.constraints.A
    k1_active = 1.0  # active row (1, 0, 0) alone
    k2 = p.bounds.kappa2
    for bits in itertools.product([0.0, 1.0], repeat=2):
        g = np.array(bits)
        for j in aux.inactive:
            g[j] = min(g[j], aux.gamma_bar)
        margin = rank_block_margin(A, 1.0, 1.0, cert.c, k1_active, g)
        assert margin >= -1e-8 * k2


def test_rank_certificate_tau_formula():
    p = ConstrainedProblem(
        QuadraticObjective(np.eye(3), q=np.array([-2.0, 0.0, 0.0])),
        InequalityConstraints(A=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                              b=np.array([1.0, 1.0])),
    )
    eq = np.array([1.0, 0.0, 0.0, 1.0, 0.0])  # x* = (1, 0, 0), lam* = (1, 0)
    z0 = np.zeros(5)
    cert = build_certificate_rank(p, UNIT, z0, eq)
    assert cert.variant is CertificateVariant.RANK_RELAXED
    assert cert.tau == pytest.approx(1.0 * 1.0 / (2.0 * cert.c))
    assert cert.rank_aux.gamma_bar < 1.0
    margins = rank_inequality_margins(1.0, 1.0, 1.0, p.bounds.kappa2, 1.0, 1.0,
                                      cert.rank_aux.gamma_bar, cert.c)
    assert np.all(margins >= 0.0)


def test_rank_sweep_passes_with_capped_vertices():
    p = ConstrainedProblem(
        QuadraticObjective(np.eye(3), q=np.array([-2.0, 0.0, 0.0])),
        InequalityConstraints(A=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                              b=np.array([1.0, 1.0])),
    )
    eq = np.array([1.0, 0.0, 0.0, 1.0, 0.0])  # x* = (1, 0, 0), lam* = (1, 0)
    z0 = np.zeros(5)
    cert = build_certificate_rank(p, UNIT, z0, eq)
    rep = lmi_sweep(cert, p, UNIT, b_samples=40, seed=3)
    assert rep.verdict == "pass"


def test_condition_number_diagonal():
    assert condition_number(np.diag([2.0, 8.0])) == pytest.approx(4.0)


def test_p_matrix_read_only():
    cert = build_certificate_eq(unit_eq_problem(), UNIT)
    with pytest.raises(ValueError):
        cert.P[0, 0] = 0.0


def reference_sweep(cert, p, params, b_samples, seed):
    """lmi_sweep as a loop of lmi_check, with B drawn by scipy's Haar
    sampler: (samples_checked, min_margin, worst_sample, worst_vertex),
    the worst point being the first in (B, vertex) order."""
    from scipy.stats import ortho_group

    n, mu, ell = p.dim_n, p.objective.mu, p.objective.ell
    rng = np.random.default_rng(seed)
    bs = []
    for _ in range(b_samples):
        Q = ortho_group.rvs(dim=n, random_state=rng) if n > 1 else np.eye(1)
        s = rng.uniform(size=n)
        bs.append(mu * np.eye(n) + (ell - mu) * (Q * s[None, :]) @ Q.T)
    if cert.variant is CertificateVariant.EQUALITY:
        vertices = [None]
    else:
        vertices = list(certificates._gamma_vertices(cert, p.dim_m, seed + 1))
    worst = (np.inf, None, None)
    for i, B in enumerate(bs):
        for g in vertices:
            margin = lmi_check(cert, p, params, B, g)
            if margin < worst[0]:
                worst = (margin, i, None if g is None else tuple(g))
    return len(bs) * len(vertices), worst[0], worst[1], worst[2]


def rank_problem():
    p = ConstrainedProblem(
        QuadraticObjective(np.eye(3), q=np.array([-2.0, 0.0, 0.0])),
        InequalityConstraints(A=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                              b=np.array([1.0, 1.0])),
    )
    eq = np.array([1.0, 0.0, 0.0, 1.0, 0.0])  # x* = (1, 0, 0), lam* = (1, 0)
    z0 = np.zeros(5)
    return p, build_certificate_rank(p, UNIT, z0, eq)


def sweep_cases():
    params = DynamicsParams(eta=0.7, rho=1.3)
    for seed, kind in ((3, "equality"), (4, "inequality"), (9, "two-sided")):
        p = random_problem(seed, n=4, m=3, kind=kind)
        build = build_certificate_eq if kind == "equality" else build_certificate_ineq
        yield kind, p, build(p, params), params
    p, cert = rank_problem()
    assert 0.0 < cert.rank_aux.gamma_bar < 1.0 and cert.rank_aux.inactive == (1,)
    yield "rank-relaxed", p, cert, UNIT
    p = random_problem(5, n=18, m=17, kind="inequality")  # sampled vertices
    yield "m17", p, build_certificate_ineq(p, params), params


def written_out_g(cert, p, params, B, gamma):
    """G at one (B, Gamma) point, block by block."""
    A = p.constraints.A
    m, n = A.shape
    eta, rho = params.eta, params.rho
    G = np.zeros((n + m, n + m))
    if cert.variant is CertificateVariant.EQUALITY:
        G[:n, :n] = -B
        G[:n, n:] = -A.T
        G[n:, :n] = eta * A
        return G
    GA = gamma[:, None] * A
    G[:n, :n] = -B - rho * (A.T @ GA)
    G[:n, n:] = -A.T * gamma[None, :]
    G[n:, :n] = eta * GA
    G[n:, n:] = (eta / rho) * (np.diag(gamma) - np.eye(m))
    return G


def written_out_split(cert, p, params, B, gamma):
    """M(B, Gamma) = M_Gamma + N_B at one point, block by block: M_Gamma
    from G at B = 0, N_B = X + X^T with X = E B E^T P."""
    n = p.dim_n
    P = cert.P
    G = written_out_g(cert, p, params, np.zeros((n, n)), gamma)
    M = -(G.T @ P + P @ G) - cert.tau * P
    BP = B @ P[:n]
    N = np.zeros_like(P)
    N[:n, :n] = BP[:, :n] + BP[:, :n].T
    N[:n, n:] = BP[:, n:]
    N[n:, :n] = BP[:, n:].T
    return 0.5 * (M + M.T) + N


def random_points(p):
    """Five random (B, gamma) points for p."""
    rng = np.random.default_rng(8)
    for _ in range(5):
        R = rng.standard_normal((p.dim_n, p.dim_n))
        yield R @ R.T + np.eye(p.dim_n), rng.uniform(size=p.dim_m)


@pytest.mark.parametrize("case", list(sweep_cases())[:4], ids=lambda c: c[0])
def test_lmi_check_equals_written_out_g(case):
    _, p, cert, params = case
    for B, gamma in random_points(p):
        want = float(np.linalg.eigvalsh(written_out_split(cert, p, params, B, gamma))[0])
        assert lmi_check(cert, p, params, B, gamma) == want


@pytest.mark.parametrize("case", list(sweep_cases())[:4], ids=lambda c: c[0])
def test_lmi_check_within_resolution_of_the_full_product(case):
    # the split M_Gamma + N_B rounds differently from the product of the
    # whole G; the sweep's resolution r bounds the difference
    _, p, cert, params = case
    r = lmi_sweep(cert, p, params, b_samples=1).resolution
    for B, gamma in random_points(p):
        G = written_out_g(cert, p, params, B, gamma)
        M = -(G.T @ cert.P + cert.P @ G) - cert.tau * cert.P
        want = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
        assert abs(lmi_check(cert, p, params, B, gamma) - want) <= r


@pytest.mark.parametrize("case", list(sweep_cases()), ids=lambda c: c[0])
def test_stacked_sweep_equals_lmi_check_loop(case):
    name, p, cert, params = case
    b_samples = 2 if p.dim_m > certificates.EXHAUSTIVE_VERTEX_LIMIT else 12
    for c in (cert, dataclasses.replace(cert, tau=50.0 * cert.tau)):
        rep = lmi_sweep(c, p, params, b_samples=b_samples, seed=11)
        got = (rep.samples_checked, rep.min_margin, rep.worst_sample, rep.worst_vertex)
        want = reference_sweep(c, p, params, b_samples, 11)
        if name == "m17":
            # both margins (0.088 and -1.34) are inside the rounding
            # resolution (about 160), where the screen reports the minimum
            # only to within it
            assert abs(want[1]) <= rep.resolution
            assert got[0] == want[0]
            assert abs(got[1] - want[1]) <= rep.resolution
            assert rep.verdict == "inconclusive"
        else:
            assert got == want


@pytest.mark.parametrize("seed", [3, 66, 145])
def test_screened_sweep_within_resolution_of_the_loop_on_logistic(seed):
    # the paper's logistic certificate: every margin is rounding noise
    params = DynamicsParams(eta=1.0, rho=1.0)
    p = gen_logistic_ineq(seed, n=10, m=8)
    cert = build_certificate_ineq(p, params)
    rep = lmi_sweep(cert, p, params, b_samples=10, seed=seed)
    checked, margin, _, _ = reference_sweep(cert, p, params, 10, seed)
    assert rep.samples_checked == checked == 2560
    assert abs(rep.min_margin - margin) <= rep.resolution
    assert rep.verdict == "inconclusive"
    # only the first B sample's stack of 256 vertices is computed
    assert (rep.eigvalsh_matrices, rep.screened_matrices) == (256, 2304)


def test_sweep_at_the_default_certify_size_is_within_resolution_of_the_loop():
    # logistic 50x40: d = 90, so 16 sampled vertices per stack and 65
    # stacks over the 1026 vertices
    params = DynamicsParams(eta=1.0, rho=1.0)
    p = gen_logistic_ineq(0)
    cert = build_certificate_ineq(p, params)
    rep = lmi_sweep(cert, p, params, b_samples=5, seed=0)
    checked, margin, _, _ = reference_sweep(cert, p, params, 5, 0)
    assert rep.samples_checked == checked == 5130
    assert abs(rep.min_margin - margin) <= rep.resolution
    assert rep.verdict == "inconclusive"
    assert (rep.eigvalsh_matrices, rep.screened_matrices) == (16, 5114)


@pytest.mark.parametrize("per_stack", [None, 1])
def test_screen_finds_a_later_minimum_just_below_the_running_one(per_stack, monkeypatch):
    # n = 1 and ell - mu = 1e-12: the B samples 1 + 1e-12 u differ so
    # little that later samples' minima sit within the resolution of the
    # first one's, some above it and some below; the margins themselves
    # (about 1.45) are far above it, so the report must be exact
    objective = ObjectiveOracle(lambda x: 0.5 * float(x @ x), lambda x: x,
                                mu=1.0, ell=1.0 + 1e-12)
    p = ConstrainedProblem(objective, InequalityConstraints(A=np.eye(1), b=np.zeros(1)))
    cert = build_certificate_ineq(p, UNIT)
    if per_stack:
        monkeypatch.setattr(certificates, "_STACK_FLOATS", per_stack * cert.P.size)
    rep = lmi_sweep(cert, p, UNIT, b_samples=8, seed=0)
    want = reference_sweep(cert, p, UNIT, 8, 0)
    first = reference_sweep(cert, p, UNIT, 1, 0)[1]
    assert want[2] > 0 and first - rep.resolution < want[1] < first
    assert want[1] > 2 * rep.resolution and rep.verdict == "pass"
    assert (rep.samples_checked, rep.min_margin,
            rep.worst_sample, rep.worst_vertex) == want


def test_stacked_sweep_spans_chunks(monkeypatch):
    p = random_problem(4, n=4, m=3, kind="inequality")
    cert = build_certificate_ineq(p, UNIT)
    whole = lmi_sweep(cert, p, UNIT, b_samples=10, seed=2)
    # 3 vertices per stack: the 8 vertices are checked in stacks of 3, 3, 2
    monkeypatch.setattr(certificates, "_STACK_FLOATS", 3 * cert.P.size)
    chunked = lmi_sweep(cert, p, UNIT, b_samples=10, seed=2)
    assert chunked == whole
    assert (whole.samples_checked, whole.min_margin,
            whole.worst_sample, whole.worst_vertex) == reference_sweep(cert, p, UNIT, 10, 2)


@pytest.mark.parametrize("per_stack", [None, 1])
def test_sweep_worst_point_takes_the_first_tie(per_stack, monkeypatch):
    # mu = ell makes every B sample the identity, so all samples tie; with
    # A = I, several Gamma vertices tie at the smallest margin as well
    p = ConstrainedProblem(
        QuadraticObjective(np.eye(3)),
        InequalityConstraints(A=np.eye(3), b=np.zeros(3)),
    )
    cert = build_certificate_ineq(p, UNIT)
    if per_stack:
        monkeypatch.setattr(certificates, "_STACK_FLOATS", per_stack * cert.P.size)
    rep = lmi_sweep(cert, p, UNIT, b_samples=7, seed=0)
    vertices = list(itertools.product((0.0, 1.0), repeat=3))
    margins = [lmi_check(cert, p, UNIT, np.eye(3), np.array(v)) for v in vertices]
    assert margins.count(min(margins)) > 1
    assert rep.worst_sample == 0
    assert rep.min_margin == min(margins)
    assert rep.worst_vertex == vertices[margins.index(min(margins))]


@pytest.mark.parametrize("n", [2, 5, 10])
def test_haar_draw_matches_scipy_ortho_group(n):
    from scipy.stats import ortho_group

    ours, theirs = np.random.default_rng(n), np.random.default_rng(n)
    assert np.array_equal(certificates._haar_orthogonal(ours, n),
                          ortho_group.rvs(dim=n, random_state=theirs))
    assert ours.uniform() == theirs.uniform()


@pytest.mark.parametrize("n", [1, 2, 10, 50])
def test_stacked_secant_samples_are_the_loop_of_draws(n):
    # lmi_sweep's B samples, drawn per sample in the loop's order (Q's
    # normals, then s) and factored as one stack, are the loop's bit for bit
    mu, ell = 0.3, 7.0
    for seed in (0, 3, 11, 34):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        loop = []
        for _ in range(100):
            Q = certificates._haar_orthogonal(theirs, n)
            s = theirs.uniform(size=n)
            loop.append(mu * np.eye(n) + (ell - mu) * (Q * s[None, :]) @ Q.T)
        stack = certificates._secant_samples(ours, n, 100, mu, ell)
        assert stack.shape == (100, n, n)
        assert stack.tobytes() == np.array(loop).tobytes()
        assert ours.uniform() == theirs.uniform()


def test_haar_draw_of_size_one_draws_nothing():
    rng = np.random.default_rng(1)
    assert np.array_equal(certificates._haar_orthogonal(rng, 1), np.eye(1))
    assert rng.uniform() == np.random.default_rng(1).uniform()
