"""Tests for Euler stepping, trajectory recording, and contraction sizing."""

import warnings

import numpy as np
import pytest

from saddleflow import (
    AffineVectorField,
    ConstrainedProblem,
    DimensionMismatchError,
    DivergedError,
    DynamicsParams,
    EqualityConstraints,
    InequalityConstraints,
    NonFiniteFieldError,
    QuadraticObjective,
    Trajectory,
    build_certificate_eq,
    choose_step_size,
    condition_number,
    euler_step,
    gen_equality_qp,
    gen_logistic_ineq,
    lipschitz_bound,
    rk4_step,
    simulate,
    solve_equilibrium,
    step_size_admissible,
    vector_field,
)
from saddleflow.dynamics import _BLOCK_STEPS
from saddleflow.integrator import _advance, _euler_iterates
from saddleflow.problem import LogisticObjective

# Oracle fixtures for the contraction factor r = exp(-tau d/2) + kP nu^2 d^2/2
# at tau = nu = kappa_P = 1 (hand formula evaluations).
R_AT_DELTA_01 = 0.956229424500714  # exp(-0.05) + 0.005
R_AT_DELTA_2 = 2.3678794411714423  # exp(-1) + 2
R_AT_DELTA_1E4 = 0.9999500062499791  # 1 - 5e-5 + ... + 5e-9

# Oracle fixture for ten Euler steps of dz = -z from 1 with delta = 0.1.
EULER_POW_10 = 0.3486784401000001  # 0.9 ** 10


def test_euler_step_zero_field_is_identity():
    z = np.array([1.0, -2.0, 0.5])
    out = euler_step(lambda z: np.zeros(3), z, 0.1)
    assert np.array_equal(out, z)


def test_euler_step_scalar_decay():
    out = euler_step(lambda z: -z, np.array([1.0]), 0.1)
    assert out[0] == pytest.approx(0.9)


def test_euler_step_on_saddle_field():
    # field at (x=2, lam=0) is (-2, 1); half step lands at (1, 0.5)
    p = ConstrainedProblem(
        QuadraticObjective(np.eye(1)),
        EqualityConstraints(A=np.array([[1.0]]), b=np.array([1.0])),
    )
    out = euler_step(vector_field(p, DynamicsParams()), np.array([2.0, 0.0]), 0.5)
    assert out == pytest.approx([1.0, 0.5])


def test_euler_step_rejects_nonfinite_field():
    with pytest.raises(NonFiniteFieldError):
        euler_step(lambda z: np.array([np.nan]), np.array([1.0]), 0.1)
    for delta in (0.0, -0.1, np.nan):
        for step in (euler_step, rk4_step):
            with pytest.raises(ValueError, match="delta must be positive"):
                step(lambda z: -z, np.array([1.0]), delta)


def test_simulate_refuses_a_nonpositive_step_and_a_short_horizon():
    z0 = np.array([1.0])
    for delta in (0.0, -0.1, np.nan):
        with pytest.raises(ValueError, match="delta must be positive"):
            simulate(lambda z: -z, z0, delta, 1.0)
    for horizon in (0.05, -1.0, np.nan):
        with pytest.raises(ValueError, match="horizon must be at least delta"):
            simulate(lambda z: -z, z0, 0.1, horizon)


def test_states_that_do_not_fit_the_field_are_refused():
    # each field of vector_field knows its length n + m (affine, oracle
    # equality and augmented); a state of any other length is refused
    # before any step, a single one or a (K, d) stack
    rng = np.random.default_rng(5)
    logistic = LogisticObjective(rng.standard_normal((20, 4)),
                                 rng.choice([-1.0, 1.0], size=20), reg=0.1)
    A = rng.standard_normal((3, 4))
    for p in (gen_equality_qp(42, 4, 3), gen_logistic_ineq(3, n=4, m=3, n_data=20),
              ConstrainedProblem(logistic, EqualityConstraints(A=A, b=np.zeros(3)))):
        field = vector_field(p, DynamicsParams())
        assert field.dim == 7
        assert euler_step(field, np.zeros(7), 0.01).shape == (7,)
        for bad in (np.zeros(5), np.zeros(8), np.zeros((2, 5))):
            for step in (euler_step, rk4_step):
                with pytest.raises(DimensionMismatchError, match="z must have length 7"):
                    step(field, bad, 0.01)
            with pytest.raises(DimensionMismatchError, match="z0 must have length 7"):
                simulate(field, bad, 0.01, 1.0)


def test_rk4_more_accurate_than_euler():
    # one step of dz = -z from 1: exact exp(-0.1)
    exact = np.exp(-0.1)
    e_err = abs(euler_step(lambda z: -z, np.array([1.0]), 0.1)[0] - exact)
    r_err = abs(rk4_step(lambda z: -z, np.array([1.0]), 0.1)[0] - exact)
    assert r_err < 1e-6  # local error ~ delta^5 / 5!
    assert r_err < e_err * 1e-4


def test_simulate_from_equilibrium_stays_put():
    p = gen_equality_qp(1)
    params = DynamicsParams()
    eq = solve_equilibrium(p, params)
    field = vector_field(p, params)
    traj = simulate(field, eq.z, 1e-2, 1.0)
    assert np.allclose(traj.zs, traj.zs[0][None, :], atol=1e-9)


def test_simulate_scalar_euler_closed_form():
    # oracle: the Euler map is multiplication by 0.9, so t = 1 gives 0.9^10
    assert 0.9**10 == EULER_POW_10
    traj = simulate(lambda z: -z, np.array([1.0]), 0.1, 1.0)
    assert traj.zs[-1, 0] == pytest.approx(EULER_POW_10, rel=1e-15)
    assert len(traj) == 11
    assert traj.times[-1] == pytest.approx(1.0)


def test_simulate_seeded_qp_distance_bound():
    # distance decays at tau/2 with constant sqrt(V0 / lambda_min(P))
    p = gen_equality_qp(42)
    params = DynamicsParams()
    cert = build_certificate_eq(p, params)
    eq = solve_equilibrium(p, params)
    field = vector_field(p, params)
    z0 = np.zeros(p.dim_n + p.dim_m)
    traj = simulate(field, z0, 1e-3, 5.0, cert=cert, eq=eq.z)
    v0 = traj.v_values[0]
    lam_min = np.linalg.eigvalsh(cert.P)[0]
    bound = np.sqrt(v0 / lam_min) * np.exp(-cert.tau * traj.times / 2.0)
    assert np.all(traj.distances <= bound * (1.0 + 1e-9) + 1e-12)
    # an equilibrium of the wrong length is refused before any step
    for bad in (eq.z[:-1], np.zeros(p.dim_n + p.dim_m + 1)):
        with pytest.raises(DimensionMismatchError, match="eq must have length"):
            simulate(field, z0, 1e-3, 5.0, cert=cert, eq=bad)


@pytest.mark.parametrize("seed,n,m", [(42, 5, 2), (3, 12, 9)])
def test_simulate_distances_are_linalg_norms(seed, n, m):
    # the recorded distances keep np.linalg.norm's bits, so fitted rates do;
    # V takes P (z - z*) as one matrix-vector product per row
    p = gen_equality_qp(seed, n, m)
    params = DynamicsParams()
    cert = build_certificate_eq(p, params)
    eq = solve_equilibrium(p, params)
    traj = simulate(vector_field(p, params), np.zeros(n + m), 1e-3, 2.0,
                    cert=cert, eq=eq.z)
    U = traj.zs - eq.z
    assert np.array_equal(traj.distances, np.linalg.norm(U, axis=1))
    assert np.array_equal(traj.dist_x, np.linalg.norm(U[:, :n], axis=1))
    assert np.array_equal(traj.dist_lambda, np.linalg.norm(U[:, n:], axis=1))
    PU = np.stack([cert.P @ u for u in U])
    assert np.array_equal(traj.v_values, np.einsum("ij,ij->i", PU, U))


def test_simulate_record_every_keeps_endpoints():
    traj = simulate(lambda z: -z, np.array([1.0]), 0.1, 1.0, record_every=4)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.0)
    assert len(traj) == 4  # steps 0, 4, 8, 10
    assert traj.zs[-1, 0] == pytest.approx(EULER_POW_10, rel=1e-15)


def test_simulate_divergence_guard():
    # the guard runs at recorded steps: every step, or every 7th here
    for record_every in (1, 7):
        with pytest.raises(DivergedError):
            simulate(lambda z: z, np.array([1.0]), 1.0, 100.0,
                     record_every=record_every)


def test_affine_euler_block_matches_generic_steps():
    p = gen_equality_qp(42)
    field = vector_field(p, DynamicsParams(eta=2.0))
    rng = np.random.default_rng(90)
    # a k-step request on this 7-dimensional map tabulates k // 7 powers;
    # the second request reuses the 5-power table of the first
    for delta, k, rows_out in ((1e-3, 40, 5), (1e-3, 28, 5), (0.25, 3, 1)):
        z = rng.standard_normal(p.dim_n + p.dim_m)
        rows = field.euler_block(z, delta, k)
        assert rows.shape == (rows_out, p.dim_n + p.dim_m)
        for got in rows:
            want = z + delta * field(z)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            z = want


def test_simulate_affine_matches_plain_callable():
    # the field's blocked iterates (euler_block) against the generic
    # z + delta f(z) path, on a step count that ends inside a block, at
    # three recording strides
    delta = 1e-3
    steps = 10 * _BLOCK_STEPS + 38
    for seed in (1, 23, 42):
        p = gen_equality_qp(seed)
        params = DynamicsParams()
        field = vector_field(p, params)
        cert = build_certificate_eq(p, params)
        eq = solve_equilibrium(p, params)
        z0 = np.random.default_rng(seed).standard_normal(p.dim_n + p.dim_m)
        for record_every in (1, 7, 1000):
            fast, ref = [simulate(f, z0, delta, steps * delta, cert=cert, eq=eq.z,
                                  record_every=record_every)
                         for f in (field, lambda z: field(z))]
            assert len(fast) == len(ref) == len(range(0, steps, record_every)) + 1
            np.testing.assert_array_equal(fast.times, ref.times)
            err = np.linalg.norm(fast.zs - ref.zs, axis=1)
            assert np.all(err <= 1e-10 * np.linalg.norm(ref.zs, axis=1)), (seed, record_every)
            np.testing.assert_allclose(fast.v_values, ref.v_values, rtol=1e-9, atol=0)
            np.testing.assert_allclose(fast.distances, ref.distances, rtol=1e-9, atol=0)


def _counting_advance(rng, widest, blow):
    """A stepper that returns a random number of rows per call. Each row
    of the state counts steps in its first entry and passes the divergence
    norm from step blow[c] on in column c (a one-state run has one column)."""
    def advance(z, delta, k):
        width = int(rng.integers(1, min(k, widest) + 1))
        ahead = np.arange(1, width + 1).reshape((width,) + (1,) * (z.ndim - 1))
        steps = z[..., 0] + ahead
        return np.stack([steps, np.where(steps >= blow, 1e13, 0.0)], axis=-1)
    return advance


def test_euler_kernel_guards_every_step_across_any_block_split():
    # one state or a stack of three, each column diverging from its own
    # step: the kernel names the first diverged step, and the lowest column
    # diverged at it, whatever the block split
    rng = np.random.default_rng(5)
    for _ in range(300):
        steps, widest = (int(v) for v in rng.integers(1, [60, 9]))
        for shape in ((), (3,)):
            blow = rng.integers(1, 2 * steps, size=shape)
            advance = _counting_advance(rng, widest, blow)
            z = np.zeros(shape + (2,))
            first = int(np.min(blow))
            if first <= steps:
                with pytest.raises(DivergedError, match=f"by step {first}$") as exc:
                    list(_euler_iterates(advance, z, 1.0, steps))
                assert exc.value.step == first
                assert exc.value.column == (int(np.argmin(blow)) if shape else None)
            else:
                blocks = list(_euler_iterates(advance, z, 1.0, steps))
                counted = np.concatenate(blocks)[..., 0]
                assert counted.reshape(steps, -1)[:, 0].tolist() == list(range(1, steps + 1))


def test_recorder_keeps_step_zero_the_multiples_of_its_stride_and_the_last():
    rng = np.random.default_rng(6)
    for _ in range(300):
        steps, stride, widest = (int(v) for v in rng.integers(1, [60, 20, 9]))
        traj = Trajectory(np.zeros(2), 1, 0.5, steps, stride, z_star=np.zeros(2), keep=True)
        advance = _counting_advance(rng, widest, steps + 1)
        picked = [traj.add(rows)[:, 0] for rows in
                  _euler_iterates(advance, np.zeros(2), 1.0, steps)]
        want = [s for s in range(1, steps + 1) if s % stride == 0 or s == steps]
        assert np.concatenate(picked).tolist() == want
        assert len(traj) == len(want) + 1
        assert traj.zs[:, 0].tolist() == [0] + want
        assert traj.times.tolist() == [0.5 * s for s in [0] + want]
        assert traj.distances.tolist() == [0] + want


def test_simulate_names_the_same_diverged_step_at_any_record_every():
    # inadmissible steps on an affine, a plain-callable and an augmented
    # field: the guard looks at every step, so thinning the recording does
    # not move the step it names (the first one past the divergence norm)
    rng = np.random.default_rng(13)
    p = ConstrainedProblem(QuadraticObjective(np.eye(4)),
                           InequalityConstraints(A=0.5 * rng.standard_normal((3, 4)),
                                                 b=rng.standard_normal(3)))
    affine = vector_field(gen_equality_qp(42), DynamicsParams())
    cases = [(affine, np.ones(7), 0.4), (lambda z: affine(z), np.ones(7), 0.4),
             (vector_field(p, DynamicsParams(eta=40.0)), np.zeros(7), 0.9)]
    for field, z0, delta in cases:
        z, first = z0, 0
        while np.linalg.norm(z) <= 1e12:
            z, first = euler_step(field, z, delta), first + 1
        assert first % 7, "pick a case whose diverged step is not a multiple of 7"
        for record_every in (1, 7):
            with pytest.raises(DivergedError, match=f"by step {first}$") as exc:
                simulate(field, z0, delta, 1000 * delta, record_every=record_every)
            assert exc.value.step == first


def test_generic_block_is_iterated_euler_step():
    # the equality field of a non-quadratic objective, as it is and as a
    # plain callable: _advance's block of _BLOCK_STEPS rows has, row by
    # row, the bits of euler_step applied in turn
    rng = np.random.default_rng(14)
    n, m = 5, 2
    p = ConstrainedProblem(LogisticObjective(rng.standard_normal((20, n)),
                                             np.sign(rng.standard_normal(20)), 0.1),
                           EqualityConstraints(A=rng.standard_normal((m, n)),
                                               b=rng.standard_normal(m)))
    params = DynamicsParams(eta=1.5)
    smooth = vector_field(p, params)
    assert not hasattr(smooth, "euler_block") and not hasattr(smooth, "euler_update")
    z0 = rng.standard_normal(n + m)
    for field in (smooth, lambda z: smooth(z)):
        for k in (3, 10 * _BLOCK_STEPS):
            rows = _advance(field)(z0, 0.01, k)
            assert rows.shape == (min(k, _BLOCK_STEPS), n + m)
            z = z0
            for row in rows:
                z = euler_step(field, z, 0.01)
                assert np.array_equal(row, z)


def test_blocked_affine_divergence_matches_step_by_step():
    # inadmissible deltas: |1 + delta lambda(G)| is in the thousands on the
    # QP, so the power table is cut short, and 1e50 on the scalar field, so
    # the rows of a block past the divergence overflow to inf. The affine
    # blocks and the generic blocks of a plain callable trip the guard at
    # the same step, without warnings.
    p = gen_equality_qp(42)
    cases = [(vector_field(p, DynamicsParams()), np.ones(p.dim_n + p.dim_m), 100.0),
             (AffineVectorField(np.array([[1e50]]), np.zeros(1), n=1), np.ones(1), 1.0)]
    for field, z0, delta in cases:
        for record_every in (1, 7):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DivergedError) as ref:
                    simulate(lambda z: field(z), z0, delta, 1000 * delta,
                             record_every=record_every)
                with pytest.raises(DivergedError) as fast:
                    simulate(field, z0, delta, 1000 * delta, record_every=record_every)
            assert str(fast.value) == str(ref.value)
            assert "by step" in str(fast.value)


def test_blocked_affine_power_overflow_keeps_finite_rows():
    # M = diag(1 + 1e10, 0): M^j overflows by j = 31, but z0 = (0, 1) maps
    # to zero in one step. A table holding inf would turn rows into
    # inf * 0 = NaN and report a divergence the flow does not have.
    field = AffineVectorField(np.diag([1e10, -1.0]), np.zeros(2), n=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = simulate(field, np.array([0.0, 1.0]), 1.0, 1000.0)
    assert len(traj) == 1001
    assert np.all(traj.zs[1:] == 0.0)


def test_simulate_requires_equilibrium_for_v():
    p = gen_equality_qp(1)
    params = DynamicsParams()
    cert = build_certificate_eq(p, params)
    field = vector_field(p, params)
    with pytest.raises(ValueError):
        simulate(field, np.zeros(p.dim_n + p.dim_m), 1e-3, 0.1, cert=cert)


def test_lipschitz_bound_formulas():
    # equality: ell + (1 + eta) sqrt(kappa2) = 1 + 2 = 3
    peq = ConstrainedProblem(
        QuadraticObjective(np.eye(1)),
        EqualityConstraints(A=np.array([[1.0]]), b=np.array([0.0])),
    )
    assert lipschitz_bound(peq, DynamicsParams()) == pytest.approx(3.0)
    # inequality: ell + rho kappa2 + (1 + eta) sqrt(kappa2) + eta/rho = 5
    pin = ConstrainedProblem(
        QuadraticObjective(np.eye(1)),
        InequalityConstraints(A=np.array([[1.0]]), b=np.array([0.0])),
    )
    assert lipschitz_bound(pin, DynamicsParams()) == pytest.approx(5.0)
    # eta -> 0 limit: the dual block vanishes, leaving ell + sqrt(kappa2)
    tiny = lipschitz_bound(peq, DynamicsParams(eta=1e-12))
    assert tiny == pytest.approx(2.0, abs=1e-9)


def test_step_certificate_refuses_nonpositive_and_nan_constants():
    for bad in (0.0, -1.0, np.nan):
        for args in ((bad, 1.0, 1.0, 1.0), (0.1, 1.0, 1.0, bad)):
            with pytest.raises(ValueError, match="must all be positive"):
                step_size_admissible(*args)


def test_step_certificate_values():
    # oracle: hand evaluation of the r formula
    assert np.exp(-0.05) + 0.005 == pytest.approx(R_AT_DELTA_01, abs=1e-15)
    got = step_size_admissible(0.1, 1.0, 1.0, 1.0)
    assert got.contraction == pytest.approx(R_AT_DELTA_01, rel=1e-14)
    assert got.admissible

    assert np.exp(-1.0) + 2.0 == pytest.approx(R_AT_DELTA_2, abs=1e-15)
    got = step_size_admissible(2.0, 1.0, 1.0, 1.0)
    assert got.contraction == pytest.approx(R_AT_DELTA_2, rel=1e-14)
    assert not got.admissible


def test_step_certificate_small_delta_expansion():
    # r(1e-4) = 1 - 5e-5 + O(1e-9) stays strictly below one
    got = step_size_admissible(1e-4, 1.0, 1.0, 1.0)
    assert got.contraction == pytest.approx(R_AT_DELTA_1E4, rel=1e-14)
    assert got.contraction < 1.0


def test_choose_step_size_hits_target():
    # tau = nu = kappa_P = 1: r(1) = 1.107 > 0.999 but r(1/2) = 0.904
    delta = choose_step_size(1.0, 1.0, 1.0)
    assert delta == 0.5
    assert step_size_admissible(delta, 1.0, 1.0, 1.0).contraction <= 0.999


def test_choose_step_size_respects_multiplier_cap():
    # delta eta / rho <= 1 caps the step at rho / eta
    delta = choose_step_size(1.0, 1.0, 1.0, eta=4.0, rho=1.0)
    assert delta <= 0.25


def test_choose_step_size_fallback_is_dyadic_and_admissible():
    # conservative constants make r <= 0.999 unattainable; the chooser
    # falls back to the admissible dyadic step with the smallest r
    p = gen_equality_qp(42)
    params = DynamicsParams()
    cert = build_certificate_eq(p, params)
    nu = lipschitz_bound(p, params)
    kp = condition_number(cert.P)
    assert 1.0 - cert.tau**2 / (8 * kp * nu**2) > 0.999  # target unattainable
    delta = choose_step_size(cert.tau, nu, kp)
    k = -np.log2(delta)
    assert k == int(k)
    r = step_size_admissible(delta, cert.tau, nu, kp).contraction
    assert r < 1.0
    for other in (delta * 2, delta / 2):
        r_other = step_size_admissible(other, cert.tau, nu, kp).contraction
        assert r <= r_other


def test_choose_step_size_no_admissible_step():
    # tau so small that exp(-tau delta / 2) rounds to 1 for every dyadic
    with pytest.raises(ValueError):
        choose_step_size(1e-70, 1.0, 1.0)


def test_per_step_contraction_in_p_norm():
    # Euler iterates contract by at least r per step in the P-norm
    p = gen_equality_qp(5)
    params = DynamicsParams()
    cert = build_certificate_eq(p, params)
    nu = lipschitz_bound(p, params)
    kp = condition_number(cert.P)
    delta = choose_step_size(cert.tau, nu, kp)
    r = step_size_admissible(delta, cert.tau, nu, kp).contraction
    eq = solve_equilibrium(p, params)
    field = vector_field(p, params)
    rng = np.random.default_rng(77)
    z0 = eq.z + rng.standard_normal(p.dim_n + p.dim_m)
    traj = simulate(field, z0, delta, 2000 * delta, cert=cert, eq=eq.z)
    v = traj.v_values
    ratios = v[1:] / np.maximum(v[:-1], 1e-300)
    assert np.all(np.sqrt(ratios) <= r + 1e-9)
    # V-monotonicity with the r^2 allowance
    assert np.all(v[1:] <= r * r * v[:-1] + 1e-12)


def test_discrete_multiplier_nonnegativity_at_cap():
    # delta eta / rho = 1 makes the dual update a pure replacement; the
    # iterates must keep lambda >= 0 exactly, not merely approximately
    rng = np.random.default_rng(88)
    p = ConstrainedProblem(
        QuadraticObjective(np.eye(4)),
        InequalityConstraints(A=rng.standard_normal((3, 4)),
                              b=rng.standard_normal(3)),
    )
    params = DynamicsParams(eta=2.5, rho=1.25)
    field = vector_field(p, params)
    delta = params.rho / params.eta  # exactly the cap
    z = np.concatenate([rng.standard_normal(4) * 5, np.abs(rng.standard_normal(3))])
    for _ in range(500):
        z = field.euler_update(z, delta)
        assert np.min(z[4:]) >= 0.0


def test_simulate_uses_exact_dual_update():
    # the trajectory driver must go through the convex-combination update
    rng = np.random.default_rng(89)
    p = ConstrainedProblem(
        QuadraticObjective(np.eye(3)),
        InequalityConstraints(A=rng.standard_normal((2, 3)),
                              b=rng.standard_normal(2)),
    )
    params = DynamicsParams(eta=1.0, rho=1.0)
    field = vector_field(p, params)
    z0 = np.concatenate([rng.standard_normal(3) * 3, np.zeros(2)])
    traj = simulate(field, z0, 1.0, 200.0)  # delta eta / rho = 1
    assert np.min(traj.zs[:, 3:]) >= 0.0
