"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines;
each check is quantitative and fails loudly with its measured numbers.
"""

import dataclasses
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from saddleflow import (
    ConstrainedProblem,
    DivergedError,
    DynamicsParams,
    EqualityConstraints,
    InequalityConstraints,
    QuadraticObjective,
    TwoSidedConstraints,
    build_certificate_eq,
    build_certificate_rank,
    certificate_for,
    certified_rate,
    condition_number,
    gamma_block_margin,
    gen_equality_qp,
    gen_logistic_ineq,
    lipschitz_bound,
    lmi_sweep,
    lti_matrix,
    pick_step_size,
    rank_block_margin,
    rank_inequality_margins,
    saturation_knee,
    simulate,
    solve_c_rank,
    solve_equilibrium,
    spectral_bounds,
    step_size_admissible,
    vector_field,
)

PARAMS = DynamicsParams(eta=1.0, rho=1.0)


def _verdict(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _run_to_equilibrium(p, params, horizon, delta=None):
    cert = certificate_for(p, params)
    eq = solve_equilibrium(p, params, tol=1e-9)
    if delta is None:
        delta, certified = pick_step_size(p, params, cert, horizon)
    else:
        certified = None
    z0 = np.zeros(p.dim_n + p.dim_m)
    traj = simulate(vector_field(p, params), z0, delta, horizon,
                    cert=cert, eq=eq.z)
    return cert, eq, traj, delta, certified


def test_criterion_1_equality_decay():
    t0 = time.perf_counter()
    p = gen_equality_qp(42, n=5, m=2)
    cert, eq, traj, delta, certified = _run_to_equilibrium(p, PARAMS, 5.0)
    elapsed = time.perf_counter() - t0
    assert certified, "step size must come from the contraction certificate"
    v, t = traj.v_values, traj.times
    v_ok = bool(np.all(v <= v[0] * np.exp(-cert.tau * t) * (1 + 1e-6)))
    lam_min = float(np.linalg.eigvalsh(cert.P)[0])
    c1 = math.sqrt(v[0] / lam_min)
    dist_x = np.linalg.norm(traj.zs[:, :5] - eq.x_star[None, :], axis=1)
    x_ok = bool(np.all(dist_x <= c1 * np.exp(-cert.tau * t / 2) * (1 + 1e-6)))
    _verdict(1, v_ok and x_ok and elapsed < 5.0,
             f"V and primal-distance envelopes hold over {len(traj)} steps, "
             f"tau={cert.tau:.4g}, delta={delta:g}, {elapsed:.2f}s")


def _inequality_decay_check(n, m, horizon, budget):
    t0 = time.perf_counter()
    p = gen_logistic_ineq(7, n=n, m=m, n_data=100, reg=0.1)
    cert, eq, traj, delta, _ = _run_to_equilibrium(p, PARAMS, horizon)
    elapsed = time.perf_counter() - t0
    v, t = traj.v_values, traj.times
    v_ok = bool(np.all(v <= v[0] * np.exp(-cert.tau * t) * (1 + 1e-6)))
    shrink = float(traj.distances[0] / traj.distances[-1])
    return v_ok, shrink, delta, elapsed, elapsed < budget


def test_criterion_2_inequality_decay():
    v_ok, shrink, delta, elapsed, in_budget = _inequality_decay_check(
        10, 8, horizon=250.0, budget=30.0)
    _verdict(2, v_ok and shrink >= 1e3 and in_budget,
             f"V envelope holds, distance shrink {shrink:.3g} >= 1e3, "
             f"delta={delta:.4g}, {elapsed:.2f}s")


@pytest.mark.slow
def test_criterion_2_inequality_decay_full_size():
    v_ok, shrink, delta, elapsed, in_budget = _inequality_decay_check(
        50, 40, horizon=40.0, budget=60.0)
    _verdict(2, v_ok and shrink >= 1e3 and in_budget,
             f"full size: V envelope holds, shrink {shrink:.3g} >= 1e3, "
             f"{elapsed:.2f}s < 60s")


def test_criterion_3_lmi_sweep_and_tightness():
    qp = gen_equality_qp(42, n=5, m=2)
    lg = gen_logistic_ineq(7, n=10, m=8, n_data=100, reg=0.1)
    base_pass, inflated_fail = [], []
    for p in (qp, lg):
        cert = certificate_for(p, PARAMS)
        report = lmi_sweep(cert, p, PARAMS, b_samples=100, seed=0)
        base_pass.append(report.passed)
        loose = dataclasses.replace(cert, tau=10.0 * cert.tau)
        inflated_fail.append(not lmi_sweep(loose, p, PARAMS,
                                           b_samples=100, seed=0).passed)
    _verdict(3, all(base_pass) and any(inflated_fail),
             f"both sweeps pass at tau, 10x tau fails on "
             f"{sum(inflated_fail)} of 2 problems")


def test_criterion_4_block_bounds_on_gamma_vertices():
    worst = np.inf
    rng = np.random.default_rng(0)
    for m, eta, rho in itertools.product((2, 3), (0.7, 1.5), (0.5, 2.0)):
        A = rng.standard_normal((m, m + 2))
        kappa2 = spectral_bounds(A).kappa2
        for c in (rho * kappa2, 3.0 * rho * kappa2):
            for bits in itertools.product((0.0, 1.0), repeat=m):
                margin = gamma_block_margin(A, eta, rho, c, np.array(bits))
                worst = min(worst, margin / (eta * kappa2))
    # rank-relaxed block on a hand instance with one inactive row
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    p = ConstrainedProblem(QuadraticObjective(np.eye(3), np.array([-2.0, 0.0, 0.0])),
                           InequalityConstraints(A, np.array([1.0, 1.0])))
    eq = solve_equilibrium(p, PARAMS, tol=1e-12)
    cert = build_certificate_rank(p, PARAMS, np.zeros(5), eq.z)
    gbar = cert.rank_aux.gamma_bar
    worst_rank = np.inf
    for g0 in (0.0, 1.0):          # active row: full range
        for g1 in (0.0, gbar):     # inactive row: capped at gamma_bar
            margin = rank_block_margin(A, 1.0, 1.0, cert.c, 1.0,
                                       np.array([g0, g1]))
            worst_rank = min(worst_rank, margin)
    ok = worst >= -1e-8 and worst_rank >= -1e-8
    _verdict(4, ok, f"coupling-block margins >= -1e-8 * eta kappa2 on all "
                    f"vertices (worst {worst:.3g}, rank {worst_rank:.3g})")


def test_criterion_5_contraction_and_divergence():
    p = gen_equality_qp(42, n=5, m=2)
    cert, eq, traj, delta, _ = _run_to_equilibrium(p, PARAMS, 5.0)
    nu = lipschitz_bound(p, PARAMS)
    kappa_p = condition_number(cert.P)
    r = step_size_admissible(delta, cert.tau, nu, kappa_p).contraction
    norms = np.sqrt(traj.v_values)
    ratios = norms[1:] / norms[:-1]
    ratio_ok = bool(np.all(ratios <= r + 1e-9)) and r < 1.0
    # a step far past admissibility must be caught, not silently integrated
    r_bad = step_size_admissible(0.5, cert.tau, nu, kappa_p).contraction
    assert r_bad >= 1.5
    try:
        bad = simulate(vector_field(p, PARAMS), np.zeros(7), 0.5, 25.0,
                       cert=cert, eq=eq.z)
        degraded = bool(bad.v_values[-1] > bad.v_values[0])
    except DivergedError:
        degraded = True
    _verdict(5, ratio_ok and degraded,
             f"every step contracts by <= r={r:.9f}; r={r_bad:.3g} step "
             f"diverges as detected")


def test_criterion_6_equilibrium_consistency():
    problems = {
        "equality": gen_equality_qp(42, n=5, m=2),
        "inequality": gen_logistic_ineq(7, n=10, m=8, n_data=100, reg=0.1),
        "two-sided": ConstrainedProblem(
            QuadraticObjective(np.diag([1.0, 2.0, 3.0]), np.array([1.0, -2.0, 0.5])),
            TwoSidedConstraints(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]]),
                                np.array([-0.2, -0.05]), np.array([0.2, 0.05]))),
    }
    worst_res, worst_spread = 0.0, 0.0
    split_ok = True
    rng = np.random.default_rng(5)
    for name, p in problems.items():
        eq = solve_equilibrium(p, PARAMS, tol=1e-9)
        worst_res = max(worst_res, eq.residual.total)
        starts = [rng.standard_normal(p.dim_n + p.dim_m) for _ in range(5)]
        sols = [solve_equilibrium(p, PARAMS, tol=1e-9, z0=z).z
                for z in starts]
        spread = max(np.linalg.norm(a - b) for a in sols for b in sols)
        worst_spread = max(worst_spread, spread)
        if name == "two-sided":
            lam = eq.lambda_star
            split_ok = bool(np.all(np.maximum(lam, 0.0) * np.maximum(-lam, 0.0)
                                   == 0.0))
    ok = worst_res <= 1e-8 and worst_spread <= 1e-7 and split_ok
    _verdict(6, ok, f"KKT residual <= {worst_res:.3g}, start spread <= "
                    f"{worst_spread:.3g}, two-sided splits complementary")


def test_criterion_7_exact_multiplier_nonnegativity():
    rng = np.random.default_rng(88)
    p = ConstrainedProblem(
        QuadraticObjective(np.eye(4)),
        InequalityConstraints(rng.standard_normal((3, 4)),
                              rng.standard_normal(3)))
    mins = []
    for eta, rho in ((2.5, 1.25), (2.0, 1.0)):
        params = DynamicsParams(eta=eta, rho=rho)
        delta = rho / eta  # delta eta / rho = 1, the cap
        z0 = np.concatenate([rng.standard_normal(4) * 5,
                             np.abs(rng.standard_normal(3))])
        traj = simulate(vector_field(p, params), z0, delta, 500 * delta)
        mins.append(float(np.min(traj.zs[:, 4:])))
    ok = all(v >= 0.0 for v in mins)
    _verdict(7, ok, f"min multiplier over both runs {min(mins):.3g} >= 0 exactly")


def test_criterion_8_spectral_saturation():
    p = gen_equality_qp(42, n=5, m=2)
    W, A = p.objective.W, p.constraints.A
    knee = saturation_knee(W, A)
    grid = np.geomspace(knee / 100.0, knee, 9)
    rates = np.array([lti_matrix(W, A, eta=e).rate for e in grid])
    monotone = bool(np.all(np.diff(rates) >= -1e-9))
    plateau = (lti_matrix(W, A, eta=100.0 * knee).rate
               <= 1.05 * lti_matrix(W, A, eta=10.0 * knee).rate)
    dominated = bool(np.all(
        rates >= np.array([certified_rate(W, A, e) for e in grid]) - 1e-9))
    _verdict(8, monotone and plateau and dominated,
             f"rate non-decreasing up to knee {knee:g}, <= 5% gain past "
             f"10x knee, always >= certified rate")


def test_criterion_9_rank_relaxed_certificate():
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    p = ConstrainedProblem(QuadraticObjective(np.eye(3), np.array([-2.0, 0.0, 0.0])),
                           InequalityConstraints(A, np.array([1.0, 1.0])))
    eq = solve_equilibrium(p, PARAMS, tol=1e-12)
    z0 = np.zeros(5)
    cert = build_certificate_rank(p, PARAMS, z0, eq.z)
    gbar = cert.rank_aux.gamma_bar
    at_c = rank_inequality_margins(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, gbar, cert.c)
    below = rank_inequality_margins(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, gbar,
                                    0.99 * cert.c)
    c_ok = bool(np.all(at_c >= 0.0)) and bool(np.any(below < 0.0))

    delta, certified = pick_step_size(p, PARAMS, cert, 5.0)
    traj = simulate(vector_field(p, PARAMS), np.zeros(5), delta, 5.0,
                    cert=cert, eq=eq.z)
    v, t = traj.v_values, traj.times
    decay_ok = bool(np.all(v <= v[0] * np.exp(-cert.tau * t) * (1 + 1e-6)))

    def aux_increase(tr):
        u = tr.zs - eq.z[None, :]
        v0 = 0.5 * np.sum(u[:, :3] ** 2, axis=1) + np.sum(u[:, 3:] ** 2, axis=1) / 2.0
        return float(np.max(np.diff(v0)))

    # V0 is non-increasing along the flow; Euler leaks O(delta^2) per step,
    # so the observed increase must be tiny and shrink ~16x when delta does 4x
    inc = aux_increase(traj)
    inc_fine = aux_increase(simulate(vector_field(p, PARAMS), np.zeros(5),
                                     delta / 4.0, 5.0, cert=cert, eq=eq.z))
    aux_ok = inc <= 1e-6 and inc_fine <= max(inc / 4.0, 1e-15)
    _verdict(9, c_ok and certified and decay_ok and aux_ok,
             f"c={cert.c:.4g} tight within 1%, V decays at tau={cert.tau:.4g}, "
             f"auxiliary function increase {inc:.2g} is integrator slop "
             f"(shrinks to {inc_fine:.2g} at delta/4)")


def test_criterion_10_unit_example_coverage():
    here = Path(__file__).parent
    modules = ("problem", "dynamics", "certificates", "integrator",
               "equilibrium", "spectral", "fileio", "experiments", "cli")
    missing = [m for m in modules if not (here / f"test_{m}.py").exists()]

    # spot re-derivations of committed fixtures from their stated oracles
    unit = ConstrainedProblem(QuadraticObjective(np.array([[1.0]])),
                              EqualityConstraints(np.array([[1.0]]),
                                                  np.array([0.0])))
    cert = build_certificate_eq(unit, PARAMS)
    hand_c = 4.0 * max(1.0, 1.0 * 1.0 / 1.0)
    oracle_ok = (cert.c == hand_c and cert.tau == 1.0 / hand_c)

    roots = np.roots([1.0, 1.0, 1.0])
    oracle_ok &= abs(max(roots.real)
                     + lti_matrix(np.array([[1.0]]), np.array([[1.0]])).rate) < 1e-12

    r = step_size_admissible(0.1, 1.0, 1.0, 1.0).contraction
    oracle_ok &= abs(r - (math.exp(-0.05) + 0.005)) < 1e-15

    lo, hi = 0.0, 64.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        feasible = bool(np.all(rank_inequality_margins(
            1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5, mid) >= 0.0))
        lo, hi = (lo, mid) if feasible else (mid, hi)
    oracle_ok &= abs(solve_c_rank(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5) - hi) < 1e-4

    _verdict(10, not missing and bool(oracle_ok),
             "per-module unit suites present; spot fixtures re-derived from "
             "their oracles agree")
