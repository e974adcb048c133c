"""Tests for problem generators, rate fitting, and experiment artifacts."""

import dataclasses
import math

import numpy as np
import pytest

from saddleflow import experiments

from saddleflow import (
    ConstrainedProblem,
    DivergedError,
    DynamicsParams,
    InequalityConstraints,
    InvalidInputError,
    QuadraticObjective,
    build_certificate_eq,
    fit_decay_rate,
    gen_equality_qp,
    gen_logistic_ineq,
    pick_step_size,
    run_experiment,
    simulate,
    solve_equilibrium,
    validate_problem,
    vector_field,
)
from saddleflow.equilibrium import _integrate_to_equilibrium
from saddleflow.experiments import run_from_origin
from saddleflow.fileio import read_csv


def test_qp_generator_zero_gradient_at_origin():
    p = gen_equality_qp(42)
    assert np.array_equal(p.objective.grad(np.zeros(5)), np.zeros(5))


def test_qp_generator_validates():
    p = gen_equality_qp(42)
    report = validate_problem(p, samples=50, seed=0)
    assert report.passed
    assert p.objective.mu >= 10.0
    assert p.constraints.A.shape == (2, 5)


def test_qp_generator_deterministic():
    p1, p2 = gen_equality_qp(42), gen_equality_qp(42)
    assert np.array_equal(p1.objective.W, p2.objective.W)
    assert np.array_equal(p1.constraints.A, p2.constraints.A)
    assert np.array_equal(p1.constraints.b, p2.constraints.b)
    other = gen_equality_qp(43)
    assert not np.array_equal(other.objective.W, p1.objective.W)


def test_qp_generator_shape_guard():
    with pytest.raises(ValueError):
        gen_equality_qp(0, n=3, m=4)


def test_logistic_generator_value_at_origin():
    p = gen_logistic_ineq(7, n=6, m=3, n_data=25, reg=0.1)
    # every data term is log(1 + e^0) = log 2 at x = 0
    assert p.objective.value(np.zeros(6)) == pytest.approx(25 * math.log(2.0))


def test_logistic_generator_curvature_window():
    p = gen_logistic_ineq(7, n=8, m=4, n_data=40, reg=0.2)
    lam_max = np.linalg.eigvalsh(p.objective.D.T @ p.objective.D)[-1]
    rng = np.random.default_rng(11)
    for _ in range(40):
        x = rng.standard_normal(8)
        y = x + rng.standard_normal(8) * 0.1
        num = float((p.objective.grad(x) - p.objective.grad(y)) @ (x - y))
        den = float((x - y) @ (x - y))
        ratio = num / den
        assert 0.2 - 1e-9 <= ratio <= 0.2 + 0.25 * lam_max + 1e-9


class SolveReached(Exception):
    pass


@pytest.fixture
def solve_fails(monkeypatch):
    """Makes every equilibrium solve of run_experiment raise SolveReached."""
    def reached(*args, **kwargs):
        raise SolveReached

    monkeypatch.setattr(experiments, "solve_equilibrium", reached)
    monkeypatch.setattr(experiments, "_integrate_to_equilibrium", reached)


def test_run_experiment_checks_its_inputs_before_solving(tmp_path, solve_fails):
    p = gen_equality_qp(1, 5, 2)
    out = tmp_path / "out"

    def sweep(etas, horizon=1.0, delta=None, rho=1.0):
        grid = [DynamicsParams(eta=float(eta), rho=rho) for eta in etas]
        run_experiment(p, grid, horizon, out, delta)

    # values that print alike in the artifact names (cli grids 1:1.000004:5
    # and 1:1:3)
    for grid, values in ((np.linspace(1.0, 1.000004, 5), "1.0 and 1.000001"),
                         (np.linspace(1.0, 1.0, 3), "1.0 and 1.0")):
        with pytest.raises(InvalidInputError,
                           match=f"eta values {values} share the file tag eta1,"):
            sweep(grid)
    for horizon in (-1.0, math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="horizon"):
            sweep([1.0], horizon=horizon)
    for delta in (0.0, -0.1, math.nan):
        with pytest.raises(InvalidInputError, match="delta"):
            sweep([1.0], delta=delta)
    with pytest.raises(InvalidInputError, match="share one rho"):
        sweep([])
    with pytest.raises(InvalidInputError, match="share one rho"):
        run_experiment(p, [DynamicsParams(eta=1.0), DynamicsParams(eta=2.0, rho=2.0)],
                       1.0, out)
    assert not out.exists()
    # the benchmark's grids 0.25:4:8:log and 1:1:1 pass the checks, on to the solve
    for grid in (np.logspace(np.log10(0.25), np.log10(4.0), 8), [1.0]):
        with pytest.raises(SolveReached):
            sweep(grid, delta=0.01)
    assert not out.exists()


def test_generators_refuse_bad_seeds_and_sizes():
    for seed in (-1, 1.5):
        with pytest.raises(InvalidInputError, match="seed"):
            gen_equality_qp(seed)
        with pytest.raises(InvalidInputError, match="seed"):
            gen_logistic_ineq(seed, 5, 2)
    for n, m in ((0, 2), (5, 0), (3, 4)):
        with pytest.raises(InvalidInputError):
            gen_equality_qp(0, n, m)
        with pytest.raises(InvalidInputError):
            gen_logistic_ineq(0, n, m)
    for n_data in (0, -3):
        with pytest.raises(InvalidInputError):
            gen_logistic_ineq(0, 5, 2, n_data=n_data)


def test_problem_metadata_reads_the_problem():
    assert experiments.problem_metadata(gen_equality_qp(1, 4, 2)) == {
        "objective": "QuadraticObjective", "constraints": "EqualityConstraints",
        "n": 4, "m": 2}
    assert experiments.problem_metadata(gen_logistic_ineq(3, 4, 2, n_data=20, reg=0.3)) == {
        "objective": "LogisticObjective", "constraints": "InequalityConstraints",
        "n": 4, "m": 2, "n_data": 20, "reg": 0.3}


def test_fit_decay_rate_exact_exponential():
    t = np.linspace(0.0, 4.0, 200)
    assert fit_decay_rate(t, 3.0 * np.exp(-1.7 * t)) == pytest.approx(1.7, rel=1e-9)
    assert math.isnan(fit_decay_rate([0.0], [1.0]))


def test_pick_step_size_certified_on_qp():
    p = gen_equality_qp(42)
    params = DynamicsParams(eta=1.0, rho=1.0)
    cert = build_certificate_eq(p, params)
    delta, certified = pick_step_size(p, params, cert, horizon=5.0)
    assert certified
    # certified steps are dyadic
    assert math.log2(delta) == int(math.log2(delta))


def test_pick_step_size_heuristic_fallback():
    p = gen_logistic_ineq(7, n=10, m=8, n_data=100, reg=0.1)
    params = DynamicsParams(eta=1.0, rho=1.0)
    from saddleflow import build_certificate_ineq

    cert = build_certificate_ineq(p, params)
    delta, certified = pick_step_size(p, params, cert, horizon=10.0)
    assert not certified
    assert 0 < delta <= params.rho / params.eta


def test_run_experiment_artifacts(tmp_path):
    params = DynamicsParams(eta=1.0, rho=1.0)
    grid = [DynamicsParams(eta=eta) for eta in (0.1, 1.0, 10.0)]
    paths = run_experiment(gen_equality_qp(42), grid, 5.0, tmp_path)
    names = sorted(p.name for p in paths)
    assert names == [
        "metadata.txt", "plot.py", "summary.csv",
        "trajectory_eta0.1.csv", "trajectory_eta1.csv", "trajectory_eta10.csv",
    ]
    header, rows = read_csv(tmp_path / "summary.csv")
    assert header == ["eta", "rho", "measured_rate", "theoretical_rate",
                      "spectral_rate"]
    assert [r[0] for r in rows] == [0.1, 1.0, 10.0]
    for eta, _, measured, theoretical, spectral in rows:
        # measured decay should beat the certified rate and match the
        # spectral rate of the linear flow reasonably well
        assert measured >= theoretical - 1e-9
        assert measured >= 0.9 * spectral
    th, trows = read_csv(tmp_path / "trajectory_eta1.csv")
    assert th == ["t", "dist_x", "dist_lambda", "V"]
    assert trows[0][0] == 0.0
    assert trows[-1][0] == pytest.approx(5.0, abs=1e-6)
    # V decays along the trajectory at least as fast as the certificate says
    cert = build_certificate_eq(gen_equality_qp(42), params)
    assert trows[-1][3] <= trows[0][3] * math.exp(-cert.tau * 5.0) * (1 + 1e-9)
    meta = (tmp_path / "metadata.txt").read_text(encoding="utf-8")
    assert "objective = QuadraticObjective\nconstraints = EqualityConstraints\n" in meta
    assert "n = 5\nm = 2\n" in meta and "kind" not in meta
    assert "start = origin (x = 0, lambda = 0)" in meta
    assert "delta_certified_eta1 = True" in meta
    assert "steps_eta1 = 163840" in meta and "record_every_eta1 = 1" in meta
    assert "validation_notes = none" in meta
    assert "equilibrium_method = newton" in meta


def test_sweep_solves_its_equilibrium_at_eta_1(tmp_path):
    # the equilibrium does not depend on the grid's first eta: the grid
    # and its reverse write the same trajectories, equilibrium and rates
    p = gen_logistic_ineq(3, n=10, m=8)
    grid = [DynamicsParams(eta=float(eta))
            for eta in np.logspace(np.log10(0.25), np.log10(4.0), 8)]
    written = {}
    for name, order in (("up", grid), ("down", grid[::-1])):
        paths = run_experiment(p, order, 50.0, tmp_path / name)
        written[name] = {path.name: path.read_bytes() for path in paths}
    assert len(written["up"]) == 11
    summary = written["up"].pop("summary.csv").splitlines()
    assert summary[:1] + summary[:0:-1] == written["down"].pop("summary.csv").splitlines()
    meta = {name: sorted(files.pop("metadata.txt").splitlines())
            for name, files in written.items()}
    assert meta["down"] == meta["up"]
    assert written["down"] == written["up"]


def test_logistic_sweep_keeps_the_integrated_equilibrium(tmp_path):
    p = gen_logistic_ineq(3, n=4, m=2, n_data=20)
    run_experiment(p, [DynamicsParams()], 0.0, tmp_path)
    eq = _integrate_to_equilibrium(p, 1.0, 1e-9)
    meta = (tmp_path / "metadata.txt").read_text(encoding="utf-8").splitlines()
    assert "equilibrium_method = integration" in meta
    assert f"equilibrium_euler_steps = {eq.euler_steps}" in meta
    assert "equilibrium_fallback_reason = none" in meta


def test_run_experiment_writes_validation_notes(tmp_path, monkeypatch):
    def with_notes(*args, real=experiments.validate_problem, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, passed=False,
                                   notes=("rank deficient", "two\nlines"))

    monkeypatch.setattr(experiments, "validate_problem", with_notes)
    run_experiment(gen_equality_qp(42), [DynamicsParams()], 0.1, tmp_path)
    meta = (tmp_path / "metadata.txt").read_text(encoding="utf-8").splitlines()
    assert "validated = False" in meta
    assert "validation_notes = rank deficient; two lines" in meta


def test_run_experiment_zero_horizon(tmp_path):
    run_experiment(gen_equality_qp(42), [DynamicsParams()], 0.0, tmp_path)
    _, rows = read_csv(tmp_path / "trajectory_eta1.csv")
    assert rows == []
    header, srows = read_csv(tmp_path / "summary.csv")
    assert len(srows) == 1 and math.isnan(srows[0][2])


def test_run_experiment_deterministic(tmp_path):
    p = gen_equality_qp(1, n=4, m=2)
    grid = [DynamicsParams(eta=0.5), DynamicsParams(eta=2.0)]
    run_experiment(p, grid, 2.0, tmp_path / "a")
    run_experiment(p, grid, 2.0, tmp_path / "b")
    for name in ("summary.csv", "trajectory_eta0.5.csv", "trajectory_eta2.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


# The benchmark's eta grid, 0.25:4:8:log.
BENCH_GRID = [DynamicsParams(eta=float(eta))
              for eta in np.logspace(np.log10(0.25), np.log10(4.0), 8)]


def _runs_match_simulate(p, grid, eq, horizon, delta=None):
    """run_from_origin's runs against one simulate per grid entry: the
    recorded times, distances and rates bit for bit, V within 1e-13."""
    runs = run_from_origin(p, grid, eq, horizon, delta)
    for params, run in zip(grid, runs):
        ref = simulate(vector_field(p, params), np.zeros(p.dim_n + p.dim_m), run.delta,
                       horizon, cert=run.cert, eq=eq.z,
                       record_every=run.record_every)
        traj = run.trajectory
        assert traj.zs is None and traj.times[-1] == run.steps * run.delta
        for name in ("times", "distances", "dist_x", "dist_lambda"):
            np.testing.assert_array_equal(getattr(traj, name), getattr(ref, name))
        np.testing.assert_allclose(traj.v_values, ref.v_values, rtol=1e-13, atol=0)
        assert run.measured_rate == fit_decay_rate(ref.times, ref.distances)
    return runs


@pytest.mark.parametrize("seed", [3, 66, 145])
def test_stacked_sweep_matches_per_column_runs(seed):
    # three of the benchmark's logistic problems; the columns take
    # different step counts, so they leave the stack one by one
    p = gen_logistic_ineq(seed, n=10, m=8)
    eq = solve_equilibrium(p, DynamicsParams(), tol=1e-6)
    runs = _runs_match_simulate(p, BENCH_GRID, eq, 25.0)
    assert len({run.steps for run in runs}) > 1


def test_stacked_columns_record_at_their_own_strides(monkeypatch):
    monkeypatch.setattr(experiments, "MAX_RECORDED_ROWS", 300)
    p = gen_logistic_ineq(3, n=10, m=8)
    eq = solve_equilibrium(p, DynamicsParams(), tol=1e-6)
    runs = _runs_match_simulate(p, BENCH_GRID, eq, 20.0)
    assert len({run.record_every for run in runs}) > 1
    assert any(run.steps % run.record_every for run in runs)


def _small_ineq_qp():
    rng = np.random.default_rng(12)
    return ConstrainedProblem(QuadraticObjective(np.eye(4)),
                              InequalityConstraints(A=0.5 * rng.standard_normal((3, 4)),
                                                    b=rng.standard_normal(3)))


def test_stacked_user_step_takes_each_columns_dual_form():
    # a user delta of 0.9 puts a = delta eta / rho above one on the last
    # column only, which then takes the lam + a (m - lam) form
    p = _small_ineq_qp()
    grid = [DynamicsParams(eta=eta) for eta in (0.5, 1.0, 1.5)]
    eq = solve_equilibrium(p, DynamicsParams())
    runs = _runs_match_simulate(p, grid, eq, 30.0, delta=0.9)
    assert [run.delta * params.eta > 1.0 for run, params in zip(runs, grid)] == [
        False, False, True]
    assert {run.delta_certified for run in runs} == {"user-supplied"}


def test_stacked_run_names_the_diverging_column():
    p = _small_ineq_qp()
    grid = [DynamicsParams(eta=eta) for eta in (0.5, 40.0, 1.0)]
    eq = solve_equilibrium(p, DynamicsParams())
    with pytest.raises(DivergedError) as alone:
        simulate(vector_field(p, grid[1]), np.zeros(7), 0.9, 90.0)
    step = alone.value.step
    want = rf"^eta 40: state norm passed 1e\+12 by step {step}$"
    with pytest.raises(DivergedError, match=want) as stacked:
        run_from_origin(p, grid, eq, 90.0, delta=0.9)
    assert (stacked.value.step, stacked.value.column) == (step, 1)


def test_equality_run_names_the_diverging_eta():
    # the equality flows run one simulate per eta; the error names the eta
    # and its grid index all the same
    p = gen_equality_qp(42)
    grid = [DynamicsParams(eta=eta) for eta in (0.1, 1.0)]
    eq = solve_equilibrium(p, DynamicsParams())
    with pytest.raises(DivergedError,
                       match=r"^eta 0\.1: state norm passed 1e\+12 by step 12$") as diverged:
        run_from_origin(p, grid, eq, 50.0, delta=1.0)
    assert (diverged.value.step, diverged.value.column) == (12, 0)
