"""End-to-end tests for the command-line front end (via run_cli)."""

import argparse
import dataclasses
import errno
import math
import os
import re
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

from saddleflow import (
    ConstrainedProblem,
    EqualityConstraints,
    cli,
    experiments,
    fileio,
    gen_logistic_ineq,
    save_problem,
)
from saddleflow.cli import UsageError, _build_parser, _parse_grid, run_cli


def read_table(path):
    """(header, 2-D float array) of an all-numeric CSV that write_csv wrote."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        return header, np.loadtxt(fh, delimiter=",", ndmin=2)


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("simulate", "certify", "sweep-eta", "spectrum", "kkt-check", "gen"):
        assert name in out


def test_missing_command_is_usage_error(capsys):
    assert run_cli([]) == 2
    assert run_cli(["no-such-command"]) == 2


def test_parse_grid():
    assert np.allclose(_parse_grid("1:3:3"), [1.0, 2.0, 3.0])
    assert np.allclose(_parse_grid("0.1:10:3:log"), [0.1, 1.0, 10.0])
    assert np.allclose(_parse_grid("0.1:10:3(log)"), [0.1, 1.0, 10.0])
    for bad in ("1:2", "1:2:x", "0:2:3", "1:2:3:cubic", "-1:2:3", "1:inf:3",
                "nan:1:3", "1:2:0"):
        with pytest.raises(UsageError):
            _parse_grid(bad)


def test_certify_seeded_qp(capsys):
    assert run_cli(["certify", "--problem", "eq-qp", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "variant equality" in out
    assert "c = " in out and "tau = " in out
    assert "verdict pass" in out


def test_certify_writes_report(tmp_path, capsys):
    rc = run_cli(["certify", "--problem", "eq-qp", "--seed", "42",
                  "--out", str(tmp_path)])
    assert rc == 0
    raw = (tmp_path / "lmi_report.csv").read_text(encoding="utf-8").splitlines()
    assert raw[0] == "variant,samples_checked,min_margin,passed"
    variant, samples, margin, passed = raw[1].split(",")
    assert variant == "equality"
    assert float(samples) == 100.0
    assert float(margin) >= 0.0
    assert float(passed) == 1.0
    meta = (tmp_path / "metadata.txt").read_text(encoding="utf-8").splitlines()
    assert "worst_gamma_vertex = None" in meta
    assert sum(line.startswith("worst_b_sample = ") for line in meta) == 1
    assert "verdict = pass" in meta


def test_certify_inconclusive_verdict_exits_zero_with_passed_one(tmp_path, capsys):
    # the paper's logistic certificate: the margins are rounding noise, so
    # the verdict is inconclusive, which exits 0 and writes 1 in the
    # passed column of lmi_report.csv
    rc = run_cli(["certify", "--problem", "logistic", "--seed", "7", "--n", "10",
                  "--m", "8", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    # the verdict line is the only verdict printed
    assert re.search(r"^LMI sweep: 25600 samples, min margin \S+$", out, re.M)
    resolution = re.search(r"^verdict inconclusive \(resolution (\S+)\)$", out, re.M)
    meta = dict(line.split(" = ", 1) for line in
                (tmp_path / "metadata.txt").read_text(encoding="utf-8").splitlines())
    assert meta["verdict"] == "inconclusive"
    assert float(meta["resolution"]) == pytest.approx(float(resolution.group(1)), rel=1e-5)
    assert int(meta["eigvalsh_matrices"]) + int(meta["screened_matrices"]) == 25_600
    raw = (tmp_path / "lmi_report.csv").read_text(encoding="utf-8").splitlines()
    assert raw[0] == "variant,samples_checked,min_margin,passed"
    assert raw[1].endswith(",1")


def test_certify_fail_verdict_exits_one(tmp_path, monkeypatch, capsys):
    def failing(*args, real=cli.lmi_sweep, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), verdict="fail")

    monkeypatch.setattr(cli, "lmi_sweep", failing)
    assert run_cli(["certify", "--problem", "eq-qp", "--seed", "42",
                    "--out", str(tmp_path)]) == 1
    assert "verdict fail" in capsys.readouterr().out
    raw = (tmp_path / "lmi_report.csv").read_text(encoding="utf-8").splitlines()
    assert raw[1].startswith("equality,100,") and raw[1].endswith(",0")


def test_certify_metadata_names_the_worst_vertex(tmp_path, capsys):
    run_cli(["certify", "--problem", "logistic", "--seed", "3", "--n", "4", "--m", "2",
             "--n-data", "20", "--out", str(tmp_path)])
    meta = dict(line.split(" = ", 1) for line in
                (tmp_path / "metadata.txt").read_text(encoding="utf-8").splitlines())
    assert 0 <= int(meta["worst_b_sample"]) < 100
    vertex = meta["worst_gamma_vertex"]
    assert vertex.startswith("(") and len(vertex.split(",")) == 2


def test_certify_rank_variant(capsys):
    rc = run_cli(["certify", "--problem", "logistic", "--seed", "7",
                  "--n", "6", "--m", "3", "--n-data", "20", "--variant", "rank"])
    assert rc == 0
    assert "variant rank-relaxed" in capsys.readouterr().out


def test_variant_mismatch_is_usage_error(capsys):
    assert run_cli(["certify", "--problem", "eq-qp", "--variant", "rank"]) == 2
    assert capsys.readouterr().err == ("error: variant 'rank' does not apply to a problem "
                                       "with EqualityConstraints\n")


@pytest.mark.parametrize("argv, refusal", [
    (["simulate", "--problem", "logistic", "--n", "3", "--m", "2", "--variant", "eq"],
     "invalid choice: 'eq'"),
    (["certify", "--problem", "eq-qp", "--variant", "rank"], "does not apply"),
    (["simulate", "--problem", "eq-qp", "--variant", "rank"], "does not apply"),
], ids=["simulate-eq-on-logistic", "certify-rank-on-eq-qp", "simulate-rank-on-eq-qp"])
def test_variant_mismatch_exits_before_the_solve(argv, refusal, tmp_path, monkeypatch,
                                                 capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_equilibrium ran before the variant check")

    monkeypatch.setattr(cli, "solve_equilibrium", refuse)
    assert run_cli([*argv, "--out", str(tmp_path / "out")]) == 2
    assert refusal in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "certify"])
@pytest.mark.parametrize("variant", ["eq", "ineq", "ts"])
def test_retired_variants_are_invalid_choices(command, variant, tmp_path, capsys):
    # rank is the one variant: the others only named the problem's default
    assert run_cli([command, "--variant", variant, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"argument --variant: invalid choice: '{variant}'" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["certify", "--problem", "eq-qp", "--eta", "1e300"],
    ["simulate", "--problem", "eq-qp", "--eta", "1e300", "--horizon", "1"],
    ["certify", "--problem", "logistic", "--n", "6", "--m", "3", "--seed", "2",
     "--rho", "1e-300"],
], ids=["certify-eta-1e300", "simulate-eta-1e300", "certify-logistic-rho-1e-300"])
def test_certificate_constants_outside_the_float_range_exit_one(argv, tmp_path, capsys):
    # c, tau or P past the float range: no certificate covers the flow
    assert run_cli([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InfeasibleError: no ") and "Traceback" not in err
    assert "at eta " in err and ", rho " in err and ": c = " in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, error", [
    (["kkt-check", "--problem", "logistic", "--n", "4", "--m", "3", "--seed", "1",
      "--tol", "1e-14"], "MaxIterationsError"),
    (["certify", "--problem", "logistic", "--n", "6", "--m", "3", "--n-data", "20",
      "--seed", "7", "--variant", "rank", "--eta", "1e200"], "InfeasibleError"),
    (["spectrum", "--problem", "eq-qp", "--seed", "1", "--eta-grid", "1e300:1e308:3:log"],
     "InfeasibleError"),
], ids=["kkt-check-zero-field-above-tol", "certify-rank-eta-1e200", "spectrum-eta-1e308"])
def test_solves_past_their_floor_exit_one_at_once(argv, error, tmp_path, capsys):
    # a Newton field of exactly 0 above tol, rank margins past the float
    # range, and a flow matrix that overflows are refused at once with
    # their typed error
    start = time.perf_counter()
    assert run_cli([*argv, "--out", str(tmp_path / "out")]) == 1
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ") and "Traceback" not in err


def test_a_field_that_overflows_at_the_start_is_refused_at_once(tmp_path, capsys):
    # at rho = 1e200 |F| at the origin overflows: Newton stalls at once,
    # and a warm-up at the step rho/eta ~ 1e-201 would never end
    start = time.perf_counter()
    assert run_cli(["certify", "--problem", "logistic", "--n", "6", "--m", "3",
                    "--n-data", "20", "--seed", "7", "--variant", "rank", "--rho", "1e200",
                    "--out", str(tmp_path / "out")]) == 1
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: InfeasibleError: the field at the start overflows "
                          "(|F| = inf at rho = 1e+200)")
    assert "Traceback" not in err


def test_a_solve_that_cannot_reach_tol_within_its_step_budget_exits_one(tmp_path, capsys):
    # at rho = 1e-300 Newton stalls and the warm-up steps with delta ~ 5e-301:
    # it stops at the solver's budget of 10^5 Euler steps, not after 10^7
    start = time.perf_counter()
    assert run_cli(["kkt-check", "--problem", "logistic", "--n", "4", "--m", "3",
                    "--seed", "1", "--rho", "1e-300", "--out", str(tmp_path / "out")]) == 1
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: MaxIterationsError: KKT residual did not reach 0.01 "
                          "within 100000 steps, the step budget (newton stalled")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--horizon", "1e300"],
    ["simulate", "--horizon", "5", "--delta", "1e-300"],
    ["sweep-eta", "--horizon", "1e300", "--eta-grid", "1:1:1"],
], ids=["simulate-long-horizon", "simulate-tiny-delta", "sweep-eta-long-horizon"])
def test_origin_runs_past_the_step_budget_exit_two_at_once(argv, tmp_path, capsys):
    # more Euler steps than equilibrium.MAX_EULER_STEPS are refused when
    # the run is planned, naming the step count and the eta
    start = time.perf_counter()
    assert run_cli([argv[0], "--problem", "eq-qp", "--seed", "1", *argv[1:],
                    "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert re.match(r"error: horizon \S+ takes \S+ steps of delta \S+ at eta 1, "
                    r"more than the budget of 10000000$", err.strip()), err


@pytest.mark.parametrize("case", ["out-under-a-file", "failed-split-child"])
def test_outputs_that_cannot_be_written_exit_three(case, tmp_path, monkeypatch, capsys):
    # an --out that cannot be made, or a trajectory whose split writer's
    # child fails (its part path links into a missing directory), is an
    # `error: ...` line and exit 3, with no part file or child left
    out = tmp_path / "out"
    if case == "out-under-a-file":
        out.write_text("", encoding="utf-8")
        out = out / "sub"
        want = f"error: [Errno {errno.ENOTDIR}] "
    else:
        if not hasattr(os, "fork"):
            pytest.skip("the split writer needs os.fork")
        monkeypatch.setattr(fileio, "SPLIT_MIN_ROWS", 1)
        monkeypatch.setattr(fileio, "_usable_cpus", lambda: 2)
        out.mkdir()
        (out / "trajectory.csv.part").symlink_to(tmp_path / "missing" / "part")
        want = f"error: {out / 'trajectory.csv'}: the process formatting rows from row 1639 "
    assert run_cli(["simulate", "--problem", "eq-qp", "--seed", "1", "--horizon", "0.1",
                    "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(want) and str(out) in err and "Traceback" not in err
    assert not os.path.lexists(tmp_path / "out" / "trajectory.csv.part")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("rho, steps", [("0.1", 9300), ("1", 10000)])
def test_kkt_check_warms_up_after_a_newton_stall(rho, steps, capsys):
    # Newton from the origin stalls on logistic 4x3 seed 8; the flow is
    # integrated to a residual of 1e-2, and Newton from there reaches tol
    start = time.perf_counter()
    assert run_cli(["kkt-check", "--problem", "logistic", "--n", "4", "--m", "3",
                    "--seed", "8", "--tol", "1e-12", "--rho", rho]) == 0
    assert time.perf_counter() - start < 5.0
    method = re.search(r"^method +(.*)$", capsys.readouterr().out, re.M).group(1)
    assert re.fullmatch(rf"newton, \d+ Newton iterations, {steps} Euler steps "
                        rf"\({steps} of them a warm-up to 0\.01\); "
                        r"newton stalled at iteration \d+, .*: no descent", method)


def test_simulate_seeded_qp(tmp_path, capsys):
    rc = run_cli(["simulate", "--problem", "eq-qp", "--seed", "42",
                  "--horizon", "5", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "certified rate" in out
    header, rows = read_table(tmp_path / "trajectory.csv")
    assert header == ["t", "dist_x", "dist_lambda", "V"]
    assert rows[0][0] == 0.0 and rows[-1][0] == pytest.approx(5.0, abs=1e-9)
    assert rows[-1][3] < rows[0][3]
    meta = (tmp_path / "metadata.txt").read_text(encoding="utf-8").splitlines()
    assert "delta_certified = True" in meta
    # the fitted window: the last half of the 163,841 rows, from t = 2.5
    assert "fit_t_start = 2.5" in meta and "fit_points = 81921" in meta
    assert "equilibrium_method = newton" in meta
    assert "equilibrium_newton_iterations = 1" in meta
    assert "equilibrium_fallback_reason = none" in meta


def test_simulate_thins_to_max_recorded_rows(tmp_path, monkeypatch, capsys):
    # 3,277 steps at the certified delta 2^-15; every fourth is recorded
    monkeypatch.setattr(experiments, "MAX_RECORDED_ROWS", 1000)
    rc = run_cli(["simulate", "--problem", "eq-qp", "--seed", "42",
                  "--horizon", "0.1", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_table(tmp_path / "trajectory.csv")
    assert 800 <= len(rows) <= 1001
    assert rows[0][0] == 0.0 and rows[-1][0] == pytest.approx(3277 * 2.0**-15)
    assert f"simulated {len(rows)} recorded steps" in capsys.readouterr().out


def test_simulate_stride_counts_the_steps_the_run_takes(tmp_path, monkeypatch, capsys):
    # horizon / delta is 1000 plus a rounding ulp: the run takes 1,000
    # steps, so with 1,000 recorded rows allowed every step is recorded
    monkeypatch.setattr(experiments, "MAX_RECORDED_ROWS", 1000)
    rc = run_cli(["simulate", "--problem", "eq-qp", "--seed", "42",
                  "--delta", "0.0010038001900095005",
                  "--horizon", "1.0038001900095006", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_table(tmp_path / "trajectory.csv")
    assert len(rows) == 1001
    assert "simulated 1001 recorded steps" in capsys.readouterr().out


def test_simulate_rank_variant_solves_the_equilibrium_once(tmp_path, monkeypatch,
                                                           capsys):
    calls = []

    def counted(*args, real=experiments.solve_equilibrium, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_equilibrium", counted)
    monkeypatch.setattr(experiments, "solve_equilibrium", counted)
    rc = run_cli(["simulate", "--problem", "logistic", "--n", "6", "--m", "3",
                  "--seed", "2", "--horizon", "2", "--variant", "rank",
                  "--out", str(tmp_path)])
    assert rc == 0
    assert "variant = rank-relaxed" in (tmp_path / "metadata.txt").read_text()
    assert len(calls) == 1


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_simulate_refuses_a_nonpositive_horizon_before_loading(horizon, tmp_path,
                                                               monkeypatch, capsys):
    def refuse(args):
        raise AssertionError("the problem was loaded before the horizon check")

    monkeypatch.setattr(cli, "_load_problem", refuse)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--horizon", horizon, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --horizon must be positive, got {horizon}\n"
    assert not out.exists()


def test_simulate_diverges_with_huge_user_step(tmp_path, capsys):
    rc = run_cli(["simulate", "--problem", "eq-qp", "--seed", "42",
                  "--delta", "1.0", "--horizon", "50",
                  "--out", str(tmp_path)])
    assert rc == 1
    assert "DivergedError" in capsys.readouterr().err


def test_sweep_eta_diverging_on_eq_qp_names_its_eta(tmp_path, capsys):
    rc = run_cli(["sweep-eta", "--problem", "eq-qp", "--seed", "42", "--delta", "1",
                  "--horizon", "50", "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: DivergedError: eta 0.1: state norm passed 1e+12 by step 12\n")


def test_gen_then_kkt_check_roundtrip(tmp_path, capsys):
    assert run_cli(["gen", "--problem", "eq-qp", "--seed", "42",
                    "--out", str(tmp_path)]) == 0
    problem_file = tmp_path / "problem.txt"
    assert problem_file.exists()
    rc = run_cli(["kkt-check", "--problem", str(problem_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "stationarity" in out and "active set" in out
    assert "<= tol" in out


@pytest.mark.parametrize("problem, name, flags, sizes", [
    ("eq-qp", "gen_equality_qp", ["--n", "3", "--m", "1"], {"n": 3, "m": 1}),
    ("logistic", "gen_logistic_ineq", ["--n", "3", "--m", "2", "--n-data", "20"],
     {"n": 3, "m": 2, "n_data": 20}),
], ids=["eq-qp", "logistic"])
def test_cli_calls_the_generator_its_module_binds(problem, name, flags, sizes, tmp_path,
                                                  monkeypatch, capsys):
    # the generator is looked up by its name in saddleflow.cli at call time,
    # so a wrapper bound there (as the benchmark's tracer binds one) is called
    calls = []

    def counted(*args, real=getattr(experiments, name), **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    assert run_cli(["gen", "--problem", problem, "--seed", "4", *flags,
                    "--out", str(tmp_path)]) == 0
    assert calls == [((4,), sizes)]


def test_kkt_check_logistic(capsys):
    rc = run_cli(["kkt-check", "--problem", "logistic", "--seed", "7",
                  "--n", "6", "--m", "3", "--n-data", "20"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "complementarity" in out
    assert re.search(r"^method           newton, \d+ Newton iterations, 0 Euler steps$",
                     out, re.M)


def test_sweep_eta_artifacts(tmp_path, capsys):
    rc = run_cli(["sweep-eta", "--problem", "eq-qp", "--seed", "1",
                  "--n", "4", "--m", "2", "--eta-grid", "0.5:2:2",
                  "--horizon", "2", "--out", str(tmp_path)])
    assert rc == 0
    for name in ("summary.csv", "metadata.txt", "plot.py",
                 "trajectory_eta0.5.csv", "trajectory_eta2.csv"):
        assert (tmp_path / name).exists()
    header, rows = read_table(tmp_path / "summary.csv")
    assert header == ["eta", "rho", "measured_rate", "theoretical_rate",
                      "spectral_rate"]
    assert len(rows) == 2


@pytest.mark.parametrize("generator", [
    ["--problem", "eq-qp", "--seed", "1", "--n", "4", "--m", "2"],
    ["--problem", "logistic", "--seed", "3", "--n", "4", "--m", "2", "--n-data", "20"],
], ids=["eq-qp", "logistic"])
def test_sweep_eta_on_a_problem_file_matches_the_generator(generator, tmp_path, capsys):
    assert run_cli(["gen", *generator, "--out", str(tmp_path / "gen")]) == 0
    sweep = ["sweep-eta", "--eta-grid", "0.5:2:3", "--horizon", "2"]
    assert run_cli([*sweep, *generator, "--out", str(tmp_path / "a")]) == 0
    assert run_cli([*sweep, "--problem", str(tmp_path / "gen" / "problem.txt"),
                    "--seed", generator[3], "--out", str(tmp_path / "b")]) == 0
    names = sorted(path.name for path in (tmp_path / "a").iterdir()
                   if path.name != "metadata.txt")
    assert names == ["plot.py", "summary.csv", "trajectory_eta0.5.csv",
                     "trajectory_eta1.25.csv", "trajectory_eta2.csv"]
    for name in names:
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()


def test_sweep_eta_diverging_leaves_no_out(tmp_path, capsys):
    out = tmp_path / "o2"
    assert run_cli(["sweep-eta", "--problem", "eq-qp", "--seed", "42", "--delta", "1",
                    "--horizon", "50", "--out", str(out)]) == 1
    assert "DivergedError" in capsys.readouterr().err
    assert not out.exists()


def _metadata(path):
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


def test_sidecars_name_the_problem_they_ran(tmp_path, capsys):
    logistic = ["--problem", "logistic", "--seed", "3", "--n", "4", "--m", "2",
                "--n-data", "20"]
    identity = {"objective": "LogisticObjective", "constraints": "InequalityConstraints",
                "n": "4", "m": "2", "n_data": "20", "reg": "0.10000000000000001"}
    runs = {"simulate": ["--horizon", "0.5"], "certify": [],
            "sweep-eta": ["--eta-grid", "1:2:2", "--horizon", "0.5"]}
    for command, extra in runs.items():
        out = tmp_path / command
        assert run_cli([command, *logistic, *extra, "--out", str(out)]) in (0, 1)
        meta = _metadata(out / "metadata.txt")
        assert {key: meta.get(key) for key in identity} == identity, command
        assert not [key for key in meta if key == "kind" or key.endswith("_provenance")]
    runs = {"simulate": ["--horizon", "0.01"], "spectrum": ["--eta-grid", "1:2:2"]}
    for command, extra in runs.items():
        out = tmp_path / f"eq-qp-{command}"
        assert run_cli([command, "--seed", "1", *extra, "--out", str(out)]) == 0
        meta = _metadata(out / "metadata.txt")
        assert (meta["objective"], meta["constraints"], meta["n"], meta["m"]) == (
            "QuadraticObjective", "EqualityConstraints", "5", "2"), command
        assert "n_data" not in meta and "reg" not in meta


def test_logistic_equality_problem_file_runs_the_generic_euler_path(tmp_path, capsys):
    # a logistic objective under equality constraints has neither an
    # affine nor an augmented field, so simulate and sweep-eta step it
    # with the generic z + delta F(z); each run decays at its certified rate
    p = gen_logistic_ineq(4, n=5, m=2, n_data=20)
    path = save_problem(tmp_path / "problem.txt", ConstrainedProblem(
        p.objective, EqualityConstraints(p.constraints.A, p.constraints.b)))
    runs = {"simulate": [], "sweep-eta": ["--eta-grid", "0.5:2:3"]}
    for command, extra in runs.items():
        out = tmp_path / command
        assert run_cli([command, "--problem", str(path), "--horizon", "0.1", *extra,
                        "--out", str(out)]) == 0, command
        meta = _metadata(out / "metadata.txt")
        assert (meta["objective"], meta["constraints"]) == (
            "LogisticObjective", "EqualityConstraints"), command
        tags = [""] if command == "simulate" else ["_eta0.5", "_eta1.25", "_eta2"]
        for tag in tags:
            _, rows = read_table(out / f"trajectory{tag}.csv")
            steps = math.ceil(0.1 / float(meta[f"delta{tag}"]) - 1e-9)
            if tag:
                assert int(meta[f"steps{tag}"]) == steps
            assert len(rows) == steps + 1, (command, tag)
            t, v = rows[:, 0], rows[:, 3]
            assert np.all(v <= v[0] * np.exp(-float(meta[f"tau{tag}"]) * t) * (1 + 1e-6))


def test_spectrum_seeded_qp(tmp_path, capsys):
    rc = run_cli(["spectrum", "--problem", "eq-qp", "--seed", "42",
                  "--eta-grid", "0.1:10:5:log", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_table(tmp_path / "spectrum.csv")
    assert header == ["eta", "spectral_rate", "certified_rate"]
    assert len(rows) == 5
    for eta, rate, certified in rows:
        assert rate >= certified - 1e-9


def test_spectrum_rejects_nonlinear_flows(capsys):
    rc = run_cli(["spectrum", "--problem", "logistic", "--n", "6", "--m", "3",
                  "--n-data", "20"])
    assert rc == 2
    assert "linear" in capsys.readouterr().err


SMALL_PROBLEM = """saddleflow-problem 1
kind equality
n 2
m 1
objective quadratic
W
1 0
0 1
A
1 1
b
1
"""

SMALL_LOGISTIC = """saddleflow-problem 1
kind inequality
n 2
m 1
objective logistic
n_data 2
reg 0.5
D
1 0
0 1
y
1 -1
A
1 1
b
1
"""

# What a problem file's non-finite entry is refused for, by case name
NON_FINITE = {
    "nan-b": ("section 'b'", SMALL_PROBLEM.replace("b\n1\n", "b\nnan\n")),
    "inf-b": ("section 'b'", SMALL_PROBLEM.replace("b\n1\n", "b\n-inf\n")),
    "nan-q": ("section 'q'", SMALL_PROBLEM.replace("A\n", "q\nnan 0\nA\n")),
    "inf-q": ("section 'q'", SMALL_PROBLEM.replace("A\n", "q\ninf 0\nA\n")),
    "inf-inequality-bound": ("section 'b'", SMALL_LOGISTIC.replace("b\n1\n", "b\ninf\n")),
    "inf-reg": ("reg must be positive and finite", SMALL_LOGISTIC.replace("reg 0.5", "reg inf")),
}

BAD_PROBLEMS = {
    **{name: text for name, (_, text) in NON_FINITE.items()},
    "unknown-section": SMALL_PROBLEM + "C\n1\n",
    "missing-b": SMALL_PROBLEM.replace("b\n1\n", ""),
    "missing-W": SMALL_PROBLEM.replace("W\n1 0\n0 1\n", ""),
    "missing-header": SMALL_PROBLEM.replace("\nm 1\n", "\n"),
    "non-numeric": SMALL_PROBLEM.replace("1 1", "1 x"),
    "short-matrix": SMALL_PROBLEM.replace("0 1\n", ""),
}


def test_bad_grid_and_bad_problem_are_usage_errors(tmp_path, capsys):
    assert run_cli(["spectrum", "--eta-grid", "junk"]) == 2
    assert run_cli(["certify", "--problem", "/no/such/file"]) == 2
    sim = ["simulate", "--out", str(tmp_path)]
    sweep = ["sweep-eta", "--out", str(tmp_path)]
    bad_runs = [sim + ["--eta", "-1"], sim + ["--rho", "0"], sim + ["--delta", "0"],
                sim + ["--horizon", "1e-8", "--delta", "1e-3"],
                sim + ["--horizon", "1e-8"], sim + ["--horizon", "0"],
                sim + ["--horizon", "-1"],
                sweep + ["--horizon", "-1"],
                sweep + ["--problem", "logistic", "--n", "3", "--m", "2",
                         "--horizon", "1e-6"]]
    # non-finite numbers
    bad_runs += [sim + ["--horizon", "nan"], sim + ["--horizon", "inf"],
                 sweep + ["--horizon", "inf"], sweep + ["--horizon", "nan"],
                 ["certify", "--eta", "inf"], ["certify", "--reg", "inf"],
                 ["kkt-check", "--tol", "inf"], ["certify", "--rho", "inf"],
                 sim + ["--delta", "inf"], sim + ["--eta", "nan"],
                 ["spectrum", "--eta-grid", "1:inf:3"],
                 ["spectrum", "--eta-grid", "nan:1:3"],
                 sweep + ["--eta-grid", "0.5:inf:2"]]
    for command in ("simulate", "certify", "sweep-eta", "spectrum", "kkt-check", "gen"):
        for problem in ("eq-qp", "logistic"):
            for dims in (["--n", "0"], ["--n", "3", "--m", "4"]):
                bad_runs.append([command, "--out", str(tmp_path), "--problem", problem]
                                + dims)
        for n_data in ("0", "-3"):
            bad_runs.append([command, "--out", str(tmp_path), "--problem", "logistic",
                             "--n", "3", "--m", "2", "--n-data", n_data])
    for name, text in BAD_PROBLEMS.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        bad_runs.append(["kkt-check", "--problem", str(path)])
    good = tmp_path / "good.txt"
    good.write_text(SMALL_PROBLEM, encoding="utf-8")
    good_logistic = tmp_path / "good-logistic.txt"
    good_logistic.write_text(SMALL_LOGISTIC, encoding="utf-8")
    # negative seeds, on a generator and on a problem file (where only the
    # LMI sweep draws from the seed)
    for command in ("simulate", "certify", "sweep-eta", "spectrum", "kkt-check", "gen"):
        bad_runs.append([command, "--out", str(tmp_path), "--seed", "-1"])
    bad_runs.append(["certify", "--problem", str(good), "--seed", "-1"])
    assert run_cli(["kkt-check", "--problem", str(good)]) == 0
    assert run_cli(["kkt-check", "--problem", str(good_logistic)]) == 0
    capsys.readouterr()
    for argv in bad_runs:
        assert run_cli(argv) == 2, argv
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err, (argv, err)


@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_problem_file_entries_are_refused_by_name(case, tmp_path, capsys):
    # such a file used to load: kkt-check and simulate then diverged,
    # certify passed or ended in a traceback, and spectrum wrote its table
    what, text = NON_FINITE[case]
    path = tmp_path / "problem.txt"
    path.write_text(text, encoding="utf-8")
    for command in ("kkt-check", "simulate", "certify", "spectrum"):
        out = tmp_path / "out"
        assert run_cli([command, "--problem", str(path), "--out", str(out)]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {what}") and "Traceback" not in err, err
        assert not out.exists()


# Problem files that used to load, each refused by its offending part
REFUSED_PROBLEMS = {
    "section-of-another-kind": ("unexpected section 'b_lo'", SMALL_PROBLEM + "b_lo\n0\n"),
    "section-twice": ("section 'A' given twice", SMALL_PROBLEM + "A\n9 9\n"),
    "unread-header-key": ("header key 'reg' is not read by a quadratic problem",
                          SMALL_PROBLEM.replace("objective quadratic\n",
                                                "objective quadratic\nreg 0.1\n")),
    "version-2": ("not a saddleflow-problem 1 file",
                  SMALL_PROBLEM.replace("saddleflow-problem 1", "saddleflow-problem 2")),
}


@pytest.mark.parametrize("case", REFUSED_PROBLEMS)
def test_malformed_problem_files_are_usage_errors_on_every_subcommand(case, tmp_path,
                                                                       capsys):
    what, text = REFUSED_PROBLEMS[case]
    path = tmp_path / "problem.txt"
    path.write_text(text, encoding="utf-8")
    for command in ("simulate", "certify", "sweep-eta", "spectrum", "kkt-check", "gen"):
        out = tmp_path / "out"
        assert run_cli([command, "--problem", str(path), "--out", str(out)]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {what}") and "Traceback" not in err, err
        assert not out.exists()


def test_kkt_check_out_writes_its_metadata(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    assert run_cli(["kkt-check", "--problem", "logistic", "--n", "6", "--m", "3",
                    "--n-data", "20", "--seed", "7", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert sorted(path.name for path in out.iterdir()) == ["metadata.txt"]
    meta = dict(line.split(" = ", 1)
                for line in (out / "metadata.txt").read_text(encoding="utf-8").splitlines())
    assert list(meta) == [
        "command", "problem", "seed", "objective", "constraints", "n", "m", "n_data", "reg",
        "rho", "tol", "kkt_stationarity", "kkt_primal", "kkt_dual", "kkt_complementarity",
        "kkt_total", "active_set", "equilibrium_method", "equilibrium_newton_iterations",
        "equilibrium_euler_steps", "equilibrium_fallback_reason"]
    assert meta["command"] == "kkt-check" and meta["seed"] == "7" and meta["tol"] == "1e-08"
    # the file holds what stdout rounds
    for part in ("stationarity", "primal", "dual", "complementarity"):
        printed = re.search(rf"^{part} +(\S+)$", stdout, re.M).group(1)
        assert f"{float(meta['kkt_' + part]):.3e}" == printed
    assert re.search(r"^total (\S+) <=", stdout, re.M).group(1) == \
        f"{float(meta['kkt_total']):.3e}"
    assert f"active set       {meta['active_set']}" in stdout
    assert meta["equilibrium_method"] == "newton"
    # without --out nothing is written
    monkeypatch.chdir(tmp_path)
    assert run_cli(["kkt-check", "--problem", "eq-qp"]) == 0
    assert not (tmp_path / "saddleflow-out").exists()


README = Path(__file__).resolve().parents[1] / "README.md"

# (subcommand, flag) pairs where the subcommand does not read the flag, so
# does not take it
REMOVED_FLAGS = [("sweep-eta", "--eta"), ("sweep-eta", "--tol"), ("sweep-eta", "--variant"),
                 ("spectrum", "--eta"), ("spectrum", "--rho"), ("spectrum", "--tol"),
                 ("spectrum", "--variant"), ("kkt-check", "--variant"),
                 ("gen", "--eta"), ("gen", "--rho"), ("gen", "--tol"), ("gen", "--variant"),
                 ("simulate", "--tol"), ("certify", "--tol"), ("kkt-check", "--eta")]


def _readme_flag_table():
    """{subcommand: set of flags} from the README's flag table."""
    lines = iter(README.read_text(encoding="utf-8").splitlines())
    header = next(line for line in lines if line.startswith("| Flag |"))
    commands = [cell.strip() for cell in header.strip("|").split("|")][2:]
    next(lines)  # the | --- | row
    table = {command: set() for command in commands}
    for line in lines:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        for command, mark in zip(commands, cells[2:]):
            if mark == "x":
                table[command].add(cells[0].strip("`"))
    return table


def _readme_commands():
    """(argv, stdout) of every line of README.md that starts with
    `saddleflow` or `$ saddleflow`; stdout is the list of lines that
    follow a `$ ` transcript line up to its closing fence, else None."""
    lines = README.read_text(encoding="utf-8").splitlines()
    commands = []
    for i, line in enumerate(lines):
        match = re.match(r"(\$ )?saddleflow (.*)", line)
        if match:
            stdout = lines[i + 1:lines.index("```", i)] if match.group(1) else None
            commands.append((shlex.split(match.group(2)), stdout))
    return commands


README_COMMANDS = _readme_commands()


def test_readme_shows_every_subcommand_and_a_transcript():
    assert {argv[0] for argv, _ in README_COMMANDS} == set(cli._COMMANDS)
    assert any(stdout for _, stdout in README_COMMANDS)


@pytest.mark.parametrize("argv, stdout", README_COMMANDS,
                         ids=[" ".join(argv) for argv, _ in README_COMMANDS])
def test_readme_commands_run(argv, stdout, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 0
    if stdout is not None:
        assert capsys.readouterr().out.splitlines() == stdout


def test_parser_flags_match_the_readme_table():
    (subparsers,) = [action for action in _build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    parsed = {name: set(sp._option_string_actions) - {"-h", "--help"}
              for name, sp in subparsers.choices.items()}
    assert parsed == _readme_flag_table()
    assert {name: len(flags) for name, flags in parsed.items()} == {
        "simulate": 12, "certify": 10, "sweep-eta": 11, "spectrum": 8, "kkt-check": 9,
        "gen": 7}


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS,
                         ids=[f"{c}{f}" for c, f in REMOVED_FLAGS])
def test_removed_flags_are_usage_errors(command, flag, tmp_path, capsys):
    value = "rank" if flag == "--variant" else "2"
    assert run_cli([command, flag, value, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} {value}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# (problem, flag) pairs where the chosen problem does not read the
# generator flag; "file" is a problem file, which reads none of them
REFUSED_GENERATOR_FLAGS = [("file", "--n"), ("file", "--m"), ("file", "--n-data"),
                           ("file", "--reg"), ("eq-qp", "--n-data"), ("eq-qp", "--reg")]


@pytest.mark.parametrize("problem, flag", REFUSED_GENERATOR_FLAGS,
                         ids=[f"{p}{f}" for p, f in REFUSED_GENERATOR_FLAGS])
def test_generator_flags_the_problem_does_not_read_are_usage_errors(problem, flag,
                                                                    tmp_path, capsys):
    if problem == "file":
        assert run_cli(["gen", "--problem", "eq-qp", "--seed", "42",
                        "--out", str(tmp_path)]) == 0
        problem = str(tmp_path / "problem.txt")
        where = "a problem file"
    else:
        where = f"--problem {problem}"
    capsys.readouterr()
    for command in ("simulate", "certify", "sweep-eta", "spectrum", "kkt-check", "gen"):
        out = tmp_path / "out"
        assert run_cli([command, "--problem", problem, flag, "3",
                        "--out", str(out)]) == 2, command
        err = capsys.readouterr().err
        assert err == f"error: {flag} not read with {where}\n", (command, err)
        assert not out.exists()


@pytest.mark.parametrize("grid", ["1:1.000004:5", "1:1:3"])
def test_sweep_eta_grid_sharing_a_tag_exits_before_out(grid, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["sweep-eta", "--problem", "eq-qp", "--seed", "1", "--eta-grid", grid,
                    "--horizon", "0.01", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "share the file tag eta1" in err and "Traceback" not in err
    assert not out.exists()
