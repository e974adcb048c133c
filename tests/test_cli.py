"""End-to-end tests for the command-line front end (via run_cli)."""

import re

import numpy as np
import pytest

from saddleflow import cli, experiments
from saddleflow.cli import UsageError, _parse_grid, run_cli
from saddleflow.fileio import read_csv


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
    assert "pass" in out and "FAIL" not in out


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


def test_certify_inconclusive_verdict_exits_on_passed(tmp_path, capsys):
    # the paper's logistic certificate: the margins are rounding noise, so
    # the verdict is inconclusive, and the exit code follows passed
    rc = run_cli(["certify", "--problem", "logistic", "--seed", "7", "--n", "10",
                  "--m", "8", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "min margin" in out and ", pass\n" in out
    resolution = re.search(r"^verdict inconclusive \(resolution (\S+)\)$", out, re.M)
    meta = dict(line.split(" = ", 1) for line in
                (tmp_path / "metadata.txt").read_text(encoding="utf-8").splitlines())
    assert meta["verdict"] == "inconclusive"
    assert float(meta["resolution"]) == pytest.approx(float(resolution.group(1)), rel=1e-5)
    assert int(meta["eigvalsh_matrices"]) + int(meta["screened_matrices"]) == 25_600
    raw = (tmp_path / "lmi_report.csv").read_text(encoding="utf-8").splitlines()
    assert raw[0] == "variant,samples_checked,min_margin,passed"


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
    assert run_cli(["certify", "--problem", "eq-qp", "--variant", "ineq"]) == 2
    assert "does not apply" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--problem", "logistic", "--n", "3", "--m", "2", "--variant", "eq"],
    ["certify", "--problem", "eq-qp", "--variant", "rank"],
], ids=["simulate-eq-on-logistic", "certify-rank-on-eq-qp"])
def test_variant_mismatch_exits_before_the_solve(argv, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_equilibrium ran before the variant check")

    monkeypatch.setattr(cli, "solve_equilibrium", refuse)
    assert run_cli([*argv, "--out", str(tmp_path)]) == 2
    assert "does not apply" in capsys.readouterr().err


def test_simulate_seeded_qp(tmp_path, capsys):
    rc = run_cli(["simulate", "--problem", "eq-qp", "--seed", "42",
                  "--horizon", "5", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "certified rate" in out
    header, rows = read_csv(tmp_path / "trajectory.csv")
    assert header == ["t", "dist_x", "dist_lambda", "V"]
    assert rows[0][0] == 0.0 and rows[-1][0] == pytest.approx(5.0, abs=1e-9)
    assert rows[-1][3] < rows[0][3]
    meta = (tmp_path / "metadata.txt").read_text(encoding="utf-8")
    assert "delta_certified = True" in meta


def test_simulate_thins_to_max_recorded_rows(tmp_path, monkeypatch, capsys):
    # 3,277 steps at the certified delta 2^-15; every fourth is recorded
    monkeypatch.setattr(experiments, "MAX_RECORDED_ROWS", 1000)
    rc = run_cli(["simulate", "--problem", "eq-qp", "--seed", "42",
                  "--horizon", "0.1", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "trajectory.csv")
    assert 800 <= len(rows) <= 1001
    assert rows[0][0] == 0.0 and rows[-1][0] == pytest.approx(3277 * 2.0**-15)
    assert f"simulated {len(rows)} recorded steps" in capsys.readouterr().out


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


def test_simulate_diverges_with_huge_user_step(tmp_path, capsys):
    rc = run_cli(["simulate", "--problem", "eq-qp", "--seed", "42",
                  "--delta", "1.0", "--horizon", "50",
                  "--out", str(tmp_path)])
    assert rc == 1
    assert "DivergedError" in capsys.readouterr().err


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


def test_kkt_check_logistic(capsys):
    rc = run_cli(["kkt-check", "--problem", "logistic", "--seed", "7",
                  "--n", "6", "--m", "3", "--n-data", "20"])
    assert rc == 0
    assert "complementarity" in capsys.readouterr().out


def test_sweep_eta_artifacts(tmp_path, capsys):
    rc = run_cli(["sweep-eta", "--problem", "eq-qp", "--seed", "1",
                  "--n", "4", "--m", "2", "--eta-grid", "0.5:2:2",
                  "--horizon", "2", "--out", str(tmp_path)])
    assert rc == 0
    for name in ("summary.csv", "metadata.txt", "plot.py",
                 "trajectory_eta0.5.csv", "trajectory_eta2.csv"):
        assert (tmp_path / name).exists()
    header, rows = read_csv(tmp_path / "summary.csv")
    assert header == ["eta", "rho", "measured_rate", "theoretical_rate",
                      "spectral_rate"]
    assert len(rows) == 2


def test_sweep_eta_rejects_problem_files(tmp_path, capsys):
    assert run_cli(["gen", "--problem", "eq-qp", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rc = run_cli(["sweep-eta", "--problem", str(tmp_path / "problem.txt")])
    assert rc == 2
    assert "generator problem" in capsys.readouterr().err


def test_spectrum_seeded_qp(tmp_path, capsys):
    rc = run_cli(["spectrum", "--problem", "eq-qp", "--seed", "42",
                  "--eta-grid", "0.1:10:5:log", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "spectrum.csv")
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

BAD_PROBLEMS = {
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
                 ["certify", "--tol", "inf"], ["certify", "--rho", "inf"],
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
    assert run_cli(["kkt-check", "--problem", str(good)]) == 0
    capsys.readouterr()
    for argv in bad_runs:
        assert run_cli(argv) == 2, argv
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err, (argv, err)
