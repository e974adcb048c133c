"""Command-line front end.

Subcommands: simulate, certify, sweep-eta, spectrum, kkt-check, gen.
Exit codes: 0 success, 1 validation failure (a certify verdict of fail,
unverified equilibrium, diverged run), 2 usage error (bad flag value,
variant or problem file; printed as `error: ...`), 3 a file that could not
be made, written or read (an OSError, such as an --out under a regular
file, or CsvWriteError; printed as `error: ...`). Standard output
carries a short human summary only; data goes to CSV files under --out.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .certificates import lmi_sweep
from .equilibrium import WARMUP_TOL, solve_equilibrium
from .errors import InvalidInputError, SaddleflowError
from .experiments import (
    TRAJECTORY_HEADER,
    _check_variant,
    certificate_for,
    equilibrium_metadata,
    fit_metadata,
    gen_equality_qp,
    gen_logistic_ineq,
    problem_metadata,
    run_experiment,
    run_from_origin,
)
from .problem import DynamicsParams
from .spectral import eta_sweep


class UsageError(Exception):
    pass


def _finite(text: str) -> float:
    value = float(text)  # argparse reports a ValueError as a usage error
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text}")
    return value


# The flags a subcommand may add to the problem-selection group; each
# subcommand registers only those its _cmd_* function reads.
_FLAGS = {
    "--eta": dict(type=_positive, default=1.0),
    "--rho": dict(type=_positive, default=1.0),
    "--tol": dict(type=_positive, default=1e-8),
    "--variant": dict(choices=["rank"], default=None,
                      help="the rank-relaxed certificate (default: by problem)"),
    "--delta": dict(type=_positive, default=None),
    "--horizon": dict(type=_finite, default=5.0),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddleflow",
        description="Primal-dual gradient flows with stability certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *flags):
        # no prefixes: "sweep-eta --eta 2" would otherwise read as --eta-grid 2
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        sp.add_argument("--problem", default="eq-qp",
                        help="generator name (eq-qp, logistic) or a problem file path")
        sp.add_argument("--seed", type=_seed, default=0)
        sp.add_argument("--n", type=int, help="primal dimension")
        sp.add_argument("--m", type=int, help="constraint count")
        sp.add_argument("--n-data", type=int, help="logistic dataset size")
        sp.add_argument("--reg", type=_positive, help="logistic ridge weight")
        sp.add_argument("--out", default=None, help="output directory")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        return sp

    command("simulate", "integrate the flow, write a trajectory",
            "--eta", "--rho", "--variant", "--delta", "--horizon")
    command("certify", "build a certificate and sweep the LMI",
            "--eta", "--rho", "--variant")
    command("sweep-eta", "run the experiment driver over an eta grid",
            "--rho", "--delta", "--horizon").add_argument(
        "--eta-grid", default="0.1:10:5:log",
        help="a:b:steps for linear, a:b:steps:log for logarithmic")
    command("spectrum", "exact LTI decay rates over an eta grid").add_argument(
        "--eta-grid", default="0.01:100:25:log")
    command("kkt-check", "solve and verify the equilibrium", "--rho", "--tol")
    command("gen", "write the generated problem to a file")
    return parser


def _parse_grid(text: str) -> np.ndarray:
    spec = text.replace("(log)", ":log").strip()
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise UsageError(f"bad grid {text!r}; expected a:b:steps or a:b:steps:log")
    try:
        a, b = _positive(parts[0]), _positive(parts[1])
        steps = int(parts[2])
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"bad grid {text!r}: {exc}") from None
    if steps < 1:
        raise UsageError(f"bad grid {text!r}; steps must be positive")
    if len(parts) == 4:
        if parts[3] != "log":
            raise UsageError(f"bad grid suffix {parts[3]!r}; only 'log' is known")
        return np.logspace(np.log10(a), np.log10(b), steps)
    return np.linspace(a, b, steps)


# Each generator --problem names, by the name of its function in this
# module (looked up at call time, so a rebinding of that name is called),
# and the generator flags it reads; a problem file reads none of them.
_GENERATORS = {
    "eq-qp": ("gen_equality_qp", ("n", "m")),
    "logistic": ("gen_logistic_ineq", ("n", "m", "n_data", "reg")),
}


def _load_problem(args):
    """The problem --problem names. A generator flag the problem does not
    read is a usage error; the generators hold the defaults of the rest."""
    name = args.problem
    generator, reads = _GENERATORS.get(name, (None, ()))
    if generator is None and not Path(name).exists():
        raise UsageError(
            f"--problem must be 'eq-qp', 'logistic' or an existing file; got {name!r}"
        )
    given = {key: getattr(args, key) for key in ("n", "m", "n_data", "reg")
             if getattr(args, key) is not None}
    unread = ["--" + key.replace("_", "-") for key in given if key not in reads]
    if unread:
        where = f"--problem {name}" if generator else "a problem file"
        raise UsageError(f"{' and '.join(unread)} not read with {where}")
    if generator is None:
        return fileio.load_problem(Path(name))
    return globals()[generator](args.seed, **given)


def _out_path(args) -> Path:
    return Path(args.out) if args.out else Path("saddleflow-out")


def _out_dir(args) -> Path:
    out = _out_path(args)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    if not args.horizon > 0:
        raise UsageError(f"--horizon must be positive, got {args.horizon:g}")
    p = _load_problem(args)
    _check_variant(p, args.variant)
    params = DynamicsParams(eta=args.eta, rho=args.rho)
    eq = solve_equilibrium(p, params)
    (run,) = run_from_origin(p, [params], eq, args.horizon, args.delta, args.variant)
    traj, cert = run.trajectory, run.cert
    out = _out_dir(args)
    fileio.write_csv(out / "trajectory.csv", TRAJECTORY_HEADER, run.rows)
    fileio.write_metadata(out / "metadata.txt", {
        "command": "simulate",
        "problem": args.problem,
        "seed": args.seed,
        **problem_metadata(p),
        "eta": params.eta,
        "rho": params.rho,
        "delta": run.delta,
        "delta_certified": run.delta_certified,
        "horizon": float(args.horizon),
        "c": cert.c,
        "tau": cert.tau,
        "variant": cert.variant.value,
        **fit_metadata(run),
        **equilibrium_metadata(eq),
    })
    # the last recorded state is the run's last step
    print(f"simulated {len(traj)} recorded steps to t={traj.steps * traj.delta:g}")
    print(f"final distance {traj.distances[-1]:.6g}, measured rate "
          f"{run.measured_rate:.6g}, certified rate {cert.tau / 2:.6g}")
    print(f"wrote {out / 'trajectory.csv'}")
    return 0


def _cmd_certify(args) -> int:
    p = _load_problem(args)
    _check_variant(p, args.variant)
    params = DynamicsParams(eta=args.eta, rho=args.rho)
    eq = solve_equilibrium(p, params) if args.variant == "rank" else None
    cert = certificate_for(p, params, args.variant, eq)
    report = lmi_sweep(cert, p, params, b_samples=100, seed=args.seed)
    print(f"variant {cert.variant.value}: c = {cert.c:.6g}, tau = {cert.tau:.6g}")
    print(f"LMI sweep: {report.samples_checked} samples, "
          f"min margin {report.min_margin:.6g}")
    print(f"verdict {report.verdict} (resolution {report.resolution:.6g})")
    passed = report.verdict != "fail"
    if args.out:
        out = _out_dir(args)
        fileio.write_csv(out / "lmi_report.csv",
                         ["variant", "samples_checked", "min_margin", "passed"],
                         [(cert.variant.value, float(report.samples_checked),
                           report.min_margin, float(passed))])
        fileio.write_metadata(out / "metadata.txt", {
            "command": "certify",
            "problem": args.problem,
            "seed": args.seed,
            **problem_metadata(p),
            "eta": params.eta,
            "rho": params.rho,
            "c": cert.c,
            "tau": cert.tau,
            "variant": cert.variant.value,
            "worst_b_sample": report.worst_sample,
            "worst_gamma_vertex": report.worst_vertex,
            "resolution": report.resolution,
            "verdict": report.verdict,
            "eigvalsh_matrices": report.eigvalsh_matrices,
            "screened_matrices": report.screened_matrices,
        })
    return 0 if passed else 1


def _cmd_sweep_eta(args) -> int:
    p = _load_problem(args)
    grid = [DynamicsParams(eta=float(eta), rho=args.rho)
            for eta in _parse_grid(args.eta_grid)]
    # run_experiment makes the directory once every run has returned
    paths = run_experiment(p, grid, args.horizon, _out_path(args), args.delta, args.seed)
    print(f"swept {len(grid)} eta values; wrote {len(paths)} artifacts:")
    for path in paths:
        print(f"  {path}")
    return 0


def _cmd_spectrum(args) -> int:
    p = _load_problem(args)
    grid = _parse_grid(args.eta_grid)
    table = eta_sweep(p, grid)  # InvalidInputError unless the flow is linear
    out = _out_dir(args)
    fileio.write_csv(out / "spectrum.csv",
                     ["eta", "spectral_rate", "certified_rate"], table.rows())
    fileio.write_metadata(out / "metadata.txt", {
        "command": "spectrum",
        "problem": args.problem,
        "seed": args.seed,
        **problem_metadata(p),
        "grid": args.eta_grid,
    })
    print(f"rates span [{table.rates.min():.6g}, {table.rates.max():.6g}] "
          f"over {grid.size} grid points")
    print(f"wrote {out / 'spectrum.csv'}")
    return 0


def _cmd_kkt_check(args) -> int:
    p = _load_problem(args)
    eq = solve_equilibrium(p, DynamicsParams(rho=args.rho), tol=min(args.tol, 1e-9))
    res = eq.residual
    print(f"stationarity     {res.stationarity:.3e}")
    print(f"primal           {res.primal:.3e}")
    print(f"dual             {res.dual:.3e}")
    print(f"complementarity  {res.complementarity:.3e}")
    print(f"active set       {list(eq.active_set)}")
    warmup = (f" ({eq.warmup_steps} of them a warm-up to {WARMUP_TOL:g})"
              if eq.warmup_steps else "")
    how = f"; {eq.fallback_reason}" if eq.fallback_reason else ""
    print(f"method           {eq.method}, {eq.newton_iterations} Newton iterations, "
          f"{eq.euler_steps} Euler steps{warmup}{how}")
    ok = res.total <= args.tol
    print(f"total {res.total:.3e} {'<=' if ok else '>'} tol {args.tol:g}")
    if args.out:
        fileio.write_metadata(_out_dir(args) / "metadata.txt", {
            "command": "kkt-check",
            "problem": args.problem,
            "seed": args.seed,
            **problem_metadata(p),
            "rho": args.rho,
            "tol": args.tol,
            "kkt_stationarity": res.stationarity,
            "kkt_primal": res.primal,
            "kkt_dual": res.dual,
            "kkt_complementarity": res.complementarity,
            "kkt_total": res.total,
            "active_set": list(eq.active_set),
            **equilibrium_metadata(eq),
        })
    return 0 if ok else 1


def _cmd_gen(args) -> int:
    p = _load_problem(args)
    out = _out_dir(args)
    path = fileio.save_problem(out / "problem.txt", p)
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "certify": _cmd_certify,
    "sweep-eta": _cmd_sweep_eta,
    "spectrum": _cmd_spectrum,
    "kkt-check": _cmd_kkt_check,
    "gen": _cmd_gen,
}


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        # argparse handles --help (code 0) and usage errors (code 2) itself
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # CsvWriteError among them
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SaddleflowError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
