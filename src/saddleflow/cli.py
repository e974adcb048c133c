"""Command-line front end.

Subcommands: simulate, certify, sweep-eta, spectrum, kkt-check, gen.
Exit codes: 0 success, 1 validation failure (failed certificate sweep,
unverified equilibrium, diverged run), 2 usage error (bad flag value,
variant or problem file; printed as `error: ...`). Standard output
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
from .equilibrium import solve_equilibrium
from .errors import InvalidInputError, SaddleflowError
from .experiments import (
    KIND_EQUALITY_QP,
    KIND_LOGISTIC_INEQ,
    TRAJECTORY_HEADER,
    ExperimentSpec,
    _variant_kind,
    certificate_for,
    equilibrium_metadata,
    gen_equality_qp,
    gen_logistic_ineq,
    run_experiment,
    run_from_origin,
)
from .problem import DynamicsParams, EqualityConstraints, QuadraticObjective
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
    "--variant": dict(choices=["eq", "ineq", "ts", "rank"], default=None,
                      help="certificate variant (default: by problem)"),
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


# Each generator --problem names, its experiment kind and the generator
# flags it reads; a problem file reads none of them.
_GENERATORS = {
    "eq-qp": (gen_equality_qp, KIND_EQUALITY_QP, ("n", "m")),
    "logistic": (gen_logistic_ineq, KIND_LOGISTIC_INEQ, ("n", "m", "n_data", "reg")),
}


def _generator_args(args) -> dict:
    """The generator flags given on the command line; the generators hold
    the defaults of the rest."""
    return {key: getattr(args, key) for key in ("n", "m", "n_data", "reg")
            if getattr(args, key) is not None}


def _load_problem(args):
    """(problem, kind) of --problem; kind is None for a problem file. A
    generator flag the problem does not read is a usage error."""
    name = args.problem
    generator, kind, reads = _GENERATORS.get(name, (None, None, ()))
    if generator is None and not Path(name).exists():
        raise UsageError(
            f"--problem must be 'eq-qp', 'logistic' or an existing file; got {name!r}"
        )
    given = _generator_args(args)
    unread = ["--" + key.replace("_", "-") for key in given if key not in reads]
    if unread:
        where = f"--problem {name}" if generator else "a problem file"
        raise UsageError(f"{' and '.join(unread)} not read with {where}")
    if generator is None:
        return fileio.load_problem(Path(name)), None
    return generator(args.seed, **given), kind


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path("saddleflow-out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    if args.horizon == 0:
        raise UsageError("--horizon 0 takes no step")
    p, _ = _load_problem(args)
    _variant_kind(p, args.variant)
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
        "eta": params.eta,
        "rho": params.rho,
        "delta": run.delta,
        "delta_certified": run.delta_certified,
        "horizon": float(args.horizon),
        "c": cert.c,
        "tau": cert.tau,
        "variant": cert.variant.value,
        **equilibrium_metadata(eq),
    })
    print(f"simulated {len(traj)} recorded steps to t={traj.times[-1]:g}")
    print(f"final distance {traj.distances[-1]:.6g}, measured rate "
          f"{run.measured_rate:.6g}, certified rate {cert.tau / 2:.6g}")
    print(f"wrote {out / 'trajectory.csv'}")
    return 0


def _cmd_certify(args) -> int:
    p, _ = _load_problem(args)
    _variant_kind(p, args.variant)
    params = DynamicsParams(eta=args.eta, rho=args.rho)
    eq = solve_equilibrium(p, params) if args.variant == "rank" else None
    cert = certificate_for(p, params, args.variant, eq)
    report = lmi_sweep(cert, p, params, b_samples=100, seed=args.seed)
    print(f"variant {cert.variant.value}: c = {cert.c:.6g}, tau = {cert.tau:.6g}")
    print(f"LMI sweep: {report.samples_checked} samples, "
          f"min margin {report.min_margin:.6g}, "
          f"{'pass' if report.passed else 'FAIL'}")
    print(f"verdict {report.verdict} (resolution {report.resolution:.6g})")
    if args.out:
        out = _out_dir(args)
        fileio.write_csv(out / "lmi_report.csv",
                         ["variant", "samples_checked", "min_margin", "passed"],
                         [(cert.variant.value, float(report.samples_checked),
                           report.min_margin, float(report.passed))])
        fileio.write_metadata(out / "metadata.txt", {
            "command": "certify",
            "problem": args.problem,
            "seed": args.seed,
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
    return 0 if report.passed else 1


def _cmd_sweep_eta(args) -> int:
    p, kind = _load_problem(args)
    if kind is None:
        raise UsageError("sweep-eta needs a generator problem (eq-qp or logistic)")
    grid = _parse_grid(args.eta_grid)
    spec = ExperimentSpec(
        kind=kind,
        seed=args.seed,
        params=DynamicsParams(rho=args.rho),
        eta_grid=grid,
        delta=args.delta,
        horizon=args.horizon,
        # the sizes p was generated with; n_data and reg only when given
        **{"n": p.dim_n, "m": p.dim_m, **_generator_args(args)},
    )
    paths = run_experiment(spec, _out_dir(args))
    print(f"swept {grid.size} eta values; wrote {len(paths)} artifacts:")
    for path in paths:
        print(f"  {path}")
    return 0


def _cmd_spectrum(args) -> int:
    p, _ = _load_problem(args)
    if not (isinstance(p.objective, QuadraticObjective)
            and isinstance(p.constraints, EqualityConstraints)):
        raise UsageError("spectrum needs a quadratic objective with equality "
                         "constraints (the flow must be linear)")
    grid = _parse_grid(args.eta_grid)
    table = eta_sweep(p.objective.W, p.constraints.A, grid)
    out = _out_dir(args)
    fileio.write_csv(out / "spectrum.csv",
                     ["eta", "spectral_rate", "certified_rate"], table.rows())
    fileio.write_metadata(out / "metadata.txt", {
        "command": "spectrum",
        "problem": args.problem,
        "seed": args.seed,
        "grid": args.eta_grid,
    })
    print(f"rates span [{table.rates.min():.6g}, {table.rates.max():.6g}] "
          f"over {grid.size} grid points")
    print(f"wrote {out / 'spectrum.csv'}")
    return 0


def _cmd_kkt_check(args) -> int:
    p, _ = _load_problem(args)
    eq = solve_equilibrium(p, DynamicsParams(rho=args.rho), tol=min(args.tol, 1e-9))
    res = eq.residual
    print(f"stationarity     {res.stationarity:.3e}")
    print(f"primal           {res.primal:.3e}")
    print(f"dual             {res.dual:.3e}")
    print(f"complementarity  {res.complementarity:.3e}")
    print(f"active set       {list(eq.active_set)}")
    how = f"; {eq.fallback_reason}" if eq.fallback_reason else ""
    print(f"method           {eq.method}, {eq.newton_iterations} Newton iterations, "
          f"{eq.euler_steps} Euler steps{how}")
    ok = res.total <= args.tol
    print(f"total {res.total:.3e} {'<=' if ok else '>'} tol {args.tol:g}")
    return 0 if ok else 1


def _cmd_gen(args) -> int:
    p, _ = _load_problem(args)
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
    except SaddleflowError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
