"""Seeded problem generators and the experiment driver.

Both generators split the master seed into one named substream per random
matrix (PCG64 via numpy's SeedSequence.spawn, children in declaration
order), so individual matrices can be reproduced without replaying the
whole generation. Bit-level determinism is promised within this
implementation only; the generator structure is what ports.

run_experiment sweeps the dual gain of a problem its caller has already
loaded (a generator's or a problem file's) over a grid, certifying and
simulating at each point, and leaves behind diff-friendly CSV artifacts
plus a small plotting script. Its sidecar, like the CLI's, names the
problem by problem_metadata, read off the problem itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from . import fileio
from .certificates import (
    LyapunovCertificate,
    build_certificate_eq,
    build_certificate_ineq,
    build_certificate_rank,
    condition_number,
)
from .dynamics import _AugmentedField, vector_field
from .equilibrium import Equilibrium, _integrate_to_equilibrium, solve_equilibrium
from .errors import DivergedError, InvalidInputError, RankDeficientError
from .integrator import (
    DIVERGENCE_NORM,
    Trajectory,
    _advance,
    _euler_iterates,
    _fallback_step,
    _step_count,
    choose_step_size,
    lipschitz_bound,
    simulate,
)
from .problem import (
    ConstrainedProblem,
    DynamicsParams,
    EqualityConstraints,
    InequalityConstraints,
    LogisticObjective,
    QuadraticObjective,
    TwoSidedConstraints,
    spectral_bounds,
    validate_problem,
)
from .spectral import lti_matrix

# Above this many Euler steps the certified step size is abandoned for the
# stability heuristic; conservative certificates can demand absurd budgets.
MAX_CERTIFIED_STEPS = 4_000_000

# Trajectory CSVs record the start and at most this many Euler steps.
MAX_RECORDED_ROWS = 200_000

TRAJECTORY_HEADER = ["t", "dist_x", "dist_lambda", "V"]


def _full_rank_matrix(rng, m, n, attempts=100):
    for _ in range(attempts):
        A = rng.standard_normal((m, n))
        eigs = np.linalg.eigvalsh(A @ A.T)
        if eigs[0] > 1e-10 * eigs[-1]:
            return A
    raise RankDeficientError(
        f"no full-row-rank {m}x{n} draw in {attempts} attempts"
    )


def _check_seed(seed):
    """seed, if it is a nonnegative integer (what SeedSequence takes)."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise InvalidInputError(f"seed must be a nonnegative integer, got {seed!r}")
    return seed


def gen_equality_qp(seed: int, n: int = 5, m: int = 2) -> ConstrainedProblem:
    """Random strongly convex QP with equality constraints.

    f(x) = 1/2 x^T W x with W = 10 I + W0 W0^T (W0 standard normal), so
    mu >= 10 for every seed; A and b standard normal, A redrawn until full
    row rank. Substreams: W0, A, b.
    """
    if not (1 <= m <= n):
        raise InvalidInputError(f"need 1 <= m <= n, got n={n}, m={m}")
    ss_w, ss_a, ss_b = np.random.SeedSequence(_check_seed(seed)).spawn(3)
    W0 = np.random.default_rng(ss_w).standard_normal((n, n))
    W = 10.0 * np.eye(n) + W0 @ W0.T
    A = _full_rank_matrix(np.random.default_rng(ss_a), m, n)
    b = np.random.default_rng(ss_b).standard_normal(m)
    return ConstrainedProblem(
        objective=QuadraticObjective(W),
        constraints=EqualityConstraints(A=A, b=b),
        bounds=spectral_bounds(A),
    )


def gen_logistic_ineq(seed: int, n: int = 50, m: int = 40,
                      n_data: int = 100, reg: float = 0.1) -> ConstrainedProblem:
    """Ridge-regularized logistic regression under random linear inequalities.

    Data rows and constraint data are standard normal, labels uniform in
    {-1, +1}; plain logistic loss is not strongly convex, so the ridge term
    (implementation default reg = 0.1, n_data = 100) supplies mu = reg.
    Substreams: D, labels, A, b.
    """
    if not (1 <= m <= n):
        raise InvalidInputError(f"need 1 <= m <= n, got n={n}, m={m}")
    if n_data < 1:
        raise InvalidInputError(f"need n_data >= 1, got {n_data}")
    if reg <= 0:
        raise InvalidInputError(f"reg must be positive, got {reg}")
    ss_d, ss_y, ss_a, ss_b = np.random.SeedSequence(_check_seed(seed)).spawn(4)
    D = np.random.default_rng(ss_d).standard_normal((n_data, n))
    y = np.random.default_rng(ss_y).integers(0, 2, size=n_data) * 2.0 - 1.0
    A = _full_rank_matrix(np.random.default_rng(ss_a), m, n)
    b = np.random.default_rng(ss_b).standard_normal(m)
    return ConstrainedProblem(
        objective=LogisticObjective(D, y, reg),
        constraints=InequalityConstraints(A=A, b=b),
        bounds=spectral_bounds(A),
    )


def _eta_tag(eta) -> str:
    """eta as it appears in a sweep's file names and per-eta metadata keys."""
    return f"{eta:g}"


def fit_decay_rate(times, dists) -> float:
    """Least-squares slope of log distance over the final half, negated.

    The first half of the trajectory is discarded as transient. Returns
    NaN when fewer than two usable points remain.
    """
    times = np.asarray(times, dtype=float)
    dists = np.maximum(np.asarray(dists, dtype=float), 1e-300)
    half = len(times) // 2
    t = times[half:]
    d = np.log(dists[half:])
    if len(t) < 2 or t[-1] == t[0]:
        return float("nan")
    slope = np.polyfit(t, d, 1)[0]
    return float(-slope)


def _variant_kind(p: ConstrainedProblem, variant: Optional[str] = None) -> str:
    """p's constraint kind; InvalidInputError if the variant does not fit it."""
    kind = {EqualityConstraints: "eq", InequalityConstraints: "ineq",
            TwoSidedConstraints: "ts"}[type(p.constraints)]
    if variant not in (None, kind) and (variant, kind) != ("rank", "ineq"):
        raise InvalidInputError(f"variant {variant!r} does not apply to a problem "
                                f"with {type(p.constraints).__name__}")
    return kind


def certificate_for(p: ConstrainedProblem, params: DynamicsParams,
                    variant: Optional[str] = None, eq: Optional[Equilibrium] = None):
    """Lyapunov certificate of one variant: "eq", "ineq", "ts" or "rank".

    The default is the paper's certificate for p's constraint kind. The
    rank-relaxed variant is built for the run from the origin to the
    solved equilibrium eq, which it needs. Raises InvalidInputError when
    the variant does not apply to p's constraints.
    """
    kind = _variant_kind(p, variant)
    if variant == "rank":
        if eq is None:
            raise ValueError("the rank-relaxed certificate needs the equilibrium eq")
        return build_certificate_rank(p, params, np.zeros(p.dim_n + p.dim_m), eq.z)
    if kind == "eq":
        return build_certificate_eq(p, params)
    return build_certificate_ineq(p, params)


def problem_metadata(p: ConstrainedProblem) -> dict:
    """metadata.txt entries saying which problem ran, read off p: the
    objective and constraint types, n and m, and a logistic objective's
    n_data and reg."""
    meta = {"objective": type(p.objective).__name__,
            "constraints": type(p.constraints).__name__,
            "n": p.dim_n, "m": p.dim_m}
    if isinstance(p.objective, LogisticObjective):
        meta["n_data"] = p.objective.D.shape[0]
        meta["reg"] = p.objective.reg
    return meta


def equilibrium_metadata(eq: Equilibrium) -> dict:
    """metadata.txt entries saying how the equilibrium was solved."""
    return {"equilibrium_method": eq.method,
            "equilibrium_newton_iterations": eq.newton_iterations,
            "equilibrium_euler_steps": eq.euler_steps,
            "equilibrium_fallback_reason": eq.fallback_reason or "none"}


def pick_step_size(p: ConstrainedProblem, params: DynamicsParams, cert,
                   horizon: float):
    """Certified step when affordable, stability heuristic otherwise.

    Returns (delta, certified_flag). The certified dyadic step is kept
    only if the run fits the step budget; conservative certificates (tiny
    tau against a large Lipschitz bound) otherwise force deltas that could
    never finish, and the heuristic min(1/(2 nu), rho/eta) keeps Euler
    stable on these flows while preserving the exact multiplier
    nonnegativity cap delta eta <= rho.
    """
    nu = lipschitz_bound(p, params)
    kappa_p = condition_number(cert.P)
    heuristic = _fallback_step(nu, params)
    try:
        delta = choose_step_size(cert.tau, nu, kappa_p,
                                 eta=params.eta, rho=params.rho)
    except ValueError:
        return heuristic, False
    if horizon > 0 and horizon / delta > MAX_CERTIFIED_STEPS:
        return heuristic, False
    return delta, True


@dataclass
class OriginRun:
    """A run from the origin (x = 0, lambda = 0), made by run_from_origin.

    delta_certified is "True", "False" (the fallback heuristic) or
    "user-supplied"; the run takes `steps` steps and records every
    record_every-th; its trajectory keeps no states (zs is None); rows are
    its Trajectory.rows(), to be read once.
    """

    cert: LyapunovCertificate
    delta: float
    delta_certified: str
    steps: int
    record_every: int
    trajectory: Optional[Trajectory]
    rows: Iterable
    measured_rate: float


def run_from_origin(p: ConstrainedProblem, grid, eq: Equilibrium,
                    horizon: float, delta: Optional[float] = None,
                    variant: Optional[str] = None) -> list:
    """Certify, pick the step and run the flow from the origin towards eq,
    once per DynamicsParams of grid; returns one OriginRun per entry.

    Per entry, in order: certificate_for(variant); delta, or
    pick_step_size; the horizon check (InvalidInputError below one step).
    Then every run goes from z = 0, recording every
    ceil(steps / MAX_RECORDED_ROWS)-th step, and gets its CSV rows and
    fit_decay_rate. The equality flows run one simulate each (the affine
    one already steps in blocks); the augmented flows run as one stack
    (_run_stack). Either way a DivergedError names the eta, the step and,
    as its column, the grid index. A zero horizon stops after the step: no
    trajectory, no rows, a NaN rate.
    """
    plans = []
    for params in grid:
        cert = certificate_for(p, params, variant, eq)
        if delta is not None:
            step, certified = float(delta), "user-supplied"
        else:
            step, certified = pick_step_size(p, params, cert, horizon)
        if horizon != 0 and horizon < step:
            raise InvalidInputError(f"horizon {horizon:g} is shorter than one step "
                                    f"(delta {step:g} at eta {params.eta:g})")
        steps = _step_count(horizon, step)
        stride = max(1, -(-steps // MAX_RECORDED_ROWS))
        plans.append((cert, step, str(certified), steps, stride))
    if horizon == 0:
        return [OriginRun(*plan, None, [], float("nan")) for plan in plans]
    z0 = np.zeros(p.dim_n + p.dim_m)
    c = 0  # the grid index of the equality run under way
    try:
        if isinstance(p.constraints, EqualityConstraints):
            trajs = []
            for c, (params, (cert, step, _, _, stride)) in enumerate(zip(grid, plans)):
                traj = simulate(vector_field(p, params), z0, step, horizon,
                                cert=cert, eq=eq.z, record_every=stride)
                traj.zs = None  # one trajectory's states in memory at a time
                trajs.append(traj)
        else:
            trajs = [Trajectory(z0, p.dim_n, step, steps, stride, eq.z, cert.P)
                     for cert, step, _, steps, stride in plans]
            _run_stack(p, grid, trajs)
    except DivergedError as exc:
        c = c if exc.column is None else exc.column
        raise DivergedError(f"eta {grid[c].eta:g}: state norm passed {DIVERGENCE_NORM:g} "
                            f"by step {exc.step}", step=exc.step, column=c) from None
    return [OriginRun(*plan, traj, traj.rows(),
                      fit_decay_rate(traj.times, traj.distances))
            for plan, traj in zip(plans, trajs)]


def _run_stack(p: ConstrainedProblem, grid, trajs):
    """Euler runs of p's augmented flow from the origin, one per entry of
    grid, stepped as one (K, d) stack.

    Column c takes trajs[c].steps steps of trajs[c].delta at grid[c],
    handing trajs[c] its states; then it leaves the stack.
    The stack goes through the one Euler kernel, whose divergence guard
    looks at every step of every column: DivergedError's column is the
    grid index and its step counts from the origin. Keeps no states.
    """
    steps = np.array([traj.steps for traj in trajs])
    deltas = np.array([traj.delta for traj in trajs])
    z = np.zeros((len(grid), p.dim_n + p.dim_m))
    done = 0
    for end in np.unique(steps):
        live = np.flatnonzero(steps >= end)
        advance = _advance(_AugmentedField(p, [grid[c] for c in live]))
        try:
            for rows in _euler_iterates(advance, z[live], deltas[live], end - done):
                for i, c in enumerate(live):
                    trajs[c].add(rows[:, i])
        except DivergedError as exc:
            at = done + exc.step
            raise DivergedError(f"state norm passed {DIVERGENCE_NORM:g} by step {at}",
                                step=at, column=int(live[exc.column])) from None
        z[live] = rows[-1]
        done = end


def _plot_script() -> str:
    return """\
# Renders the CSV artifacts written next to this script.
import glob
import os

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt
import numpy as np

here = os.path.dirname(os.path.abspath(__file__))

summary = np.genfromtxt(os.path.join(here, "summary.csv"),
                        delimiter=",", names=True)
summary = np.atleast_1d(summary)
fig, (top, bottom) = plt.subplots(2, 1, figsize=(7, 8))
top.loglog(summary["eta"], summary["measured_rate"], "o-", label="measured")
top.loglog(summary["eta"], summary["theoretical_rate"], "s--", label="certified")
if not np.all(np.isnan(summary["spectral_rate"])):
    top.loglog(summary["eta"], summary["spectral_rate"], "^:", label="spectral")
top.set_xlabel("eta")
top.set_ylabel("decay rate")
top.legend()

for path in sorted(glob.glob(os.path.join(here, "trajectory_eta*.csv"))):
    data = np.genfromtxt(path, delimiter=",", names=True)
    data = np.atleast_1d(data)
    if data.size < 2:
        continue
    dist = np.hypot(data["dist_x"], data["dist_lambda"])
    label = os.path.basename(path)[len("trajectory_"):-len(".csv")]
    bottom.semilogy(data["t"], dist, label=label)
bottom.set_xlabel("t")
bottom.set_ylabel("distance to equilibrium")
bottom.legend()

fig.tight_layout()
fig.savefig(os.path.join(here, "rates.png"), dpi=150)
print("wrote", os.path.join(here, "rates.png"))
"""


def run_experiment(p: ConstrainedProblem, grid, horizon: float, out_dir,
                   delta: Optional[float] = None, seed: int = 0) -> list:
    """Sweep p's flow over grid, one DynamicsParams per run, and write the
    artifacts into out_dir.

    Per eta: a trajectory CSV (t, dist_x, dist_lambda, V) starting from
    the origin. Overall: summary.csv with measured, certified and (when
    the flow is linear) spectral rates, a metadata sidecar, and plot.py.
    seed seeds validate_problem and is recorded. Before anything is
    solved: the grid must be nonempty with one rho and no two etas sharing
    a file tag (_eta_tag), horizon nonnegative and finite, and delta, when
    given, positive; InvalidInputError otherwise. out_dir is made only
    once every run has returned. Returns the written paths.
    """
    grid = list(grid)
    if len({params.rho for params in grid}) != 1:
        raise InvalidInputError("the grid must be nonempty and share one rho")
    seen = {}
    for params in grid:
        tag = _eta_tag(params.eta)
        if tag in seen:
            raise InvalidInputError(
                f"eta values {seen[tag]!r} and {params.eta!r} share the file tag "
                f"eta{tag}, so their artifacts would overwrite each other")
        seen[tag] = params.eta
    if not 0 <= horizon < math.inf:
        raise InvalidInputError("horizon must be nonnegative and finite")
    if delta is not None and not delta > 0:
        raise InvalidInputError("delta must be positive when given")
    report = validate_problem(p, samples=50, seed=seed)
    rho = grid[0].rho
    # The equilibrium is solved at eta = 1 either way, so the rates depend
    # on the grid alone. The sweep's measured rates depend on the last
    # digits of the equilibrium, and the benchmark's references pin the
    # augmented flows' rates against the integrated one; the equality QP's
    # Newton solve is one exact linear solve, bit for bit the same as before.
    if isinstance(p.constraints, EqualityConstraints):
        eq = solve_equilibrium(p, DynamicsParams(rho=rho), tol=1e-9)
    else:
        eq = _integrate_to_equilibrium(p, rho, 1e-9)
    runs = run_from_origin(p, grid, eq, horizon, delta)
    linear = isinstance(p.objective, QuadraticObjective) and isinstance(
        p.constraints, EqualityConstraints)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    summary_rows = []
    meta = {
        "seed": seed,
        **problem_metadata(p),
        "rho": float(rho),
        "horizon": float(horizon),
        "start": "origin (x = 0, lambda = 0)",
        "mu": p.objective.mu,
        "ell": p.objective.ell,
        "kappa1": p.bounds.kappa1,
        "kappa2": p.bounds.kappa2,
        "validated": report.passed,
        "validation_notes": "; ".join(report.notes).replace("\n", " ") or "none",
        **equilibrium_metadata(eq),
    }
    for params, run in zip(grid, runs):
        tag = _eta_tag(params.eta)
        paths.append(fileio.write_csv(out / f"trajectory_eta{tag}.csv",
                                      TRAJECTORY_HEADER, run.rows))
        spectral = (lti_matrix(p.objective.W, p.constraints.A, params.eta).rate
                    if linear else float("nan"))
        summary_rows.append((params.eta, params.rho, run.measured_rate,
                             run.cert.tau / 2.0, spectral))
        meta[f"delta_eta{tag}"] = run.delta
        meta[f"delta_certified_eta{tag}"] = run.delta_certified
        meta[f"steps_eta{tag}"] = run.steps
        meta[f"record_every_eta{tag}"] = run.record_every
        meta[f"c_eta{tag}"] = run.cert.c
        meta[f"tau_eta{tag}"] = run.cert.tau

    paths.append(fileio.write_csv(
        out / "summary.csv",
        ["eta", "rho", "measured_rate", "theoretical_rate", "spectral_rate"],
        summary_rows,
    ))
    paths.append(fileio.write_metadata(out / "metadata.txt", meta))
    plot_path = out / "plot.py"
    plot_path.write_text(_plot_script(), encoding="utf-8")
    paths.append(plot_path)
    return paths
