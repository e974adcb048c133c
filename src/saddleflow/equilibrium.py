"""Equilibria of the flows and their KKT characterization.

The unique equilibrium of each flow is the primal-dual optimum of the
underlying problem: stationarity grad f(x) + A^T lam = 0 plus feasibility
and, for inequalities, sign and complementary slackness conditions. For
the two-sided band the single multiplier vector splits by sign into upper
and lower multipliers, lam_bar = max(lam, 0) and lam_under = -min(lam, 0),
which cannot both be nonzero for the same row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .certificates import ACTIVE_TOL
from .dynamics import _fitting, _flow_matrix, _with_primal, vector_field
from .errors import InfeasibleError, MaxIterationsError
from .integrator import (MAX_EULER_STEPS, Trajectory, _advance, _euler_iterates,
                         _fallback_step, lipschitz_bound)
from .problem import (
    ConstrainedProblem,
    DynamicsParams,
    EqualityConstraints,
    InequalityConstraints,
    _fields_equal,
    _readonly,
)

# Euler steps between KKT residual checks while integrating to equilibrium.
KKT_CHECK_EVERY = 100
# KKT residual the flow is integrated to when Newton stalls, before Newton
# is tried once more from there.
WARMUP_TOL = 1e-2
# Euler steps solve_equilibrium integrates for when Newton stalls, warm-up
# and fallback together; the sweep's integrated equilibrium keeps
# MAX_EULER_STEPS.
SOLVE_EULER_STEPS = 100_000
# Newton iterations before the solver falls back to integrating the flow.
NEWTON_MAX_ITER = 50
# A damped Newton step must cut |F| by this fraction of its damping t;
# t is halved from 1 and Newton stalls below the smallest t.
NEWTON_ARMIJO = 1e-4
NEWTON_MIN_DAMPING = 2.0 ** -30
# A Newton step no longer than this many ulps of max(1, |z|) is rounding:
# when even it finds no descent, no method can lower the residual further.
NEWTON_ROUNDING_ULPS = 64


@dataclass(frozen=True)
class KktResidual:
    stationarity: float
    primal: float
    dual: float
    complementarity: float

    @property
    def total(self) -> float:
        return max(self.stationarity, self.primal, self.dual, self.complementarity)


@dataclass(frozen=True, eq=False)
class Equilibrium:
    """The solved equilibrium, and how the solve went.

    z is the read-only stacked z* = (x*, lam*), and x_star and
    lambda_star are its two parts. method is "newton" or "integration";
    newton_iterations and euler_steps count the work of each;
    warmup_steps counts the Euler steps of the warm-up after a Newton
    stall (0 without one), which euler_steps includes; fallback_reason
    says why Newton last stalled, when it did. These five and z are
    outside ==, which compares x_star and lambda_star entrywise.
    """

    x_star: np.ndarray
    lambda_star: np.ndarray
    residual: KktResidual
    active_set: tuple
    method: str = field(kw_only=True, compare=False)
    newton_iterations: int = field(default=0, kw_only=True, compare=False)
    euler_steps: int = field(default=0, kw_only=True, compare=False)
    warmup_steps: int = field(default=0, kw_only=True, compare=False)
    fallback_reason: str = field(default="", kw_only=True, compare=False)
    z: np.ndarray = field(init=False, repr=False, compare=False)

    __eq__ = _fields_equal

    def __post_init__(self):
        n = len(self.x_star)
        z = _readonly(np.concatenate([self.x_star, self.lambda_star]))
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "x_star", z[:n])
        object.__setattr__(self, "lambda_star", z[n:])


def kkt_residual(p: ConstrainedProblem, z) -> KktResidual:
    """Componentwise optimality residual of the stacked z = (x, lam) for
    p's KKT system."""
    n = p.dim_n
    z = _fitting(z, n + p.dim_m, "z")
    x, lam = z[:n], z[n:]
    A = p.constraints.A
    g = p.objective.grad(x)
    stationarity = float(np.linalg.norm(g + A.T @ lam))
    if isinstance(p.constraints, EqualityConstraints):
        primal = float(np.linalg.norm(A @ x - p.constraints.b))
        return KktResidual(stationarity, primal, 0.0, 0.0)
    if isinstance(p.constraints, InequalityConstraints):
        r = A @ x - p.constraints.b
        primal = float(np.linalg.norm(np.maximum(r, 0.0)))
        dual = float(np.linalg.norm(np.minimum(lam, 0.0)))
        comp = float(np.max(np.abs(lam * r))) if r.size else 0.0
        return KktResidual(stationarity, primal, dual, comp)
    ax = A @ x
    lo, hi = p.constraints.b_lo, p.constraints.b_hi
    over = np.maximum(ax - hi, 0.0)
    under = np.maximum(lo - ax, 0.0)
    primal = float(np.sqrt(np.sum(over**2) + np.sum(under**2)))
    lam_bar = np.maximum(lam, 0.0)
    lam_under = -np.minimum(lam, 0.0)
    comp = float(np.max(np.maximum(lam_bar * np.abs(ax - hi),
                                   lam_under * np.abs(ax - lo))))
    return KktResidual(stationarity, primal, 0.0, comp)


def _active_set(p: ConstrainedProblem, x: np.ndarray) -> tuple:
    A = p.constraints.A
    if isinstance(p.constraints, EqualityConstraints):
        return tuple(range(p.dim_m))
    ax = A @ x
    if isinstance(p.constraints, InequalityConstraints):
        mask = np.abs(ax - p.constraints.b) <= ACTIVE_TOL
    else:
        mask = (np.abs(ax - p.constraints.b_lo) <= ACTIVE_TOL) | (
            np.abs(ax - p.constraints.b_hi) <= ACTIVE_TOL
        )
    return tuple(int(j) for j in np.flatnonzero(mask))


def _newton(p: ConstrainedProblem, rho: float, tol: float, z, done: int = 0):
    """Damped semismooth Newton on F(z) = 0, F the flow's field at eta = 1.

    The equilibrium does not depend on eta, so eta = 1 serves every flow.
    Each step solves G(B, Gamma(z)) s = -F(z), the generalized Jacobian of
    F: B the objective's Hessian, Gamma(z) the 0/1 pattern of the
    constraints whose effective multiplier is nonzero (the penalty clip
    passes its argument there). From the origin of an equality QP the
    first step is the exact KKT solve. The step is halved until |F| falls
    by the Armijo fraction. Iterations are numbered on from done, the
    iterations of an earlier run of the same solve. Returns (equilibrium,
    iterations, None) once the KKT residual is at most tol, or (None,
    iterations, reason) when Newton stalls: a non-finite field or step, a
    singular Jacobian, no descent, or NEWTON_MAX_ITER iterations of this
    run. The rounding floor raises
    MaxIterationsError instead: a field that is exactly 0 while the
    residual is above tol (where every damped step would pass the Armijo
    test without moving), or no descent on a step below rounding
    (NEWTON_ROUNDING_ULPS), an exactly 0 step among them.
    """
    n = p.dim_n
    A = p.constraints.A
    flow = vector_field(p, DynamicsParams(eta=1.0, rho=rho))
    equality = isinstance(p.constraints, EqualityConstraints)
    with np.errstate(over="ignore", invalid="ignore"):
        F = flow(z)
        norm = float(np.linalg.norm(F))
        for k in range(done, done + NEWTON_MAX_ITER + 1):
            if not np.isfinite(norm):
                why = "non-finite field"
                break
            res = kkt_residual(p, z)
            if res.total <= tol:
                return _equilibrium(p, z, res, method="newton", newton_iterations=k), k, None
            if k == done + NEWTON_MAX_ITER:
                why = "iteration cap"
                break
            if norm == 0.0:
                raise MaxIterationsError(
                    f"KKT residual {res.total:.3g} did not reach {tol:g}: newton found the "
                    f"field exactly 0 at iteration {k}")
            gammas = None
            if not equality:
                gammas = (flow.multiplier(A @ z[:n], z[n:]) != 0.0)[None].astype(float)
            G = _with_primal(*_flow_matrix(A, 1.0, rho, gammas), p.objective.hess(z[:n]))[0]
            try:
                step = np.linalg.solve(G, -F)
            except np.linalg.LinAlgError:
                why = "singular Jacobian"
                break
            if not np.all(np.isfinite(step)):
                why = "non-finite step"
                break
            t = 1.0
            while t >= NEWTON_MIN_DAMPING:
                trial = z + t * step
                F_trial = flow(trial)
                norm_trial = float(np.linalg.norm(F_trial))
                if norm_trial <= (1.0 - NEWTON_ARMIJO * t) * norm:
                    break
                t *= 0.5
            else:
                size, scale = float(np.linalg.norm(step)), max(1.0, float(np.linalg.norm(z)))
                if size <= NEWTON_ROUNDING_ULPS * np.finfo(float).eps * scale:
                    raise MaxIterationsError(
                        f"KKT residual {res.total:.3g} did not reach {tol:g}: newton found "
                        f"no descent at iteration {k} on a step of {size:.3g}, below the "
                        f"rounding of |z| = {scale:.3g}")
                why = "no descent"
                break
            z, F, norm = trial, F_trial, norm_trial
    return None, k, f"newton stalled at iteration {k}, |F| = {norm:.3g}: {why}"


def _kkt_checks(p: ConstrainedProblem, rho: float, z0, budget: int):
    """Drive the flow at eta = 1 from z0 for at most `budget` Euler steps,
    yielding (steps taken, z, KKT residual) at
    every KKT_CHECK_EVERY-th step and at the last: the states a Trajectory
    of that stride records. The equilibrium does not depend on eta, so
    eta = 1 serves every flow, as in _newton.

    The step is the stability heuristic min(1/(2 nu), rho/eta), here
    min(1/(2 nu), rho): the certified step can be impractically small
    when the certificate constants are conservative, while the flow
    itself converges at its true (much faster) rate. The cap keeps
    inequality multipliers nonnegative exactly. A block takes at most
    KKT_CHECK_EVERY steps, so it ends at the next check, and a caller that
    stops at a check leaves no step taken past it (an affine block from a
    shorter power table may run a few steps past it).
    """
    params = DynamicsParams(rho=rho)
    delta = _fallback_step(lipschitz_bound(p, params), params)
    advance = _advance(vector_field(p, params))
    checked = Trajectory(z0, p.dim_n, delta, budget, KKT_CHECK_EVERY)
    checks = 0
    for rows in _euler_iterates(lambda z, d, k: advance(z, d, min(k, KKT_CHECK_EVERY)),
                                z0, delta, budget):
        for z in checked.add(rows):
            checks += 1
            yield min(checks * KKT_CHECK_EVERY, budget), z, kkt_residual(p, z)


def _integrate_until(checks, tol: float, budget: int):
    """The first (steps, z, residual) of checks whose residual is at most
    tol; MaxIterationsError, naming the budget of checks' run, when that
    run ends first."""
    for steps, z, res in checks:
        if res.total <= tol:
            return steps, z, res
    raise MaxIterationsError(
        f"KKT residual did not reach {tol:g} within {budget} steps, the step budget")


def _integrate_to_equilibrium(p: ConstrainedProblem, rho: float, tol: float) -> Equilibrium:
    """Integrate the flow at eta = 1 from the origin until the KKT residual
    is at most tol (_kkt_checks), within MAX_EULER_STEPS steps: the
    sweep's equilibrium."""
    budget = MAX_EULER_STEPS
    steps, z, res = _integrate_until(
        _kkt_checks(p, rho, np.zeros(p.dim_n + p.dim_m), budget), tol, budget)
    return _equilibrium(p, z, res, method="integration", euler_steps=steps)


def _equilibrium(p, z, res: KktResidual, **how) -> Equilibrium:
    n = p.dim_n
    return Equilibrium(x_star=z[:n], lambda_star=z[n:], residual=res,
                       active_set=_active_set(p, z[:n]), **how)


def solve_equilibrium(p: ConstrainedProblem, params: DynamicsParams = None,
                      tol: float = 1e-9, z0=None) -> Equilibrium:
    """Compute the unique primal-dual equilibrium of p's flow.

    The equilibrium is p's KKT point, which does not depend on eta, so
    only params.rho is read: both methods run the flow at eta = 1.
    Damped semismooth Newton on the flow's field from the stacked z0
    (default the origin) until the total KKT residual is at most tol; for
    an equality QP from the origin that is one exact linear solve. If
    Newton stalls, the flow is integrated from z0 to a KKT residual of
    WARMUP_TOL (the warm-up), and Newton runs once more from there; if it
    stalls again, the same integration goes on to tol. All of it takes at
    most SOLVE_EULER_STEPS Euler steps (read at the call), and
    MaxIterationsError names that budget when it runs out. If Newton
    stalls on a step below
    rounding, or its field is exactly 0, the residual has reached its
    floor, and MaxIterationsError says so at once; if the field at z0
    overflows (a non-finite |F|, as at rho = 1e200), InfeasibleError says
    so at once, before any Euler step. The result records
    which method finished, the Newton iterations, the Euler steps and
    those of the warm-up, and why Newton last stalled.
    """
    if params is None:
        params = DynamicsParams()
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    size = p.dim_n + p.dim_m
    start = np.zeros(size) if z0 is None else _fitting(z0, size, "z0")
    eq, iterations, stalled = _newton(p, params.rho, tol, start)
    if eq is not None:
        return eq
    with np.errstate(over="ignore", invalid="ignore"):
        size = float(np.linalg.norm(vector_field(p, DynamicsParams(rho=params.rho))(start)))
    if not np.isfinite(size):
        raise InfeasibleError(
            f"the field at the start overflows (|F| = {size:g} at rho = {params.rho:g}): "
            "neither Newton nor the flow can take a finite step from it")
    budget = SOLVE_EULER_STEPS
    checks = _kkt_checks(p, params.rho, start, budget)
    try:
        steps, z, res = _integrate_until(checks, max(tol, WARMUP_TOL), budget)
        warmup = 0
        if res.total > tol:
            warmup = steps
            eq, iterations, again = _newton(p, params.rho, tol, z, iterations)
            if eq is not None:
                return replace(eq, euler_steps=steps, warmup_steps=steps,
                               fallback_reason=stalled)
            stalled = again
            steps, z, res = _integrate_until(checks, tol, budget)
    except MaxIterationsError as exc:
        raise MaxIterationsError(f"{exc} ({stalled})") from None
    return _equilibrium(p, z, res, method="integration", newton_iterations=iterations,
                        euler_steps=steps, warmup_steps=warmup, fallback_reason=stalled)
