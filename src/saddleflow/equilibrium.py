"""Equilibria of the flows and their KKT characterization.

The unique equilibrium of each flow is the primal-dual optimum of the
underlying problem: stationarity grad f(x) + A^T lam = 0 plus feasibility
and, for inequalities, sign and complementary slackness conditions. For
the two-sided band the single multiplier vector splits by sign into upper
and lower multipliers, lam_bar = max(lam, 0) and lam_under = -min(lam, 0),
which cannot both be nonzero for the same row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import ACTIVE_TOL
from .dynamics import State, _flow_matrix, _stacked_state, _with_primal, vector_field
from .errors import MaxIterationsError
from .integrator import _advance, _as_stacked, _euler_iterates, _fallback_step, lipschitz_bound
from .problem import (
    ConstrainedProblem,
    DynamicsParams,
    EqualityConstraints,
    InequalityConstraints,
    QuadraticObjective,
)

# Euler steps between KKT residual checks while integrating to equilibrium.
KKT_CHECK_EVERY = 100


@dataclass(frozen=True)
class KktResidual:
    stationarity: float
    primal: float
    dual: float
    complementarity: float

    @property
    def total(self) -> float:
        return max(self.stationarity, self.primal, self.dual, self.complementarity)


@dataclass(frozen=True)
class Equilibrium:
    x_star: np.ndarray
    lambda_star: np.ndarray
    residual: KktResidual
    active_set: tuple

    @property
    def state(self) -> State:
        return State(x=self.x_star, lam=self.lambda_star)


def kkt_residual(p: ConstrainedProblem, s: State) -> KktResidual:
    """Componentwise optimality residual of (x, lam) for p's KKT system."""
    A = p.constraints.A
    g = p.objective.grad(s.x)
    stationarity = float(np.linalg.norm(g + A.T @ s.lam))
    if isinstance(p.constraints, EqualityConstraints):
        primal = float(np.linalg.norm(A @ s.x - p.constraints.b))
        return KktResidual(stationarity, primal, 0.0, 0.0)
    if isinstance(p.constraints, InequalityConstraints):
        r = A @ s.x - p.constraints.b
        primal = float(np.linalg.norm(np.maximum(r, 0.0)))
        dual = float(np.linalg.norm(np.minimum(s.lam, 0.0)))
        comp = float(np.max(np.abs(s.lam * r))) if r.size else 0.0
        return KktResidual(stationarity, primal, dual, comp)
    ax = A @ s.x
    lo, hi = p.constraints.b_lo, p.constraints.b_hi
    over = np.maximum(ax - hi, 0.0)
    under = np.maximum(lo - ax, 0.0)
    primal = float(np.sqrt(np.sum(over**2) + np.sum(under**2)))
    lam_bar = np.maximum(s.lam, 0.0)
    lam_under = -np.minimum(s.lam, 0.0)
    comp = float(np.max(np.maximum(lam_bar * np.abs(ax - hi),
                                   lam_under * np.abs(ax - lo))))
    return KktResidual(stationarity, primal, 0.0, comp)


def _fd_jacobian(grad, x):
    """Forward-difference Jacobian of the gradient (exact for quadratics)."""
    n = x.shape[0]
    g0 = grad(x)
    J = np.empty((n, n))
    for i in range(n):
        h = 1e-7 * (1.0 + abs(x[i]))
        xp = x.copy()
        xp[i] += h
        J[:, i] = (grad(xp) - g0) / h
    return 0.5 * (J + J.T)


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


def _solve_equality_newton(p, tol, x0=None):
    """Newton on the KKT residual with matrix -G(B) at eta = 1, B the Hessian:
    W (one step from the origin for a quadratic), otherwise _fd_jacobian."""
    A, b = p.constraints.A, p.constraints.b
    n, m = p.dim_n, p.dim_m

    def newton_step(B, r1, r2):
        K = -_with_primal(*_flow_matrix(A, 1.0), B)[0]  # [[B, A^T], [-A, 0]]
        return np.linalg.solve(K, np.concatenate([-r1, r2]))

    if isinstance(p.objective, QuadraticObjective):
        sol = newton_step(p.objective.W, p.objective.q, -b)
        return sol[:n], sol[n:]
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    lam = np.zeros(m)
    for _ in range(100):
        r1 = p.objective.grad(x) + A.T @ lam
        r2 = A @ x - b
        if max(np.linalg.norm(r1), np.linalg.norm(r2)) <= tol:
            return x, lam
        step = newton_step(_fd_jacobian(p.objective.grad, x), r1, r2)
        x = x + step[:n]
        lam = lam + step[n:]
        if not np.all(np.isfinite(x)):
            break
    return None


def _integrate_to_equilibrium(p, params, tol, z0, max_steps):
    """Drive the flow until the KKT residual drops below tol.

    The step is the stability heuristic min(1/(2 nu), rho/eta): the
    certified step can be impractically small when the certificate
    constants are conservative, while the flow itself converges at its
    true (much faster) rate. The cap keeps inequality multipliers
    nonnegative exactly. The residual and the divergence guard are
    checked every KKT_CHECK_EVERY steps and at max_steps; a block of
    steps ends at the next check, so no step is taken past the one that
    passes.
    """
    field = vector_field(p, params)
    delta = _fallback_step(lipschitz_bound(p, params), params)
    n = p.dim_n
    f, step, z, _ = _as_stacked(field, z0)
    advance = _advance(f, step)
    for rec in _euler_iterates(lambda z, d, k: advance(z, d, min(k, KKT_CHECK_EVERY)),
                               z, delta, max_steps, KKT_CHECK_EVERY):
        for z in rec:
            if kkt_residual(p, State(x=z[:n], lam=z[n:])).total <= tol:
                return z[:n], z[n:]
    raise MaxIterationsError(
        f"KKT residual did not reach {tol:g} within {max_steps} steps"
    )


def solve_equilibrium(p: ConstrainedProblem, params: DynamicsParams = None,
                      tol: float = 1e-9, z0: State = None,
                      max_steps: int = 10_000_000) -> Equilibrium:
    """Compute the unique primal-dual equilibrium of p's flow.

    Equality constraints: Newton on the stacked KKT residual, which is a
    single exact linear solve for quadratic objectives; integration of the
    flow is the fallback if Newton stalls. Inequality and two-sided
    constraints: integrate the augmented flow from z0 (default the origin)
    until the total KKT residual is at most tol.
    """
    if params is None:
        params = DynamicsParams()
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    n, m = p.dim_n, p.dim_m
    start = np.zeros(n + m) if z0 is None else _stacked_state(z0, n + m, "z0")
    out = None
    if isinstance(p.constraints, EqualityConstraints):
        out = _solve_equality_newton(p, tol, x0=start[:n] if z0 is not None else None)
    if out is None:
        out = _integrate_to_equilibrium(p, params, tol, start, max_steps)
    s = State(*out)
    res = kkt_residual(p, s)
    if res.total > tol:
        raise MaxIterationsError(
            f"equilibrium residual {res.total:g} exceeds tolerance {tol:g}"
        )
    return Equilibrium(x_star=s.x, lambda_star=s.lam, residual=res,
                       active_set=_active_set(p, s.x))
