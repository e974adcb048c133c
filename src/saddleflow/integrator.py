"""Explicit Euler integration with a contraction certificate.

For a nu-Lipschitz field contracting in the P-norm at rate tau/2, the
Euler map with step delta contracts by at least

    r = exp(-tau delta / 2) + kappa_P nu^2 delta^2 / 2

per step in the P-norm, where kappa_P is the condition number of P. Any
delta with r < 1 is admissible: the discrete iterates then inherit the
exponential decay of the flow. Only explicit Euler carries this
certificate; a classic fourth-order step is included purely as a
high-accuracy reference (no certificate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import State, StateDerivative, _stacked_state
from .errors import DivergedError, NonFiniteFieldError
from .problem import ConstrainedProblem, DynamicsParams, EqualityConstraints, _matvec

DIVERGENCE_NORM = 1e12
_DIVERGENCE_NORM2 = DIVERGENCE_NORM * DIVERGENCE_NORM


@dataclass(frozen=True)
class StepCertificate:
    delta: float
    nu: float
    kappa_P: float
    contraction: float

    @property
    def admissible(self) -> bool:
        return self.contraction < 1.0


@dataclass
class Trajectory:
    """Recorded Euler iterates on the stacked state z = (x, lam).

    zs has one row per recorded step, or is None for a run that kept no
    states (run_from_origin's); n is the primal dimension used to split
    rows back into State objects. v_values and the distances to z* are
    filled when simulate was given a certificate / equilibrium.
    """

    times: np.ndarray
    zs: np.ndarray
    n: int
    v_values: Optional[np.ndarray] = None
    distances: Optional[np.ndarray] = None
    dist_x: Optional[np.ndarray] = None
    dist_lambda: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.zs is not None and len(self.times) != len(self.zs):
            raise ValueError("times and states must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    @property
    def states(self):
        if self.zs is None:
            raise ValueError("this run kept no states")
        return [State(x=row[: self.n], lam=row[self.n:]) for row in self.zs]

    def __len__(self):
        return len(self.times)


def _as_stacked(field, z0):
    """Normalize (field, z0) to the stacked convention: (f, step, z, n).

    f maps z = (x, lam) to dz. A plain callable paired with a State input
    is treated as a State-level field (returning a StateDerivative); field
    objects from dynamics.vector_field carry their own split and are used
    as is. step(z, delta) is one explicit Euler step: the field's own
    euler_update when it has one, otherwise z + delta * f(z).
    """
    f = field
    if isinstance(z0, State):
        n, z = z0.x.shape[0], z0.stacked()
        if not hasattr(field, "n"):
            def f(zv, _f=field, _n=n):
                d = _f(State(x=zv[:_n], lam=zv[_n:]))
                return d.stacked() if isinstance(d, StateDerivative) else np.asarray(d, float)
    else:
        z = np.atleast_1d(np.asarray(z0, dtype=float))
        n = getattr(field, "n", z.shape[0])
    step = getattr(f, "euler_update", None)
    if step is None:
        def step(zv, delta, _f=f):
            return zv + delta * np.asarray(_f(zv), dtype=float)
    return f, step, z, n


def _advance(f, step):
    """advance(z, delta, k): the next 1..k Euler iterates as rows.

    The field's euler_block where it has one (many steps per call),
    otherwise one step(z, delta) per call.
    """
    block = getattr(f, "euler_block", None)
    if block is not None:
        return block
    return lambda z, delta, k: step(z, delta)[None]


def _step_count(horizon: float, delta: float) -> int:
    """Euler steps of delta in a run to t = horizon: ceil(horizon / delta)."""
    return int(math.ceil(horizon / delta - 1e-9))


def _recorded(rows, start, stride, steps):
    """The rows, states after steps start + 1, start + 2, ..., that a run
    of `steps` steps records: the multiples of stride and the last step."""
    rec = rows[stride - 1 - start % stride::stride]
    if start + len(rows) == steps and steps % stride:
        rec = np.concatenate([rec, rows[-1:]])
    return rec


def _euler_iterates(advance, z, delta, steps, stride):
    """Take `steps` Euler steps from z, yielding the recorded states.

    The recorded steps are the multiples of stride and the last step.
    Each yield is an array holding the recorded states among the rows of
    one advance(z, delta, k) call (see _advance), so a blocked field
    yields many at a time and a single step one or none. z may be one
    state or a (K, d) stack of them, and each row of a stack's block is
    then a stack too. The divergence guard runs on every recorded state
    and only there: a norm above DIVERGENCE_NORM (NaN included) raises
    DivergedError naming the first such step, and the column of a stack.
    This is the one Euler loop of the package; simulate, the stacked
    runs of experiments.run_from_origin and the equilibrium solver all
    iterate it.
    """
    k = 0
    due = stride  # the next recorded multiple of stride
    while k < steps:
        rows = advance(z, delta, steps - k)
        z = rows[-1]
        start, k = k, k + len(rows)
        if k < due and k < steps:
            continue
        rec = _recorded(rows, start, stride, steps)
        first, due = due, (k // stride + 1) * stride
        # The sum of squared norms clears the common case in one product;
        # only when it fails is each recorded row looked at.
        if not (np.vdot(rec, rec) <= _DIVERGENCE_NORM2):
            bad = ~(np.einsum("i...j,i...j->i...", rec, rec) <= _DIVERGENCE_NORM2)
            if bad.any():
                row, *column = np.unravel_index(bad.argmax(), bad.shape)
                at = min(first + int(row) * stride, steps)
                raise DivergedError(f"state norm passed {DIVERGENCE_NORM:g} by step {at}",
                                    step=at, column=int(column[0]) if column else None)
        yield rec


class _Recorder:
    """What a run records, filled in block by block as its states come.

    A run of `steps` steps of delta records step 0, the multiples of
    stride and the last step. Given z*, each recorded state adds its
    distances to z* (of z, x and lam), and given P as well its Lyapunov
    value V = (z - z*)^T P (z - z*). P (z - z*) is one _matvec product per
    state, so no value depends on how the states come in blocks.
    """

    def __init__(self, n, delta, steps, stride, z_star=None, P=None):
        idx = np.arange(0, steps + 1, stride)
        if idx[-1] != steps:
            idx = np.append(idx, steps)
        self.n, self.delta, self.steps, self.stride = n, delta, steps, stride
        self.times = idx * delta
        self.z_star, self.P = z_star, P
        self.filled = 0
        self.distances = self.dist_x = self.dist_lambda = self.v_values = None
        if z_star is not None:
            self.distances, self.dist_x, self.dist_lambda = np.empty((3, len(idx)))
        if P is not None:
            self.v_values = np.empty(len(idx))

    def add(self, rec):
        """Take rec, the next recorded states, one per row."""
        i, self.filled = self.filled, self.filled + len(rec)
        if self.z_star is None:
            return
        U = rec - self.z_star
        if self.P is not None:
            self.v_values[i: self.filled] = np.einsum("ij,ij->i", _matvec(self.P, U), U)
        # np.linalg.norm's arithmetic from one in-place square
        U *= U
        self.distances[i: self.filled] = np.sqrt(U.sum(axis=1))
        self.dist_x[i: self.filled] = np.sqrt(U[:, : self.n].sum(axis=1))
        self.dist_lambda[i: self.filled] = np.sqrt(U[:, self.n:].sum(axis=1))

    def trajectory(self, zs=None) -> Trajectory:
        return Trajectory(times=self.times, zs=zs, n=self.n, v_values=self.v_values,
                          distances=self.distances, dist_x=self.dist_x,
                          dist_lambda=self.dist_lambda)


def euler_step(field, s, delta: float):
    """One explicit Euler step s + delta * field(s).

    Accepts either a State (field returns a StateDerivative) or a plain
    vector (field returns a vector). Raises NonFiniteField when the step
    comes out NaN or infinite.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    _, step, z, n = _as_stacked(field, s)
    out = step(z, delta)
    if not np.all(np.isfinite(out)):
        raise NonFiniteFieldError("field returned non-finite values")
    return State.from_stacked(out, n) if isinstance(s, State) else out


def rk4_step(field, s, delta: float):
    """Classic fourth-order step; reference accuracy only, no certificate."""
    f, _, z, n = _as_stacked(field, s)
    k1 = np.asarray(f(z), dtype=float)
    k2 = np.asarray(f(z + 0.5 * delta * k1), dtype=float)
    k3 = np.asarray(f(z + 0.5 * delta * k2), dtype=float)
    k4 = np.asarray(f(z + delta * k3), dtype=float)
    if not (np.all(np.isfinite(k1)) and np.all(np.isfinite(k4))):
        raise NonFiniteFieldError("field returned non-finite values")
    out = z + (delta / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return State.from_stacked(out, n) if isinstance(s, State) else out


def simulate(field, z0, delta: float, horizon: float,
             cert=None, eq=None, record_every: int = 1) -> Trajectory:
    """Integrate for ceil(horizon/delta) Euler steps, recording iterates.

    cert (a LyapunovCertificate) and eq (the equilibrium State) are
    optional: with eq the distances to z* are recorded (of z, x and lam),
    with both the Lyapunov values as well. record_every thins the
    recording for long runs; step 0 and the final step are always kept.

    The affine field takes its steps in blocks of iterates from one
    matrix product, and the augmented fields in blocks of their
    euler_update (both through euler_block); other fields step one at a
    time, as z + delta * field(z). The distances and Lyapunov values are
    taken block by block (_Recorder). Raises Diverged when the state norm
    is above 1e12 at a recorded step, so every step unless record_every
    > 1 (inadmissible step sizes blow up geometrically, so this trips
    fast).
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if horizon < delta:
        raise ValueError(f"horizon must be at least delta, got {horizon} < {delta}")
    if cert is not None and eq is None:
        raise ValueError("recording Lyapunov values requires the equilibrium")
    f, step, z, n = _as_stacked(field, z0)
    z_star = None if eq is None else _stacked_state(eq, z.shape[0], "eq")
    steps = _step_count(horizon, delta)
    stride = max(int(record_every), 1)
    recorder = _Recorder(n, delta, steps, stride, z_star, None if cert is None else cert.P)
    zs = np.empty((len(recorder.times), z.shape[0]))
    zs[0] = z
    recorder.add(zs[:1])
    for rec in _euler_iterates(_advance(f, step), z, delta, steps, stride):
        zs[recorder.filled: recorder.filled + len(rec)] = rec
        recorder.add(rec)
    return recorder.trajectory(zs)


def lipschitz_bound(p: ConstrainedProblem, params: DynamicsParams) -> float:
    """Conservative Lipschitz constant of the stacked vector field.

    Triangle-inequality block bound: each term is the operator norm of one
    block of the field's (generalized) Jacobian, summed. Equality flow:
    ell from the gradient, sqrt(kappa_2) from each constraint coupling.
    Augmented flow adds rho kappa_2 for the penalty curvature and eta/rho
    for the multiplier leak term.
    """
    ell = p.objective.ell
    k2 = p.bounds.kappa2
    eta, rho = params.eta, params.rho
    if isinstance(p.constraints, EqualityConstraints):
        return ell + (1.0 + eta) * math.sqrt(k2)
    return ell + rho * k2 + (1.0 + eta) * math.sqrt(k2) + eta / rho


def _fallback_step(nu: float, params: DynamicsParams) -> float:
    """The stability heuristic min(1/(2 nu), rho/eta) for a nu-Lipschitz field;
    the rho/eta cap keeps the multiplier update a convex combination."""
    return min(0.5 / nu, params.rho / params.eta)


def step_size_admissible(delta: float, tau: float, nu: float,
                         kappa_P: float) -> StepCertificate:
    """Contraction factor of one Euler step; admissible iff below one."""
    if min(delta, tau, nu, kappa_P) <= 0:
        raise ValueError("delta, tau, nu and kappa_P must all be positive")
    r = math.exp(-tau * delta / 2.0) + kappa_P * nu * nu * delta * delta / 2.0
    return StepCertificate(delta=float(delta), nu=float(nu),
                           kappa_P=float(kappa_P), contraction=float(r))


def choose_step_size(tau: float, nu: float, kappa_P: float,
                     eta: float = 1.0, rho: float = 1.0,
                     r_target: float = 0.999, max_exp: int = 200) -> float:
    """Deterministic step-size choice on the dyadic grid {2^-k}.

    Returns the largest dyadic delta with contraction r <= r_target and
    delta eta / rho <= 1 (the latter keeps the discrete multiplier update
    a convex combination). Conservative certificates can make any fixed
    target unreachable (the best attainable r is 1 - tau^2/(8 kappa_P nu^2),
    arbitrarily close to one); in that case the admissible dyadic delta
    with the smallest r is returned instead.
    """
    best = None
    best_r = np.inf
    for k in range(max_exp + 1):
        delta = 2.0 ** (-k)
        if delta * eta / rho > 1.0:
            continue
        r = step_size_admissible(delta, tau, nu, kappa_P).contraction
        if r <= r_target:
            return delta
        if r < 1.0 and r < best_r:
            best, best_r = delta, r
    if best is None:
        raise ValueError(
            "no admissible dyadic step size found; the certificate constants "
            "leave no contracting Euler step"
        )
    return best
