"""Explicit Euler integration with a contraction certificate.

Everything here speaks the stacked state z = (x, lam): a field maps z to
dz (dynamics.vector_field), euler_step, rk4_step and simulate take a
stacked z0 and return vectors, and a Trajectory records the iterates of
one run block by block as the run goes.

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

import numpy as np

from .dynamics import _BLOCK_STEPS, _fitting
from .errors import DivergedError, NonFiniteFieldError
from .problem import ConstrainedProblem, DynamicsParams, EqualityConstraints, _matvec

DIVERGENCE_NORM = 1e12
_DIVERGENCE_NORM2 = DIVERGENCE_NORM * DIVERGENCE_NORM

# choose_step_size's contraction target, and its smallest dyadic step
# 2^-STEP_MAX_EXPONENT.
STEP_CONTRACTION_TARGET = 0.999
STEP_MAX_EXPONENT = 200


@dataclass(frozen=True)
class StepCertificate:
    delta: float
    nu: float
    kappa_P: float
    contraction: float

    @property
    def admissible(self) -> bool:
        return self.contraction < 1.0


class Trajectory:
    """The recorded iterates of one Euler run on the stacked state
    z = (x, lam), recorded block by block as the run goes (add).

    A run of `steps` steps of delta from z0 records step 0 (when the
    trajectory is made), the multiples of stride and the last step: the
    recording rule of every run. Given z*, each recorded state adds its
    distances to z* (of z, x and lam, n being the primal dimension), and
    given P its Lyapunov value V = (z - z*)^T P (z - z*) as well, one
    _matvec product per state, so no value depends on the block split.
    keep=True keeps the states in zs (simulate's); otherwise zs is None.
    times, distances, dist_x, dist_lambda and v_values hold one entry per
    recorded state; the distances are None without z*, v_values without P.
    """

    def __init__(self, z0, n, delta, steps, stride, z_star=None, P=None, keep=False):
        size = -(-steps // stride) + 1
        self.n, self.delta, self.steps, self.stride = n, delta, steps, stride
        self.z_star, self.P = z_star, P
        self.zs = np.empty((size, len(z0))) if keep else None
        self.distances = self.dist_x = self.dist_lambda = self.v_values = None
        if z_star is not None:
            self.distances, self.dist_x, self.dist_lambda = np.empty((3, size))
        if P is not None:
            self.v_values = np.empty(size)
        self.taken, self.filled = -1, 0  # z0 is the state after step 0
        self.add(np.asarray(z0)[None])

    @property
    def times(self) -> np.ndarray:
        return np.minimum(np.arange(self.filled) * self.stride, self.steps) * self.delta

    def __len__(self):
        return self.filled

    def add(self, rows):
        """Take rows, the states after the next len(rows) steps, and
        return the ones recorded among them."""
        start, self.taken = self.taken, self.taken + len(rows)
        rec = rows[self.stride - 1 - start % self.stride::self.stride]
        if self.taken == self.steps and self.steps % self.stride:
            rec = np.concatenate([rec, rows[-1:]])
        i, self.filled = self.filled, self.filled + len(rec)
        if self.zs is not None:
            self.zs[i: self.filled] = rec
        if self.z_star is None:
            return rec
        U = rec - self.z_star
        if self.P is not None:
            self.v_values[i: self.filled] = np.einsum("ij,ij->i", _matvec(self.P, U), U)
        # np.linalg.norm's arithmetic from one in-place square
        U *= U
        self.distances[i: self.filled] = np.sqrt(U.sum(axis=1))
        self.dist_x[i: self.filled] = np.sqrt(U[:, : self.n].sum(axis=1))
        self.dist_lambda[i: self.filled] = np.sqrt(U[:, self.n:].sum(axis=1))
        return rec

    def rows(self):
        """Lazy CSV rows (t, dist_x, dist_lambda, V) of a run recorded with z* and P."""
        return zip(self.times, self.dist_x, self.dist_lambda, self.v_values)


def _step(f):
    """step(z, delta), one explicit Euler step of the stacked field f: its
    own euler_update when it has one, otherwise z + delta * f(z)."""
    return getattr(f, "euler_update", None) or (
        lambda z, delta: z + delta * np.asarray(f(z), dtype=float))


def _advance(f):
    """advance(z, delta, k): the next 1..k Euler iterates as rows.

    The affine field's euler_block as it is (one matrix product per
    block); any other field takes min(k, _BLOCK_STEPS) calls of _step(f),
    each row with the bits of its own step. Overflow past a divergence is
    left to the kernel's guard, as in the affine block.
    """
    block = getattr(f, "euler_block", None)
    if block is not None:
        return block
    step = _step(f)

    def advance(z, delta, k):
        rows = np.empty((min(k, _BLOCK_STEPS),) + z.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(len(rows)):
                rows[i] = z = step(z, delta)
        return rows
    return advance


def _step_count(horizon: float, delta: float) -> int:
    """Euler steps of delta in a run to t = horizon: ceil(horizon / delta)."""
    return int(math.ceil(horizon / delta - 1e-9))


def _euler_iterates(advance, z, delta, steps):
    """Take `steps` Euler steps from z, yielding each block of iterates.

    A block is the rows of one advance(z, delta, k) call (see _advance),
    the states after the next steps in order; for a (K, d) stack of
    states each row is a stack too. Every step is guarded: a norm above
    DIVERGENCE_NORM (NaN included) raises DivergedError naming the first
    such step, and the column of a stack. This is the one Euler loop of
    the package (simulate, experiments._run_stack and the equilibrium
    solver); a Trajectory picks the states each of them keeps.
    """
    k = 0
    while k < steps:
        rows = advance(z, delta, steps - k)
        # The sum of squared norms clears the common case in one product;
        # only when it fails is each row looked at.
        if not (np.vdot(rows, rows) <= _DIVERGENCE_NORM2):
            bad = ~(np.einsum("i...j,i...j->i...", rows, rows) <= _DIVERGENCE_NORM2)
            if bad.any():
                row, *column = np.unravel_index(bad.argmax(), bad.shape)
                at = k + int(row) + 1
                raise DivergedError(f"state norm passed {DIVERGENCE_NORM:g} by step {at}",
                                    step=at, column=int(column[0]) if column else None)
        z, k = rows[-1], k + len(rows)
        yield rows


def euler_step(field, z, delta: float) -> np.ndarray:
    """One explicit Euler step z + delta * field(z) of a field on stacked
    vectors (its own euler_update when it has one); z may be a (K, d)
    stack where the field maps stacks. Raises DimensionMismatchError when
    z does not fit the field's dim, and NonFiniteFieldError when the step
    comes out NaN or infinite.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    out = _step(field)(_fitting(z, getattr(field, "dim", None), "z", stack=True), delta)
    if not np.all(np.isfinite(out)):
        raise NonFiniteFieldError("field returned non-finite values")
    return out


def rk4_step(field, z, delta: float) -> np.ndarray:
    """Classic fourth-order step; reference accuracy only, no certificate."""
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    z = _fitting(z, getattr(field, "dim", None), "z", stack=True)
    k1 = np.asarray(field(z), dtype=float)
    k2 = np.asarray(field(z + 0.5 * delta * k1), dtype=float)
    k3 = np.asarray(field(z + 0.5 * delta * k2), dtype=float)
    k4 = np.asarray(field(z + delta * k3), dtype=float)
    if not (np.all(np.isfinite(k1)) and np.all(np.isfinite(k4))):
        raise NonFiniteFieldError("field returned non-finite values")
    return z + (delta / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def simulate(field, z0, delta: float, horizon: float,
             cert=None, eq=None, record_every: int = 1) -> Trajectory:
    """Integrate for ceil(horizon/delta) Euler steps from the stacked z0,
    recording iterates.

    cert (a LyapunovCertificate) and eq (the equilibrium's stacked z*,
    Equilibrium.z) are optional: with eq the distances to z* are recorded
    (of z, x and lam), with both the Lyapunov values as well. A z0 or eq
    that is not one point of the field's dim is refused.
    record_every thins the recording for long runs; step 0 and the final
    step are always kept.

    The affine field takes its steps in blocks of iterates from one
    matrix product; other fields in blocks of up to 256 steps of their
    euler_update or of z + delta * field(z) (_advance). The Trajectory
    records the distances and Lyapunov values block by block. Raises
    DivergedError when the state norm passes 1e12, naming the first such
    step whatever record_every is (inadmissible step sizes blow up
    geometrically, so this trips fast).
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not horizon >= delta:
        raise ValueError(f"horizon must be at least delta, got {horizon} < {delta}")
    if cert is not None and eq is None:
        raise ValueError("recording Lyapunov values requires the equilibrium")
    z = _fitting(z0, getattr(field, "dim", None), "z0")
    z_star = None if eq is None else _fitting(eq, len(z), "eq")
    traj = Trajectory(z, getattr(field, "n", z.shape[0]), delta, _step_count(horizon, delta),
                      max(int(record_every), 1), z_star, None if cert is None else cert.P,
                      keep=True)
    for rows in _euler_iterates(_advance(field), z, delta, traj.steps):
        traj.add(rows)
    return traj


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
    if not all(v > 0 for v in (delta, tau, nu, kappa_P)):
        raise ValueError("delta, tau, nu and kappa_P must all be positive")
    r = math.exp(-tau * delta / 2.0) + kappa_P * nu * nu * delta * delta / 2.0
    return StepCertificate(delta=float(delta), nu=float(nu),
                           kappa_P=float(kappa_P), contraction=float(r))


def choose_step_size(tau: float, nu: float, kappa_P: float,
                     eta: float = 1.0, rho: float = 1.0) -> float:
    """Deterministic step-size choice on the dyadic grid {2^-k},
    k = 0 ... STEP_MAX_EXPONENT.

    Returns the largest dyadic delta with contraction
    r <= STEP_CONTRACTION_TARGET and delta eta / rho <= 1 (the latter
    keeps the discrete multiplier update a convex combination).
    Conservative certificates can make any fixed target unreachable (the
    best attainable r is 1 - tau^2/(8 kappa_P nu^2), arbitrarily close to
    one); in that case the admissible dyadic delta with the smallest r is
    returned instead.
    """
    best = None
    best_r = np.inf
    for k in range(STEP_MAX_EXPONENT + 1):
        delta = 2.0 ** (-k)
        if delta * eta / rho > 1.0:
            continue
        r = step_size_admissible(delta, tau, nu, kappa_P).contraction
        if r <= STEP_CONTRACTION_TARGET:
            return delta
        if r < 1.0 and r < best_r:
            best, best_r = delta, r
    if best is None:
        raise ValueError(
            "no admissible dyadic step size found; the certificate constants "
            "leave no contracting Euler step"
        )
    return best
