"""Explicit Euler integration with a contraction certificate.

Everything here speaks the stacked state z = (x, lam): a field maps z to
dz (dynamics.vector_field), simulate takes a stacked z0 and returns
vectors, and a Trajectory records the iterates of one run as the run
goes, tabulating them a chunk at a time.

For a nu-Lipschitz field contracting in the P-norm at rate tau/2, the
Euler map with step delta contracts by at least

    r = exp(-tau delta / 2) + kappa_P nu^2 delta^2 / 2

per step in the P-norm, where kappa_P is the condition number of P. Any
delta with r < 1 is admissible: the discrete iterates then inherit the
exponential decay of the flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _BLOCK_STEPS, _fitting
from .errors import DimensionMismatchError, DivergedError, InvalidInputError
from .problem import ConstrainedProblem, DynamicsParams, EqualityConstraints, _matvec

DIVERGENCE_NORM = 1e12
# Budget of Euler steps for one run: simulate's, an origin run's or an
# integrated equilibrium's.
MAX_EULER_STEPS = 10_000_000
_DIVERGENCE_NORM2 = DIVERGENCE_NORM * DIVERGENCE_NORM

# choose_step_size's contraction target, and its smallest dyadic step
# 2^-STEP_MAX_EXPONENT.
STEP_CONTRACTION_TARGET = 0.999
STEP_MAX_EXPONENT = 200

# A Trajectory with z* stages short runs of recorded states in a buffer of
# at most this many bytes and computes their table rows one full buffer at
# a time.
_CHUNK_BYTES = 1 << 16


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
    z = (x, lam), handed over block by block as the run goes (add).

    A run of `steps` steps of delta from z0 records step 0 (when the
    trajectory is made), the multiples of stride and the last step: the
    recording rule of every run. Given z*, each recorded state adds a row
    (t, dist_x, dist_lambda, V) to table: its time, its distances to z*
    of x and lam (n being the primal dimension) and, given P, its Lyapunov
    value V = (z - z*)^T P (z - z*), one _matvec product per state, so no
    value depends on the block split; its distance of z goes to distances.
    These rows are computed in chunks: the states of each add wait in a
    buffer of at most _CHUNK_BYTES, which is tabulated when the next ones
    would not fit and when the last step comes in, so the table is
    complete once the run has ended. Step 0, the states of the last step
    and an add of more states than half the buffer holds (a wide state,
    as in a stacked sweep) are tabulated as they come, after the waiting
    ones, and a buffer is only made once some states wait: a run whose
    adds are all long holds none. keep=True keeps the states in zs
    (simulate's); otherwise zs is None. times, distances, dist_x,
    dist_lambda and v_values hold one entry per recorded state, all but
    distances columns of table; table and the distances are None without
    z*, v_values and table's V column without P.
    """

    def __init__(self, z0, n, delta, steps, stride, z_star=None, P=None, keep=False):
        size = -(-steps // stride) + 1
        self.n, self.delta, self.steps, self.stride = n, delta, steps, stride
        self.z_star, self.P = z_star, P
        self.zs = np.empty((size, len(z0))) if keep else None
        self.table = self.distances = self.dist_x = self.dist_lambda = self.v_values = None
        if z_star is not None:
            self.table = np.empty((size, 3 if P is None else 4))
            self.distances = np.empty(size)
            self.dist_x, self.dist_lambda = self.table[:, 1], self.table[:, 2]
            self._room = max(1, _CHUNK_BYTES // (8 * len(z0)))  # states in a chunk
        if P is not None:
            self.v_values = self.table[:, 3]
        self.taken, self.filled = -1, 0  # z0 is the state after step 0
        self._chunk, self._staged, self._tabled = None, 0, 0
        self.add(np.asarray(z0)[None])

    @property
    def times(self) -> np.ndarray:
        if self.table is not None:
            return self.table[: self.filled, 0]
        return self._times(0, self.filled)

    def _times(self, start, stop):
        """The times of recorded states start..stop-1."""
        return np.minimum(np.arange(start, stop) * self.stride, self.steps) * self.delta

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
        if 2 * len(rec) > self._room or self.taken in (0, self.steps):
            self._tabulate()
            self._tabulate(rec)
        else:
            if self._staged + len(rec) > self._room:
                self._tabulate()
            if self._chunk is None:
                self._chunk = np.empty((self._room, rec.shape[1]))
            self._chunk[self._staged: self._staged + len(rec)] = rec
            self._staged += len(rec)
        if self.taken == self.steps:
            self._chunk = None  # the run has ended: the table is complete
        return rec

    def _tabulate(self, states=None):
        """Compute the table rows of states, by default of the staged
        ones, emptying the chunk."""
        if states is None:
            states = self._chunk[: self._staged] if self._staged else ()
            self._staged = 0
        if not len(states):
            return
        i, k = self._tabled, len(states)
        self._tabled = i + k
        U = states - self.z_star
        table = self.table[i: i + k]
        table[:, 0] = self._times(i, i + k)
        if self.P is not None:
            table[:, 3] = np.einsum("ij,ij->i", _matvec(self.P, U), U)
        # np.linalg.norm's arithmetic from one in-place square
        U *= U
        self.distances[i: i + k] = np.sqrt(U.sum(axis=1))
        table[:, 1] = np.sqrt(U[:, : self.n].sum(axis=1))
        table[:, 2] = np.sqrt(U[:, self.n:].sum(axis=1))

    def rows(self):
        """The CSV table of a run recorded with z*, once the run has
        ended: the recorded rows (t, dist_x, dist_lambda, V), a view of
        table (without P, no V column), which fileio.write_csv takes as it
        is."""
        return self.table[: self.filled]


def _advance(f):
    """advance(z, delta, k): the next 1..k Euler iterates as rows.

    The field's own euler_block as it is, affine (one matrix product per
    block) or augmented (its steps written in place into the block's
    rows); any other field takes min(k, _BLOCK_STEPS) steps
    z + delta * f(z), each row with the bits of its own step. An f(z) of
    another shape than z raises DimensionMismatchError. Overflow past a
    divergence is left to the kernel's guard, as in the blocks.
    """
    block = getattr(f, "euler_block", None)
    if block is not None:
        return block

    def advance(z, delta, k):
        rows = np.empty((min(k, _BLOCK_STEPS),) + z.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(len(rows)):
                dz = np.asarray(f(z), dtype=float)
                if dz.shape != z.shape:
                    raise DimensionMismatchError(
                        f"field returned shape {dz.shape} for a state of shape {z.shape}")
                rows[i] = z = z + delta * dz
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
        # The sum of squared norms clears the common case in one reduction;
        # only when it fails is each row looked at. It is einsum's own
        # loop, not a BLAS dot: OpenBLAS splits a dot of more than 10,000
        # entries over two threads, and a stacked block holds more, so
        # every block would wake a helper thread that then spins.
        flat = rows.reshape(-1)
        if not (np.einsum("i,i->", flat, flat) <= _DIVERGENCE_NORM2):
            bad = ~(np.einsum("i...j,i...j->i...", rows, rows) <= _DIVERGENCE_NORM2)
            if bad.any():
                row, *column = np.unravel_index(bad.argmax(), bad.shape)
                at = k + int(row) + 1
                raise DivergedError(f"state norm passed {DIVERGENCE_NORM:g} by step {at}",
                                    step=at, column=int(column[0]) if column else None)
        z, k = rows[-1], k + len(rows)
        yield rows


def simulate(field, z0, delta: float, horizon: float,
             cert=None, eq=None, record_every: int = 1) -> Trajectory:
    """Integrate for ceil(horizon/delta) Euler steps from the stacked z0,
    recording iterates.

    cert (a LyapunovCertificate) and eq (the equilibrium's stacked z*,
    Equilibrium.z) are optional: with eq the distances to z* are recorded
    (of z, x and lam), with both the Lyapunov values as well. A z0 or eq
    that is not one point of the field's dim is refused.
    record_every thins the recording for long runs; step 0 and the final
    step are always kept. A run of more than MAX_EULER_STEPS steps is
    refused with InvalidInputError before any step.

    The affine field takes its steps in blocks of iterates from one
    matrix product, the augmented field in blocks of up to 256 steps of
    its own kernel, other fields in blocks of up to 256 steps of
    z + delta * field(z) (_advance). The Trajectory records the times,
    distances and Lyapunov values a chunk at a time into its CSV table
    (Trajectory.rows). Raises
    DivergedError when the state norm passes 1e12, naming the first such
    step whatever record_every is (inadmissible step sizes blow up
    geometrically, so this trips fast).
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not horizon >= delta:
        raise ValueError(f"horizon must be at least delta, got {horizon} < {delta}")
    if horizon / delta > MAX_EULER_STEPS:
        raise InvalidInputError(f"horizon {horizon:g} takes {horizon / delta:.6g} steps of "
                                f"delta {delta:g}, more than the budget of {MAX_EULER_STEPS}")
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
