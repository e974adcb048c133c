"""Continuous-time primal-dual vector fields on the stacked state z = (x, lam).

vector_field(p, params) is the flow of p: a callable mapping z to dz
(the augmented one also maps a (K, d) stack of states, row by row).
The stacked z is the package's only point type: equilibria, certificates,
KKT checks and the integrator all take it, and _fitting is the one check
that a point fits a problem.

Plain equality flow:

    dx/dt      = -grad f(x) - A^T lam
    dlam/dt    = eta (A x - b)

Augmented flow for A x <= b, driven by the effective multiplier
m_j = max(rho (a_j x - b_j) + lam_j, 0):

    dx/dt      = -grad f(x) - sum_j m_j a_j
    dlam_j/dt  = eta (m_j - lam_j) / rho

The two-sided band b_lo <= A x <= b_hi replaces max(., 0) with the soft
threshold S(y) = max(min(y - rho b_lo, 0), y - rho b_hi) applied to
y_j = rho a_j x + lam_j. No projections anywhere: multipliers stay
nonnegative (inequality case) because dlam_j >= 0 whenever lam_j = 0.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, InvalidBandError
from .problem import (
    ConstrainedProblem,
    DynamicsParams,
    EqualityConstraints,
    InequalityConstraints,
    QuadraticObjective,
    _matvec,
)

# Relative scale below which a secant denominator counts as degenerate.
GAMMA_DEGENERATE_TOL = 1e-14


def soft_threshold(y, lo, hi):
    """S(y) = max(min(y - lo, 0), y - hi), the two-sided shrinkage map.

    Zero on [lo, hi], slope one outside; lo < hi is required. Inputs
    broadcast, so scalar and vector bands both work.
    """
    lo, hi = _band((lo, hi))
    return _soft(np.asarray(y, dtype=float), lo, hi)


def _soft(y, lo, hi):
    return np.maximum(np.minimum(y - lo, 0.0), y - hi)


def _band(bounds):
    """(lo, hi) as arrays; raises InvalidBandError unless lo < hi."""
    lo, hi = (np.asarray(b, dtype=float) for b in bounds)
    if not np.all(lo < hi):
        raise InvalidBandError(f"band needs lo < hi, got lo={lo}, hi={hi}")
    return lo, hi


def _multiplier_map(kind: str, bounds, rho: float):
    """effective_multiplier as a map m(ax, lam) for one kind and band.
    It checks nothing, because the augmented field calls it on every step."""
    if kind == "inequality":
        return lambda ax, lam: np.maximum(rho * (ax - bounds) + lam, 0.0)
    lo, hi = rho * bounds[0], rho * bounds[1]
    return lambda ax, lam: _soft(rho * ax + lam, lo, hi)


def effective_multiplier(kind: str, ax, bounds, lam, rho: float):
    """Multiplier actually exerted by the penalty at constraint value ax.

    kind "inequality": max(rho (ax - b) + lam, 0) with bounds = b.
    kind "two-sided":  S(rho ax + lam) with band [rho b_lo, rho b_hi] and
    bounds = (b_lo, b_hi), which needs b_lo < b_hi. Vectorized over
    constraints.
    """
    if kind == "inequality":
        bounds = np.asarray(bounds, dtype=float)
    elif kind == "two-sided":
        bounds = _band(bounds)
    else:
        raise ValueError(f"unknown constraint kind {kind!r}")
    return _multiplier_map(kind, bounds, rho)(np.asarray(ax, dtype=float),
                                              np.asarray(lam, dtype=float))


def penalty_value(kind: str, ax, bounds, lam, rho: float):
    """Value of the smoothed constraint penalty at (ax, lam).

    The penalty is the partial maximization of the augmented Lagrangian
    term over the auxiliary slack; its gradient in ax is the effective
    multiplier and its gradient in lam is (m - lam) / rho.
    """
    ax = np.asarray(ax, dtype=float)
    lam = np.asarray(lam, dtype=float)
    dead = -lam * lam / (2.0 * rho)
    if kind == "inequality":
        b = np.asarray(bounds, dtype=float)
        r = ax - b
        active = rho * r + lam >= 0
        return np.where(active, r * lam + 0.5 * rho * r * r, dead)
    if kind == "two-sided":
        lo, hi = _band(bounds)
        y = rho * ax + lam
        r_hi = ax - hi
        r_lo = ax - lo
        upper = r_hi * lam + 0.5 * rho * r_hi * r_hi
        lower = r_lo * lam + 0.5 * rho * r_lo * r_lo
        return np.where(y > rho * hi, upper, np.where(y < rho * lo, lower, dead))
    raise ValueError(f"unknown constraint kind {kind!r}")


def _fitting(z, dim, name: str, stack: bool = False) -> np.ndarray:
    """z as floats, if it is one stacked point of length dim or, with
    stack, a (K, dim) stack of them; dim None takes any length (a plain
    callable field). DimensionMismatchError names the argument otherwise."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.ndim > 1 + stack or dim not in (None, z.shape[-1]):
        raise DimensionMismatchError(f"{name} must have length {dim}, got shape {z.shape}")
    return z


def gamma_coefficients(p: ConstrainedProblem, params: DynamicsParams, z,
                       z_star) -> np.ndarray:
    """Secant slopes of the effective multiplier between z and a reference z_star.

    For each constraint j the slope is

        gamma_j = (m_j(z) - m_j(z*)) / (rho a_j (x - x*) + (lam_j - lam_j*)),

    set to zero when the denominator is degenerate. Each gamma_j lies in
    [0, 1] because the multiplier map is monotone and 1-Lipschitz in its
    scalar argument. With these slopes the dual residual satisfies exactly

        dlam = eta Gamma A (x - x*) + (eta / rho) (Gamma - I)(lam - lam*)

    whenever z_star is an equilibrium of the flow. Both are stacked
    points (x, lam) of length n + m.
    """
    n = p.dim_n
    z = _fitting(z, n + p.dim_m, "z")
    z_star = _fitting(z_star, n + p.dim_m, "z_star")
    if isinstance(p.constraints, EqualityConstraints):
        raise ValueError("gamma coefficients are defined for inequality and "
                         "two-sided constraints only")
    A = p.constraints.A
    multiplier = _AugmentedField(p, params).multiplier
    u = z - z_star
    num = multiplier(A @ z[:n], z[n:]) - multiplier(A @ z_star[:n], z_star[n:])
    den = params.rho * (A @ u[:n]) + u[n:]
    out = np.zeros(p.dim_m)
    ok = np.abs(den) >= GAMMA_DEGENERATE_TOL * (1.0 + np.abs(num))
    out[ok] = num[ok] / den[ok]
    return np.clip(out, 0.0, 1.0)


# ----------------------------------------------------------------------
# Stacked-vector fields for the integrator hot loop. Each object maps a
# concatenated z = (x, lam) of length dim to dz and, where it matters,
# knows how to take its Euler steps in a numerically careful arrangement.
# ----------------------------------------------------------------------


class AffineVectorField:
    """dz = G z + g. Used for quadratic objectives with equality constraints,
    where the whole flow is linear time-invariant."""

    def __init__(self, G, g, n: int):
        self.G = np.asarray(G, dtype=float)
        self.g = np.asarray(g, dtype=float)
        self.n = int(n)
        self.dim = self.G.shape[0]
        self._powers = (None, 0, None, None)

    def __call__(self, z):
        return self.G @ z + self.g

    def euler_block(self, z, delta, k):
        """The next min(k, L) Euler iterates z_j = z + (M^j - I) z + c_j as rows.

        One matrix-vector product against a table of M^1 - I ... M^L - I
        stacked row-wise, plus the offsets c_j = (M^(j-1) + ... + I) d. Each
        row is computed from z directly, so rounding does not pile up within
        a block, and the table holds M^j - I rather than M^j, so the small
        increments do not lose their low bits to the identity. The table is
        cached for the last delta, and rebuilt when a longer block is wanted.
        """
        dim = self.G.shape[0]
        want = _block_length(dim, k)
        cached, built, powers, offsets = self._powers
        if cached != delta or built < want:
            powers, offsets = _affine_powers(self.G, self.g, delta, want)
            self._powers = (delta, want, powers, offsets)
        k = min(k, len(offsets))
        with np.errstate(over="ignore", invalid="ignore"):
            return z + ((powers[: k * dim] @ z).reshape(k, dim) + offsets[:k])


# Most Euler steps one block of the integrator takes (integrator._advance),
# and the largest power table the affine field keeps (in float64 entries,
# 8 MB): wide systems get shorter affine blocks, which costs nothing there
# because one step already outweighs the per-call overhead.
_BLOCK_STEPS = 256
_BLOCK_TABLE_FLOATS = 1 << 20
# Powers with an entry above this are dropped from the table. For a state
# below it, (M^j - I) z cannot overflow, so a finite iterate is never
# turned into inf or NaN by the table; an inadmissible delta just gets
# shorter blocks.
_POWER_LIMIT = 1e150


def _block_length(dim: int, steps: int) -> int:
    """Powers worth tabulating for a run of `steps` steps of a dim-sized map.

    Each power costs about dim^3 flops to build, as much as dim steps, so
    a run gets at most steps / dim of them: the table never costs more
    than the steps it serves.
    """
    return max(1, min(_BLOCK_STEPS, _BLOCK_TABLE_FLOATS // (dim * (dim + 1)),
                      steps // dim))


def _affine_powers(G, g, delta, count):
    """(M^1 - I ... M^L - I stacked row-wise, rows c_1 ... c_L), M = I + delta G.

    L is count, or fewer where a power has an entry above _POWER_LIMIT.
    The augmented map [[M, d], [0, 1]], d = delta g, is I + E_1 with
    E_1 = [[delta G, d], [0, 0]]; its j-th power I + E_j carries M^j - I
    in the top-left block of E_j and c_j in the last column. The E_j are
    built by doubling, from (I + E_a)(I + E_b) = I + E_a + E_b + E_a E_b:
    the powers j + 1 ... 2j come from the powers 1 ... j and E_j.
    """
    dim = G.shape[0]
    inc = np.zeros((count, dim + 1, dim + 1))
    inc[0, :dim, :dim] = delta * G
    inc[0, :dim, dim] = delta * g
    with np.errstate(over="ignore", invalid="ignore"):
        done = 1
        while done < count:
            more = min(done, count - done)
            last = inc[done - 1]
            inc[done: done + more] = inc[:more] + last + inc[:more] @ last
            done += more
        ok = np.abs(inc[:, :dim, :]).max(axis=(1, 2)) <= _POWER_LIMIT
    usable = max(1, count if ok.all() else int(ok.argmin()))
    powers = inc[:usable, :dim, :dim].reshape(usable * dim, dim)
    return powers, inc[:usable, :dim, dim].copy()


class _SmoothEqualityField:
    """Equality flow with a black-box gradient."""

    def __init__(self, p: ConstrainedProblem, params: DynamicsParams):
        self.grad = p.objective.grad
        self.A = p.constraints.A
        self.At = p.constraints.A.T.copy()
        self.eta_b = params.eta * p.constraints.b
        self.eta = params.eta
        self.n = p.dim_n
        self.dim = p.dim_n + p.dim_m

    def __call__(self, z):
        x = z[: self.n]
        lam = z[self.n:]
        return np.concatenate(
            [-self.grad(x) - self.At @ lam, self.eta * (self.A @ x) - self.eta_b]
        )


class _AugmentedField:
    """Inequality or two-sided augmented flow on stacked vectors.

    params is one DynamicsParams, for states z of shape (d,), or a
    sequence of them sharing rho, for (K, d) stacks of states: column k
    then follows the flow at the k-th eta.

    euler_update performs z + delta * field(z) with the dual block written
    as the convex combination (1 - a) lam + a m, a = delta eta / rho. The
    two forms agree algebraically; the combination keeps lam >= 0 exact in
    floating point for the inequality flow whenever a <= 1 and m >= 0.
    Each column of a stack takes the form its own a allows, and every
    product is _matvec's, so a column gets the bits of its own run.
    """

    def __init__(self, p: ConstrainedProblem, params):
        self.grad = p.objective.grad
        self.A = p.constraints.A
        self.At = p.constraints.A.T.copy()
        if isinstance(params, DynamicsParams):
            self.eta, self.rho = params.eta, params.rho
        else:
            rhos = {q.rho for q in params}
            if len(rhos) != 1:
                raise ValueError(f"stacked columns need one shared rho, got {sorted(rhos)}")
            self.eta = np.array([[q.eta] for q in params])
            self.rho = rhos.pop()
        self.n = p.dim_n
        self.dim = p.dim_n + p.dim_m
        if isinstance(p.constraints, InequalityConstraints):
            self.multiplier = _multiplier_map("inequality", p.constraints.b, self.rho)
        else:
            self.multiplier = _multiplier_map(
                "two-sided", (p.constraints.b_lo, p.constraints.b_hi), self.rho)

    def __call__(self, z):
        x = z[..., : self.n]
        lam = z[..., self.n:]
        m = self.multiplier(_matvec(self.A, x), lam)
        return np.concatenate(
            [-self.grad(x) - _matvec(self.At, m), (self.eta / self.rho) * (m - lam)], axis=-1
        )

    def euler_update(self, z, delta):
        """One Euler step of delta; for a stack, delta may be one step per column."""
        x = z[..., : self.n]
        lam = z[..., self.n:]
        if getattr(delta, "ndim", 0) == 1:
            delta = delta[:, None]
        m = self.multiplier(_matvec(self.A, x), lam)
        a = delta * self.eta / self.rho
        x_next = x + delta * (-self.grad(x) - _matvec(self.At, m))
        small = a <= 1.0  # one bool, or one per column
        if small is True or (small is not False and small.all()):
            lam_next = (1.0 - a) * lam + a * m
        else:
            lam_next = np.where(small, (1.0 - a) * lam + a * m, lam + a * (m - lam))
        return np.concatenate([x_next, lam_next], axis=-1)


def _flow_matrix(A, eta: float, rho: float = 1.0, gammas=None):
    """The flow matrix G(B, Gamma) without its -B term, one per row of gammas.

    Along a flow, d(z - z*)/dt = G (z - z*) with B a secant matrix of the
    gradient, Gamma = diag(gamma) the penalty's secant gains and
        G = [[-B - rest, -A^T Gamma], [eta Gamma A, (eta/rho)(Gamma - I)]],
    rest = rho A^T Gamma A; the plain equality flow (gammas None, K = 1) is
    Gamma = I with rest = 0. Returns the (K, d, d) stack with a zero primal
    block and the (K, n, n) rest, for _with_primal to fill in.
    """
    m, n = A.shape
    G = np.zeros((1 if gammas is None else len(gammas), n + m, n + m))
    if gammas is None:
        G[:, :n, n:] = -A.T
        G[:, n:, :n] = eta * A
        return G, np.zeros((1, n, n))
    if gammas.ndim != 2 or gammas.shape[1] != m:
        raise DimensionMismatchError(f"Gamma needs {m} diagonal entries, got {gammas.shape[1:]}")
    GA = gammas[:, :, None] * A
    G[:, :n, n:] = -A.T * gammas[:, None, :]
    G[:, n:, :n] = eta * GA
    dual = np.arange(n, n + m)
    G[:, dual, dual] = (eta / rho) * (gammas - 1.0)
    return G, rho * (A.T @ GA)


def _with_primal(G, rest, B):
    """The stack G of _flow_matrix with its primal block set to -B - rest."""
    n = rest.shape[-1]
    B = np.asarray(B, dtype=float)
    if B.shape != (n, n):
        raise DimensionMismatchError(f"B must be {n}x{n}, got {B.shape}")
    np.subtract(-B, rest, out=G[:, :n, :n])
    return G


def vector_field(p: ConstrainedProblem, params: DynamicsParams):
    """The flow of p as a callable z -> dz, in the cheapest faithful form.

    Quadratic equality problems come back as an AffineVectorField with
    G = G(W) (one matrix-vector product per evaluation); everything else
    is a closure over the oracle gradient.
    """
    if isinstance(p.constraints, EqualityConstraints):
        if isinstance(p.objective, QuadraticObjective):
            G = _with_primal(*_flow_matrix(p.constraints.A, params.eta), p.objective.W)[0]
            g = np.concatenate([-p.objective.q, -params.eta * p.constraints.b])
            return AffineVectorField(G, g, p.dim_n)
        return _SmoothEqualityField(p, params)
    return _AugmentedField(p, params)
