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

from .errors import DimensionMismatchError
from .problem import (
    ConstrainedProblem,
    DynamicsParams,
    EqualityConstraints,
    InequalityConstraints,
    QuadraticObjective,
    _matvec,
)


def _fitting(z, dim, name: str) -> np.ndarray:
    """z as floats, if it is one stacked point of length dim; dim None
    takes any length (a plain callable field). DimensionMismatchError
    names the argument otherwise."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.ndim > 1 or dim not in (None, z.shape[-1]):
        raise DimensionMismatchError(f"{name} must have length {dim}, got shape {z.shape}")
    return z


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

    euler_block takes the Euler steps z + delta * field(z) of a block in
    place, with the dual block written as the convex combination
    (1 - a) lam + a m, a = delta eta / rho. The two forms agree
    algebraically; the combination keeps lam >= 0 exact in floating point
    for the inequality flow whenever a <= 1 and m >= 0. Each column of a
    stack takes the form its own a allows, and every product is
    _matvec's, so a column gets the bits of its own run. One step is
    euler_block(z, delta, 1)[0].
    """

    def __init__(self, p: ConstrainedProblem, params):
        # an oracle whose own gradient takes (K, n) stacks is called
        # directly; a black-box one through ObjectiveOracle.grad
        objective = p.objective
        self.grad = objective._grad if objective._stacks else objective.grad
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
        # the effective multiplier m(ax, lam), written into out when given;
        # it checks nothing, because the kernel calls it on every step. At
        # rho = 1 the product by rho is exact, so it is left out.
        rho = self.rho
        if isinstance(p.constraints, InequalityConstraints):
            b = p.constraints.b

            def clip(ax, lam, out=None):
                m = np.subtract(ax, b, out=out)
                if rho != 1.0:
                    m *= rho
                m += lam
                return np.maximum(m, 0.0, out=m)

            self.multiplier = clip
        else:
            lo, hi = rho * p.constraints.b_lo, rho * p.constraints.b_hi

            def soft_threshold(ax, lam, out=None):
                if rho == 1.0:
                    y = np.add(ax, lam, out=out)
                else:
                    y = np.multiply(rho, ax, out=out)
                    y += lam
                above = y - hi
                np.subtract(y, lo, out=y)
                np.minimum(y, 0.0, out=y)
                return np.maximum(y, above, out=y)

            self.multiplier = soft_threshold

    def __call__(self, z):
        x = z[..., : self.n]
        lam = z[..., self.n:]
        m = self.multiplier(_matvec(self.A, x), lam)
        return np.concatenate(
            [-self.grad(x) - _matvec(self.At, m), (self.eta / self.rho) * (m - lam)], axis=-1
        )

    def euler_block(self, z, delta, k):
        """The next min(k, _BLOCK_STEPS) Euler iterates of delta as rows.

        Each row is one Euler step from the row before (for a stack,
        delta may be one step per column), written in place: a work array
        w takes the multiplier m in its dual part and grad f(x) + A^T m in
        its primal part, and the step is the one update K z + C w, with
        K = (1, ..., 1, 1 - a) and C = (-delta, ..., -delta, a) per column,
        a = delta eta / rho. That is x + delta (-grad f(x) - A^T m) and
        (1 - a) lam + a m bit for bit, as 1 * x is exact and negation
        exact and symmetric under rounding; a column where a > 1 takes
        lam + a (m - lam) instead. K, C and each column's choice are
        worked out once per block. Within the block a (K, d) stack is
        laid out as one flat row per step, the K primal parts and then
        the K dual parts, so that every operand of a step is contiguous
        (numpy's fast path for small arrays); the rows are put back in
        (K, d) form once per block. The gradient is the oracle's own
        stacked one where it has it (see __init__), so a step makes no
        wrapper call; it is only read, never written to: a black-box grad
        may hand back its own argument.
        """
        n = self.n
        grad, multiplier, A, At = self.grad, self.multiplier, self.A, self.At
        if getattr(delta, "ndim", 0) == 1:
            delta = delta[:, None]
        a = delta * self.eta / self.rho
        keep = 1.0 - a
        small = a <= 1.0  # one bool, or one per column
        mixed = not np.all(small)
        steps = min(k, _BLOCK_STEPS)
        primal, dual = z[..., :n].shape, z[..., n:].shape
        cut = z[..., :n].size

        def parts(v):
            """The primal and dual parts of flat rows v, as views."""
            return (v[..., :cut].reshape(v.shape[:-1] + primal),
                    v[..., cut:].reshape(v.shape[:-1] + dual))

        flat = np.empty((steps + 1, z.size))  # row 0 holds z
        xs, lams = parts(flat)
        xs[0], lams[0] = z[..., :n], z[..., n:]
        K, C, w = np.empty((3, z.size))
        (K_x, K_lam), (C_x, C_lam), (dx, m) = parts(K), parts(C), parts(w)
        K_x[...], K_lam[...] = 1.0, keep
        C_x[...], C_lam[...] = -delta, a
        # the dual rows a mixed stack overwrites; no views otherwise
        lams_after = lams[1:] if mixed else [None] * steps
        with np.errstate(over="ignore", invalid="ignore"):
            for now, after, x, lam, lam_after in zip(flat, flat[1:], xs, lams, lams_after):
                multiplier(_matvec(A, x), lam, out=m)
                if mixed:
                    lam_mixed = np.where(small, keep * lam + a * m, lam + a * (m - lam))
                np.add(grad(x), _matvec(At, m), out=dx)
                np.multiply(K, now, out=after)
                w *= C
                after += w
                if mixed:
                    lam_after[...] = lam_mixed
        if z.ndim == 1:
            return flat[1:]
        rows = np.empty((steps,) + z.shape)
        rows[..., :n], rows[..., n:] = xs[1:], lams[1:]
        return rows


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
