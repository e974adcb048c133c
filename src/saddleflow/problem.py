"""Problem data model: objectives, constraint sets, and regularity bounds.

A constrained problem couples a smooth strongly convex objective
(mu-strongly convex, ell-smooth) with one linear constraint block,

    equality     A x  = b,
    inequality   A x <= b,
    two-sided    b_lo <= A x <= b_hi,

where A is m-by-n with full row rank and kappa_1 I <= A A^T <= kappa_2 I.
Objectives are black boxes: only value and gradient calls are required.
All containers are immutable after construction; arrays are copied and
marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import (DimensionMismatchError, InvalidBandError, NotSymmetricError,
                     RankDeficientError)

# Relative eigenvalue threshold below which A A^T counts as singular.
RANK_TOL = 1e-10


def _readonly(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def _matvec(M, x):
    """M @ x for a vector x, and row by row for a (K, n) stack of them.

    Each row of a stack gets exactly the bits of M @ row: matmul runs one
    matrix-vector product per row, where a matrix-matrix product would
    round differently. Every product of a stacked Euler step goes through
    here.
    """
    return M @ x if x.ndim == 1 else np.matmul(M, x[..., None])[..., 0]


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


class ObjectiveOracle:
    """Black-box objective with declared strong convexity and smoothness.

    Parameters
    ----------
    value : callable
        Maps an n-vector to a scalar f(x).
    grad : callable
        Maps an n-vector to the n-vector gradient of f.
    mu : float
        Strong convexity modulus, mu > 0.
    ell : float
        Gradient Lipschitz constant, ell >= mu.
    hess : callable, optional
        Maps an n-vector to the n-by-n Hessian of f. Without it, hess(x)
        is a forward-difference Jacobian of grad.

    The declared (mu, ell) are trusted by certificate builders; use
    :func:`validate_problem` to spot-check them against sampled secants.
    grad also takes a (K, n) stack of points, one gradient per row; a
    user's callable is mapped over the rows.
    """

    # Whether _grad itself takes a (K, n) stack, with the bits of one
    # call per row.
    _stacks = False

    def __init__(self, value: Callable, grad: Callable, mu: float, ell: float,
                 hess: Callable = None):
        if not (mu > 0):
            raise ValueError(f"mu must be positive, got {mu}")
        if not (ell >= mu):
            raise ValueError(f"ell must be at least mu, got ell={ell} < mu={mu}")
        self._value = value
        self._grad = grad
        self._hess = hess
        self.mu = float(mu)
        self.ell = float(ell)

    def value(self, x) -> float:
        return float(self._value(np.asarray(x, dtype=float)))

    def grad(self, x) -> np.ndarray:
        """The gradient at x, or at each row of a (K, n) stack of points."""
        x = np.asarray(x, dtype=float)
        if x.ndim > 1 and not self._stacks:
            return np.array([self._grad(row) for row in x], dtype=float)
        return np.asarray(self._grad(x), dtype=float)

    def hess(self, x) -> np.ndarray:
        """The Hessian at an n-vector x (the equilibrium solver's Newton matrix)."""
        x = np.asarray(x, dtype=float)
        if self._hess is None:
            return _fd_jacobian(self.grad, x)
        return np.asarray(self._hess(x), dtype=float)

    def __repr__(self):
        return f"{type(self).__name__}(mu={self.mu:g}, ell={self.ell:g})"


class QuadraticObjective(ObjectiveOracle):
    """f(x) = 1/2 x^T W x + q^T x with symmetric positive definite W.

    Stores W explicitly so downstream code can exploit linearity (exact
    equilibrium solves, spectral analysis of the linearized flow).
    mu and ell are the extreme eigenvalues of W.
    """

    _stacks = True

    def __init__(self, W, q=None):
        W = np.asarray(W, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise DimensionMismatchError(f"W must be square, got shape {W.shape}")
        if not np.allclose(W, W.T, rtol=1e-12, atol=1e-12 * max(1.0, abs(W).max())):
            raise NotSymmetricError("W must be symmetric")
        n = W.shape[0]
        if q is None:
            q = np.zeros(n)
        q = np.asarray(q, dtype=float)
        if q.shape != (n,):
            raise DimensionMismatchError(f"q must have shape ({n},), got {q.shape}")
        eigs = np.linalg.eigvalsh(W)
        if eigs[0] <= 0:
            raise ValueError(f"W must be positive definite, min eigenvalue {eigs[0]:g}")
        self.W = _readonly(W)
        self.q = _readonly(q)
        super().__init__(self._qvalue, self._qgrad, float(eigs[0]), float(eigs[-1]),
                         hess=self._qhess)

    def _qvalue(self, x):
        return 0.5 * x @ (self.W @ x) + self.q @ x

    def _qgrad(self, x):
        return _matvec(self.W, x) + self.q

    def _qhess(self, x):
        return self.W


class LogisticObjective(ObjectiveOracle):
    """Ridge-regularized logistic loss over a fixed synthetic dataset.

    f(x) = sum_i log(1 + exp(-y_i d_i^T x)) + (reg/2) ||x||^2 with rows d_i
    of D and labels y_i in {-1, +1}. The logistic Hessian is bounded by
    (1/4) D^T D, so mu = reg and ell = reg + lambda_max(D^T D)/4. Values
    use log1p-style accumulation, so large logits do not overflow.
    """

    _stacks = True

    def __init__(self, D, y, reg: float):
        D = np.asarray(D, dtype=float)
        y = np.asarray(y, dtype=float)
        if D.ndim != 2 or y.shape != (D.shape[0],):
            raise DimensionMismatchError(
                f"need D (k, n) and y (k,), got {D.shape} and {y.shape}"
            )
        if not np.all(np.abs(y) == 1.0):
            raise ValueError("labels must be +1 or -1")
        if not (reg > 0):
            raise ValueError(f"reg must be positive, got {reg}")
        self.D = _readonly(D)
        self.y = _readonly(y)
        # -D^T and -y for the gradient, in the layout the plain expressions
        # -D.T @ v and -y * u would build on every call
        self._neg_dt = -self.D.T
        self._neg_y = -self.y
        self.reg = float(reg)
        from scipy.special import expit  # here, so importing saddleflow loads no scipy
        self._expit = expit
        ell = reg + 0.25 * float(np.linalg.eigvalsh(D.T @ D)[-1])
        super().__init__(self._lvalue, self._lgrad, reg, ell, hess=self._lhess)

    def _lvalue(self, x):
        u = self._neg_y * (self.D @ x)
        return float(np.sum(np.logaddexp(0.0, u))) + 0.5 * self.reg * float(x @ x)

    def _lgrad(self, x):
        u = self._neg_y * _matvec(self.D, x)
        return _matvec(self._neg_dt, self.y * self._expit(u)) + self.reg * x

    def _lhess(self, x):
        # D^T diag(s (1 - s)) D + reg I, s the sigmoid of the margins
        u = self.D @ x
        w = self._expit(u) * self._expit(-u)
        return self.D.T @ (w[:, None] * self.D) + self.reg * np.eye(len(x))


@dataclass(frozen=True)
class _RowConstraints:
    """Constraint rows A with one right-hand side b."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = _readonly(np.atleast_2d(self.A))
        b = _readonly(np.atleast_1d(self.b))
        if A.shape[0] != b.shape[0]:
            raise DimensionMismatchError(
                f"A has {A.shape[0]} rows but b has {b.shape[0]} entries"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class EqualityConstraints(_RowConstraints):
    """A x = b."""


@dataclass(frozen=True)
class InequalityConstraints(_RowConstraints):
    """A x <= b."""


@dataclass(frozen=True)
class TwoSidedConstraints:
    """b_lo <= A x <= b_hi, strictly separated bands."""

    A: np.ndarray
    b_lo: np.ndarray
    b_hi: np.ndarray

    def __post_init__(self):
        A = _readonly(np.atleast_2d(self.A))
        lo = _readonly(np.atleast_1d(self.b_lo))
        hi = _readonly(np.atleast_1d(self.b_hi))
        if not (A.shape[0] == lo.shape[0] == hi.shape[0]):
            raise DimensionMismatchError(
                f"rows of A ({A.shape[0]}), b_lo ({lo.shape[0]}) and "
                f"b_hi ({hi.shape[0]}) disagree"
            )
        if not np.all(lo < hi):
            j = int(np.argmin(hi - lo))
            raise InvalidBandError(
                f"need b_lo < b_hi componentwise; row {j} has "
                f"[{lo[j]:g}, {hi[j]:g}]"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b_lo", lo)
        object.__setattr__(self, "b_hi", hi)


ConstraintSet = Union[EqualityConstraints, InequalityConstraints, TwoSidedConstraints]


@dataclass(frozen=True)
class SpectralBounds:
    """Declared eigenvalue bounds kappa_1 I <= A A^T <= kappa_2 I."""

    kappa1: float
    kappa2: float

    def __post_init__(self):
        if not (self.kappa1 > 0):
            raise ValueError(f"kappa1 must be positive, got {self.kappa1}")
        if not (self.kappa2 >= self.kappa1):
            raise ValueError(
                f"kappa2 must be at least kappa1, got {self.kappa2} < {self.kappa1}"
            )


@dataclass(frozen=True)
class DynamicsParams:
    """Flow parameters: dual gain eta and penalty weight rho.

    rho is ignored by the plain equality flow but must still be positive.
    The primal time constant is fixed to one; only the dual side is scaled.
    """

    eta: float = 1.0
    rho: float = 1.0

    def __post_init__(self):
        if not (self.eta > 0):
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not (self.rho > 0):
            raise ValueError(f"rho must be positive, got {self.rho}")


def spectral_bounds(A, require_full_rank: bool = True) -> SpectralBounds:
    """Extreme eigenvalues of A A^T as a SpectralBounds pair.

    Raises RankDeficientError when the smallest eigenvalue falls at or
    below RANK_TOL times the largest, unless require_full_rank is False
    (in which case kappa1 is clamped to a tiny positive value so the
    container stays constructible for reporting purposes).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    if m == 0:
        raise DimensionMismatchError("A must have at least one row")
    eigs = np.linalg.eigvalsh(A @ A.T)
    lo, hi = float(eigs[0]), float(eigs[-1])
    if require_full_rank and (hi <= 0 or lo <= RANK_TOL * hi):
        raise RankDeficientError(
            f"A A^T has eigenvalue range [{lo:g}, {hi:g}]; smallest is below "
            f"the rank tolerance {RANK_TOL:g} * largest"
        )
    if lo <= 0:
        lo = np.finfo(float).tiny
    return SpectralBounds(kappa1=lo, kappa2=hi)


@dataclass(frozen=True)
class ConstrainedProblem:
    """Objective plus one constraint block plus declared spectral bounds.

    bounds may be omitted, in which case they are computed from A (this
    requires full row rank). Construction checks dimensional consistency
    only; regularity of the declared data is the job of validate_problem.
    """

    objective: ObjectiveOracle
    constraints: ConstraintSet
    bounds: SpectralBounds = None

    def __post_init__(self):
        if self.bounds is None:
            object.__setattr__(self, "bounds", spectral_bounds(self.constraints.A))

    @property
    def dim_n(self) -> int:
        return self.constraints.A.shape[1]

    @property
    def dim_m(self) -> int:
        return self.constraints.A.shape[0]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of sampling-based problem validation.

    secant ratios are <g(x) - g(y), x - y> / ||x - y||^2 over random pairs;
    for a consistent declaration every ratio lies in [mu, ell] up to
    rounding. kappa bounds are measured from A A^T directly.
    """

    passed: bool
    secant_pass_rate: float
    secant_min: float
    secant_max: float
    kappa1_declared: float
    kappa2_declared: float
    kappa1_measured: float
    kappa2_measured: float
    dims_ok: bool
    rank_ok: bool
    notes: tuple = field(default_factory=tuple)


def validate_problem(p: ConstrainedProblem, samples: int = 100, seed: int = 0) -> ValidationReport:
    """Spot-check declared regularity against the actual problem data.

    Violations are reported, never raised: the report's `passed` flag is
    False when any check fails. Checks run are

    - gradient shape and objective finiteness at a few points,
    - full row rank of A and containment of the measured A A^T spectrum
      in the declared [kappa1, kappa2],
    - the secant inequality mu ||x-y||^2 <= <g(x)-g(y), x-y> <= ell ||x-y||^2
      on `samples` random pairs.
    """
    n, m = p.dim_n, p.dim_m
    rng = np.random.default_rng(seed)
    notes = []
    rel = 1e-9

    dims_ok = True
    try:
        g0 = p.objective.grad(np.zeros(n))
        if np.shape(g0) != (n,):
            dims_ok = False
            notes.append(f"grad returned shape {np.shape(g0)}, expected ({n},)")
        v0 = p.objective.value(np.zeros(n))
        if not np.isfinite(v0):
            dims_ok = False
            notes.append("objective value at 0 is not finite")
    except Exception as exc:  # report, do not propagate
        dims_ok = False
        notes.append(f"objective evaluation failed: {exc}")

    eigs = np.linalg.eigvalsh(p.constraints.A @ p.constraints.A.T)
    k1m, k2m = float(eigs[0]), float(eigs[-1])
    rank_ok = k2m > 0 and k1m > RANK_TOL * k2m
    if not rank_ok:
        notes.append(
            f"rank deficient: A A^T eigenvalues span [{k1m:g}, {k2m:g}]"
        )
    k1d, k2d = p.bounds.kappa1, p.bounds.kappa2
    kappa_ok = (k1m >= k1d * (1 - rel) - rel) and (k2m <= k2d * (1 + rel) + rel)
    if not kappa_ok:
        notes.append(
            f"declared kappa bounds [{k1d:g}, {k2d:g}] do not contain the "
            f"measured spectrum [{k1m:g}, {k2m:g}]"
        )

    mu, ell = p.objective.mu, p.objective.ell
    good = 0
    smin, smax = np.inf, -np.inf
    total = max(int(samples), 1)
    if dims_ok:
        for _ in range(total):
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            d = x - y
            dd = float(d @ d)
            if dd == 0.0:
                good += 1
                continue
            ratio = float((p.objective.grad(x) - p.objective.grad(y)) @ d) / dd
            smin = min(smin, ratio)
            smax = max(smax, ratio)
            if mu * (1 - rel) - rel <= ratio <= ell * (1 + rel) + rel:
                good += 1
    pass_rate = good / total
    if pass_rate < 1.0:
        notes.append(
            f"secant ratios in [{smin:g}, {smax:g}] escape declared "
            f"[{mu:g}, {ell:g}] on {total - good}/{total} pairs"
        )

    passed = dims_ok and rank_ok and kappa_ok and pass_rate == 1.0
    return ValidationReport(
        passed=passed,
        secant_pass_rate=pass_rate,
        secant_min=smin,
        secant_max=smax,
        kappa1_declared=k1d,
        kappa2_declared=k2d,
        kappa1_measured=k1m,
        kappa2_measured=k2m,
        dims_ok=dims_ok,
        rank_ok=rank_ok,
        notes=tuple(notes),
    )
