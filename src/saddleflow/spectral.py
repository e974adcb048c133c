"""Exact decay rates of the linear time-invariant equality flow.

With a quadratic objective f(x) = 1/2 x^T W x + q^T x, the equality flow
is dz/dt = G z + const with

    G = [[-W,    -A^T],
         [eta A,  0  ]],

so the exact exponential decay rate is the negated spectral abscissa of G
(Hurwitz for W > 0 and full-row-rank A). Raising the dual gain eta speeds
the rate up only until the leading eigenvalues go complex; past that knee
the rate saturates. The certified rate tau_eq(eta)/2 is always a lower
bound on the true rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import build_certificate_eq
from .errors import DimensionMismatchError, NotSymmetricError
from .problem import (
    ConstrainedProblem,
    DynamicsParams,
    EqualityConstraints,
    QuadraticObjective,
    _readonly,
    spectral_bounds,
)


@dataclass(frozen=True)
class LtiSystem:
    G: np.ndarray
    abscissa: float

    def __post_init__(self):
        object.__setattr__(self, "G", _readonly(self.G))

    @property
    def rate(self) -> float:
        return -self.abscissa


@dataclass(frozen=True)
class EtaSweepResult:
    """Decay rates over a grid of dual gains, with the certified bound."""

    etas: np.ndarray
    rates: np.ndarray
    certified: np.ndarray

    def rows(self):
        return list(zip(self.etas, self.rates, self.certified))


def lti_matrix(W, A=None, eta: float = 1.0) -> LtiSystem:
    """System matrix of the equality flow and its spectral abscissa.

    A may be empty (zero rows): the flow is then plain gradient descent
    on the quadratic. W must be symmetric positive definite.
    """
    W = np.atleast_2d(np.asarray(W, dtype=float))
    n = W.shape[0]
    if W.shape != (n, n):
        raise DimensionMismatchError(f"W must be square, got {W.shape}")
    scale = max(1.0, float(np.abs(W).max()))
    if not np.allclose(W, W.T, rtol=1e-12, atol=1e-12 * scale):
        raise NotSymmetricError("W must be symmetric")
    if np.linalg.eigvalsh(W)[0] <= 0:
        raise ValueError("W must be positive definite")
    if A is None:
        A = np.zeros((0, n))
    A = np.asarray(A, dtype=float).reshape(-1, n)
    m = A.shape[0]
    G = np.zeros((n + m, n + m))
    G[:n, :n] = -W
    G[:n, n:] = -A.T
    G[n:, :n] = eta * A
    abscissa = float(np.max(np.real(np.linalg.eigvals(G))))
    return LtiSystem(G=G, abscissa=abscissa)


def certified_rate(W, A, eta: float) -> float:
    """Certified lower bound tau_eq(eta)/2 on the true decay rate."""
    p = ConstrainedProblem(
        QuadraticObjective(np.atleast_2d(W)),
        EqualityConstraints(A=A, b=np.zeros(np.atleast_2d(A).shape[0])),
        bounds=spectral_bounds(A, require_full_rank=False),
    )
    return build_certificate_eq(p, DynamicsParams(eta=eta)).tau / 2.0


def eta_sweep(W, A, eta_grid) -> EtaSweepResult:
    """Exact rate and certified bound for each eta in the grid."""
    etas = np.atleast_1d(np.asarray(eta_grid, dtype=float))
    if etas.size == 0 or np.any(etas <= 0):
        raise ValueError("eta grid must be nonempty and positive")
    rates = np.asarray([lti_matrix(W, A, e).rate for e in etas])
    certified = np.asarray([certified_rate(W, A, e) for e in etas])
    return EtaSweepResult(etas=etas, rates=rates, certified=certified)


def saturation_knee(W, A, eta0: float = 1e-2, decades: int = 8,
                    per_decade: float = 1.05) -> float:
    """Smallest eta = eta0 * 10^k whose next decade gains less than 5%.

    A pragmatic threshold for where raising the dual gain stops paying:
    the knee is the first grid point with rate(10 eta) <= per_decade *
    rate(eta). Returns the last grid point if no knee is found.
    """
    eta = eta0
    for _ in range(decades):
        r0 = lti_matrix(W, A, eta).rate
        r1 = lti_matrix(W, A, 10.0 * eta).rate
        if r1 <= per_decade * r0:
            return eta
        eta *= 10.0
    return eta
