"""Exact decay rates of the linear time-invariant equality flow.

With a quadratic objective f(x) = 1/2 x^T W x + q^T x, the equality flow
is dz/dt = G z + const with G = [[-W, -A^T], [eta A, 0]], the flow matrix
at B = W, so the exact exponential decay rate is the negated spectral
abscissa of G (Hurwitz for W > 0 and full-row-rank A). Raising the dual
gain eta speeds the rate up only until the leading eigenvalues go complex;
past that knee the rate saturates. The certified rate tau_eq(eta)/2 is
always a lower bound on the true rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import build_certificate_eq
from .dynamics import _flow_matrix, _with_primal
from .problem import (
    ConstrainedProblem,
    DynamicsParams,
    EqualityConstraints,
    QuadraticObjective,
    _readonly,
    spectral_bounds,
)

# saturation_knee's grid eta = KNEE_ETA0 * 10^k, k = 0 ... KNEE_DECADES,
# and the gain over one decade below which the rate counts as saturated.
KNEE_ETA0 = 1e-2
KNEE_DECADES = 8
KNEE_GAIN = 1.05


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
    return _lti_system(*_validated(W, A), eta)


def _validated(W, A):
    """W, checked by QuadraticObjective, and A as an (m, n) array (m may be 0)."""
    W = QuadraticObjective(np.atleast_2d(W)).W
    n = W.shape[0]
    return W, np.zeros((0, n)) if A is None else np.asarray(A, dtype=float).reshape(-1, n)


def _lti_system(W, A, eta: float) -> LtiSystem:
    G = _with_primal(*_flow_matrix(A, eta), W)[0]
    return LtiSystem(G=G, abscissa=float(np.max(np.real(np.linalg.eigvals(G)))))


def _equality_problem(W, A) -> ConstrainedProblem:
    """The problem (W, A, b = 0) that certified rates are taken on."""
    return ConstrainedProblem(QuadraticObjective(np.atleast_2d(W)),
                              EqualityConstraints(A=A, b=np.zeros(np.atleast_2d(A).shape[0])),
                              bounds=spectral_bounds(A, require_full_rank=False))


def certified_rate(W, A, eta: float) -> float:
    """Certified lower bound tau_eq(eta)/2 on the true decay rate."""
    return build_certificate_eq(_equality_problem(W, A), DynamicsParams(eta=eta)).tau / 2.0


def eta_sweep(W, A, eta_grid) -> EtaSweepResult:
    """Exact rate and certified bound for each eta in the grid."""
    etas = np.atleast_1d(np.asarray(eta_grid, dtype=float))
    if etas.size == 0 or not np.all(etas > 0):
        raise ValueError("eta grid must be nonempty and positive")
    p = _equality_problem(W, A)
    rates = [_lti_system(p.objective.W, p.constraints.A, e).rate for e in etas]
    certified = [build_certificate_eq(p, DynamicsParams(eta=e)).tau / 2.0 for e in etas]
    return EtaSweepResult(etas=etas, rates=np.asarray(rates), certified=np.asarray(certified))


def saturation_knee(W, A) -> float:
    """Smallest eta = KNEE_ETA0 * 10^k whose next decade gains less than 5%.

    A pragmatic threshold for where raising the dual gain stops paying:
    the knee is the first grid point with rate(10 eta) <= KNEE_GAIN *
    rate(eta), k = 0 ... KNEE_DECADES. Returns the last grid point if no
    knee is found.
    """
    W, A = _validated(W, A)
    eta, r0 = KNEE_ETA0, _lti_system(W, A, KNEE_ETA0).rate
    for _ in range(KNEE_DECADES):
        r1 = _lti_system(W, A, 10.0 * eta).rate
        if r1 <= KNEE_GAIN * r0:
            return eta
        eta, r0 = 10.0 * eta, r1
    return eta
