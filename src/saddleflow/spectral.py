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
from .dynamics import AffineVectorField, vector_field
from .errors import InfeasibleError, InvalidInputError
from .problem import ConstrainedProblem, DynamicsParams, _fields_equal, _readonly

# saturation_knee's grid eta = KNEE_ETA0 * 10^k, k = 0 ... KNEE_DECADES,
# and the gain over one decade below which the rate counts as saturated.
KNEE_ETA0 = 1e-2
KNEE_DECADES = 8
KNEE_GAIN = 1.05


@dataclass(frozen=True, eq=False)
class LtiSystem:
    """The flow matrix G and its spectral abscissa; == compares G
    entrywise."""

    G: np.ndarray
    abscissa: float

    __eq__ = _fields_equal

    def __post_init__(self):
        object.__setattr__(self, "G", _readonly(self.G))

    @property
    def rate(self) -> float:
        return -self.abscissa


@dataclass(frozen=True, eq=False)
class EtaSweepResult:
    """Decay rates over a grid of dual gains, with the certified bound;
    == compares the arrays entrywise."""

    etas: np.ndarray
    rates: np.ndarray
    certified: np.ndarray

    __eq__ = _fields_equal

    def rows(self):
        return list(zip(self.etas, self.rates, self.certified))


def lti_matrix(p: ConstrainedProblem, eta: float = 1.0) -> LtiSystem:
    """System matrix G of p's flow at dual gain eta and its spectral abscissa.

    G is the affine field's matrix: vector_field decides whether the flow
    is linear, and InvalidInputError says so when it is not. A G that
    overflows (eta A past the largest float) raises InfeasibleError.
    """
    with np.errstate(over="ignore"):
        field = vector_field(p, DynamicsParams(eta=eta))
    if not isinstance(field, AffineVectorField):
        raise InvalidInputError("spectrum needs a quadratic objective with equality "
                                "constraints (the flow must be linear)")
    if not np.isfinite(field.G).all():
        raise InfeasibleError(f"the flow matrix overflows at eta = {eta:g}")
    return LtiSystem(G=field.G, abscissa=float(np.max(np.real(np.linalg.eigvals(field.G)))))


def certified_rate(p: ConstrainedProblem, eta: float) -> float:
    """Certified lower bound tau_eq(eta)/2 on the true decay rate."""
    return build_certificate_eq(p, DynamicsParams(eta=eta)).tau / 2.0


def eta_sweep(p: ConstrainedProblem, eta_grid) -> EtaSweepResult:
    """Exact rate and certified bound of p's linear flow for each eta in the grid."""
    etas = np.atleast_1d(np.asarray(eta_grid, dtype=float))
    if etas.size == 0 or not np.all(etas > 0):
        raise ValueError("eta grid must be nonempty and positive")
    rates = [lti_matrix(p, e).rate for e in etas]
    certified = [certified_rate(p, e) for e in etas]
    return EtaSweepResult(etas=etas, rates=np.asarray(rates), certified=np.asarray(certified))


def saturation_knee(p: ConstrainedProblem) -> float:
    """Smallest eta = KNEE_ETA0 * 10^k whose next decade gains less than 5%.

    A pragmatic threshold for where raising the dual gain stops paying:
    the knee is the first grid point with rate(10 eta) <= KNEE_GAIN *
    rate(eta), k = 0 ... KNEE_DECADES. Returns the last grid point if no
    knee is found.
    """
    eta, r0 = KNEE_ETA0, lti_matrix(p, KNEE_ETA0).rate
    for _ in range(KNEE_DECADES):
        r1 = lti_matrix(p, 10.0 * eta).rate
        if r1 <= KNEE_GAIN * r0:
            return eta
        eta, r0 = 10.0 * eta, r1
    return eta
