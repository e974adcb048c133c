"""Quadratic Lyapunov certificates for the primal-dual flows.

Every certificate is V(z) = (z - z*)^T P (z - z*) with

    P = [[eta c I, eta A^T],
         [eta A,   c I    ]],

positive definite whenever c^2 > eta kappa_2. The scalar c is chosen per
variant so that the decay inequality dV/dt <= -tau V holds along the flow:

    equality      c = 4 max(ell, eta kappa_2 / mu),            tau = eta kappa_1 / c
    inequality    c = 20 ell [max(rho kappa_2/mu, ell/mu)]^2
                         [max(eta/(ell rho), ell/mu)]^2
                         (kappa_2 / kappa_1),                  tau = eta kappa_1 / (2c)
    two-sided     same P, c, tau as inequality
    rank-relaxed  c from a three-inequality feasibility solve, tau = eta kappa_1 / (2c)
                  with kappa_1 taken over the active constraint rows only

Verification is by linear matrix inequality: along the flow the residual
obeys d(z - z*)/dt = G (z - z*) with G = G(B, Gamma) of dynamics._flow_matrix,
affine in a secant matrix B (mu I <= B <= ell I) and, for penalized
constraints, a diagonal gain Gamma in [0, I]. The decay inequality is
implied by -G^T P - P G - tau P >= 0 over that set, which lmi_sweep checks
on all Gamma vertices (exact in Gamma) and on randomly sampled B, and
reports against the rounding resolution of those matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .dynamics import _fitting, _flow_matrix, _with_primal
from .errors import DimensionMismatchError, InfeasibleError, InvalidInputError, NoSlackError
from .integrator import lipschitz_bound
from .problem import (
    ConstrainedProblem,
    DynamicsParams,
    EqualityConstraints,
    InequalityConstraints,
    TwoSidedConstraints,
    _fields_equal,
    _readonly,
)

# Activity threshold shared with the equilibrium module.
ACTIVE_TOL = 1e-7
# Absolute tolerance of solve_c_rank's bisection.
C_RANK_TOL = 1e-6

# Exhaustive Gamma-vertex enumeration is used up to this many constraints;
# beyond it the vertices are sampled.
EXHAUSTIVE_VERTEX_LIMIT = 16
SAMPLED_VERTEX_COUNT = 1024

# lmi_sweep checks the Gamma vertices in stacks of about this many floats,
# so its memory does not grow with the vertex count.
_STACK_FLOATS = 1 << 17


class CertificateVariant(Enum):
    EQUALITY = "equality"
    INEQUALITY = "inequality"
    TWO_SIDED = "two-sided"
    RANK_RELAXED = "rank-relaxed"


@dataclass(frozen=True)
class RankCertificateAux:
    """Trajectory-dependent quantities backing the rank-relaxed certificate.

    xi bounds the largest argument the penalty can see along the flow from
    z0; eps_slack is the smallest slack among inactive constraints at the
    equilibrium; gamma_bar = xi / (xi + rho eps_slack) caps the gain of
    every inactive constraint. m1 counts active constraints; inactive
    stores the inactive row indices.
    """

    xi: float
    gamma_bar: float
    eps_slack: float
    m1: int
    inactive: tuple = ()


@dataclass(frozen=True, eq=False)
class LyapunovCertificate:
    """V(z) = (z - z*)^T P (z - z*) with decay rate tau; == compares P
    entrywise."""

    P: np.ndarray
    c: float
    tau: float
    variant: CertificateVariant
    rank_aux: Optional[RankCertificateAux] = None

    __eq__ = _fields_equal

    def __post_init__(self):
        object.__setattr__(self, "P", _readonly(self.P))


@dataclass(frozen=True)
class LmiReport:
    """lmi_sweep's outcome.

    min_margin is found at B sample worst_sample and Gamma vertex
    worst_vertex (None for the equality variant). resolution is the
    rounding resolution r of the margins, and verdict reads min_margin
    against it: "pass" above r, "fail" below -r, "inconclusive" between.
    eigvalsh_matrices and screened_matrices count the matrices whose
    eigenvalues were computed and those a Cholesky screen cleared; they
    describe how the sweep ran, not its outcome, so == ignores them.
    """

    samples_checked: int
    min_margin: float
    worst_sample: int
    worst_vertex: Optional[tuple]
    resolution: float
    verdict: str
    eigvalsh_matrices: int = field(compare=False)
    screened_matrices: int = field(compare=False)


def build_p_matrix(A, eta: float, c: float) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    P = np.zeros((n + m, n + m))
    P[:n, :n] = eta * c * np.eye(n)
    P[:n, n:] = eta * A.T
    P[n:, :n] = eta * A
    P[n:, n:] = c * np.eye(m)
    return P


def _finish_certificate(A, params, c, tau, variant, rank_aux=None) -> LyapunovCertificate:
    with np.errstate(over="ignore", invalid="ignore"):
        P = build_p_matrix(A, params.eta, c)
    # P > 0 iff c^2 > eta kappa_2; constants outside the float range (c
    # sits on P's diagonal) or a failed Cholesky mean the certificate does
    # not cover these parameters.
    try:
        if not (np.isfinite(tau) and np.isfinite(P).all()):
            raise np.linalg.LinAlgError
        np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        raise InfeasibleError(f"no {variant.value} certificate at eta {params.eta:g}, "
                              f"rho {params.rho:g}: c = {c:g}, tau = {tau:g}") from None
    return LyapunovCertificate(P=P, c=float(c), tau=float(tau), variant=variant,
                               rank_aux=rank_aux)


def build_certificate_eq(p: ConstrainedProblem, params: DynamicsParams) -> LyapunovCertificate:
    """Certificate for the plain equality flow."""
    if not isinstance(p.constraints, EqualityConstraints):
        raise ValueError("equality certificate requires equality constraints")
    mu, ell = p.objective.mu, p.objective.ell
    k1, k2 = p.bounds.kappa1, p.bounds.kappa2
    c = 4.0 * max(ell, params.eta * k2 / mu)
    tau = params.eta * k1 / c
    return _finish_certificate(p.constraints.A, params, c, tau,
                               CertificateVariant.EQUALITY)


def build_certificate_ineq(p: ConstrainedProblem, params: DynamicsParams) -> LyapunovCertificate:
    """Certificate for the augmented flow (inequality or two-sided band)."""
    if isinstance(p.constraints, InequalityConstraints):
        variant = CertificateVariant.INEQUALITY
    elif isinstance(p.constraints, TwoSidedConstraints):
        variant = CertificateVariant.TWO_SIDED
    else:
        raise ValueError("augmented certificate requires inequality or "
                         "two-sided constraints")
    mu, ell = p.objective.mu, p.objective.ell
    k1, k2 = p.bounds.kappa1, p.bounds.kappa2
    eta, rho = params.eta, params.rho
    try:
        c = (20.0 * ell
             * max(rho * k2 / mu, ell / mu) ** 2
             * max(eta / (ell * rho), ell / mu) ** 2
             * (k2 / k1))
    except OverflowError:  # a float power past the float range
        c = np.inf
    tau = eta * k1 / (2.0 * c)
    return _finish_certificate(p.constraints.A, params, c, tau, variant)


def xi_bound(p: ConstrainedProblem, params: DynamicsParams, z0,
             z_star) -> RankCertificateAux:
    """Trajectory bound and inactive-gain cap for the rank-relaxed setting,
    for the run from the stacked z0 = (x0, lam0) to z_star = (x*, lam*).

    xi = max_j [ (rho ||a_j|| + sqrt(eta)) sqrt(||x0-x*||^2 + ||lam0-lam*||^2/eta)
                 + rho ||a_j|| ||x*|| + rho |b_j| + ||lam*|| ]

    The square root term is the radius of the sublevel set of the auxiliary
    function V0 that contains the whole trajectory, so xi upper-bounds the
    penalty argument rho a_j x(t) + lam_j(t) - rho b_j for all t. With
    eps_slack the smallest inactive slack b_j - a_j x* (a slack above
    ACTIVE_TOL makes a constraint inactive), every inactive gain
    satisfies gamma_j <= gamma_bar = xi / (xi + rho eps_slack).
    """
    if not isinstance(p.constraints, InequalityConstraints):
        raise ValueError("xi_bound requires inequality constraints")
    n = p.dim_n
    z0 = _fitting(z0, n + p.dim_m, "z0")
    z_star = _fitting(z_star, n + p.dim_m, "z_star")
    x_star = z_star[:n]
    A, b = p.constraints.A, p.constraints.b
    eta, rho = params.eta, params.rho
    row_norms = np.linalg.norm(A, axis=1)
    u = z0 - z_star
    radius = np.sqrt(float(np.sum(u[:n] ** 2)) + float(np.sum(u[n:] ** 2)) / eta)
    x_norm = float(np.linalg.norm(x_star))
    lam_norm = float(np.linalg.norm(z_star[n:]))
    xi = float(np.max(
        (rho * row_norms + np.sqrt(eta)) * radius
        + rho * row_norms * x_norm
        + rho * np.abs(b)
        + lam_norm
    ))

    slack = b - A @ x_star
    inactive = np.flatnonzero(np.abs(slack) > ACTIVE_TOL)
    m1 = p.dim_m - inactive.size
    if inactive.size == 0:
        return RankCertificateAux(xi=xi, gamma_bar=0.0, eps_slack=np.inf,
                                  m1=m1, inactive=())
    worst = slack[inactive].min()
    if worst <= 0:
        j = int(inactive[np.argmin(slack[inactive])])
        raise NoSlackError(
            f"inactive constraint {j} has nonpositive slack {worst:g}; "
            "no valid slack margin exists"
        )
    eps = float(worst)
    gamma_bar = xi / (xi + rho * eps)
    return RankCertificateAux(xi=xi, gamma_bar=gamma_bar, eps_slack=eps,
                              m1=m1, inactive=tuple(int(j) for j in inactive))


def rank_inequality_margins(mu: float, ell: float, kappa1: float,
                            kappa2: float, eta: float, rho: float,
                            gamma_bar: float, c: float) -> np.ndarray:
    """Left-minus-right values of the three rank-relaxed decay conditions.

    The conditions, each monotone non-decreasing in c, are

        (1)  c >= rho kappa_2
        (2)  eta kappa_1 [2 eta c / rho (1 - gamma_bar) - 2 eta kappa_2
             - eta kappa_1] / 2 >= (2 eta kappa_2)^2
        (3)  2 eta c mu - eta^2 kappa_2 - eta^2 kappa_1 / 2
             >= (2 kappa_2 / (eta kappa_1))
                (eta ell + eta rho kappa_2 + eta^2 / rho
                 + eta^2 kappa_1 / (2c))^2

    All three margins are nonnegative exactly when c is feasible.
    """
    m1 = c - rho * kappa2
    lhs2 = 0.5 * eta * kappa1 * (
        2.0 * eta * c / rho * (1.0 - gamma_bar) - 2.0 * eta * kappa2 - eta * kappa1
    )
    m2 = lhs2 - (2.0 * eta * kappa2) ** 2
    lhs3 = 2.0 * eta * c * mu - eta**2 * kappa2 - eta**2 * kappa1 / 2.0
    rhs3 = (2.0 * kappa2 / (eta * kappa1)) * (
        eta * ell + eta * rho * kappa2 + eta**2 / rho
        + eta**2 * kappa1 / (2.0 * c)
    ) ** 2
    m3 = lhs3 - rhs3
    return np.array([m1, m2, m3])


def solve_c_rank(mu: float, ell: float, kappa1: float, kappa2: float,
                 eta: float, rho: float, gamma_bar: float) -> float:
    """Smallest c making the rank-relaxed decay inequalities hold.

    The feasible set of rank_inequality_margins is an interval unbounded
    above; bisection to absolute tolerance C_RANK_TOL, or until the
    midpoint is an end of the bracket (no float lies between them),
    returns (an upper bracket of) its left endpoint, so the result is
    always feasible. A c whose margins overflow the float range counts as
    infeasible, so constants past it raise InfeasibleError.
    """
    if gamma_bar >= 1.0:
        raise InfeasibleError(
            f"gamma_bar = {gamma_bar:g} >= 1; every gain cap is vacuous and no "
            "finite c exists"
        )

    def feasible(c: float) -> bool:
        try:
            margins = rank_inequality_margins(mu, ell, kappa1, kappa2,
                                              eta, rho, gamma_bar, c)
        except OverflowError:  # a float power past the float range
            return False
        return bool(np.all(margins >= 0.0))

    hi = max(rho * kappa2, 1.0)
    attempts = 0
    while not feasible(hi):
        hi *= 2.0
        attempts += 1
        if attempts > 200:
            raise InfeasibleError("no feasible c found while doubling the bracket")
    lo = 0.0
    while hi - lo > C_RANK_TOL:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def build_certificate_rank(p: ConstrainedProblem, params: DynamicsParams,
                           z0, z_star) -> LyapunovCertificate:
    """Rank-relaxed certificate: only the active rows of A need full rank.

    kappa_1 is taken over the active rows A_1 (lambda_min of A_1 A_1^T),
    kappa_2 over the full A. The trajectory bound from z0 caps the gain of
    inactive constraints at gamma_bar < 1, which is what rescues the decay
    inequality when the full A A^T is singular or ill-conditioned. z0 and
    z_star are stacked points, as for xi_bound.
    """
    aux = xi_bound(p, params, z0, z_star)
    A = p.constraints.A
    active = np.setdiff1d(np.arange(p.dim_m), np.asarray(aux.inactive, dtype=int))
    if active.size == 0:
        raise InfeasibleError("no active constraints; the rank-relaxed "
                              "certificate needs at least one")
    A1 = A[active]
    k1 = float(np.linalg.eigvalsh(A1 @ A1.T)[0])
    if k1 <= 0:
        raise InfeasibleError("active constraint rows are linearly dependent")
    k2 = float(np.linalg.eigvalsh(A @ A.T)[-1])
    c = solve_c_rank(p.objective.mu, p.objective.ell, k1, k2,
                     params.eta, params.rho, aux.gamma_bar)
    tau = params.eta * k1 / (2.0 * c)
    return _finish_certificate(A, params, c, tau,
                               CertificateVariant.RANK_RELAXED, rank_aux=aux)


def _gamma_stack(cert, G, rest):
    """M_Gamma = -(G^T P + P G) - tau P at B = 0, symmetrized, for every G
    of the _flow_matrix stack (G, rest): the part of the LMI matrix that
    does not depend on B. Leaves G's storage free for reuse.

    It takes the arithmetic of -(G^T P + P G) - tau P and 0.5 (M + M^T)
    in place, except the sum with the transpose, which runs faster into a
    new stack than over its own operand.
    """
    P = cert.P
    G = _with_primal(G, rest, np.zeros_like(rest[0]))
    M = P @ G
    M += np.swapaxes(G, 1, 2) @ P
    np.negative(M, out=M)
    M -= cert.tau * P
    M = M + np.swapaxes(M, 1, 2)
    M *= 0.5
    return M


def _b_term(P, B):
    """N_B = X + X^T with X = E B E^T P (E embeds the primal block), the
    part of the LMI matrix that B adds: M(B, Gamma) = M_Gamma + N_B.
    X holds B P[:n] in its first n rows; N_B is exactly symmetric."""
    n = len(B)
    X = np.zeros_like(P)
    X[:n] = B @ P[:n]
    return X + X.T


def _lmi_margins(M_gamma, N, out, shift=None):
    """Smallest eigenvalue of M_gamma + N for every matrix of the
    _gamma_stack M_gamma and the _b_term N; the sum is formed in out.
    It rounds otherwise than -G^T P - P G - tau P of the whole G, within
    the resolution r of lmi_sweep, whose docstring gives the bound.

    With a shift, the stack first takes one batched Cholesky
    factorization of the sum minus shift I: None if it succeeds, the
    margins only if it fails. The shift is applied to the diagonal in
    place and undone exactly, so the stack costs no second copy.
    """
    M = np.add(M_gamma, N, out=out)
    if shift is not None:
        diagonal = np.arange(M.shape[-1])
        kept = M[:, diagonal, diagonal]
        M[:, diagonal, diagonal] -= shift
        try:
            np.linalg.cholesky(M)
            return None
        except np.linalg.LinAlgError:
            M[:, diagonal, diagonal] = kept
    return np.linalg.eigvalsh(M)[:, 0]


def lmi_check(cert: LyapunovCertificate, p: ConstrainedProblem,
              params: DynamicsParams, B, Gamma=None) -> float:
    """Smallest eigenvalue of -G^T P - P G - tau P at one (B, Gamma) point.

    B is the secant matrix (mu I <= B <= ell I); Gamma the diagonal gain
    entries in [0,1], given as a length-m vector and ignored for the
    equality variant. Nonnegative return value means the decay inequality
    holds at this parameter point. The matrix is formed as lmi_sweep
    forms it, M_Gamma + N_B, so the sweep is a loop of this check.
    A non-finite B, or a Gamma that is non-finite or outside [0, 1]^m,
    raises InvalidInputError.
    """
    n = p.dim_n
    B = np.asarray(B, dtype=float)
    if B.shape != (n, n):
        raise DimensionMismatchError(f"B must be {n}x{n}, got {B.shape}")
    if not np.all(np.isfinite(B)):
        raise InvalidInputError("B must be finite")
    equality = cert.variant is CertificateVariant.EQUALITY
    gammas = None if equality else np.asarray(Gamma, dtype=float)[None]
    if not (equality or np.all((gammas >= 0.0) & (gammas <= 1.0))):
        raise InvalidInputError(f"Gamma must be finite and in [0, 1], got {Gamma!r}")
    G, rest = _flow_matrix(p.constraints.A, params.eta, params.rho, gammas)
    return float(_lmi_margins(_gamma_stack(cert, G, rest), _b_term(cert.P, B), G)[0])


def _gamma_vertices(cert, m, seed):
    """Vertex set of the Gamma box as a (K, m) array, capped at gamma_bar
    on inactive rows for the rank-relaxed variant. G is affine in Gamma,
    so checking the vertices covers the whole box by convexity."""
    cap = np.ones(m)
    if cert.variant is CertificateVariant.RANK_RELAXED:
        cap[list(cert.rank_aux.inactive)] = cert.rank_aux.gamma_bar
    if m <= EXHAUSTIVE_VERTEX_LIMIT:
        bits = np.array(list(itertools.product((0.0, 1.0), repeat=m)))
        return bits * cap
    rng = np.random.default_rng(seed)
    verts = [np.zeros(m), cap.copy()]
    verts += [rng.integers(0, 2, size=m).astype(float) * cap
              for _ in range(SAMPLED_VERTEX_COUNT)]
    return np.array(verts)


def _haar_orthogonal(rng, n):
    """Haar-distributed n x n orthogonal matrix: the QR recipe of
    scipy.stats.ortho_group.rvs, drawing the same normals from rng."""
    if n == 1:
        return np.eye(1)
    return _orthogonal_factors(rng.normal(size=(n, n)))


def _orthogonal_factors(normals):
    """The sign-fixed Q factor of each n x n matrix of a stack of normals
    (_haar_orthogonal's QR recipe), from one stacked QR, which factors
    each matrix with the bits of its own."""
    q, r = np.linalg.qr(normals)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def _secant_samples(rng, n, count, mu, ell):
    """count secant matrices B = mu I + (ell - mu) Q diag(s) Q^T as a stack.

    Per sample, rng draws Q's normals (_haar_orthogonal, none for n = 1)
    and then s uniform in [0, 1]^n, the order of a loop of draws; the QR
    factorizations and products then run once on the whole stack, with
    the bits of that loop.
    """
    normals, s = np.empty((count, n, n)), np.empty((count, n))
    for k in range(count):
        if n > 1:
            normals[k] = rng.normal(size=(n, n))
        s[k] = rng.uniform(size=n)
    Q = np.ones((count, 1, 1)) if n == 1 else _orthogonal_factors(normals)
    return mu * np.eye(n) + (ell - mu) * (Q * s[:, None, :]) @ Q.transpose(0, 2, 1)


def lmi_sweep(cert: LyapunovCertificate, p: ConstrainedProblem,
              params: DynamicsParams, b_samples: int = 100,
              seed: int = 0) -> LmiReport:
    """Check the decay LMI over Gamma vertices and sampled secant matrices.

    The Gamma direction is covered exactly by vertex enumeration (up to
    m = 16; sampled beyond). B cannot be vertex-enumerated, so b_samples
    random matrices B = mu I + (ell - mu) Q diag(s) Q^T are drawn, with Q
    Haar-orthogonal and s uniform in [0,1]^n: probabilistic coverage of
    the secant interval. The verdict reads the worst margin against the
    resolution r.

    G is affine in B and B enters only the primal block, so the matrix
    M = -G^T P - P G - tau P splits as M(B, Gamma) = M_Gamma + N_B
    (_gamma_stack, _b_term). Each stack of vertices (about _STACK_FLOATS
    floats) builds its M_Gamma once; every B sample forms its d x d N_B
    and adds it to the whole stack, in the storage of the stack's G. This
    is lmi_check's arithmetic, so the sweep equals a loop of lmi_check
    bit for bit. The worst point is the first in (B, vertex) order.

    Screen: the sweep keeps the running minimum s of the margins it has
    computed. Every later stack first takes one batched Cholesky
    factorization of M - t I, and the batched eigvalsh whose smallest
    eigenvalues are the margins runs only if that factorization fails.
    Above the resolution (|s| > r), t = s + r: a stack it clears has every
    margin above s, so it can neither lower nor tie the minimum. Inside it
    (|s| <= r), t = s - r/2: only a stack that could lower the minimum by
    more than r is computed. The report therefore equals the one from
    computing every margin when min_margin > r or min_margin < -2r, and
    otherwise has the same samples_checked and a min_margin within r of
    that one's. So a reported "pass" or "fail" is the verdict of the
    exhaustive sweep, and a reported "inconclusive" may hide an
    exhaustive "fail" within 2r of zero.

    Resolution: r = 4 d eps (2 nu + tau) lambda_max(P), with d the size
    of P and nu the flow's lipschitz_bound, which bounds ||G||_2 over the
    swept set, so (2 nu + tau) lambda_max(P) bounds ||M||_2. d eps ||M||_2
    is the form of the a-priori error bound of both computations: the
    backward error of a Cholesky factorization that succeeds (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 10) and, by Weyl's
    inequality, the error of the smallest eigenvalue from a backward-stable
    eigvalsh. Their proven constants grow faster in d, but the errors
    measured on the test problems and on logistic benchmark problems
    (d = 7 to 90) stay below eps ||M||_2. r holds four such bounds, so the
    two errors together take at most r/2, which both shifts rely on.

    The split rounds differently from the product of the whole G, but no
    worse: nu is a blockwise triangle bound, so ||G(0, Gamma)||_2 + ell
    <= nu, and (2 nu + tau) lambda_max(P) bounds ||M_Gamma||_2 + ||N_B||_2
    as it bounds ||M||_2. The rounding of the sum therefore has the form
    d eps (2 nu + tau) lambda_max(P) as well. On the logistic problems
    measured (the benchmark's 10x8 pool and 50x40) the split moves the
    minimum margin by less than 2e-4 r.
    """
    n = p.dim_n
    mu, ell = p.objective.mu, p.objective.ell
    bs = _secant_samples(np.random.default_rng(seed), n, max(int(b_samples), 1), mu, ell)

    equality = cert.variant is CertificateVariant.EQUALITY
    vertices = np.empty((1, 0)) if equality else _gamma_vertices(cert, p.dim_m, seed + 1)
    lambda_max = float(np.linalg.eigvalsh(cert.P)[-1])
    resolution = (4.0 * len(cert.P) * np.finfo(float).eps
                  * (2.0 * lipschitz_bound(p, params) + cert.tau) * lambda_max)
    size = max(1, _STACK_FLOATS // cert.P.size)
    # Per B sample, the smallest computed margin and its vertex. Stacks run
    # in vertex order and only a smaller margin replaces it: ties keep the
    # first. low is the smallest of them all.
    best = np.full(len(bs), np.inf)
    where = np.zeros(len(bs), dtype=int)
    low = np.inf
    computed = 0
    for start in range(0, len(vertices), size):
        gammas = None if equality else vertices[start:start + size]
        G, rest = _flow_matrix(p.constraints.A, params.eta, params.rho, gammas)
        M_gamma = _gamma_stack(cert, G, rest)
        for i, B in enumerate(bs):
            if low == np.inf:
                shift = None
            elif abs(low) > resolution:
                shift = low + resolution
            else:
                shift = low - 0.5 * resolution
            margins = _lmi_margins(M_gamma, _b_term(cert.P, B), G, shift)
            if margins is None:
                continue
            computed += len(margins)
            j = int(np.argmin(margins))
            if margins[j] < best[i]:
                best[i], where[i] = margins[j], start + j
                low = min(low, best[i])

    worst = int(np.argmin(best))
    min_margin = float(best[worst])
    if min_margin > resolution:
        verdict = "pass"
    elif min_margin < -resolution:
        verdict = "fail"
    else:
        verdict = "inconclusive"
    checked = len(bs) * len(vertices)
    return LmiReport(
        samples_checked=checked,
        min_margin=min_margin,
        worst_sample=worst,
        worst_vertex=None if equality else tuple(vertices[where[worst]].tolist()),
        resolution=float(resolution),
        verdict=verdict,
        eigvalsh_matrices=computed,
        screened_matrices=checked - computed,
    )


def condition_number(P) -> float:
    """2-norm condition number of a symmetric positive definite matrix."""
    eigs = np.linalg.eigvalsh(np.asarray(P, dtype=float))
    return float(eigs[-1] / eigs[0])
