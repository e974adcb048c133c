"""Test oracles for the paper's proof lemmas, written out with numpy.

The library's flows and certificates never form these quantities; the
tests check the library against them. polyfit_decay_rate is the slow
reference of the library's closed-form rate fit.
"""

import numpy as np

from saddleflow.dynamics import _AugmentedField

# Relative scale below which a secant denominator counts as degenerate.
GAMMA_DEGENERATE_TOL = 1e-14


def gamma_coefficients(p, params, z, z_star):
    """Secant slopes of the field's effective multiplier between the stacked
    points z and z_star.

    For each constraint j the slope is

        gamma_j = (m_j(z) - m_j(z*)) / (rho a_j (x - x*) + (lam_j - lam_j*)),

    set to zero when the denominator is degenerate, and not clipped: it
    lies in [0, 1] exactly when the multiplier map is monotone and
    1-Lipschitz in its scalar argument. With these slopes the dual field
    satisfies

        dlam = eta Gamma A (x - x*) + (eta / rho) (Gamma - I)(lam - lam*)

    whenever z_star is an equilibrium of the flow.
    """
    n = p.dim_n
    A = p.constraints.A
    multiplier = _AugmentedField(p, params).multiplier
    u = z - z_star
    num = multiplier(A @ z[:n], z[n:]) - multiplier(A @ z_star[:n], z_star[n:])
    den = params.rho * (A @ u[:n]) + u[n:]
    out = np.zeros(p.dim_m)
    ok = np.abs(den) >= GAMMA_DEGENERATE_TOL * (1.0 + np.abs(num))
    out[ok] = num[ok] / den[ok]
    return out


def gamma_block_margin(A, eta, rho, c, gamma):
    """Margin of the dual coupling bound used by the augmented certificate.

    For c >= rho kappa_2 and any Gamma vertex,

        eta (Gamma A A^T + A A^T Gamma) + (2 eta c / rho)(I - Gamma)
            >= (3/2) eta A A^T

    holds; the return value is the smallest eigenvalue of the difference.
    """
    return _coupling_block_margin(A, eta, rho, c, gamma, lambda AAT: 1.5 * eta * AAT)


def rank_block_margin(A, eta, rho, c, kappa1_active, gamma):
    """Margin of the rank-relaxed dual block bound Q2 >= (eta kappa_1 / 2) I.

    Q2 = eta (Gamma A A^T + A A^T Gamma) + (2 eta c / rho)(I - Gamma)
         - tau c I with tau c = eta kappa_1 / 2, so the claim is that the
    coupling block dominates eta kappa_1 I. gamma must already be capped
    at gamma_bar on inactive rows.
    """
    return _coupling_block_margin(A, eta, rho, c, gamma,
                                  lambda AAT: eta * kappa1_active * np.eye(len(AAT)))


def _coupling_block_margin(A, eta, rho, c, gamma, floor):
    """Smallest eigenvalue of eta (Gamma A A^T + A A^T Gamma)
    + (2 eta c / rho)(I - Gamma) - floor(A A^T)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    gamma = np.asarray(gamma, dtype=float)
    AAT = A @ A.T
    GAAT = gamma[:, None] * AAT
    M = eta * (GAAT + GAAT.T) + (2.0 * eta * c / rho) * np.diag(1.0 - gamma)
    M = M - floor(AAT)
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def logistic_value(D, y, reg, x):
    """The ridge-regularized logistic loss written out from the data:
    sum_i log(1 + exp(-y_i d_i^T x)) + (reg/2) ||x||^2."""
    return float(np.sum(np.logaddexp(0.0, -y * (D @ x)))) + 0.5 * reg * float(x @ x)


def logistic_grad(D, y, reg, x):
    """Its gradient, -D^T (y sigma(-y D x)) + reg x."""
    from scipy.special import expit

    return -D.T @ (y * expit(-y * (D @ x))) + reg * x


def polyfit_decay_rate(times, dists):
    """The decay rate fitted by np.polyfit: minus the least-squares slope
    of log max(d, 1e-300) over the last half of the points, NaN when fewer
    than two remain or the first and last fitted times are equal."""
    times = np.asarray(times, dtype=float)
    dists = np.maximum(np.asarray(dists, dtype=float), 1e-300)
    half = len(times) // 2
    t = times[half:]
    d = np.log(dists[half:])
    if len(t) < 2 or t[-1] == t[0]:
        return float("nan")
    return float(-np.polyfit(t, d, 1)[0])
