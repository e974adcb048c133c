"""Augmented penalty flow on an inequality-constrained logistic problem.

The augmented dynamics need no projection: the multiplier update is a
convex combination whenever delta eta / rho <= 1, so multipliers started
at zero stay nonnegative in exact arithmetic. The certified step for this
problem is far too small to integrate, so the driver falls back to a
stability heuristic and says so.
"""

import numpy as np

from saddleflow import (
    DynamicsParams,
    build_certificate_ineq,
    gen_logistic_ineq,
    pick_step_size,
    simulate,
    solve_equilibrium,
    vector_field,
)


def main():
    p = gen_logistic_ineq(seed=7, n=10, m=8, n_data=100, reg=0.1)
    params = DynamicsParams(eta=1.0, rho=1.0)

    cert = build_certificate_ineq(p, params)
    print(f"certificate: c = {cert.c:.4g}, tau = {cert.tau:.4g} "
          f"(conservative by construction)")

    eq = solve_equilibrium(p, params, tol=1e-9)
    print(f"equilibrium residual {eq.residual.total:.3e}, "
          f"active constraints {list(eq.active_set)}")

    delta, certified = pick_step_size(p, params, cert, horizon=250.0)
    print(f"step size {delta:.6f} "
          f"({'certified' if certified else 'heuristic fallback'})")

    z0 = np.zeros(p.dim_n + p.dim_m)
    traj = simulate(vector_field(p, params), z0, delta, 250.0,
                    cert=cert, eq=eq.z)
    lams = traj.zs[:, p.dim_n:]
    print(f"distance shrank by a factor of "
          f"{traj.distances[0] / traj.distances[-1]:.3g}")
    print(f"smallest multiplier seen along the run: {lams.min():.3g}")


if __name__ == "__main__":
    main()
