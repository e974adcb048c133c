"""Step-size certification for the explicit Euler integrator.

One Euler step contracts the certificate norm by at most
r = exp(-tau delta / 2) + kappa_P nu^2 delta^2 / 2, so r < 1 certifies
the discretization. The table shows r across dyadic steps; past the
admissible range the integrator detects divergence instead of silently
producing garbage.
"""

import numpy as np

from saddleflow import (
    DivergedError,
    DynamicsParams,
    build_certificate_eq,
    condition_number,
    gen_equality_qp,
    lipschitz_bound,
    simulate,
    solve_equilibrium,
    step_size_admissible,
    vector_field,
)


def main():
    p = gen_equality_qp(seed=42, n=5, m=2)
    params = DynamicsParams(eta=1.0, rho=1.0)
    cert = build_certificate_eq(p, params)
    nu = lipschitz_bound(p, params)
    kappa_p = condition_number(cert.P)
    print(f"tau = {cert.tau:.6f}, field Lipschitz bound nu = {nu:.4f}, "
          f"kappa_P = {kappa_p:.4f}")
    print(f"{'delta':>12}  {'contraction r':>15}  admissible")
    for k in range(8, 20, 2):
        delta = 2.0 ** -k
        sc = step_size_admissible(delta, cert.tau, nu, kappa_p)
        print(f"{delta:>12.3g}  {sc.contraction:>15.9f}  {sc.admissible}")

    eq = solve_equilibrium(p, params, tol=1e-9)
    bad = 0.5
    r = step_size_admissible(bad, cert.tau, nu, kappa_p).contraction
    print(f"\nstep {bad} has r = {r:.1f}; integrating anyway:")
    try:
        simulate(vector_field(p, params), np.zeros(7), bad, 25.0,
                 cert=cert, eq=eq.z)
        print("  finished (unexpected)")
    except DivergedError as exc:
        print(f"  DivergedError: {exc}")


if __name__ == "__main__":
    main()
