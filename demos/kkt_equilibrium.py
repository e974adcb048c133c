"""Equilibria of the flows are KKT points, for all three constraint kinds.

Solves for the stationary point of each flow, reports the component-wise
KKT residual, and shows that restarting from random states lands on the
same equilibrium. Two-sided multipliers are signed; their positive and
negative parts act as the multipliers of the upper and lower bounds and
are never simultaneously nonzero.
"""

import numpy as np

from saddleflow import (
    ConstrainedProblem,
    DynamicsParams,
    QuadraticObjective,
    TwoSidedConstraints,
    gen_equality_qp,
    gen_logistic_ineq,
    solve_equilibrium,
)


def main():
    params = DynamicsParams(eta=1.0, rho=1.0)
    two_sided = ConstrainedProblem(
        QuadraticObjective(np.diag([1.0, 2.0, 3.0]), np.array([1.0, -2.0, 0.5])),
        TwoSidedConstraints(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]]),
                            b_lo=np.array([-0.2, -0.05]),
                            b_hi=np.array([0.2, 0.05])))
    problems = {
        "equality QP": gen_equality_qp(42, n=5, m=2),
        "logistic inequalities": gen_logistic_ineq(7, n=10, m=8,
                                                   n_data=100, reg=0.1),
        "two-sided box": two_sided,
    }
    rng = np.random.default_rng(5)
    for name, p in problems.items():
        eq = solve_equilibrium(p, params, tol=1e-9)
        res = eq.residual
        print(f"{name}:")
        print(f"  stationarity {res.stationarity:.2e}  primal {res.primal:.2e}  "
              f"dual {res.dual:.2e}  complementarity {res.complementarity:.2e}")
        print(f"  active constraints: {list(eq.active_set)}")
        sols = [solve_equilibrium(p, params, tol=1e-9,
                                  z0=rng.standard_normal(p.dim_n + p.dim_m)).z
                for _ in range(3)]
        spread = max(np.linalg.norm(a - b) for a in sols for b in sols)
        print(f"  spread across 3 random restarts: {spread:.2e}")
        if isinstance(p.constraints, TwoSidedConstraints):
            lam = eq.lambda_star
            print(f"  signed multipliers {np.round(lam, 6)}; "
                  f"split product {np.maximum(lam, 0) * np.maximum(-lam, 0)}")


if __name__ == "__main__":
    main()
