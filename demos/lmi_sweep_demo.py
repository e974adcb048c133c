"""Numerical verification of the decay matrix inequality.

The decay claim V' <= -tau V reduces to -G^T P - P G - tau P >= 0 for
every admissible Jacobian G. The gradient Hessian moves inside a secant
interval (sampled) and the penalty activation pattern lives on a box
whose vertices can be enumerated exactly. A tenfold inflated tau must
break the inequality somewhere, which shows the sweep has teeth.
"""

import dataclasses

from saddleflow import (
    DynamicsParams,
    build_certificate_eq,
    build_certificate_ineq,
    gen_equality_qp,
    gen_logistic_ineq,
    lmi_sweep,
)


def main():
    params = DynamicsParams(eta=1.0, rho=1.0)
    problems = {
        "equality QP (seed 42)": gen_equality_qp(42, n=5, m=2),
        "logistic inequalities (seed 7)": gen_logistic_ineq(7, n=10, m=8,
                                                            n_data=100, reg=0.1),
    }
    for name, p in problems.items():
        if name.startswith("equality"):
            cert = build_certificate_eq(p, params)
        else:
            cert = build_certificate_ineq(p, params)
        report = lmi_sweep(cert, p, params, b_samples=100, seed=0)
        print(f"{name}:")
        print(f"  c = {cert.c:.6g}, tau = {cert.tau:.6g}")
        print(f"  sweep over {report.samples_checked} matrix samples: "
              f"min margin {report.min_margin:.6g}, verdict {report.verdict} "
              f"(resolution {report.resolution:.3g})")

        loose = dataclasses.replace(cert, tau=10.0 * cert.tau)
        probe = lmi_sweep(loose, p, params, b_samples=100, seed=0)
        outcome = {"fail": "it fails, as it should",
                   "inconclusive": "the margin is within rounding resolution",
                   "pass": "it passes, so tau is not tight"}[probe.verdict]
        print(f"  tightness probe at 10x tau: min margin {probe.min_margin:.6g}, "
              f"verdict {probe.verdict} -> {outcome}")


if __name__ == "__main__":
    main()
