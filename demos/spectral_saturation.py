"""Saturation of the linear flow's decay rate in the dual gain eta.

For quadratic objectives under equality constraints the flow is linear
and its exact decay rate is the negated spectral abscissa. Raising eta
speeds convergence only up to a knee; past it the rate plateaus. The
certified rate tau/2 stays below the exact rate everywhere.
"""

import numpy as np

from saddleflow import certified_rate, gen_equality_qp, lti_matrix, saturation_knee


def main():
    p = gen_equality_qp(seed=42, n=5, m=2)

    knee = saturation_knee(p)
    print(f"saturation knee at eta = {knee:g} "
          f"(under 5% rate gain per decade past it)")

    print(f"{'eta':>10}  {'exact rate':>12}  {'certified':>12}")
    for eta in np.geomspace(knee / 1000.0, 1000.0 * knee, 13):
        exact = lti_matrix(p, eta=eta).rate
        cr = certified_rate(p, eta)
        print(f"{eta:>10.3g}  {exact:>12.6f}  {cr:>12.6f}")

    r10 = lti_matrix(p, eta=10.0 * knee).rate
    r100 = lti_matrix(p, eta=100.0 * knee).rate
    print(f"\nrate(100 knee) / rate(10 knee) = {r100 / r10:.4f} "
          f"(at most 1.05 by construction of the knee)")


if __name__ == "__main__":
    main()
