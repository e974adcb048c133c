"""Reference tests for the one builder of the flow matrix G(B, Gamma).

The affine field, the spectra, the LMI checks and the equality KKT solve
all take G from dynamics._flow_matrix; these tests hold each of them to a
written-out reference, bit for bit where the arithmetic is the same.
"""

import numpy as np
import pytest

from saddleflow import (
    DynamicsParams,
    build_certificate_eq,
    gen_equality_qp,
    lmi_check,
    lti_matrix,
    solve_equilibrium,
    vector_field,
)

# The eq-qp seeds of the benchmark's problem pool (perfbench/workloads.py).
EQ_QP_SEEDS = (1, 19, 23, 29, 31, 32, 38, 42, 53, 58, 67, 84, 107, 111, 113, 116)
ETAS = (0.37, 1.0, 2.5)


@pytest.mark.parametrize("eta", ETAS)
def test_equality_qp_equilibrium_is_the_explicit_kkt_solve(eta):
    for seed in EQ_QP_SEEDS:
        p = gen_equality_qp(seed)
        W, q = p.objective.W, p.objective.q
        A, b = p.constraints.A, p.constraints.b
        m = p.dim_m
        K = np.block([[W, A.T], [A, np.zeros((m, m))]])
        want = np.linalg.solve(K, np.concatenate([-q, b]))
        eq = solve_equilibrium(p, DynamicsParams(eta=eta))
        got = np.concatenate([eq.x_star, eq.lambda_star])
        assert np.array_equal(got, want), seed


@pytest.mark.parametrize("eta", ETAS)
def test_affine_field_matrix_is_the_lti_matrix(eta):
    # the affine field's G is [[-W, -A^T], [eta A, 0]], written out, bit for
    # bit, and lti_matrix hands on that same matrix
    for seed in EQ_QP_SEEDS:
        p = gen_equality_qp(seed)
        W, A, m = p.objective.W, p.constraints.A, p.dim_m
        G = vector_field(p, DynamicsParams(eta=eta)).G
        want = np.block([[-W, -A.T], [eta * A, np.zeros((m, m))]])
        assert np.array_equal(G, want), seed
        assert np.array_equal(lti_matrix(p, eta).G, want), seed


@pytest.mark.parametrize("eta", ETAS)
def test_equality_lmi_check_at_w_matches_the_lti_matrix(eta):
    params = DynamicsParams(eta=eta)
    for seed in EQ_QP_SEEDS:
        p = gen_equality_qp(seed)
        cert = build_certificate_eq(p, params)
        G = lti_matrix(p, eta).G
        P = cert.P
        M = -G.T @ P - P @ G - cert.tau * P
        want = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
        got = lmi_check(cert, p, params, p.objective.W)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), seed
