import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from biquad import forms, linalg
from biquad.cli import main
from biquad.errors import InvalidInput, NotPSD
from biquad.forms import GroupedSOSDecomposition, SOSDecomposition, evaluate, verify_sos
from biquad.partsym import (
    InvalidReduction,
    XSymmetricData,
    assemble_m_matrix,
    check_psd_monic,
    detect_x_symmetric,
    evaluate_xsym,
    helmert_basis,
    qr_pair,
    random_psd_instance,
    rank_bound,
    reconstruct,
    sos_decompose_general,
    sos_decompose_naive,
    sos_decompose_structured,
)
from conftest import WEIGHT, random_monic, sym_uniform, xsym_forms

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
Z2 = np.zeros((2, 2))


def monic(m, A, B=None):
    n = A.shape[0]
    return XSymmetricData(m, np.ones(n), A, Z2 if (B is None and n == 2) else (B if B is not None else np.zeros((n, n))))


def decomposition_gram(dec):
    stack = dec.factors.reshape(len(dec), dec.m * dec.n)
    return stack.T @ stack


@st.composite
def ysym_forms(draw):
    """Random y-symmetric (m, d, A, B), m in [1, 6], n in [1, 5]: constant
    d, B constant off its diagonal, A constant on and off it."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    weight, b_off, a_on, a_off = (draw(WEIGHT) for _ in range(4))
    off = np.ones((n, n)) - np.eye(n)
    return XSymmetricData(m, np.full(n, weight), a_on * np.eye(n) + a_off * off, b_off * off)


@st.composite
def nudged(draw, datas):
    """A drawn (m, d, A, B), as is or with one entry of d, A or B (mirrored)
    moved by +-1e-11 or +-1e-9 of max|c|, either side of _DETECT_TOL."""
    data = draw(datas)
    if draw(st.booleans()):
        return data
    delta = draw(st.sampled_from([1e-11, -1e-11, 1e-9, -1e-9])) * data.max_abs_coeff()
    d, a, b = data.d.copy(), data.A.copy(), data.B.copy()
    j, l = draw(st.integers(0, data.n - 1)), draw(st.integers(0, data.n - 1))
    field = draw(st.sampled_from("dAB"))
    if field == "d":
        d[j] += delta
    elif field == "A" or j != l:
        target = a if field == "A" else b
        target[j, l] += delta
        target[l, j] = target[j, l]
    return XSymmetricData(data.m, d, a, b)


class TestDetectReconstruct:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(data=nudged(xsym_forms() | ysym_forms()))
    @example(data=XSymmetricData(1, np.array([1.0, 1.0]), np.zeros((2, 2)), 0.5 * SWAP))
    @example(data=XSymmetricData(3, np.array([2.0]), np.array([[-0.25]]), np.zeros((1, 1))))
    def test_transposed_is_detection_on_the_transposed_cells(self, data):
        got, want = data.transposed(), detect_x_symmetric(data.cells().transpose())
        assert (got is None) == (want is None)
        if want is not None:
            assert (got.m, got.n) == (want.m, want.n) == (data.n, data.m)
            for name in ("d", "A", "B"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_all_squares(self):
        p = reconstruct(XSymmetricData(2, np.ones(2), Z2, Z2))
        data = detect_x_symmetric(p)
        assert data is not None
        np.testing.assert_array_equal(data.d, [1.0, 1.0])
        np.testing.assert_array_equal(data.A, Z2)
        np.testing.assert_array_equal(data.B, Z2)

    def test_simple_form_not_x_symmetric(self):
        from biquad.simple import gen_simple, to_form

        assert detect_x_symmetric(to_form(gen_simple(2, 2, 3))) is None

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(data=xsym_forms())
    @example(data=XSymmetricData(1, np.array([1.0, -2.0]), np.zeros((2, 2)), 0.5 * SWAP))
    @example(data=XSymmetricData(3, np.array([1.5]), np.array([[-0.25]]), np.zeros((1, 1))))
    def test_cells_are_the_one_builder(self, data):
        # Reference: the tensor scattered from (d, A, B) block by block.
        m, n = data.m, data.n
        scattered = np.empty((m, n, m, n))
        scattered[:] = data.A[None, :, None, :]
        idx = np.arange(m)
        scattered[idx, :, idx, :] = (data.B + np.diag(data.d))[None, :, :]
        assert reconstruct(data).coeffs.tobytes() == scattered.tobytes()
        recovered = detect_x_symmetric(data.cells())
        for got, want in ((recovered.d, data.d), (recovered.A, data.A), (recovered.B, data.B)):
            assert got.tobytes() == want.tobytes()

    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            data = random_monic(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            recovered = detect_x_symmetric(reconstruct(data))
            assert recovered is not None
            np.testing.assert_array_equal(recovered.d, data.d)
            np.testing.assert_array_equal(recovered.A, data.A if data.m >= 2 else 0.0 * data.A)
            np.testing.assert_array_equal(recovered.B, data.B)

    def test_cross_term_polynomial(self):
        # ((1'x)^2 - x'x)(y'Ay) with A the swap expands to 4 x1 x2 y1 y2
        data = monic(2, SWAP)
        p = reconstruct(data)
        terms = {(t["i"], t["k"], t["j"], t["l"]): t["c"] for t in forms.form_to_dict(p)["terms"]}
        assert terms[(1, 2, 1, 2)] == pytest.approx(4.0)
        assert terms[(1, 1, 1, 1)] == terms[(2, 2, 2, 2)] == 1.0

    def test_evaluation_identity(self):
        rng = np.random.default_rng(1)
        data = XSymmetricData(3, np.array([1.0, 2.0, 0.5]), sym_uniform(rng, 3), sym_uniform(rng, 3, zero_diag=True))
        p = reconstruct(data)
        for _ in range(20):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            assert evaluate_xsym(data, x, y) == pytest.approx(evaluate(p, x, y), rel=1e-12, abs=1e-12)

    def test_zero_diagonal_round_trip(self):
        data = XSymmetricData(2, np.array([1.0, 0.0]), Z2, Z2)
        recovered = detect_x_symmetric(reconstruct(data))
        np.testing.assert_array_equal(recovered.d, [1.0, 0.0])

    def test_small_b_with_form_level_asymmetry(self):
        # The form accepts asymmetry up to 1e-12 * max|c|; B, much smaller
        # than max|c|, must not be judged asymmetric against its own scale.
        b = np.zeros((3, 3))
        b[0, 1] = b[1, 0] = 1e-3
        a = reconstruct(XSymmetricData(2, np.ones(3), np.zeros((3, 3)), b)).coeffs.copy()
        a[0, 0, 0, 1] += 1e-14
        recovered = detect_x_symmetric(forms.BiquadraticForm(2, 3, a))
        assert recovered is not None
        np.testing.assert_allclose(recovered.B, b, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("block", ["off-diagonal", "diagonal"])
    @pytest.mark.parametrize("ratio, detected", [(1.5, False), (0.5, True)])
    def test_perturbed_block_against_tolerance(self, block, ratio, detected):
        # One monomial of block (0, 2) or (1, 1), away from the blocks
        # (0, 1) and (0, 0) that A and B are read from, moves by ratio times
        # the match tolerance; its orbit keeps the tensor partially symmetric.
        a = reconstruct(random_monic(np.random.default_rng(3), 3, 3)).coeffs.copy()
        delta = ratio * 1e-10 * np.abs(a).max()
        i, k = (0, 2) if block == "off-diagonal" else (1, 1)
        for p, q, r, s in {(i, 0, k, 1), (i, 1, k, 0), (k, 0, i, 1), (k, 1, i, 0)}:
            a[p, q, r, s] += delta
        assert (detect_x_symmetric(forms.BiquadraticForm(3, 3, a)) is not None) == detected

    def test_b_diagonal_enforced(self):
        with pytest.raises(InvalidInput):
            XSymmetricData(2, np.ones(2), Z2, np.eye(2))

    def test_non_finite_coefficients_rejected(self):
        nan = np.array([[0.0, np.nan], [np.nan, 0.0]])
        for d, a, b in ((np.array([1.0, np.inf]), Z2, Z2), (np.ones(2), nan, Z2), (np.ones(2), Z2, nan)):
            with pytest.raises(InvalidInput, match="finite"):
                XSymmetricData(2, d, a, b)

    def test_batch_evaluation_and_scale_match_dense(self):
        rng = np.random.default_rng(12)
        for m, n in ((1, 3), (2, 2), (4, 3), (5, 1)):
            data = XSymmetricData(m, rng.uniform(-2.0, 2.0, n), 3.0 * sym_uniform(rng, n),
                                  sym_uniform(rng, n, zero_diag=True))
            p = reconstruct(data)
            xs = rng.standard_normal((50, m))
            ys = rng.standard_normal((50, n))
            np.testing.assert_allclose(data.evaluate_batch(xs, ys), forms.evaluate_batch(p, xs, ys),
                                       rtol=1e-12, atol=1e-12)
            assert data.max_abs_coeff() == forms.max_abs_coeff(p)
        with pytest.raises(InvalidInput, match="m and n must be positive"):
            XSymmetricData(3, np.zeros(0), np.zeros((0, 0)), np.zeros((0, 0)))


class TestCheckPsdMonic:
    def test_plain_squares(self):
        cert = check_psd_monic(XSymmetricData(2, np.ones(2), Z2, Z2))
        assert cert.psd
        np.testing.assert_allclose(cert.q.eigenvalues, [1.0, 1.0])
        np.testing.assert_allclose(cert.r.eigenvalues, [1.0, 1.0])

    def test_swap_coupling_is_psd(self):
        cert = check_psd_monic(monic(2, SWAP))
        assert cert.psd
        np.testing.assert_allclose(cert.q.eigenvalues, [2.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(cert.r.eigenvalues, [2.0, 0.0], atol=1e-14)

    def test_strong_coupling_not_psd(self):
        data = monic(2, 2.0 * SWAP)
        cert = check_psd_monic(data)
        assert not cert.psd
        x, y = cert.witness
        np.testing.assert_allclose(np.abs(x), [1.0, 1.0] / np.sqrt(2.0), atol=1e-14)
        np.testing.assert_allclose(np.abs(y), [1.0, 1.0] / np.sqrt(2.0), atol=1e-12)
        assert cert.evidence.value == pytest.approx(-1.0)
        assert evaluate(reconstruct(data), x, y) == pytest.approx(-1.0)

    def test_verdict_matches_sampling(self):
        from biquad.meig import psd_sample_check

        rng = np.random.default_rng(2)
        for _ in range(30):
            data = random_monic(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
            cert = check_psd_monic(data)
            p = reconstruct(data)
            if cert.psd:
                low, _ = psd_sample_check(p, samples=20000, seed=3)
                assert low >= -1e-8
            else:
                x, y = cert.witness
                assert evaluate(p, x, y) < -1e-10


class TestDecompositions:
    def test_plain_squares_naive(self):
        data = XSymmetricData(2, np.ones(2), Z2, Z2)
        dec = sos_decompose_naive(data)
        assert len(dec) == 4
        assert verify_sos(reconstruct(data), dec)[0]

    def test_swap_coupling_two_factors(self):
        data = monic(2, SWAP)
        dec = sos_decompose_naive(data)
        assert len(dec) == 2
        assert verify_sos(reconstruct(data), dec)[0]

    def test_m3_half_swap_five_factors(self):
        a = 0.5 * SWAP
        data = XSymmetricData(3, np.ones(2), a, Z2)
        # Q = I - A has eigenvalues (1.5, 0.5), R = I + 2A has (2, 0)
        dec = sos_decompose_naive(data)
        assert len(dec) == 5
        assert rank_bound(data) == 5
        assert verify_sos(reconstruct(data), dec)[0]

    def test_structured_counts(self):
        data = XSymmetricData(2, np.ones(2), Z2, Z2)
        assert len(sos_decompose_structured(data)) == 4
        data = monic(2, SWAP)
        dec = sos_decompose_structured(data)
        assert len(dec) == 2
        assert verify_sos(reconstruct(data), dec)[0]

    def test_structured_low_rank_count(self):
        rng = np.random.default_rng(4)
        data = random_psd_instance(5, 3, rng, rank_q=2, rank_r=3)
        dec = sos_decompose_structured(data)
        assert len(dec) == 3 + 4 * 2
        assert len(dec) == rank_bound(data)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("d", [2.0, 3.0])
    def test_rounding_zero_q_or_r_has_rank_0(self, d, sign):
        # d (x1 +- x2)^2 y^2: Q (sign 1) or R (sign -1) is zero; judged
        # against the pair's scale, not its own, it is PSD with rank 0.
        data = XSymmetricData(2, np.array([d]), np.array([[sign * d]]), np.zeros((1, 1)))
        cert = check_psd_monic(data)
        assert cert.psd and cert.scale == pytest.approx(2.0)
        assert rank_bound(data) == 1
        assert len(sos_decompose_structured(data)) == 1
        dec = sos_decompose_general(data)
        assert len(dec) == 1 and verify_sos(reconstruct(data), dec)[0]

    def test_not_psd_raises(self):
        data = monic(2, 2.0 * SWAP)
        with pytest.raises(NotPSD):
            sos_decompose_naive(data)
        with pytest.raises(NotPSD):
            sos_decompose_structured(data)

    def test_gram_agreement_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(2, 6))
            data = random_psd_instance(m, n, rng, rank_q=int(rng.integers(1, n + 1)), rank_r=int(rng.integers(1, n + 1)))
            g_naive = decomposition_gram(sos_decompose_naive(data))
            g_struct = decomposition_gram(sos_decompose_structured(data))
            scale = np.linalg.norm(g_naive)
            assert np.linalg.norm(g_naive - g_struct) <= 1e-9 * max(scale, 1.0)
            # both equal the assembled matrix
            assert np.linalg.norm(g_struct - assemble_m_matrix(data)) <= 1e-9 * max(scale, 1.0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.integers(1, 6), st.integers(1, 5), st.data())
    def test_structured_gram_equals_assembled(self, m, n, data):
        rank_q, rank_r = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
        seed = data.draw(st.integers(0, 2**32 - 1))
        instance = random_psd_instance(m, n, np.random.default_rng(seed), rank_q, rank_r)
        dec = sos_decompose_structured(instance)
        gram = sum(np.kron(forms.x_rows(xg, m).T @ forms.x_rows(xg, m), yg.T @ yg) for xg, yg in dec.groups)
        expected = assemble_m_matrix(instance)
        assert np.abs(gram - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_factor_ordering_deterministic(self):
        rng = np.random.default_rng(6)
        data = random_psd_instance(4, 3, rng)
        d1 = sos_decompose_structured(data)
        d2 = sos_decompose_structured(data)
        for w1, w2 in zip(d1.factors, d2.factors):
            np.testing.assert_array_equal(w1, w2)


class TestBlockStructure:
    def test_helmert_basis(self):
        for m in range(2, 8):
            v = helmert_basis(m)
            np.testing.assert_allclose(v.T @ v, np.eye(m - 1), atol=1e-12)
            np.testing.assert_allclose(np.ones(m) @ v, 0.0, atol=1e-12)

    def test_block_diagonalization(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(2, 5))
            data = random_monic(rng, m, n)
            pair = qr_pair(data)
            big = assemble_m_matrix(data)
            u = np.column_stack([np.full(m, 1.0 / np.sqrt(m)), helmert_basis(m)])
            rotated = np.kron(u.T, np.eye(n)) @ big @ np.kron(u, np.eye(n))
            expected = np.zeros_like(big)
            expected[:n, :n] = pair.R
            for b in range(1, m):
                expected[b * n:(b + 1) * n, b * n:(b + 1) * n] = pair.Q
            assert np.linalg.norm(rotated - expected) <= 1e-9 * np.linalg.norm(big)

    def test_rank_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(2, 5))
            data = random_psd_instance(m, n, rng, rank_q=int(rng.integers(1, n + 1)), rank_r=int(rng.integers(1, n + 1)))
            pair = qr_pair(data)
            expected = linalg.numerical_rank(pair.R) + (m - 1) * linalg.numerical_rank(pair.Q)
            assert linalg.numerical_rank(assemble_m_matrix(data)) == expected
            assert rank_bound(data) == expected


class TestReduceGeneral:
    """Non-unit, zero and negative weights, judged straight from Q and R."""

    def test_monic_identity(self):
        data = monic(2, SWAP)
        cert = check_psd_monic(data)
        np.testing.assert_array_equal(cert.kept, [0, 1])
        np.testing.assert_array_equal(cert.jacobi, [1.0, 1.0])
        pair = qr_pair(data)
        np.testing.assert_array_equal(cert.q.eigenvalues, linalg.sym_eig(pair.Q).eigenvalues)
        np.testing.assert_array_equal(cert.r.eigenvalues, linalg.sym_eig(pair.R).eigenvalues)

    def test_positive_scaling(self):
        # S Q S and S R S with S = diag(1/2, 1) are the Q and R of monic(2, SWAP).
        data = XSymmetricData(2, np.array([4.0, 1.0]), 2.0 * SWAP, Z2)
        cert = check_psd_monic(data)
        assert cert.psd
        np.testing.assert_array_equal(cert.jacobi, [0.5, 1.0])
        np.testing.assert_allclose(cert.q.eigenvalues, [2.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(cert.r.eigenvalues, [2.0, 0.0], atol=1e-14)

    def test_zero_weight_with_coupling_invalid(self):
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        data = XSymmetricData(2, np.array([1.0, 0.0]), Z2, b)
        cert = check_psd_monic(data)
        assert not cert.psd and cert.evidence.value < 0.0
        x, y = cert.witness
        assert evaluate(reconstruct(data), x, y) == pytest.approx(cert.evidence.value, rel=1e-9)

    def test_zero_weight_clean_drop(self):
        data = XSymmetricData(2, np.array([1.0, 0.0]), Z2, Z2)
        cert = check_psd_monic(data)
        assert cert.psd
        np.testing.assert_array_equal(cert.kept, [0])

    def test_negative_weight_invalid(self):
        # S Q S = diag(1, -1) with S = diag(1, sqrt 2): the witness is y = sqrt(2) e_2.
        data = XSymmetricData(2, np.array([1.0, -0.5]), Z2, Z2)
        cert = check_psd_monic(data)
        assert not cert.psd
        x, y = cert.witness
        assert cert.evidence.value == pytest.approx(-1.0)
        assert cert.evidence.value / (x @ x * y @ y) == pytest.approx(-0.5)

    def test_a_column_violation_invalid(self):
        a = np.array([[0.0, 0.3], [0.3, 0.0]])
        data = XSymmetricData(3, np.array([1.0, 0.0]), a, Z2)
        cert = check_psd_monic(data)
        assert not cert.psd
        assert evaluate(reconstruct(data), *cert.witness) < 0.0

    def test_a_diagonal_violation_invalid(self):
        a = np.array([[0.0, 0.0], [0.0, 0.4]])
        data = XSymmetricData(3, np.array([1.0, 0.0]), a, Z2)
        cert = check_psd_monic(data)
        assert not cert.psd
        assert evaluate(reconstruct(data), *cert.witness) < 0.0

    def test_all_zero_form(self):
        data = XSymmetricData(2, np.zeros(2), Z2, Z2)
        cert = check_psd_monic(data)
        assert cert.psd and cert.kept.size == 0 and cert.q.eigenvalues.size == cert.r.eigenvalues.size == 0
        assert rank_bound(data) == 0
        dec = sos_decompose_general(data)
        assert len(dec) == 0 and [y.shape for _, y in dec.groups] == [(0, 2), (0, 2)]
        assert verify_sos(reconstruct(data), dec)[0]


class TestDecomposeGeneral:
    def test_monic_matches_structured(self):
        data = monic(2, SWAP)
        d_gen = sos_decompose_general(data)
        d_str = sos_decompose_structured(data)
        np.testing.assert_allclose(decomposition_gram(d_gen), decomposition_gram(d_str), atol=1e-12)

    def test_scaled_instance(self):
        data = XSymmetricData(2, np.array([4.0, 1.0]), 2.0 * SWAP, Z2)
        dec = sos_decompose_general(data)
        assert len(dec) == 2
        ok, resid = verify_sos(reconstruct(data), dec)
        assert ok, resid

    def test_dropped_variable(self):
        data = XSymmetricData(2, np.array([1.0, 0.0]), Z2, Z2)
        dec = sos_decompose_general(data)
        assert len(dec) == 2
        for w in dec.factors:
            np.testing.assert_array_equal(w[:, 1], 0.0)
        assert verify_sos(reconstruct(data), dec)[0]

    def test_not_psd_raises(self):
        # A zero weight with a coupling and a negative weight (Q fails), and
        # A = -I with m = 3 (only R fails).  Every route raises NotPSD with
        # an InvalidReduction whose reason its message names.
        failing = (
            XSymmetricData(2, np.array([1.0, 0.0]), Z2, SWAP),
            XSymmetricData(2, np.array([1.0, -0.5]), Z2, Z2),
            XSymmetricData(3, np.ones(2), -np.eye(2), Z2),
        )
        routes = (sos_decompose_structured, sos_decompose_naive, rank_bound, sos_decompose_general)
        for data, matrix in zip(failing, "QQR"):
            for route in routes:
                with pytest.raises(NotPSD) as info:
                    route(data)
                witness = info.value.witness
                assert isinstance(witness, InvalidReduction) and witness.reason.startswith(f"{matrix} = ")
                assert str(info.value) == f"form is not PSD: {witness.reason}"
                assert witness.value < 0.0
                assert evaluate(reconstruct(data), witness.x, witness.y) == pytest.approx(witness.value, rel=1e-12)

    def test_random_scaled_corpus(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            base = random_psd_instance(m, n, rng)
            d = rng.uniform(0.3, 3.0, n)
            roots = np.sqrt(d)
            a = base.A * np.outer(roots, roots)
            b = base.B * np.outer(roots, roots)
            np.fill_diagonal(b, 0.0)
            data = XSymmetricData(m, d, a, b)
            dec = sos_decompose_general(data)
            ok, resid = verify_sos(reconstruct(data), dec)
            assert ok, resid

    def test_naive_route_takes_any_weights(self):
        data = scaled_with_zero(np.random.default_rng(10), 3, 3)
        dec = sos_decompose_naive(data)
        assert len(dec) == rank_bound(data)
        assert verify_sos(reconstruct(data), dec)[0]


def scaled_with_zero(rng, m, n):
    """PSD, non-monic, with weight 0 on the last y index."""
    base = random_psd_instance(m, n - 1, rng, rank_q=max(1, n - 2))
    roots = np.sqrt(rng.uniform(0.3, 3.0, n - 1))
    d, a, b = np.zeros(n), np.zeros((n, n)), np.zeros((n, n))
    d[:-1] = roots * roots
    a[:-1, :-1] = base.A * np.outer(roots, roots)
    b[:-1, :-1] = base.B * np.outer(roots, roots)
    np.fill_diagonal(b, 0.0)
    return XSymmetricData(m, d, a, b)


class TestGroupedDecomposition:
    def test_two_kronecker_groups(self):
        rng = np.random.default_rng(13)
        data = random_psd_instance(5, 3, rng, rank_q=2, rank_r=3)
        dec = sos_decompose_structured(data)
        assert isinstance(dec, GroupedSOSDecomposition)
        (x_r, y_r), (x_q, y_q) = dec.groups
        assert (x_r, x_q) == (forms.ONES, forms.HELMERT)
        np.testing.assert_array_equal(forms.x_rows(x_r, 5), np.full((1, 5), 1.0 / np.sqrt(5)))
        assert y_r.shape == (3, 3)
        np.testing.assert_array_equal(forms.x_rows(x_q, 5), helmert_basis(5).T)
        assert y_q.shape == (2, 3)
        assert len(dec) == len(dec.factors) == rank_bound(data)

    def test_m1_has_only_the_r_group(self):
        data = XSymmetricData(1, np.ones(2), Z2, 0.5 * SWAP)
        dec = sos_decompose_structured(data)
        assert len(dec.groups) == 1 and len(dec) == 2
        assert verify_sos(data, dec)[0]

    def test_dropped_index_is_an_exact_zero_column(self):
        rng = np.random.default_rng(14)
        data = scaled_with_zero(rng, 4, 3)
        dec = sos_decompose_structured(data)
        assert [x for x, _ in dec.groups] == [forms.ONES, forms.HELMERT]
        for _, y in dec.groups:
            np.testing.assert_array_equal(y[:, 2], 0.0)
        dense = SOSDecomposition(4, 3, dec.factors)
        assert verify_sos(data, dec)[0] and verify_sos(reconstruct(data), dense)[0]

    def test_format_2_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        dec = sos_decompose_general(scaled_with_zero(rng, 6, 4))
        path = tmp_path / "dec.json"
        forms.save_decomposition(dec, str(path))
        record = json.loads(path.read_text())
        assert record["format"] == 2 and set(record) == {"format", "m", "n", "groups"}
        assert [set(g) for g in record["groups"]] == [{"x", "y"}, {"x", "y"}]
        assert [g["x"] for g in record["groups"]] == ["ones", "helmert"]
        loaded = forms.load_decomposition(str(path))
        assert isinstance(loaded, GroupedSOSDecomposition) and len(loaded) == len(dec)
        for w_loaded, w in zip(loaded.factors, dec.factors, strict=True):
            np.testing.assert_array_equal(w_loaded, w)

    def test_dense_format_still_loads(self, tmp_path):
        rng = np.random.default_rng(16)
        data = random_psd_instance(3, 2, rng)
        dense = sos_decompose_naive(data)
        path = tmp_path / "dense.json"
        forms.save_decomposition(dense, str(path))
        assert "format" not in json.loads(path.read_text())
        loaded = forms.load_decomposition(str(path))
        assert isinstance(loaded, SOSDecomposition)
        for w_loaded, w in zip(loaded.factors, dense.factors, strict=True):
            np.testing.assert_array_equal(w_loaded, w)

    def test_unknown_format_rejected(self):
        with pytest.raises(InvalidInput):
            forms.decomposition_from_dict({"format": 3, "m": 1, "n": 1, "groups": []})
        with pytest.raises(InvalidInput):
            forms.decomposition_from_dict({"format": 2, "m": 2, "n": 1, "groups": [{"x": [[1.0]], "y": [[1.0]]}]})
        with pytest.raises(InvalidInput, match="unknown group basis"):
            forms.decomposition_from_dict({"format": 2, "m": 2, "n": 1, "groups": [{"x": "ones!", "y": [[1.0]]}]})

    @pytest.mark.parametrize(
        "record",
        [
            {"m": 2.5, "n": 1, "factors": [[1.0, 2.0]]},
            {"m": 1, "n": float("inf"), "factors": [[1.0]]},
            {"format": 2, "m": 2.5, "n": 1, "groups": [{"x": [[1.0, 2.0]], "y": [[1.0]]}]},
            {"format": 2, "m": 2, "n": 1.5, "groups": [{"x": "helmert", "y": [[1.0]]}]},
        ],
    )
    def test_non_integral_dimensions_rejected(self, record):
        with pytest.raises(InvalidInput, match="integer"):
            forms.decomposition_from_dict(record)

    def test_explicit_helmert_rows_are_rejected(self, tmp_path, capsys):
        # Format-2 files written before the X tags spell out both bases, indented.
        m, n = 5, 3
        data = scaled_with_zero(np.random.default_rng(18), m, n)
        (_, y_r), (_, y_q) = sos_decompose_general(data).groups
        rows = [np.full((1, m), 1.0 / np.sqrt(m)), helmert_basis(m).T]
        record = {
            "format": 2, "m": m, "n": n,
            "groups": [{"x": x.tolist(), "y": y.tolist()} for x, y in zip(rows, (y_r, y_q))],
        }
        path = tmp_path / "explicit.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        message = "malformed decomposition record: explicit X rows are no longer accepted"
        with pytest.raises(InvalidInput, match=message):
            forms.load_decomposition(str(path))
        form = tmp_path / "data.json"
        form.write_text(json.dumps({"m": m, "d": data.d.tolist(), "A": data.A.tolist(), "B": data.B.tolist()}))
        assert main(["verify", str(form), str(path), "--json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "error" and out["payload"]["error"].startswith(message)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(m=st.integers(1, 9), n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_tagged_file_round_trip(self, tmp_path_factory, m, n, seed):
        data = scaled_with_zero(np.random.default_rng(seed), m, n)
        dec = sos_decompose_general(data)
        path = tmp_path_factory.getbasetemp() / "tagged.json"
        forms.save_decomposition(dec, str(path))
        assert [g["x"] for g in json.loads(path.read_text())["groups"]] == ["ones", "helmert"][: min(m, 2)]
        loaded = forms.load_decomposition(str(path))
        for w_loaded, w in zip(loaded.factors, dec.factors, strict=True):
            assert w_loaded.tobytes() == w.tobytes()
        assert verify_sos(data, loaded) == verify_sos(data, dec)
        assert verify_sos(data, loaded)[0]

    def test_grouped_and_dense_verification_agree(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m, n = int(rng.integers(1, 7)), int(rng.integers(2, 6))
            data = scaled_with_zero(rng, m, n)
            dec = sos_decompose_general(data)
            dense_dec = SOSDecomposition(m, n, dec.factors)
            wrong = GroupedSOSDecomposition(m, n, tuple((x, 1.001 * y) for x, y in dec.groups))
            bound = 1e-12 * data.max_abs_coeff()
            for candidate in (dec, wrong):
                results = [
                    verify_sos(data, candidate, seed=3),
                    verify_sos(reconstruct(data), candidate, seed=3),
                    verify_sos(reconstruct(data), SOSDecomposition(m, n, candidate.factors), seed=3),
                ]
                assert len({ok for ok, _ in results}) == 1
                resids = [r for _, r in results]
                assert max(resids) - min(resids) <= bound
            assert verify_sos(data, dec, seed=3)[0]
            assert not verify_sos(data, wrong, seed=3)[0]
            assert forms.evaluate_sos(dec, np.ones(m), np.ones(n)) == pytest.approx(
                forms.evaluate_sos(dense_dec, np.ones(m), np.ones(n)), rel=1e-12)


    def test_one_orbit_off_by_ten_bounds_is_rejected(self):
        # 1000 sphere samples read this residual as 8.2e-9 * max|c| and passed it.
        data = random_psd_instance(40, 10, np.random.default_rng(2026))
        dec = sos_decompose_structured(data)
        raw = reconstruct(data).coeffs.copy()
        delta = 1e-7 * data.max_abs_coeff()
        for idx in ((0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 0)):
            raw[idx] += delta
        ok, resid = verify_sos(forms.BiquadraticForm(40, 10, raw), dec)
        assert not ok and resid == pytest.approx(delta, rel=1e-6)
        assert verify_sos(data, dec)[0]

    def test_slack_covers_the_dropped_eigenvalues(self):
        # Q has an eigenvalue of -0.9 eps * scale, which the PSD test accepts
        # and the decomposition drops; the coefficients are then off by more
        # than 1e-8 * max|c| but within the certificate's slack.
        m, n = 60, 4
        q = np.diag([1.0, 1.0, 1.0, 0.0])
        r = np.diag([1.0, 1.0, 1.0, float(m)])
        q[3, 3] = -0.9e-9 * m
        r[3, 3] -= (m - 1) * q[3, 3]
        b = (r + (m - 1) * q) / m - np.eye(n)
        np.fill_diagonal(b, 0.0)
        data = XSymmetricData(m, np.ones(n), (r - q) / m, b)
        cert = check_psd_monic(data)
        assert cert.psd and cert.slack == pytest.approx(1e-9 * cert.scale)
        dec = sos_decompose_structured(data, cert=cert)
        ok, resid = verify_sos(data, dec)
        assert not ok and resid > 1e-8 * data.max_abs_coeff()
        assert verify_sos(data, dec, slack=cert.slack) == (True, resid)
        assert check_psd_monic(XSymmetricData(m, -data.d, -data.A, -data.B)).slack == 0.0


class TestWitnessProperty:
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        m=st.integers(1, 4),
        n=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
        zero=st.lists(st.booleans(), min_size=4, max_size=4),
        clean=st.booleans(),
        coupling=st.floats(0.05, 2.0),
    )
    def test_not_psd_witness_in_original_variables(self, tmp_path_factory, m, n, seed, zero, clean, coupling):
        # Non-monic (m, d, A, B) with some zero weights; the Jacobi-scaled
        # A and B are coupling-scaled standard normal.  When ``clean``, the
        # zero-weight rows of A and B vanish too, so the test drops them.
        rng = np.random.default_rng(seed)
        dropped = np.asarray(zero[:n])
        d = np.where(dropped, 0.0, rng.uniform(0.01, 100.0, n))
        root = np.sqrt(np.where(dropped & (not clean), 1.0, d))
        a = coupling * np.outer(root, root) * rng.standard_normal((n, n))
        b = coupling * np.outer(root, root) * rng.standard_normal((n, n))
        np.fill_diagonal(b, 0.0)
        data = XSymmetricData(m, d, 0.5 * (a + a.T), 0.5 * (b + b.T))
        try:
            sos_decompose_general(data)
            verdict = "PSD"
        except NotPSD as exc:
            verdict = "NotPSD"
            witness = exc.witness
            assert isinstance(witness, InvalidReduction)
            assert witness.x.shape == (m,) and witness.y.shape == (n,)
            assert evaluate(reconstruct(data), witness.x, witness.y) < 0.0
        path = tmp_path_factory.getbasetemp() / "witness-property.json"
        path.write_text(json.dumps({"m": m, "d": data.d.tolist(), "A": data.A.tolist(), "B": data.B.tolist()}))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["check-psd", str(path), "--json"])
        assert json.loads(out.getvalue())["payload"]["verdict"] == verdict
        assert code == (0 if verdict == "PSD" else 2)


def weighted_instance(m, n, seed, kind, exponent):
    """A PSD instance weighted by d_j = 10^U(-4, 4), as is or with index 0
    zeroed, then given a coupling in B or A, a negative weight, or a
    perturbation of A, each of size 10^exponent relative to the form."""
    rng = np.random.default_rng(seed)
    base = random_psd_instance(m, n, rng, rank_q=int(rng.integers(1, n + 1)), rank_r=int(rng.integers(1, n + 1)))
    root = 10.0 ** rng.uniform(-2.0, 2.0, n)
    d, a, b = root * root, base.A * np.outer(root, root), base.B * np.outer(root, root)
    np.fill_diagonal(b, 0.0)
    if kind != "as-is":
        d[0] = 0.0
        a[0, :] = a[:, 0] = b[0, :] = b[:, 0] = 0.0
    size = 10.0 ** exponent * XSymmetricData(m, d, a, b).max_abs_coeff()
    if kind == "b-coupling":
        b[0, 1] = b[1, 0] = size
    elif kind == "a-coupling":
        a[0, 1] = a[1, 0] = size
    elif kind == "negative":
        d[0] = -(10.0 ** exponent) * np.abs(d).max()
    elif kind == "perturbed":
        a = a + size * sym_uniform(rng, n)
    return XSymmetricData(m, d, a, b)


WEIGHT_KINDS = ("as-is", "zero", "b-coupling", "a-coupling", "negative", "perturbed")


class TestGeneralWeights:
    """The Q/R rule on general (d, A, B): zero, negative and positive
    weights over 10^[-4, 4]."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(
        m=st.integers(1, 5),
        n=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(WEIGHT_KINDS),
        exponent=st.floats(-14.0, 0.0),
    )
    def test_witness_or_verified_decomposition(self, m, n, seed, kind, exponent):
        data = weighted_instance(m, n, seed, kind, exponent)
        form = reconstruct(data)
        cert = check_psd_monic(data)
        if not cert.psd:
            x, y = cert.witness
            assert evaluate(form, x / np.linalg.norm(x), y / np.linalg.norm(y)) < 0.0
            return
        dec = sos_decompose_general(data)
        assert len(dec) == rank_bound(data)
        assert verify_sos(form, dec)[0]
        dropped = np.setdiff1d(np.arange(n), cert.kept)
        for _, y in dec.groups:
            np.testing.assert_array_equal(y[:, dropped], 0.0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        m=st.integers(1, 5),
        n=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(("as-is", "perturbed")),
        exponent=st.floats(-3.0, 0.0),
    )
    def test_verdict_and_count_invariant_under_y_scaling(self, m, n, seed, kind, exponent):
        # P(x, Cy) has weights c_j^2 d_j and C A C, C B C; with every weight
        # above the zero cutoff, S Q S and S R S do not change.
        data = weighted_instance(m, n, seed, kind, exponent)
        c = 10.0 ** np.random.default_rng(seed + 1).uniform(-3.0, 3.0, n)
        scaled = XSymmetricData(m, c * c * data.d, data.A * np.outer(c, c), data.B * np.outer(c, c))
        for weights in (data.d, scaled.d):
            assume(weights.min() > linalg.COEFF_TOL * weights.max())
        cert, cert_scaled = check_psd_monic(data), check_psd_monic(scaled)
        assert cert.psd == cert_scaled.psd
        if cert.psd:
            assert rank_bound(data) == rank_bound(scaled)
            assert len(sos_decompose_general(data)) == len(sos_decompose_general(scaled))
