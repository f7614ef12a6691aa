import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquad import forms, linalg
from biquad.cli import main
from biquad.errors import InvalidInput, NotPSD
from biquad.forms import GroupedSOSDecomposition, SOSDecomposition, evaluate, verify_sos
from biquad.partsym import (
    InvalidReduction,
    MonicReduction,
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
    reduce_general,
    sos_decompose_general,
    sos_decompose_naive,
    sos_decompose_structured,
    undo_reduction,
)
from conftest import random_monic, sym_uniform

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
Z2 = np.zeros((2, 2))


def monic(m, A, B=None):
    n = A.shape[0]
    return XSymmetricData(m, np.ones(n), A, Z2 if (B is None and n == 2) else (B if B is not None else np.zeros((n, n))))


def decomposition_gram(dec):
    if not dec.factors:
        return np.zeros((dec.m * dec.n, dec.m * dec.n))
    stack = np.stack([w.ravel() for w in dec.factors])
    return stack.T @ stack


class TestDetectReconstruct:
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
        terms = {(t.i, t.k, t.j, t.l): t.c for t in forms.to_terms(p)}
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
        empty = XSymmetricData(3, np.zeros(0), np.zeros((0, 0)), np.zeros((0, 0)))
        assert empty.max_abs_coeff() == 0.0


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
        assert cert.witness_value == pytest.approx(-1.0)
        assert evaluate(reconstruct(data), x, y) == pytest.approx(-1.0)

    def test_non_monic_rejected(self):
        data = XSymmetricData(2, np.array([1.0, 2.0]), Z2, Z2)
        with pytest.raises(InvalidInput):
            check_psd_monic(data)

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
        # Reducing d (x1 +- x2)^2 y^2 leaves Q (sign 1) or R (sign -1) at
        # +-2.2e-16 instead of 0; judged against the pair's scale it is PSD
        # with rank 0.
        data = XSymmetricData(2, np.array([d]), np.array([[sign * d]]), np.zeros((1, 1)))
        monic_data = reduce_general(data).monic
        cert = check_psd_monic(monic_data)
        assert cert.psd and cert.scale == pytest.approx(2.0)
        assert rank_bound(monic_data) == 1
        assert len(sos_decompose_structured(monic_data)) == 1
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
    def test_monic_identity(self):
        data = monic(2, SWAP)
        red = reduce_general(data)
        assert isinstance(red, MonicReduction)
        assert red.active == (0, 1)
        np.testing.assert_allclose(red.scale, [1.0, 1.0])
        np.testing.assert_array_equal(red.monic.A, data.A)

    def test_positive_scaling(self):
        data = XSymmetricData(2, np.array([4.0, 1.0]), 2.0 * SWAP, Z2)
        red = reduce_general(data)
        assert isinstance(red, MonicReduction)
        np.testing.assert_allclose(red.monic.A, SWAP, atol=1e-14)
        np.testing.assert_allclose(red.scale, [2.0, 1.0])

    def test_zero_weight_with_coupling_invalid(self):
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        data = XSymmetricData(2, np.array([1.0, 0.0]), Z2, b)
        red = reduce_general(data)
        assert isinstance(red, InvalidReduction)
        assert red.value < 0.0
        assert evaluate(reconstruct(data), red.x, red.y) == pytest.approx(red.value, rel=1e-9)

    def test_zero_weight_clean_drop(self):
        data = XSymmetricData(2, np.array([1.0, 0.0]), Z2, Z2)
        red = reduce_general(data)
        assert isinstance(red, MonicReduction)
        assert red.active == (0,)

    def test_negative_weight_invalid(self):
        data = XSymmetricData(2, np.array([1.0, -0.5]), Z2, Z2)
        red = reduce_general(data)
        assert isinstance(red, InvalidReduction)
        assert red.value == pytest.approx(-0.5)

    def test_a_column_violation_invalid(self):
        a = np.array([[0.0, 0.3], [0.3, 0.0]])
        data = XSymmetricData(3, np.array([1.0, 0.0]), a, Z2)
        red = reduce_general(data)
        assert isinstance(red, InvalidReduction)
        assert evaluate(reconstruct(data), red.x, red.y) < 0.0

    def test_a_diagonal_violation_invalid(self):
        a = np.array([[0.0, 0.0], [0.0, 0.4]])
        data = XSymmetricData(3, np.array([1.0, 0.0]), a, Z2)
        red = reduce_general(data)
        assert isinstance(red, InvalidReduction)
        assert evaluate(reconstruct(data), red.x, red.y) < 0.0

    def test_all_zero_form(self):
        data = XSymmetricData(2, np.zeros(2), Z2, Z2)
        red = reduce_general(data)
        assert isinstance(red, MonicReduction)
        assert red.active == ()


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
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        data = XSymmetricData(2, np.array([1.0, 0.0]), Z2, b)
        with pytest.raises(NotPSD):
            sos_decompose_general(data)

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

    def test_naive_path_through_reduction(self):
        data = XSymmetricData(2, np.array([4.0, 1.0]), 2.0 * SWAP, Z2)
        red = reduce_general(data)
        dec = undo_reduction(red, sos_decompose_naive(red.monic), 2, 2)
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

    def test_undo_scatters_y_rows_only(self):
        rng = np.random.default_rng(14)
        data = scaled_with_zero(rng, 4, 3)
        red = reduce_general(data)
        monic_dec = sos_decompose_structured(red.monic)
        dec = undo_reduction(red, monic_dec, 4, 3)
        for (x0, y0), (x1, y1) in zip(monic_dec.groups, dec.groups):
            assert x1 is x0
            np.testing.assert_array_equal(y1[:, :2], y0 * red.scale[:2])
            np.testing.assert_array_equal(y1[:, 2], 0.0)
        dense = undo_reduction(red, SOSDecomposition(4, 2, monic_dec.factors), 4, 3)
        for w_grouped, w_dense in zip(dec.factors, dense.factors, strict=True):
            np.testing.assert_allclose(w_grouped, w_dense, rtol=1e-15, atol=0.0)

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

    def test_explicit_helmert_rows_still_load(self, tmp_path):
        # Format-2 files written before the X tags spell out both bases, indented.
        m, n = 5, 3
        data = scaled_with_zero(np.random.default_rng(18), m, n)
        dec = sos_decompose_general(data)
        (_, y_r), (_, y_q) = dec.groups
        rows = [np.full((1, m), 1.0 / np.sqrt(m)), helmert_basis(m).T]
        record = {
            "format": 2, "m": m, "n": n,
            "groups": [{"x": x.tolist(), "y": y.tolist()} for x, y in zip(rows, (y_r, y_q))],
        }
        path = tmp_path / "explicit.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        loaded = forms.load_decomposition(str(path))
        assert len(loaded) == len(dec)
        for w_loaded, w in zip(loaded.factors, dec.factors, strict=True):
            np.testing.assert_array_equal(w_loaded, w)
        assert verify_sos(data, loaded)[0]

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
        # Non-monic (m, d, A, B) with some zero weights; the reduced monic
        # form has coupling-scaled standard normal A and B.  When ``clean``,
        # the zero-weight rows of A and B vanish too, so the reduction drops
        # them and the Q/R test of the reduced form decides the verdict.
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
