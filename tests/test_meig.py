import numpy as np
import pytest

from biquad.errors import InvalidInput
from biquad.forms import evaluate, symmetrize
from biquad.meig import contract_x, contract_y, meig_solve, psd_sample_check
from biquad.partsym import XSymmetricData, check_psd_monic, qr_pair, random_psd_instance, reconstruct
from biquad.simple import SupportSet, gen_simple, to_form
from conftest import random_monic

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
Z2 = np.zeros((2, 2))


def num_grad_x(form, x, y, h=1e-6):
    g = np.zeros(form.m)
    for i in range(form.m):
        e = np.zeros(form.m)
        e[i] = h
        g[i] = (evaluate(form, x + e, y) - evaluate(form, x - e, y)) / (2 * h)
    return g


def num_grad_y(form, x, y, h=1e-6):
    g = np.zeros(form.n)
    for j in range(form.n):
        e = np.zeros(form.n)
        e[j] = h
        g[j] = (evaluate(form, x, y + e) - evaluate(form, x, y - e)) / (2 * h)
    return g


class TestContractions:
    def test_scalar(self):
        form = symmetrize(np.full((1, 1, 1, 1), 1.0))
        np.testing.assert_allclose(contract_x(form, [1.0], [1.0]), [1.0])
        np.testing.assert_allclose(contract_y(form, [1.0], [1.0]), [1.0])

    def test_zero_vector_annihilates(self):
        rng = np.random.default_rng(0)
        form = symmetrize(rng.standard_normal((3, 2, 3, 2)))
        np.testing.assert_array_equal(contract_x(form, rng.standard_normal(3), np.zeros(2)), np.zeros(3))
        np.testing.assert_array_equal(contract_y(form, np.zeros(3), rng.standard_normal(2)), np.zeros(2))

    def test_contraction_recovers_value(self):
        rng = np.random.default_rng(1)
        form = symmetrize(rng.standard_normal((3, 4, 3, 4)))
        for _ in range(10):
            x = rng.standard_normal(3)
            y = rng.standard_normal(4)
            val = evaluate(form, x, y)
            assert x @ contract_x(form, x, y) == pytest.approx(val, rel=1e-12)
            assert y @ contract_y(form, x, y) == pytest.approx(val, rel=1e-12)

    def test_gradient_identity(self):
        # gradient of P in x is 2 * contract_x; finite differences as oracle
        rng = np.random.default_rng(2)
        form = symmetrize(rng.standard_normal((2, 2, 2, 2)))
        for _ in range(5):
            x = rng.standard_normal(2)
            y = rng.standard_normal(2)
            np.testing.assert_allclose(2.0 * contract_x(form, x, y), num_grad_x(form, x, y), atol=1e-6)
            np.testing.assert_allclose(2.0 * contract_y(form, x, y), num_grad_y(form, x, y), atol=1e-6)

    def test_dimension_mismatch(self):
        form = to_form(gen_simple(2, 2, 3))
        with pytest.raises(InvalidInput):
            contract_x(form, [1.0, 2.0, 3.0], [1.0, 1.0])

    def test_matches_einsum_reference(self):
        rng = np.random.default_rng(3)
        form = symmetrize(rng.standard_normal((3, 4, 3, 4)))
        x, y = rng.standard_normal(3), rng.standard_normal(4)
        np.testing.assert_allclose(
            contract_x(form, x, y), np.einsum("ijkl,j,k,l->i", form.coeffs, y, x, y), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            contract_y(form, x, y), np.einsum("ijkl,i,k,l->j", form.coeffs, x, x, y), rtol=1e-12, atol=1e-12)


class TestMeigSolve:
    def test_all_squares_single_eigenvalue(self):
        form = to_form(gen_simple(3, 3, 9))
        pairs = meig_solve(form, restarts=6, seed=0)
        assert pairs
        for p in pairs:
            assert p.eigenvalue == pytest.approx(1.0, abs=1e-8)

    def test_swap_coupling_spectrum(self):
        data = XSymmetricData(2, np.ones(2), SWAP, Z2)
        form = reconstruct(data)
        pairs = meig_solve(form, restarts=10, seed=0)
        for p in pairs:
            assert min(abs(p.eigenvalue - 0.0), abs(p.eigenvalue - 2.0)) <= 1e-8

    def test_2_2_3_zero_attained(self):
        form = to_form(gen_simple(2, 2, 3))
        pairs = meig_solve(form, restarts=10, seed=0)
        assert pairs[0].eigenvalue == pytest.approx(0.0, abs=1e-10)
        assert all(p.eigenvalue >= -1e-10 for p in pairs)
        zero = pairs[0]
        np.testing.assert_allclose(np.abs(zero.x), [0.0, 1.0], atol=1e-8)
        np.testing.assert_allclose(np.abs(zero.y), [1.0, 0.0], atol=1e-8)

    def test_residual_invariants(self):
        rng = np.random.default_rng(3)
        form = reconstruct(random_monic(rng, 3, 3))
        for p in meig_solve(form, restarts=8, seed=1):
            assert np.linalg.norm(p.x) == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.norm(p.y) == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.norm(contract_x(form, p.x, p.y) - p.eigenvalue * p.x) <= 1e-8
            assert np.linalg.norm(contract_y(form, p.x, p.y) - p.eigenvalue * p.y) <= 1e-8
            assert evaluate(form, p.x, p.y) == pytest.approx(p.eigenvalue, abs=1e-8)

    def test_eigenvalues_inside_qr_spectra(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            data = random_psd_instance(3, 3, rng)
            pair = qr_pair(data)
            allowed = np.concatenate([np.linalg.eigvalsh(pair.Q), np.linalg.eigvalsh(pair.R)])
            for p in meig_solve(reconstruct(data), restarts=8, seed=5):
                assert np.min(np.abs(allowed - p.eigenvalue)) <= 1e-6

    def test_scale_equivariance(self):
        form = to_form(gen_simple(2, 2, 3))
        scaled = symmetrize(3.0 * form.coeffs)
        base = meig_solve(form, restarts=6, seed=6)
        big = meig_solve(scaled, restarts=6, seed=6)
        np.testing.assert_allclose(
            [p.eigenvalue for p in big], [3.0 * p.eigenvalue for p in base], atol=1e-8
        )

    def test_size_cap(self):
        form = to_form(SupportSet(9, 1, tuple((i, 1) for i in range(1, 10))))
        with pytest.raises(InvalidInput):
            meig_solve(form, restarts=1, seed=0)

    def test_sorted_output(self):
        rng = np.random.default_rng(7)
        form = reconstruct(random_monic(rng, 3, 2))
        values = [p.eigenvalue for p in meig_solve(form, restarts=8, seed=2)]
        assert values == sorted(values)


class TestPsdSampleCheck:
    def test_sos_form_nonnegative(self):
        form = to_form(gen_simple(3, 2, 4))
        low, _ = psd_sample_check(form, samples=20000, seed=0)
        assert low >= -1e-12

    def test_finds_negativity(self):
        data = XSymmetricData(2, np.ones(2), 2.0 * SWAP, Z2)
        low, (x, y) = psd_sample_check(reconstruct(data), samples=20000, seed=0)
        assert low < -0.5
        assert evaluate(reconstruct(data), x, y) == pytest.approx(low, rel=1e-9)

    def test_zero_form(self):
        form = to_form(SupportSet(2, 2, ()))
        low, _ = psd_sample_check(form, samples=1000, seed=0)
        assert low == 0.0

    def test_deterministic(self):
        form = to_form(gen_simple(2, 2, 3))
        a = psd_sample_check(form, samples=5000, seed=9)
        b = psd_sample_check(form, samples=5000, seed=9)
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1][0], b[1][0])

    def test_polish_beats_raw_sampling(self):
        # polished minimum of a PSD-with-zero form reaches (near) zero
        data = XSymmetricData(2, np.ones(2), SWAP, Z2)
        low, _ = psd_sample_check(reconstruct(data), samples=2000, seed=1)
        assert -1e-10 <= low <= 1e-6
