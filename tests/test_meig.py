import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquad import meig
from biquad.errors import InvalidInput
from biquad.forms import evaluate, max_abs_coeff, symmetrize
from biquad.meig import contract_x, contract_y, meig_solve, min_probe, psd_sample_check
from biquad.partsym import XSymmetricData, check_psd_monic, qr_pair, random_psd_instance, reconstruct
from biquad.simple import SupportSet, gen_simple, to_form
from conftest import random_monic

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
Z2 = np.zeros((2, 2))


def planted_form(m, n, r, seed, scale=1.0):
    """Sum of r random bilinear squares, times scale."""
    w = np.random.default_rng(seed).standard_normal((r, m, n))
    return symmetrize(scale * np.einsum("pij,pkl->ijkl", w, w))


def benchmark_planted_3x2():
    """The planted 3 x 2 r = 3 form of the general-rank benchmark workload:
    the third draw from default_rng(2026), after a 2 x 2 r = 2 and r = 3."""
    rng = np.random.default_rng(2026)
    for m, n, r in ((2, 2, 2), (2, 2, 3), (3, 2, 3)):
        w = rng.standard_normal((r, m, n))
    return symmetrize(np.einsum("pij,pkl->ijkl", w, w))


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

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_fewer_than_one_restart_rejected(self, restarts):
        with pytest.raises(InvalidInput, match=f"restarts must be at least 1, got {restarts}"):
            meig_solve(to_form(gen_simple(3, 3, 5)), restarts=restarts, seed=0)

    def test_sorted_output(self):
        rng = np.random.default_rng(7)
        form = reconstruct(random_monic(rng, 3, 2))
        values = [p.eigenvalue for p in meig_solve(form, restarts=8, seed=2)]
        assert values == sorted(values)


class TestBatchedSolve:
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        m=st.integers(2, 4),
        n=st.integers(2, 4),
        planted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
    )
    def test_pairs_are_extreme_fixed_points(self, m, n, planted, seed, scale):
        if planted:
            form = planted_form(m, n, int(np.random.default_rng(seed).integers(1, m * n)), seed, scale)
        else:
            form = symmetrize(scale * np.random.default_rng(seed).standard_normal((m, n, m, n)))
        c = max_abs_coeff(form)
        tol = 1e-10
        pairs = meig_solve(form, restarts=6, seed=seed % 1000, tol=tol)
        assert pairs
        for p in pairs:
            assert abs(np.linalg.norm(p.x) - 1.0) <= 1e-10
            assert abs(np.linalg.norm(p.y) - 1.0) <= 1e-10
            assert p.residual_x <= tol * c and p.residual_y <= tol * c
            assert np.linalg.norm(contract_x(form, p.x, p.y) - p.eigenvalue * p.x) <= 2 * tol * c
            assert np.linalg.norm(contract_y(form, p.x, p.y) - p.eigenvalue * p.y) <= 2 * tol * c
            assert abs(evaluate(form, p.x, p.y) - p.eigenvalue) <= 1e-8 * c
            g = np.linalg.eigvalsh(np.einsum("ijkl,j,l->ik", form.coeffs, p.y, p.y))
            h = np.linalg.eigvalsh(np.einsum("ijkl,i,k->jl", form.coeffs, p.x, p.x))
            lowest = p.eigenvalue <= g[0] + 1e-8 * c and p.eigenvalue <= h[0] + 1e-8 * c
            highest = p.eigenvalue >= g[-1] - 1e-8 * c and p.eigenvalue >= h[-1] - 1e-8 * c
            assert lowest or highest
            if planted:
                assert p.eigenvalue >= -1e-8 * c

    def test_planted_3x2_real_zero_found(self):
        # P has a real zero, so its least M-eigenvalue is 0; alternating
        # eigensteps alone approach it too slowly to converge
        form = benchmark_planted_3x2()
        pairs = meig_solve(form, restarts=20, seed=0)
        assert abs(pairs[0].eigenvalue) <= 1e-8 * max_abs_coeff(form)

    def test_bit_identical_across_repeats(self):
        form = planted_form(4, 3, 5, seed=2026)
        runs, ballast = set(), []
        for t in range(4):
            ballast.append(np.ones(997 * (t + 1)))
            pairs = meig_solve(form, restarts=10, seed=3)
            runs.add(tuple((p.eigenvalue, p.x.tobytes(), p.y.tobytes(), p.residual_x, p.residual_y) for p in pairs))
        assert len(runs) == 1
        # Every y0 is the one drawn after a normalised x row that is dropped.
        for m, n in ((1, 1), (2, 3), (8, 8), (5, 2)):
            shape = symmetrize(np.zeros((m, n, m, n)))
            for seed in range(50):
                expected = np.empty((20, n))
                for r in range(20):
                    rng = np.random.default_rng([seed, r])
                    meig._unit_rows(rng, 1, m)
                    expected[r] = meig._unit_rows(rng, 1, n)[0]
                assert meig._seeded_starts(shape, 20, seed).tobytes() == expected.tobytes()

    def test_eigen_solves_are_batched(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k))
        meig_solve(benchmark_planted_3x2(), restarts=20, seed=0)
        assert 0 < len(calls) <= 64

    def test_polish_rejects_a_pair_that_is_not_extreme(self):
        # P = x1^2 y1^2 + 2 x1^2 y2^2 + 5 x2^2 y2^2: (e1, e1) is an M-eigenpair
        # with lambda = 1, the largest eigenvalue of G(e1) = diag(1, 0) but
        # the smallest of H(e1) = diag(1, 2), so neither targeted map fixes it
        raw = np.zeros((2, 2, 2, 2))
        for (i, j), a in np.ndenumerate(np.array([[1.0, 2.0], [0.0, 5.0]])):
            raw[i, j, i, j] = a
        near = np.array([[0.999, 0.03], [0.999, 0.03]])
        starts = meig._Starts(near, 2)
        starts.x[:] = near
        meig._polish(meig._Contractor(raw), starts, np.arange(2), np.array([0, -1]), 1e-10, 20)
        np.testing.assert_allclose(starts.lam, 1.0, atol=1e-12)
        assert (starts.rx <= 1e-10).all() and (starts.ry <= 1e-10).all()
        assert not starts.converged.any()

    def test_polish_drops_a_singular_system(self):
        # P = -x1^2 y1^2 + x2^2 y1 y2 at x = e2, y = e1: H(x)y - lambda y = (0, 1/2),
        # and the Newton system there is exactly singular
        raw = np.zeros((2, 2, 2, 2))
        raw[0, 0, 0, 0], raw[1, 1, 1, 0] = -1.0, 1.0
        starts = meig._Starts(np.array([[1.0, 0.0]]), 2)
        starts.x[:] = [0.0, 1.0]
        meig._polish(meig._Contractor(symmetrize(raw).coeffs), starts, np.arange(1), np.array([0]), 1e-10, 20)
        assert starts.ry[0] == pytest.approx(0.5)
        assert not starts.converged[0]

    def test_pair_count_is_scale_invariant(self):
        base = planted_form(3, 2, 3, seed=2026)
        reference = [p.eigenvalue for p in meig_solve(base)]
        for scale in (1e-12, 1e-6, 1e6, 1e12):
            values = [p.eigenvalue / scale for p in meig_solve(symmetrize(scale * base.coeffs))]
            assert len(values) == len(reference)
            np.testing.assert_allclose(values, reference, rtol=0, atol=1e-8 * max_abs_coeff(base))

    def test_choi_form_gives_its_six_points_once(self):
        # Choi's form (as in test_cli.choi_file): 3 zeros and 3 maxima, each
        # reached from many starts, sometimes with the signs of x and y flipped
        raw = np.zeros((3, 3, 3, 3))
        for i in range(3):
            j = (i + 1) % 3
            raw[i, i, i, i] = 1.0
            raw[i, j, i, j] = 2.0
            raw[i, i, j, j] = -2.0
        pairs = meig_solve(symmetrize(raw))
        np.testing.assert_allclose([p.eigenvalue for p in pairs], [0.0] * 3 + [2.0] * 3, atol=1e-8)
        for a, p in enumerate(pairs):
            for q in pairs[:a]:
                assert min(abs(p.x @ q.x), abs(p.y @ q.y)) < 1.0 - 1e-6

    def test_subnormal_form_keeps_the_pair_count(self):
        # 1e-6 * max|c| underflows to 0 on this form; the duplicate test
        # judges lambda in units of max|c| instead
        form = planted_form(2, 2, 2, seed=2026)
        tiny = symmetrize(1e-320 * form.coeffs)
        assert len(meig_solve(tiny, restarts=5)) == len(meig_solve(form, restarts=5))


class TestMinProbe:
    def test_finds_negative_value(self):
        raw = np.zeros((1, 2, 1, 2))
        raw[0, 0, 0, 1] = 1.0
        form = symmetrize(raw)
        value, (x, y) = min_probe(form, restarts=2, seed=0)
        assert value == pytest.approx(-0.5, abs=1e-12)
        assert evaluate(form, x, y) == pytest.approx(value, abs=1e-12)

    def test_psd_form_stays_nonnegative(self):
        form = planted_form(3, 3, 4, seed=1)
        value, _ = min_probe(form, restarts=5, seed=0)
        assert value >= -1e-12 * max_abs_coeff(form)

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_fewer_than_one_restart_rejected(self, restarts):
        with pytest.raises(InvalidInput, match=f"restarts must be at least 1, got {restarts}"):
            min_probe(to_form(gen_simple(3, 3, 5)), restarts=restarts, seed=0)


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
