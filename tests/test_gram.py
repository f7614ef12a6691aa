import numpy as np
import pytest

from biquad import gram, linalg
from biquad.errors import CannotReduce, InvalidInput, NoPSDPointFound, NotPSD
from biquad.forms import symmetrize, evaluate, verify_sos
from biquad.gram import (
    build_family,
    factor_gram,
    gamma_of,
    gram_at,
    min_rank_search,
    psd_point,
    reduce_to_boundary,
)
from biquad.partsym import assemble_m_matrix, random_psd_instance, reconstruct
from biquad.simple import gen_simple, to_form


def f_224():
    return build_family(to_form(gen_simple(2, 2, 4)))


def planted_form(m, n, r, seed):
    """Sum of r random bilinear squares: SOS rank at most r."""
    w = np.random.default_rng(seed).standard_normal((r, m, n))
    return symmetrize(np.einsum("pij,pkl->ijkl", w, w))


def sphere(rng, k):
    v = rng.standard_normal(k)
    return v / np.linalg.norm(v)


class TestBuildFamily:
    def test_scalar_family(self):
        fam = build_family(symmetrize(np.full((1, 1, 1, 1), 1.0)))
        assert fam.dim == 0
        np.testing.assert_array_equal(fam.base, [[1.0]])

    def test_2x2_single_direction(self):
        fam = f_224()
        assert fam.dim == 1
        delta = fam.direction(0)
        expected = np.zeros((4, 4))
        expected[0, 3] = expected[3, 0] = 1.0
        expected[1, 2] = expected[2, 1] = -1.0
        np.testing.assert_array_equal(delta, expected)

    def test_3x2_three_directions(self):
        fam = build_family(to_form(gen_simple(3, 2, 6)))
        assert fam.dim == 3

    def test_direction_annihilates_kron_vectors(self):
        rng = np.random.default_rng(0)
        fam = build_family(to_form(gen_simple(4, 3, 12)))
        for t in range(fam.dim):
            delta = fam.direction(t)
            for _ in range(20):
                z = np.kron(sphere(rng, 4), sphere(rng, 3))
                assert abs(z @ delta @ z) <= 1e-12

    def test_representation_invariance(self):
        rng = np.random.default_rng(1)
        form = to_form(gen_simple(3, 3, 6))
        fam = build_family(form)
        for _ in range(3):
            gamma = rng.standard_normal(fam.dim)
            point = gram_at(fam, gamma)
            for _ in range(500):
                x = sphere(rng, 3)
                y = sphere(rng, 3)
                z = np.kron(x, y)
                assert abs(z @ point.matrix @ z - evaluate(form, x, y)) <= 1e-9


class TestGramAt:
    def test_zero_gamma_is_base(self):
        fam = f_224()
        np.testing.assert_array_equal(gram_at(fam, [0.0]).matrix, fam.base)

    def test_unit_gamma_collapses_rank(self):
        fam = f_224()
        point = gram_at(fam, [1.0])
        expected = np.array(
            [
                [1.0, 0.0, 0.0, 1.0],
                [0.0, 1.0, -1.0, 0.0],
                [0.0, -1.0, 1.0, 0.0],
                [1.0, 0.0, 0.0, 1.0],
            ]
        )
        np.testing.assert_array_equal(point.matrix, expected)
        assert linalg.numerical_rank(point.matrix) == 2

    def test_gamma_two_indefinite(self):
        fam = f_224()
        eigs = np.linalg.eigvalsh(gram_at(fam, [2.0]).matrix)
        np.testing.assert_allclose(eigs, [-1.0, -1.0, 3.0, 3.0], atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInput):
            gram_at(f_224(), [1.0, 2.0])


class TestGammaOf:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        fam = build_family(to_form(gen_simple(3, 3, 6)))
        gamma = rng.standard_normal(fam.dim)
        recovered = gamma_of(fam, fam.matrix_at(gamma))
        np.testing.assert_allclose(recovered, gamma, atol=1e-12)

    def test_partsym_matrix_lives_in_family(self):
        rng = np.random.default_rng(3)
        data = random_psd_instance(3, 3, rng)
        form = reconstruct(data)
        fam = build_family(form)
        big = assemble_m_matrix(data)
        gamma = gamma_of(fam, big)
        point = gram_at(fam, gamma)
        np.testing.assert_allclose(point.matrix, big, atol=1e-12)
        assert linalg.numerical_rank(point.matrix) == linalg.numerical_rank(big)

    def test_foreign_matrix_rejected(self):
        fam = f_224()
        with pytest.raises(InvalidInput):
            gamma_of(fam, np.diag([2.0, 1.0, 1.0, 1.0]))


class TestReduceToBoundary:
    def test_already_deficient_unchanged(self):
        fam = f_224()
        point = gram_at(fam, [1.0])
        out = reduce_to_boundary(fam, point, seed=0)
        np.testing.assert_array_equal(out.gamma, point.gamma)

    def test_identity_start_hits_unit_gamma(self):
        fam = f_224()
        out = reduce_to_boundary(fam, gram_at(fam, [0.0]), seed=0)
        assert abs(abs(out.gamma[0]) - 1.0) <= 1e-6
        assert linalg.numerical_rank(out.matrix) == 2

    def test_random_pd_start(self):
        rng = np.random.default_rng(4)
        m = n = 3
        w = rng.standard_normal((9, 9))
        m0 = w @ w.T + 0.5 * np.eye(9)
        form = symmetrize(m0.reshape(3, 3, 3, 3))
        fam = build_family(form)
        point = gram_at(fam, gamma_of(fam, m0))
        out = reduce_to_boundary(fam, point, seed=1)
        ok, _ = linalg.is_psd(out.matrix)
        assert ok
        assert linalg.numerical_rank(out.matrix) <= 8
        assert verify_sos(form, factor_gram(out))[0]

    def test_not_psd_start_rejected(self):
        fam = f_224()
        with pytest.raises(NotPSD):
            reduce_to_boundary(fam, gram_at(fam, [2.0]), seed=0)

    def test_no_directions_cannot_reduce(self):
        raw = np.zeros((1, 2, 1, 2))
        raw[0, 0, 0, 0] = 1.0
        raw[0, 1, 0, 1] = 1.0
        fam = build_family(symmetrize(raw))
        assert fam.dim == 0
        with pytest.raises(CannotReduce):
            reduce_to_boundary(fam, gram_at(fam, np.zeros(0)), seed=0)


class TestMinRankSearch:
    def test_single_square(self):
        fam = build_family(symmetrize(np.full((1, 1, 1, 1), 1.0)))
        point, rank = min_rank_search(fam, restarts=1, seed=0)
        assert rank == 1
        assert point.gamma.size == 0

    def test_224_rank_two_at_unit_gamma(self):
        fam = f_224()
        point, rank = min_rank_search(fam, restarts=5, seed=0)
        assert rank == 2
        assert abs(abs(point.gamma[0]) - 1.0) <= 1e-6

    def test_224_grid_oracle(self):
        fam = f_224()
        best = 4
        for g in np.arange(-1.0, 1.0 + 1e-9, 1e-3):
            matrix = fam.matrix_at(np.array([g]))
            ok, _ = linalg.is_psd(matrix)
            if ok:
                best = min(best, linalg.numerical_rank(matrix))
        assert best == 2

    def test_never_below_certified_rank(self):
        # rectangle-free support: every PSD Gram point has rank >= support size
        form = to_form(gen_simple(3, 3, 6))
        fam = build_family(form)
        point, rank = min_rank_search(fam, restarts=10, seed=0)
        assert rank == 6
        assert verify_sos(form, factor_gram(point))[0]

    def test_monotone_vs_base(self):
        rng = np.random.default_rng(5)
        data = random_psd_instance(3, 3, rng)
        form = reconstruct(data)
        fam = build_family(form)
        base_rank = linalg.numerical_rank(fam.base)
        _, rank = min_rank_search(fam, restarts=3, seed=0)
        assert rank <= base_rank

    def test_deterministic(self):
        fam = f_224()
        p1, r1 = min_rank_search(fam, restarts=4, seed=11)
        p2, r2 = min_rank_search(fam, restarts=4, seed=11)
        assert r1 == r2
        np.testing.assert_array_equal(p1.gamma, p2.gamma)

    def test_no_psd_point(self):
        # x1^2 y1 y2 alone cannot be PSD; its 1-d family has no PSD member
        raw = np.zeros((1, 2, 1, 2))
        raw[0, 0, 0, 1] = 1.0
        fam = build_family(symmetrize(raw))
        with pytest.raises(NoPSDPointFound):
            min_rank_search(fam, restarts=2, seed=0)


class TestFactorSearch:
    @pytest.mark.parametrize("m, n, r", [(3, 3, 3), (4, 3, 4), (3, 3, 6), (4, 4, 5), (3, 2, 4), (6, 2, 7)])
    def test_recovers_planted_rank(self, m, n, r):
        form = planted_form(m, n, r, seed=[m, n, r])
        point, rank = min_rank_search(build_family(form), seed=0)
        assert rank == r
        dec = factor_gram(point)
        assert len(dec) == r
        assert verify_sos(form, dec)[0]

    def test_bit_identical_across_repeats(self):
        family = build_family(planted_form(3, 2, 3, seed=2026))
        gammas = set()
        ballast = []
        for t in range(6):
            ballast.append(np.ones(997 * (t + 1)))
            point, rank = min_rank_search(family, restarts=5, seed=0)
            gammas.add((rank, point.gamma.tobytes()))
        assert len(gammas) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_failing_fit_stops_on_stall(self, monkeypatch, seed):
        # P_(3,3,5) is rectangle-free, so its SOS rank is exactly 5: four
        # squares cannot fit, and the fit must give up long before max_nfev.
        family = build_family(to_form(gen_simple(3, 3, 5)))
        runs = []
        lm = gram._lm

        def counting_lm(residual, jacobian, x, max_nfev):
            count = [0]

            def counted(v):
                count[0] += 1
                return residual(v)

            result = lm(counted, jacobian, x, max_nfev)
            runs.append((count[0], max_nfev))
            return result

        monkeypatch.setattr(gram, "_lm", counting_lm)
        start = np.random.default_rng(seed).standard_normal((4, 3, 3))
        assert gram._fit(family, start, linalg.DEFAULT_TOL) is None
        [(nfev, max_nfev)] = runs
        assert nfev <= max_nfev // 10

    def test_floor_skips_fits_below_it(self, monkeypatch):
        family = build_family(to_form(gen_simple(3, 3, 5)))
        squares = []
        fit = gram._fit

        def recording_fit(family, start, tol):
            squares.append(start.shape[0])
            return fit(family, start, tol)

        monkeypatch.setattr(gram, "_fit", recording_fit)
        point, rank = min_rank_search(family, seed=0, floor=5)
        assert rank == 5 and 4 not in squares
        squares.clear()
        unfloored, _ = min_rank_search(family, seed=0)
        assert squares.count(4) == 20
        assert unfloored.gamma.tobytes() == point.gamma.tobytes()

    def test_psd_point_is_base_when_base_is_psd(self):
        fam = f_224()
        np.testing.assert_array_equal(psd_point(fam).matrix, fam.base)

    def test_psd_point_fits_when_base_is_not_psd(self):
        form = planted_form(3, 3, 3, seed=7)
        fam = build_family(form)
        assert not linalg.is_psd(fam.base)[0]
        point = psd_point(fam, seed=0)
        assert linalg.is_psd(point.matrix)[0]
        assert verify_sos(form, factor_gram(point))[0]

    def test_psd_point_none_without_psd_member(self):
        raw = np.zeros((1, 2, 1, 2))
        raw[0, 0, 0, 1] = 1.0
        assert psd_point(build_family(symmetrize(raw))) is None


class TestFactorGram:
    def test_boundary_factorization(self):
        fam = f_224()
        dec = factor_gram(gram_at(fam, [1.0]))
        assert len(dec) == 2
        assert verify_sos(to_form(gen_simple(2, 2, 4)), dec)[0]

    def test_diagonal_gram(self):
        form = to_form(gen_simple(2, 2, 3))
        fam = build_family(form)
        dec = factor_gram(gram_at(fam, [0.0]))
        assert len(dec) == 3
        assert verify_sos(form, dec)[0]

    def test_cross_module_agreement(self):
        rng = np.random.default_rng(6)
        data = random_psd_instance(3, 2, rng)
        form = reconstruct(data)
        fam = build_family(form)
        point = gram_at(fam, gamma_of(fam, assemble_m_matrix(data)))
        dec = factor_gram(point)
        from biquad.partsym import sos_decompose_naive

        naive = sos_decompose_naive(data)
        assert len(dec) == len(naive)
        stack_a = np.stack([w.ravel() for w in dec.factors])
        stack_b = np.stack([w.ravel() for w in naive.factors])
        np.testing.assert_allclose(stack_a.T @ stack_a, stack_b.T @ stack_b, atol=1e-10)

    def test_not_psd(self):
        fam = f_224()
        with pytest.raises(NotPSD):
            factor_gram(gram_at(fam, [2.0]))
