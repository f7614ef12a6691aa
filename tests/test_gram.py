import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biquad import gram, linalg
from biquad.errors import CannotReduce, InvalidInput, NoPSDPointFound, NotPSD
from biquad.forms import BiquadraticForm, FormCells, symmetrize, evaluate, verify_sos
from biquad.gram import (
    GramPoint,
    build_family,
    factor_gram,
    gamma_of,
    gram_at,
    min_rank_search,
    psd_point,
    rank_floor,
    reduce_to_boundary,
)
from biquad.partsym import assemble_m_matrix, random_psd_instance, reconstruct
from biquad.simple import SupportSet, find_rectangle, gen_simple, to_form
from conftest import planted_sos_forms, tiny_line_form


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
        delta = fam.matrix_at(np.eye(fam.dim)[0]) - fam.base
        expected = np.zeros((4, 4))
        expected[0, 3] = expected[3, 0] = 1.0
        expected[1, 2] = expected[2, 1] = -1.0
        np.testing.assert_array_equal(delta, expected)

    def test_base_is_the_stored_tensor(self):
        # The form stores its tensor exactly symmetric, so the base is its
        # reshape, with no mirroring, even for input off symmetry by 1e-13.
        coeffs = symmetrize(np.random.default_rng(6).standard_normal((3, 2, 3, 2))).coeffs.copy()
        coeffs[0, 1, 2, 0] += 1e-13
        form = BiquadraticForm(3, 2, coeffs)
        base = build_family(form).base
        assert base.tobytes() == form.coeffs.reshape(6, 6).tobytes() == base.T.tobytes()

    def test_direction_scatters_each_gamma(self):
        fam = build_family(to_form(gen_simple(3, 3, 6)))
        gamma = np.random.default_rng(7).standard_normal(fam.dim)
        expected = np.zeros((9, 9))
        for t, (ij, kl, il, kj) in enumerate(fam.swaps.T):
            expected[ij, kl] = expected[kl, ij] = gamma[t]
            expected[il, kj] = expected[kj, il] = -gamma[t]
        assert fam.direction(gamma).tobytes() == expected.tobytes()
        with pytest.raises(InvalidInput):
            fam.direction(gamma[1:])

    def test_3x2_three_directions(self):
        fam = build_family(to_form(gen_simple(3, 2, 6)))
        assert fam.dim == 3

    def test_direction_annihilates_kron_vectors(self):
        rng = np.random.default_rng(0)
        fam = build_family(to_form(gen_simple(4, 3, 12)))
        for t in range(fam.dim):
            delta = fam.matrix_at(np.eye(fam.dim)[t]) - fam.base
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

    def test_matrix_is_base_plus_direction(self):
        # The member less the base rounds where the base is large; the
        # direction itself is exact, as reduce_to_boundary steps along it.
        rng = np.random.default_rng(8)
        fam = build_family(symmetrize(rng.standard_normal((3, 3, 3, 3))))
        gamma = 1e-3 * rng.standard_normal(fam.dim)
        point = gram_at(fam, gamma)
        assert point.matrix.tobytes() == (fam.base + fam.direction(gamma)).tobytes()
        assert not np.array_equal(point.matrix - fam.base, fam.direction(gamma))

    def test_point_is_its_gamma(self):
        # The matrix is built from gamma, read-only, and cannot be passed in.
        fam = build_family(to_form(gen_simple(3, 3, 6)))
        gamma = np.random.default_rng(8).standard_normal(fam.dim)
        point = GramPoint(fam, gamma)
        assert point.matrix.tobytes() == fam.matrix_at(gamma).tobytes()
        assert not point.matrix.flags.writeable
        with pytest.raises(ValueError):
            point.matrix[0, 0] = 1.0
        with pytest.raises(TypeError):
            GramPoint(fam, gamma, fam.matrix_at(gamma))


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

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        m=st.integers(2, 4),
        n=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
        log_cond=st.floats(0.0, 7.0),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_pd_start_lands_on_verified_boundary(self, m, n, seed, log_cond, log_scale):
        # Ill-conditioned and small- or large-scale positive definite starts:
        # the end point must be PSD, rank-deficient and factor into squares
        # that verify against the form.
        mn = m * n
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((mn, mn)))
        m0 = (q * (10.0**log_scale * np.logspace(0.0, -log_cond, mn))) @ q.T
        m0 = 0.5 * (m0 + m0.T)
        form = symmetrize(m0.reshape(m, n, m, n))
        fam = build_family(form)
        point = gram_at(fam, gamma_of(fam, m0))
        assume(linalg.numerical_rank(point.matrix) == mn)
        out = reduce_to_boundary(fam, point, seed=0)
        assert linalg.is_psd(out.matrix)[0]
        assert linalg.numerical_rank(out.matrix) <= mn - 1
        assert verify_sos(form, factor_gram(out))[0]

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(k=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-100.0, 100.0))
    def test_boundary_steps_reach_both_ends(self, k, seed, log_scale):
        # A positive definite m0 and an indefinite (traceless) delta: one
        # solve gives both ends, where lambda_min vanishes, with the positive
        # definite members between them.
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((k, k))
        m0 = 10.0**log_scale * (w @ w.T + 0.1 * np.eye(k))
        delta = rng.standard_normal((k, k))
        delta = delta + delta.T
        np.fill_diagonal(delta, 0.0)
        lo, hi = gram._boundary_steps(m0, delta)
        assert lo < 0.0 < hi
        for t in (lo, hi):
            end = np.linalg.eigvalsh(m0 + t * delta)
            assert abs(end[0]) <= 1e-9 * end[-1]
        assert np.linalg.eigvalsh(m0 + 0.5 * (lo + hi) * delta)[0] > 0.0

    def test_not_psd_start_rejected(self):
        fam = f_224()
        with pytest.raises(NotPSD):
            reduce_to_boundary(fam, gram_at(fam, [2.0]), seed=0)

    @pytest.mark.parametrize("retries", [0, -2])
    def test_fewer_than_one_retry_rejected(self, retries):
        fam = f_224()
        with pytest.raises(InvalidInput, match=f"retries must be at least 1, got {retries}"):
            reduce_to_boundary(fam, gram_at(fam, [0.0]), seed=0, retries=retries)

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

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_fewer_than_one_restart_rejected(self, restarts):
        family = build_family(to_form(gen_simple(3, 3, 5)))
        with pytest.raises(InvalidInput, match=f"restarts must be at least 1, got {restarts}"):
            min_rank_search(family, restarts=restarts, seed=0)

    def test_pinned_psd_member_is_the_result_without_a_fit(self, monkeypatch):
        # Three 2 x 2 squares all zero at W[0, 0]: the dead row of x1^2 y1^2
        # pins the one swap direction, so the pinned member, PSD here, is the
        # only PSD member.  The search returns it exactly, with no fit.
        w = np.random.default_rng(3).standard_normal((3, 2, 2))
        w[:, 0, 0] = 0.0
        family = build_family(symmetrize(np.einsum("pij,pkl->ijkl", w, w)))
        fits = []
        fit = gram._fit
        monkeypatch.setattr(gram, "_fit", lambda *args: fits.append(args) or fit(*args))
        point, rank = min_rank_search(family, seed=0)
        assert (len(fits), rank) == (0, 3)
        assert point.gamma.tobytes() == family.floor_spectra[3].tobytes()

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

    @staticmethod
    def _failing_fit(monkeypatch, seed):
        """Fit four squares to P_(3,3,5) from a seeded start, recording each
        _lm run as (evaluations, max_nfev, fits, jacobian, x, f)."""
        family = build_family(to_form(gen_simple(3, 3, 5)))
        runs = []
        lm = gram._lm

        def counting_lm(jacobian, shift, model, x, max_nfev, fits):
            count = [0]

            def counted(v):
                count[0] += 1
                return jacobian(v)

            x_end, f_end = lm(counted, shift, model, x, max_nfev, fits)
            runs.append((count[0], max_nfev, fits, jacobian, x_end, f_end))
            return x_end, f_end

        start = np.random.default_rng(seed).standard_normal((4, 3, 3))
        with monkeypatch.context() as patch:
            patch.setattr(gram, "_lm", counting_lm)
            assert gram._fit(family, start, linalg.DEFAULT_TOL) is None
        [run] = runs
        return run

    def test_second_order_model_is_exact(self, monkeypatch):
        # _lm reads the residual off the Jacobian, f = J(v) v / 2 - shift,
        # and steps on the exact Hessian J'J + I_r (x) M(f) of |f|^2 / 2:
        # both against the residual gathered cell by cell and against
        # central differences.
        family, r = build_family(planted_form(3, 3, 5, seed=45)), 4
        calls = []
        monkeypatch.setattr(gram, "_lm", lambda *args: calls.append(args) or (args[3], args[1]))
        gram._fit(family, np.random.default_rng(45).standard_normal((r, 3, 3)), linalg.DEFAULT_TOL)
        [(jacobian, shift, model, v, *_)] = calls
        weight = np.sqrt(np.outer(*FormCells.layout(3, 3)[1])).ravel()
        target = family.scaled[family.cells[0], family.cells[1]]

        def residual(v):
            g = v.reshape(r, 9)[:, family.cells]
            return weight * (0.5 * (g[:, 0] * g[:, 1] + g[:, 2] * g[:, 3]).sum(axis=0) - target)

        def gradient(v):
            return jacobian(v).T @ residual(v)

        f, jac = residual(v), jacobian(v)
        np.testing.assert_allclose(0.5 * jac @ v - shift, f, rtol=0.0, atol=1e-13 * np.abs(shift).max())
        hessian, grad, norms = model(jac, f)
        np.testing.assert_array_equal(grad, jac.T @ f)
        np.testing.assert_allclose(norms, np.linalg.norm(jac, axis=0), rtol=1e-14)
        steps = 1e-6 * np.eye(v.size)
        cost = [0.5 * (residual(v + h) @ residual(v + h) - residual(v - h) @ residual(v - h)) for h in steps]
        np.testing.assert_allclose(np.array(cost) / 2e-6, grad, rtol=0.0, atol=1e-7 * np.abs(grad).max())
        steps = 1e-4 * np.eye(v.size)
        numeric = np.array([gradient(v + h) - gradient(v - h) for h in steps]) / 2e-4
        scale = np.abs(hessian).max()
        np.testing.assert_allclose(numeric, hessian, rtol=0.0, atol=1e-6 * scale)
        # Without the curvature term, J'J alone misses the Hessian by far more.
        assert np.abs(numeric - jac.T @ jac).max() > 1e-2 * scale

    @pytest.mark.parametrize("seed", range(3))
    def test_failing_fit_stops_on_stall(self, monkeypatch, seed):
        # P_(3,3,5) is rectangle-free, so its SOS rank is exactly 5: four
        # squares cannot fit, and the fit must give up long before max_nfev.
        # trf's relative-decrease rule alone takes 18-33 evaluations here.
        nfev, max_nfev, *_ = self._failing_fit(monkeypatch, seed)
        assert nfev <= 25
        assert nfev <= max_nfev // 10

    @pytest.mark.parametrize("seed, trf_nfev", [(0, 33), (1, 18), (2, 18)])
    def test_failing_fit_ends_on_gradient_stop(self, monkeypatch, seed, trf_nfev):
        # At the stop the residual misses the bound and is orthogonal to the
        # Jacobian's columns to within _GTOL: MINPACK's gradient test fired.
        nfev, _, fits, jacobian, x, f = self._failing_fit(monkeypatch, seed)
        jac = jacobian(x)
        assert not fits(f)
        assert (np.abs(jac.T @ f) / np.linalg.norm(jac, axis=0)).max() / np.linalg.norm(f) < gram._GTOL
        # Without the gradient test only trf's rules stop the fit, which then
        # takes more evaluations.
        monkeypatch.setattr(gram, "_GTOL", 0.0)
        assert self._failing_fit(monkeypatch, seed)[0] == trf_nfev > nfev

    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(
        shape=st.tuples(st.integers(2, 4), st.integers(2, 4)).flatmap(
            lambda mn: st.tuples(st.just(mn[0]), st.just(mn[1]), st.integers(1, mn[0] * mn[1] - 1))
        ),
        planted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-6.0, 6.0),
    )
    def test_gradient_stop_never_changes_a_result(self, shape, planted, seed, log_scale):
        # The gradient test only ends fits that would fail anyway, so the
        # search's rank and gamma, and psd_point's gamma, are bit-identical
        # without it, at every scale.
        m, n, r = shape
        if planted:
            raw = planted_form(m, n, r, seed).coeffs
        else:
            m, n = max(m, n), min(m, n)
            raw = to_form(gen_simple(m, n, r + 1)).coeffs
        family = build_family(symmetrize(10.0**log_scale * raw))

        def outcomes():
            try:
                point, rank = min_rank_search(family, restarts=5, seed=0)
                found = (rank, point.gamma.tobytes())
            except NoPSDPointFound:
                found = None
            try:
                start = psd_point(family, seed=1).gamma.tobytes()
            except NoPSDPointFound:
                start = None
            return found, start

        shipped = outcomes()
        with mock.patch.object(gram, "_GTOL", 0.0):
            assert outcomes() == shipped

    def test_floor_skips_fits_below_it(self, monkeypatch):
        # P_(3,3,5) is rectangle-free: its dead rows pin every direction and
        # the floor is 5, so the default search tries no fit of 4 squares.
        family = build_family(to_form(gen_simple(3, 3, 5)))
        squares = []
        fit = gram._fit

        def recording_fit(family, start, tol):
            squares.append(start.shape[0])
            return fit(family, start, tol)

        monkeypatch.setattr(gram, "_fit", recording_fit)
        point, rank = min_rank_search(family, seed=0)
        assert rank == 5 and 4 not in squares
        squares.clear()
        monkeypatch.setattr(gram, "rank_floor", lambda family, tol: 1)
        unfloored, _ = min_rank_search(family, seed=0)
        assert squares.count(4) == 20
        assert unfloored.gamma.tobytes() == point.gamma.tobytes()

    def test_starts_are_drawn_lazily(self, monkeypatch):
        # psd_point and the search build each random start only when the
        # previous one failed: every start built is fitted next.
        family = build_family(planted_form(3, 3, 6, seed=[3, 3, 6]))
        events = []
        random_start, fit = gram._random_start, gram._fit

        def recording_start(family, r, rng):
            start = random_start(family, r, rng)
            events.append(("built", start))
            return start

        def recording_fit(family, start, tol):
            events.append(("fit", start))
            return fit(family, start, tol)

        monkeypatch.setattr(gram, "_random_start", recording_start)
        monkeypatch.setattr(gram, "_fit", recording_fit)
        _, rank = min_rank_search(family, seed=0)
        built = [k for k, (kind, _) in enumerate(events) if kind == "built"]
        assert rank == 6 and len(built) > 20
        for k in built:
            assert events[k + 1][0] == "fit" and events[k + 1][1] is events[k][1]

    @pytest.mark.parametrize("seed", [723, 997])
    def test_overflowing_trials_are_rejected_silently(self, seed):
        # Failing fits on this badly scaled form try steps whose residual
        # overflows; _lm rejects them by their inf or nan cost, with no warning.
        form = tiny_line_form(seed)
        family = build_family(form)
        found = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for restarts in (2, 20):
                point, rank = min_rank_search(family, restarts=restarts, seed=0)
                assert rank == 4
                assert verify_sos(form, factor_gram(point))[0]
                found.add(point.gamma.tobytes())
        assert len(found) == 1

    def test_psd_point_is_the_lower_rank_end_when_base_is_psd(self):
        # P_(2,2,4)'s base, the identity, is PSD, but the start is an end of
        # its segment of PSD members, I + tD for |t| <= 1: rank 2, exactly.
        fam = f_224()
        point = psd_point(fam)
        assert abs(point.gamma[0]) == 1.0
        assert linalg.rank_from_eigenvalues(point.spectrum.eigenvalues) == 2

    def test_psd_point_fits_when_base_is_not_psd(self):
        form = planted_form(3, 3, 3, seed=7)
        fam = build_family(form)
        assert not linalg.is_psd(fam.base)[0]
        point = psd_point(fam, seed=0)
        assert linalg.is_psd(point.matrix)[0]
        assert verify_sos(form, factor_gram(point))[0]

    def test_psd_point_raises_without_psd_member(self):
        raw = np.zeros((1, 2, 1, 2))
        raw[0, 0, 0, 1] = 1.0
        with pytest.raises(NoPSDPointFound):
            psd_point(build_family(symmetrize(raw)))


class TestRankFloor:
    def test_rectangle_free_supports_give_their_size(self):
        # Criterion 6's supports and every rectangle-free subset of [3] x [3]:
        # the dead rows pin every direction and leave the identity on the support.
        supports = [gen_simple(m, 2, m + 1) for m in range(2, 7)] + [gen_simple(3, 3, 6)]
        cells = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        for bits in range(1, 512):
            supports.append(SupportSet(3, 3, tuple(cells[k] for k in range(9) if bits >> k & 1)))
        checked = 0
        for support in supports:
            if find_rectangle(support) is None:
                assert rank_floor(build_family(to_form(support))) == len(support)
                checked += 1
        assert checked > 100

    def test_p224_gives_two(self):
        assert rank_floor(f_224()) == 2

    @pytest.mark.parametrize("m, n", [(1, 5), (5, 1), (1, 1)])
    def test_single_line_forms_give_rank_of_base(self, m, n):
        rng = np.random.default_rng([m, n])
        for r in range(1, m * n + 1):
            w = rng.standard_normal((r, m, n))
            family = build_family(symmetrize(np.einsum("pij,pkl->ijkl", w, w)))
            assert family.dim == 0
            assert rank_floor(family) == linalg.numerical_rank(family.base) == r

    def test_badly_scaled_line_stays_below_the_search(self):
        # One square zero on x-line 1, plus three squares 1e-6 its size that
        # live only there: they sit below every rank cutoff, so the search
        # finds one square, and a cutoff relative to the line's own block
        # would count three.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            w = np.zeros((4, 3, 3))
            w[0, 1:] = rng.standard_normal((2, 3))
            w[1:, 0] = 1e-6 * rng.standard_normal((3, 3))
            family = build_family(symmetrize(np.einsum("pij,pkl->ijkl", w, w)))
            _, rank = min_rank_search(family, restarts=2, seed=0)
            assert rank_floor(family) == rank == 1

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(planted=planted_sos_forms())
    def test_never_above_a_rank_found(self, planted):
        # The floor is at most the planted square count, the rank of
        # psd_point's point, and the rank a search without it finds.
        form, r = planted
        family = build_family(form)
        floor = rank_floor(family)
        assert floor <= r
        assert floor <= linalg.numerical_rank(psd_point(family, seed=0).matrix)
        with mock.patch.object(gram, "rank_floor", lambda family, tol: 1):
            _, rank = min_rank_search(family, restarts=2, seed=0)
        assert floor <= rank

    def test_spectra_solved_once_per_family(self, monkeypatch):
        # psd_point, the search and a later rank_floor at another tolerance
        # all count the one set of block spectra.
        family = build_family(planted_form(3, 3, 3, seed=7))
        assert not linalg.is_psd(family.base)[0]
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        _, rank = min_rank_search(family, restarts=2, seed=0)
        assert rank_floor(family) == rank_floor(family, linalg.Tolerances(1e-6)) == rank == 3
        # The x-line and y-line stacks; nine free directions, so no segment.
        assert calls == [(3, 3, 3), (3, 3, 3)] and family.floor_spectra[2] == ()

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(planted=planted_sos_forms(sides=(2, 2)))
    def test_segment_floor_is_the_rank_of_a_2x2_form(self, planted):
        # A 2 x 2 form has one swap direction.  A dead row pins it, else the
        # PSD members fill one segment; either way the floor is the SOS rank,
        # at most 3 as the paper proves for every PSD 2 x 2 form.
        form, _ = planted
        family = build_family(form)
        fits = []
        fit = gram._fit
        with mock.patch.object(gram, "_fit", lambda *args: fits.append(args) or fit(*args)):
            _, rank = min_rank_search(family, seed=0)
        assert rank_floor(family) == rank <= 3
        # Where the face's own member passes the PSD test, it is the result.
        start = GramPoint(family, gram._face_start(family, linalg.DEFAULT_TOL)[1])
        if linalg.psd_from_decomposition(start.spectrum, linalg.DEFAULT_TOL)[0]:
            assert fits == []

    def test_segment_floor_is_the_smaller_end_rank(self):
        # (x1y1 - x2y2)^2 + 2 (x1y2 + x2y1)^2: its squares span the free
        # direction's negative eigenvectors, so its Gram matrix is one end of
        # the segment, of rank 2, and the other end has rank 3.
        w = np.zeros((2, 2, 2))
        w[0] = [[1.0, 0.0], [0.0, -1.0]]
        w[1] = [[0.0, np.sqrt(2.0)], [np.sqrt(2.0), 0.0]]
        family = build_family(symmetrize(np.einsum("pij,pkl->ijkl", w, w)))
        ends = {linalg.rank_from_eigenvalues(eigenvalues): gamma for gamma, eigenvalues in family.floor_spectra[2]}
        assert sorted(ends) == [2, 3]
        point, rank = min_rank_search(family, seed=0)
        assert rank_floor(family) == rank == 2
        assert point.gamma.tobytes() == ends[2].tobytes()

    def test_segment_solved_once_per_family(self, monkeypatch):
        # P_(4,2,6)'s dead rows leave one free direction.  The search from an
        # end of its segment and rank_floor at two tolerances share one
        # bisection, one boundary solve and one pair of end spectra.
        family = build_family(to_form(gen_simple(4, 2, 6)))
        calls = []
        eigvalsh, deepest = np.linalg.eigvalsh, gram._deepest
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        monkeypatch.setattr(gram, "_deepest", lambda *args: calls.append("deepest") or deepest(*args))
        _, rank = min_rank_search(family, seed=0)
        assert rank_floor(family) == rank_floor(family, linalg.Tolerances(1e-6)) == rank == 4
        # The x-line and y-line stacks, then one solve for both boundary steps
        # on the 6 live rows and the spectra of the two ends.
        assert calls == [(4, 2, 2), (2, 4, 4), "deepest"] + [(6, 6)] * 3
        assert len(family.floor_spectra[2]) == 2


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
