import numpy as np
import pytest

from biquad.errors import InvalidInput, NotPSD
from biquad.linalg import (
    RECON_TOL,
    Tolerances,
    as_sym_matrix,
    is_psd,
    numerical_rank,
    psd_factor,
    sym_eig,
)


class TestSymEig:
    def test_identity(self):
        dec = sym_eig(np.eye(3))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0])

    def test_rank_one_2x2(self):
        # characteristic polynomial of [[1,-1],[-1,1]] solved by hand: 2, 0
        dec = sym_eig(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        np.testing.assert_allclose(dec.eigenvalues, [2.0, 0.0], atol=1e-14)

    def test_indefinite_2x2(self):
        dec = sym_eig(np.array([[0.0, 2.0], [2.0, 0.0]]))
        np.testing.assert_allclose(dec.eigenvalues, [2.0, -2.0], atol=1e-14)

    def test_descending_and_orthonormal(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((7, 7))
        s = as_sym_matrix(a + a.T)
        dec = sym_eig(s)
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
        np.testing.assert_allclose(dec.eigenvectors.T @ dec.eigenvectors, np.eye(7), atol=1e-12)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 5))
        s = as_sym_matrix(a + a.T)
        d1, d2 = sym_eig(s), sym_eig(s.copy())
        np.testing.assert_array_equal(d1.eigenvectors, d2.eigenvectors)
        pivots = np.argmax(np.abs(d1.eigenvectors), axis=0)
        assert all(d1.eigenvectors[pivots[c], c] > 0 for c in range(5))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInput):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_rejected_before_symmetry_test(self, value):
        with pytest.raises(InvalidInput, match="non-finite"):
            as_sym_matrix(np.array([[value, 0.0], [0.0, 1.0]]))

    def test_tiny_asymmetry_is_relative(self):
        with pytest.raises(InvalidInput, match="not symmetric"):
            as_sym_matrix(1e-13 * np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_trace_equals_eigenvalue_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.standard_normal((6, 6))
            s = as_sym_matrix(a + a.T)
            dec = sym_eig(s)
            assert abs(dec.eigenvalues.sum() - np.trace(s)) <= 1e-9 * max(1.0, np.linalg.norm(s))


class TestNumericalRank:
    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((4, 4))) == 0

    def test_rank_one(self):
        assert numerical_rank(np.array([[1.0, -1.0], [-1.0, 1.0]])) == 1

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_identity(self, n):
        assert numerical_rank(np.eye(n)) == n

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_scale_invariant(self, scale):
        s = scale * np.diag([1.0, 1e-6, 1e-11, 0.0])
        assert numerical_rank(s) == 2
        assert len(psd_factor(s)) == 2
        assert numerical_rank(-s) == 2

    def test_invariant_under_orthogonal_conjugation(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            f = rng.standard_normal((6, 3))
            s = f @ f.T
            q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            assert numerical_rank(q @ s @ q.T) == numerical_rank(s) == 3


class TestIsPsd:
    def test_identity(self):
        ok, witness = is_psd(np.eye(3))
        assert ok and witness is None

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_verdict_scale_invariant(self, scale):
        assert not is_psd(scale * np.diag([1.0, -1e-6]))[0]
        assert is_psd(scale * np.diag([1.0, -1e-12]))[0]

    def test_indefinite_with_witness(self):
        s = np.array([[0.0, 2.0], [2.0, 0.0]])
        ok, witness = is_psd(s)
        assert not ok
        np.testing.assert_allclose(np.abs(witness), [1.0, 1.0] / np.sqrt(2.0), atol=1e-14)
        assert witness @ s @ witness == pytest.approx(-2.0)

    def test_singular_psd(self):
        ok, witness = is_psd(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert ok and witness is None

    def test_shift_preserves_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            f = rng.standard_normal((5, 2))
            s = f @ f.T
            assert is_psd(s)[0]
            for eps in (0.0, 1e-8, 1.0):
                assert is_psd(s + eps * np.eye(5))[0]


class TestPsdFactor:
    def test_identity_order_2(self):
        vectors = psd_factor(np.eye(2))
        assert len(vectors) == 2
        recon = sum(np.outer(v, v) for v in vectors)
        np.testing.assert_allclose(recon, np.eye(2), atol=1e-12)

    def test_rank_one(self):
        vectors = psd_factor(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert len(vectors) == 1
        np.testing.assert_allclose(vectors[0], [1.0, -1.0], atol=1e-12)

    def test_diagonal_singular(self):
        vectors = psd_factor(np.array([[2.0, 0.0], [0.0, 0.0]]))
        assert len(vectors) == 1
        np.testing.assert_allclose(vectors[0], [np.sqrt(2.0), 0.0], atol=1e-12)

    def test_not_psd_raises_with_witness(self):
        s = np.array([[0.0, 2.0], [2.0, 0.0]])
        with pytest.raises(NotPSD) as info:
            psd_factor(s)
        witness = info.value.witness
        assert witness @ s @ witness < 0

    def test_reconstruction_random(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            f = rng.standard_normal((6, 4))
            s = f @ f.T
            vectors = psd_factor(s)
            assert len(vectors) == 4
            recon = sum(np.outer(v, v) for v in vectors)
            assert np.linalg.norm(recon - s) <= RECON_TOL * np.linalg.norm(s)

    def test_boundary_negative_eigenvalue_clamped(self):
        s = np.array([[1.0, 0.0], [0.0, -1e-12]])
        vectors = psd_factor(s)
        assert len(vectors) == 1


class TestTolerances:
    def test_positive_required(self):
        with pytest.raises(InvalidInput):
            Tolerances(eps=0.0)

    @pytest.mark.parametrize("eps", [1.0, 10.0, float("inf")])
    def test_below_one_required(self, eps):
        # From eps = 1 on, lam_min >= -eps * max|lam| holds for every matrix.
        with pytest.raises(InvalidInput):
            Tolerances(eps=eps)
