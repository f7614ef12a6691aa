"""Dense symmetric eigen-primitives with explicit rank and PSD tolerances.

Matrices are plain float ndarrays.  Every entry point validates symmetry and
mirrors the upper triangle, so downstream code never sees an asymmetric
matrix.  All rank / definiteness decisions go through a single ``Tolerances``
record; nothing in the package hard-codes a cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NotPSD, NumericalError

_SYM_ATOL = 1e-12


@dataclass(frozen=True)
class Tolerances:
    """Dimensionless relative thresholds used by all numeric decisions.

    Attributes:
        eps_rank: eigenvalues with ``|lam| <= eps_rank * max(1, lam_max)``
            count as zero when ranks are taken.
        eps_psd: a matrix passes the PSD test when
            ``lam_min >= -eps_psd * max(1, |lam_max|)``.
        tol_recon: bound on ``||U diag(w) U' - S||_F / ||S||_F`` for any
            eigendecomposition or PSD factorization handed out.
        tol_orth: bound on ``||U'U - I||_F``.
    """

    eps_rank: float = 1e-9
    eps_psd: float = 1e-9
    tol_recon: float = 1e-9
    tol_orth: float = 1e-9

    def __post_init__(self):
        for name in ("eps_rank", "eps_psd", "tol_recon", "tol_orth"):
            value = getattr(self, name)
            if not (value > 0.0):
                raise InvalidInput(f"{name} must be strictly positive, got {value!r}")

    @classmethod
    def uniform(cls, eps: float) -> "Tolerances":
        """Tolerances with both decision cutoffs set to ``eps``.

        The residual bounds keep their defaults; they guard internal
        consistency, not user-facing decisions.
        """
        return cls(eps_rank=eps, eps_psd=eps)


DEFAULT_TOL = Tolerances()


def as_sym_matrix(entries) -> np.ndarray:
    """Validate a square symmetric matrix and return it with the upper
    triangle mirrored exactly onto the lower one."""
    s = np.asarray(entries, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 1:
        raise InvalidInput(f"expected a square matrix of order >= 1, got shape {s.shape}")
    scale = float(np.abs(s).max()) if s.size else 0.0
    if not np.allclose(s, s.T, rtol=0.0, atol=_SYM_ATOL * max(1.0, scale)):
        raise InvalidInput("matrix is not symmetric")
    upper = np.triu(s)
    return upper + np.triu(s, 1).T


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues sorted descending with matching orthonormal columns.

    ``eigenvectors[:, p]`` belongs to ``eigenvalues[p]``.  Each column is
    sign-normalized so its largest-magnitude entry is positive, which makes
    every decomposition in the package reproducible across runs.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(s, tol: Tolerances = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Raises:
        InvalidInput: non-finite entries or an asymmetric matrix.
        NumericalError: the decomposition violates its residual invariants
            (should not happen for well-scaled finite input).
    """
    s = as_sym_matrix(s)
    if not np.isfinite(s).all():
        raise InvalidInput("matrix has non-finite entries")
    w, u = np.linalg.eigh(s)
    w = w[::-1].copy()
    u = np.ascontiguousarray(u[:, ::-1])

    # Fix signs: largest-magnitude entry of each eigenvector positive.
    pivots = np.argmax(np.abs(u), axis=0)
    cols = np.arange(u.shape[1])
    u[:, u[pivots, cols] < 0.0] *= -1.0

    dec = SpectralDecomposition(w, u)
    _check_invariants(s, dec, tol)
    return dec


def _check_invariants(s: np.ndarray, dec: SpectralDecomposition, tol: Tolerances) -> None:
    u, w = dec.eigenvectors, dec.eigenvalues
    n = s.shape[0]
    orth = np.linalg.norm(u.T @ u - np.eye(n))
    if orth > tol.tol_orth:
        raise NumericalError(f"eigenvector orthogonality residual {orth:.3e} exceeds {tol.tol_orth:.3e}")
    scale = np.linalg.norm(s)
    recon = np.linalg.norm((u * w) @ u.T - s)
    if recon > tol.tol_recon * max(scale, np.finfo(float).tiny):
        raise NumericalError(f"eigendecomposition residual {recon:.3e} exceeds {tol.tol_recon:.3e} * ||S||")


def rank_from_eigenvalues(eigenvalues, tol: Tolerances = DEFAULT_TOL) -> int:
    """Numerical rank given a full symmetric spectrum."""
    w = np.asarray(eigenvalues, dtype=float)
    if w.size == 0:
        return 0
    cutoff = tol.eps_rank * max(1.0, float(w.max()))
    return int(np.count_nonzero(np.abs(w) > cutoff))


def numerical_rank(s, tol: Tolerances = DEFAULT_TOL) -> int:
    """Count of eigenvalues with ``|lam| > eps_rank * max(1, lam_max)``."""
    return rank_from_eigenvalues(sym_eig(s, tol).eigenvalues, tol)


def is_psd(s, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, np.ndarray | None]:
    """PSD test with a negativity witness; see ``psd_from_decomposition``."""
    return psd_from_decomposition(sym_eig(s, tol), tol)


def psd_from_decomposition(
    dec: SpectralDecomposition, tol: Tolerances
) -> tuple[bool, np.ndarray | None]:
    """PSD test on a spectrum already computed by ``sym_eig``.

    Returns ``(True, None)`` when ``lam_min >= -eps_psd * max(1, |lam_max|)``,
    else ``(False, v)`` where v is the unit eigenvector of the most negative
    eigenvalue, so ``v' S v < 0``.
    """
    w = dec.eigenvalues
    if w[-1] >= -tol.eps_psd * max(1.0, abs(float(w[0]))):
        return True, None
    return False, dec.eigenvectors[:, -1].copy()


def psd_factor(s, tol: Tolerances = DEFAULT_TOL) -> list[np.ndarray]:
    """Spectral PSD factorization ``S = sum_p w_p w_p'``.

    One vector ``sqrt(lam_p) * u_p`` per eigenvalue above the rank cutoff,
    so ``len(result) == numerical_rank(S)``.  Eigenvalues that are negative
    but within the PSD tolerance are clamped to zero (no vector emitted).

    Raises:
        NotPSD: with the negativity witness vector when S fails the PSD test.
    """
    s = as_sym_matrix(s)
    dec = sym_eig(s, tol)
    ok, witness = psd_from_decomposition(dec, tol)
    if not ok:
        raise NotPSD("matrix has a significant negative eigenvalue", witness=witness)
    cutoff = tol.eps_rank * max(1.0, float(dec.eigenvalues[0]))
    keep = dec.eigenvalues > cutoff
    vectors = [
        np.sqrt(lam) * dec.eigenvectors[:, p]
        for p, lam in enumerate(dec.eigenvalues)
        if keep[p]
    ]
    scale = np.linalg.norm(s)
    if vectors:
        stack = np.stack(vectors)
        recon = np.linalg.norm(stack.T @ stack - s)
    else:
        recon = scale
    # The rank cutoff is floored at an absolute eps_rank, so the dropped tail
    # is bounded relative to max(1, ||S||), not ||S|| alone.
    if recon > tol.tol_recon * max(scale, 1.0):
        raise NumericalError(f"PSD factorization residual {recon:.3e} exceeds {tol.tol_recon:.3e} * ||S||")
    return vectors
