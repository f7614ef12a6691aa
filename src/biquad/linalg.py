"""Dense symmetric eigen-primitives with explicit rank and PSD tolerances.

Matrices are plain float ndarrays.  Every entry point validates symmetry and
mirrors the upper triangle, so downstream code never sees an asymmetric
matrix.  All rank / definiteness decisions go through a single ``Tolerances``
record, and every cutoff is relative to the matrix it judges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NotPSD, NumericalError

# Coefficients and matrix entries that differ by at most this much of the
# largest magnitude present count as equal.
COEFF_TOL = 1e-12
# Bounds on the residuals of every eigendecomposition and PSD factorization
# handed out: ``||U diag(w) U' - S||_F / ||S||_F`` and ``||U'U - I||_F``.
RECON_TOL = 1e-9
ORTH_TOL = 1e-9


@dataclass(frozen=True)
class Tolerances:
    """The one decision cutoff callers set, relative to the matrix it
    judges, so S and s*S get one verdict for every s > 0.

    Attributes:
        eps: eigenvalues with ``|lam| <= eps * max|lam|`` count as zero when
            ranks are taken (see ``rank_cutoff``), and a matrix passes the
            PSD test when ``lam_min >= -eps * max|lam|``.  It must lie in
            (0, 1): from eps = 1 on, every matrix passes.
    """

    eps: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise InvalidInput(f"eps must be strictly positive and below 1, got {self.eps!r}")


DEFAULT_TOL = Tolerances()


def as_sym_matrix(entries) -> np.ndarray:
    """Validate a square symmetric matrix and return it with the upper
    triangle mirrored exactly onto the lower one."""
    s = np.asarray(entries, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 1:
        raise InvalidInput(f"expected a square matrix of order >= 1, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise InvalidInput("matrix has non-finite entries")
    if not np.allclose(s, s.T, rtol=0.0, atol=COEFF_TOL * float(np.abs(s).max())):
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


def sym_eig(s) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Raises:
        InvalidInput: non-finite entries or an asymmetric matrix.
        NumericalError: the decomposition violates its residual invariants
            (should not happen for well-scaled finite input).
    """
    s = as_sym_matrix(s)
    w, u = np.linalg.eigh(s)
    w = w[::-1].copy()
    u = np.ascontiguousarray(u[:, ::-1])

    # Fix signs: largest-magnitude entry of each eigenvector positive.
    pivots = np.argmax(np.abs(u), axis=0)
    cols = np.arange(u.shape[1])
    u[:, u[pivots, cols] < 0.0] *= -1.0

    dec = SpectralDecomposition(w, u)
    _check_invariants(s, dec)
    return dec


def _check_invariants(s: np.ndarray, dec: SpectralDecomposition) -> None:
    u, w = dec.eigenvectors, dec.eigenvalues
    n = s.shape[0]
    orth = np.linalg.norm(u.T @ u - np.eye(n))
    if orth > ORTH_TOL:
        raise NumericalError(f"eigenvector orthogonality residual {orth:.3e} exceeds {ORTH_TOL:.3e}")
    scale = np.linalg.norm(s)
    recon = np.linalg.norm((u * w) @ u.T - s)
    if recon > RECON_TOL * max(scale, np.finfo(float).tiny):
        raise NumericalError(f"eigendecomposition residual {recon:.3e} exceeds {RECON_TOL:.3e} * ||S||")


def spectral_scale(*spectra) -> float:
    """Largest eigenvalue magnitude over one or more spectra: the magnitude
    the rank and PSD cutoffs are relative to."""
    return max(float(np.abs(w).max(initial=0.0)) for w in spectra)


def rank_cutoff(eigenvalues, tol: Tolerances, scale: float | None = None) -> float:
    """Magnitude at or below which an eigenvalue counts as zero:
    ``eps * scale``.  ``scale`` defaults to ``spectral_scale`` of
    ``eigenvalues``; a matrix judged as one part of a larger object passes
    that object's scale, so a part that is zero up to rounding has rank 0."""
    return tol.eps * (spectral_scale(eigenvalues) if scale is None else scale)


def rank_from_eigenvalues(eigenvalues, tol: Tolerances = DEFAULT_TOL, scale: float | None = None) -> int:
    """Numerical rank given a full symmetric spectrum; see ``rank_cutoff``."""
    return int(np.count_nonzero(np.abs(eigenvalues) > rank_cutoff(eigenvalues, tol, scale)))


def numerical_rank(s, tol: Tolerances = DEFAULT_TOL) -> int:
    """Count of eigenvalues above ``rank_cutoff`` in magnitude."""
    return rank_from_eigenvalues(sym_eig(s).eigenvalues, tol)


def is_psd(s, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, np.ndarray | None]:
    """PSD test with a negativity witness; see ``psd_from_decomposition``."""
    return psd_from_decomposition(sym_eig(s), tol)


def psd_from_decomposition(
    dec: SpectralDecomposition, tol: Tolerances, scale: float | None = None
) -> tuple[bool, np.ndarray | None]:
    """PSD test on a spectrum already computed by ``sym_eig``.

    Returns ``(True, None)`` when ``lam_min >= -eps * scale``, else
    ``(False, v)`` where v is the unit eigenvector of the most negative
    eigenvalue, so ``v' S v < 0``.  ``scale`` is as in ``rank_cutoff``.
    """
    w = dec.eigenvalues
    if w[-1] >= -tol.eps * (spectral_scale(w) if scale is None else scale):
        return True, None
    return False, dec.eigenvectors[:, -1].copy()


def factor_from_decomposition(
    dec: SpectralDecomposition, tol: Tolerances, scale: float | None = None
) -> np.ndarray:
    """Rows ``sqrt(lam) u`` over the eigenpairs above ``rank_cutoff``, in
    descending eigenvalue order, of a spectrum that passed the PSD test."""
    keep = dec.eigenvalues > rank_cutoff(dec.eigenvalues, tol, scale)
    return np.sqrt(dec.eigenvalues[keep])[:, None] * dec.eigenvectors[:, keep].T


def psd_factor(s, tol: Tolerances = DEFAULT_TOL) -> list[np.ndarray]:
    """Spectral PSD factorization ``S = sum_p w_p w_p'``.

    One vector ``sqrt(lam_p) * u_p`` per eigenvalue above the rank cutoff,
    so ``len(result) == numerical_rank(S)``.  Eigenvalues that are negative
    but within the PSD tolerance are clamped to zero (no vector emitted).

    Raises:
        NotPSD: with the negativity witness vector when S fails the PSD test.
    """
    s = as_sym_matrix(s)
    dec = sym_eig(s)
    ok, witness = psd_from_decomposition(dec, tol)
    if not ok:
        raise NotPSD("matrix has a significant negative eigenvalue", witness=witness)
    rows = factor_from_decomposition(dec, tol)
    recon = np.linalg.norm(rows.T @ rows - s)
    if recon > RECON_TOL * np.linalg.norm(s):
        raise NumericalError(f"PSD factorization residual {recon:.3e} exceeds {RECON_TOL:.3e} * ||S||")
    return list(rows)
