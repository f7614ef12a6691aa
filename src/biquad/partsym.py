"""Forms symmetric under permutation of the x variables.

An x-symmetric m x n biquadratic form is pinned down by a diagonal weight
vector d and two n x n symmetric matrices A, B (B with zero diagonal):

    P(x, y) = sum_ij d_j x_i^2 y_j^2
            + sum_{i != k} sum_jl A[j,l] x_i x_k y_j y_l
            + sum_i sum_{j != l} B[j,l] x_i^2 y_j y_l
            = (x'x) (y' diag(d) y) + ((1'x)^2 - x'x) (y'Ay) + (x'x) (y'By).

With x_perp = x - mean(x) 1 the form splits as

    P(x, y) = |x_perp|^2 y'Qy + (1'x)^2 / m * y'Ry,
    Q = D + B - A,  R = D + B + (m-1) A,  D = diag(d),

so for any weights it is PSD exactly when Q >= 0 (for m >= 2) and R >= 0,
and every PSD form of this class decomposes as a sum of
rank(R) + (m-1) rank(Q) bilinear squares.  Both the direct route (assemble
the mn x mn Gram matrix and factor it) and the structured route (work on
the n x n spectra of Q and R only) are implemented; the structured route
never forms the big matrix.  x-symmetry is detected on a form's canonical
cells, so a terms file reaches (d, A, B) without a dense tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidInput, NotPSD
from .forms import (  # helmert_basis is re-exported for callers of partsym
    HELMERT,
    ONES,
    BiquadraticForm,
    FormCells,
    GroupedSOSDecomposition,
    SOSDecomposition,
    helmert_basis,
)
from .linalg import COEFF_TOL, DEFAULT_TOL, SpectralDecomposition, Tolerances

# detect_x_symmetric's match tolerance, relative to max|coeff|.
_DETECT_TOL = 1e-10


@dataclass(frozen=True)
class XSymmetricData:
    """Coefficient data (d, A, B) of an x-symmetric form; see module docs."""

    m: int
    d: np.ndarray
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        if self.m < 1:
            raise InvalidInput("m must be positive")
        d = np.asarray(self.d, dtype=float)
        n = d.shape[0] if d.ndim == 1 else -1
        if n < 0:
            raise InvalidInput("d must be a vector")
        a = np.asarray(self.A, dtype=float)
        b = np.asarray(self.B, dtype=float)
        if not (np.isfinite(d).all() and np.isfinite(a).all() and np.isfinite(b).all()):
            raise InvalidInput("coefficients d, A and B must be finite")
        a = linalg.as_sym_matrix(a) if n > 0 else np.zeros((0, 0))
        b = linalg.as_sym_matrix(b) if n > 0 else np.zeros((0, 0))
        if a.shape != (n, n) or b.shape != (n, n):
            raise InvalidInput("A and B must be n x n with n = len(d)")
        if n > 0 and np.abs(np.diag(b)).max() > 0.0:
            raise InvalidInput("B must have exactly zero diagonal")
        for name, arr in (("d", d), ("A", a), ("B", b)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return int(self.d.shape[0])

    def evaluate_batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """P at many points, xs (s, m) and ys (s, n), through the identity
        P = (x'x)(y' diag(d) y) + ((1'x)^2 - x'x)(y'Ay) + (x'x)(y'By):
        O(m + n^2) per point, no dense tensor."""
        xx = np.einsum("si,si->s", xs, xs)
        ones_x = xs.sum(axis=1)
        y_d = (ys * ys) @ self.d
        y_a = np.einsum("sj,sj->s", ys @ self.A, ys)
        y_b = np.einsum("sj,sj->s", ys @ self.B, ys)
        return xx * y_d + (ones_x * ones_x - xx) * y_a + xx * y_b

    def max_abs_coeff(self) -> float:
        """max|coeff| of the dense tensor, read off (d, A, B); A only enters
        the polynomial when m >= 2."""
        if self.n == 0:
            return 0.0
        parts = [np.abs(self.d).max(), np.abs(self.B).max()]
        if self.m >= 2:
            parts.append(np.abs(self.A).max())
        return float(max(parts))


@dataclass(frozen=True)
class QRPair:
    """The two symmetric criterion matrices Q = D + B - A and
    R = D + B + (m-1) A, D = diag(d)."""

    Q: np.ndarray
    R: np.ndarray


@dataclass(frozen=True)
class InvalidReduction:
    """Negativity evidence in the form's own variables: P(x, y) = value < 0,
    and which of Q and R fails."""

    x: np.ndarray
    y: np.ndarray
    value: float
    reason: str


@dataclass(frozen=True)
class PSDCertificate:
    """Re-verifiable outcome of the PSD test.

    ``q`` and ``r`` are the spectra of S Q S and S R S restricted to the
    ``kept`` y indices, where S = diag(``jacobi``) on those indices (see
    ``check_psd_monic``).  Both are parts of one form, so every cutoff on
    either is relative to ``scale``, the largest eigenvalue magnitude of the
    two (of R alone when m = 1).  When ``psd`` is False, ``witness`` is an
    (x, y) pair with ``witness_value = P(x, y) < 0`` and ``reason`` names the
    matrix that fails.
    """

    psd: bool
    q: SpectralDecomposition
    r: SpectralDecomposition
    scale: float
    kept: np.ndarray
    jacobi: np.ndarray
    witness: tuple[np.ndarray, np.ndarray] | None = None
    witness_value: float | None = None
    reason: str | None = None

    @property
    def verdict(self) -> str:
        return "PSD" if self.psd else "NotPSD"

    @property
    def evidence(self) -> InvalidReduction | None:
        """The witness of a failing test as an InvalidReduction, else None."""
        if self.psd:
            return None
        x, y = self.witness
        return InvalidReduction(x, y, self.witness_value, self.reason)


def qr_pair(data: XSymmetricData) -> QRPair:
    base = np.diag(data.d) + data.B
    return QRPair(Q=base - data.A, R=base + (data.m - 1) * data.A)


def evaluate_xsym(data: XSymmetricData, x, y) -> float:
    """P(x, y) straight from (d, A, B), without a dense tensor."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (data.m,) or y.shape != (data.n,):
        raise InvalidInput("vector lengths do not match the form")
    return float(data.evaluate_batch(x[None, :], y[None, :])[0])


def reconstruct(data: XSymmetricData) -> BiquadraticForm:
    """Dense coefficient tensor of the form described by (d, A, B)."""
    m, n = data.m, data.n
    a = np.empty((m, n, m, n))
    a[:] = data.A[None, :, None, :]
    block = data.B + np.diag(data.d)
    idx = np.arange(m)
    a[idx, :, idx, :] = block[None, :, :]
    return BiquadraticForm(m, n, a)


def detect_x_symmetric(form: BiquadraticForm | FormCells) -> XSymmetricData | None:
    """Recognize an x-symmetric coefficient pattern on the canonical cells.

    The cells of block (i, k) (see ``FormCells``) must be within
    ``1e-10 * max|coeff|`` of those of block (0, 0) when i = k, and of block
    (0, 1) when i < k; then d, B and A are read off those two rows, else the
    result is None.  A dense form is gathered into its cells first.  On
    exactly x-symmetric input the round trip
    ``reconstruct(detect_x_symmetric(P)) == P`` is exact, because the
    representative cells are taken verbatim.
    """
    cells = form if isinstance(form, FormCells) else FormCells.of(form)
    m, n, c = cells.m, cells.n, cells.values
    i, k = np.triu_indices(m)
    if np.abs(c - c[np.where(i == k, 0, 1)]).max() > _DETECT_TOL * float(np.abs(c).max()):
        return None
    j, l = np.triu_indices(n)
    B = np.zeros((n, n))
    B[j, l] = B[l, j] = c[0]
    d = np.diag(B).copy()
    np.fill_diagonal(B, 0.0)
    A = np.zeros((n, n))
    if m >= 2:
        A[j, l] = A[l, j] = c[1]
    return XSymmetricData(m, d, A, B)


def _jacobi_scaling(d: np.ndarray) -> np.ndarray:
    """s_j = 1/sqrt|d_j| where |d_j| > COEFF_TOL * max|d|, and 1/sqrt(max|d|)
    for the other weights (1 when every weight is 0)."""
    size = np.abs(d)
    top = float(size.max(initial=0.0))
    return 1.0 / np.sqrt(np.where(size > COEFF_TOL * top, size, top or 1.0))


def check_psd_monic(data: XSymmetricData, tol: Tolerances = DEFAULT_TOL) -> PSDCertificate:
    """PSD test for any x-symmetric form via the Q / R matrix inequalities.

    Q and R are judged as S Q S and S R S with S = ``_jacobi_scaling(d)``, a
    congruence that keeps their inertia, after dropping every y index whose
    row of both scaled matrices (of R alone when m = 1) is exactly zero.
    A failing verdict carries a concrete witness: if Q has a negative
    eigenvalue with eigenvector u, then x orthogonal to the all-ones vector
    and y = S u give P(x, y) = u'SQSu < 0; if only R fails, x = 1/sqrt(m)
    and y = S times the offending eigenvector work the same way.  Witnesses
    are verified numerically before being returned.
    """
    m, n = data.m, data.n
    s = _jacobi_scaling(data.d)
    pair = qr_pair(data)
    q = pair.Q * np.outer(s, s)
    r = pair.R * np.outer(s, s)
    live = np.any(r, axis=1)
    if m >= 2:
        live |= np.any(q, axis=1)
    kept = np.flatnonzero(live)
    jacobi = s[kept]
    if not kept.size:  # the zero form
        empty = SpectralDecomposition(np.zeros(0), np.zeros((0, 0)))
        return PSDCertificate(True, empty, empty, 0.0, kept, jacobi)
    q_dec = linalg.sym_eig(q[np.ix_(kept, kept)])
    r_dec = linalg.sym_eig(r[np.ix_(kept, kept)])
    # With a single x variable the cross terms vanish and A never enters the
    # polynomial, so only R = D + B is decisive.
    scale = linalg.spectral_scale(r_dec.eigenvalues, q_dec.eigenvalues if m >= 2 else ())
    q_ok, q_wit = linalg.psd_from_decomposition(q_dec, tol, scale) if m >= 2 else (True, None)
    r_ok, r_wit = linalg.psd_from_decomposition(r_dec, tol, scale)

    if q_ok and r_ok:
        return PSDCertificate(True, q_dec, r_dec, scale, kept, jacobi)

    if not q_ok:
        x = np.zeros(m)
        x[0], x[1] = 1.0, -1.0
        x /= math.sqrt(2.0)
        u, reason = q_wit, "Q = D + B - A is not PSD"
    else:
        x = np.full(m, 1.0 / math.sqrt(m))
        u, reason = r_wit, "R = D + B + (m-1)A is not PSD"
    y = np.zeros(n)
    y[kept] = jacobi * u
    value = evaluate_xsym(data, x, y)
    if not value < 0.0:
        raise linalg.NumericalError(f"PSD witness failed to evaluate negative: {value!r}")
    return PSDCertificate(False, q_dec, r_dec, scale, kept, jacobi, (x, y), value, reason)


def assemble_m_matrix(data: XSymmetricData) -> np.ndarray:
    """The mn x mn matrix I_m (x) Q + (1/m) 11' (x) (R - Q) with
    z' M z = P(x, y) for z = x (x) y."""
    pair = qr_pair(data)
    m = data.m
    return np.kron(np.eye(m), pair.Q) + np.kron(np.full((m, m), 1.0 / m), pair.R - pair.Q)


def sos_decompose_naive(data: XSymmetricData, tol: Tolerances = DEFAULT_TOL) -> SOSDecomposition:
    """SOS decomposition via the full Gram matrix: assemble M, factor it,
    reshape each factor vector into an m x n matrix (m blocks of length n)."""
    cert = check_psd_monic(data, tol)
    if not cert.psd:
        raise NotPSD("form is not PSD", witness=cert)
    vectors = linalg.psd_factor(assemble_m_matrix(data), tol)
    factors = tuple(w.reshape(data.m, data.n) for w in vectors)
    return SOSDecomposition(data.m, data.n, factors)


def sos_decompose_structured(data: XSymmetricData, tol: Tolerances = DEFAULT_TOL) -> GroupedSOSDecomposition:
    """SOS decomposition from the n x n spectra of Q and R alone.

    Returns two Kronecker groups: the row (1/sqrt(m)) 1_m (tag ``ONES``)
    paired with sqrt(mu) u' / s for every positive eigenpair (mu, u) of the
    scaled S R S of ``check_psd_monic``, and the Helmert rows, an
    orthonormal basis of the all-ones complement (tag ``HELMERT``), paired
    with sqrt(lam) u' / s for every positive eigenpair of S Q S.  The y rows
    are zero on every dropped index.  Both X bases are named, not built.
    The factor count is exactly rank(R) + (m-1) rank(Q) and the summed Gram
    matrix equals the one the direct route factors, so both routes
    decompose the same form; neither the big matrix nor the dense factors
    are built.  Q and R are eigen-solved once, by the PSD test.
    """
    cert = check_psd_monic(data, tol)
    if not cert.psd:
        raise NotPSD("form is not PSD", witness=cert)
    groups = [(ONES, _y_rows(cert, cert.r, tol, data.n))]
    if data.m >= 2:
        groups.append((HELMERT, _y_rows(cert, cert.q, tol, data.n)))
    return GroupedSOSDecomposition(data.m, data.n, tuple(groups))


def _y_rows(cert: PSDCertificate, dec: SpectralDecomposition, tol: Tolerances, n: int) -> np.ndarray:
    """Rows sqrt(lam) u' / s of one scaled spectrum, scattered into n
    columns: exactly zero on every dropped index."""
    rows = linalg.factor_from_decomposition(dec, tol, cert.scale)
    y = np.zeros((len(rows), n))
    y[:, cert.kept] = rows / cert.jacobi
    return y


def rank_bound(data: XSymmetricData, tol: Tolerances = DEFAULT_TOL) -> int:
    """rank(R) + (m-1) rank(Q): the square count of the structured route and
    the rank of the assembled Gram matrix."""
    cert = check_psd_monic(data, tol)
    if not cert.psd:
        raise NotPSD("form is not PSD", witness=cert)
    rank_r = linalg.rank_from_eigenvalues(cert.r.eigenvalues, tol, cert.scale)
    rank_q = linalg.rank_from_eigenvalues(cert.q.eigenvalues, tol, cert.scale)
    return rank_r + (data.m - 1) * rank_q


def sos_decompose_general(data: XSymmetricData, tol: Tolerances = DEFAULT_TOL) -> GroupedSOSDecomposition:
    """``sos_decompose_structured`` whose NotPSD carries an InvalidReduction:
    the witness in the form's own variables, ``value = P(x, y) < 0``, and
    the matrix that fails."""
    try:
        return sos_decompose_structured(data, tol)
    except NotPSD as exc:
        evidence = exc.witness.evidence
        raise NotPSD(f"form is not PSD: {evidence.reason}", witness=evidence) from None


def random_psd_instance(
    m: int,
    n: int,
    rng: np.random.Generator,
    rank_q: int | None = None,
    rank_r: int | None = None,
) -> XSymmetricData:
    """Random monic instance that is PSD by construction, with prescribed
    ranks of Q and R (defaults: full)."""
    rank_q = n if rank_q is None else rank_q
    rank_r = n if rank_r is None else rank_r
    if not (1 <= rank_q <= n and 1 <= rank_r <= n):
        raise InvalidInput("ranks must lie in [1, n]")
    fq = rng.standard_normal((n, rank_q))
    fr = rng.standard_normal((n, rank_r))
    q0 = fq @ fq.T
    r0 = fr @ fr.T
    # Rescale so the implied diagonal weights are exactly one.
    diag = np.diag(r0 + (m - 1) * q0) / m
    s = 1.0 / np.sqrt(diag)
    q = q0 * np.outer(s, s)
    r = r0 * np.outer(s, s)
    a = (r - q) / m
    b = (r + (m - 1) * q) / m - np.eye(n)
    np.fill_diagonal(b, 0.0)
    return XSymmetricData(m, np.ones(n), 0.5 * (a + a.T), 0.5 * (b + b.T))
