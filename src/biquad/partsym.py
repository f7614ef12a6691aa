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
cells, so a terms file reaches (d, A, B) without a dense tensor, (d, A, B)
reaches the dense tensor only through its cells, and the data of its
transpose through the cells of two x variables (``transposed``).
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
    point_vectors,
    require_indexable,
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
        if d.ndim != 1:
            raise InvalidInput("d must be a vector")
        n = len(d)
        if n == 0:
            raise InvalidInput("m and n must be positive")
        a = np.asarray(self.A, dtype=float)
        b = np.asarray(self.B, dtype=float)
        if not (np.isfinite(d).all() and np.isfinite(a).all() and np.isfinite(b).all()):
            raise InvalidInput("coefficients d, A and B must be finite")
        a = linalg.as_sym_matrix(a)
        b = linalg.as_sym_matrix(b)
        if a.shape != (n, n) or b.shape != (n, n):
            raise InvalidInput("A and B must be n x n with n = len(d)")
        if np.abs(np.diag(b)).max() > 0.0:
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

    def cells(self) -> FormCells:
        """The canonical cells of the form: D + B on the blocks i = k, A on
        the others, each entry copied verbatim."""
        return FormCells.x_symmetric(self.m, self.B + np.diag(self.d), self.A)

    def transposed(self) -> XSymmetricData | None:
        """The data of P'(y, x) = P(x, y), None when P' is not x-symmetric,
        in O(m^2 + n^2): ``detect_x_symmetric`` on the transposed cells of
        min(m, 2) x variables, which hold every distinct cell of P, widened
        to m as d''[0] 1, A''[0, 0] I + A''[0, 1] (11' - I) and
        B''[0, 1] (11' - I), each entry copied verbatim as from
        ``detect_x_symmetric(self.cells().transpose())``."""
        m = self.m
        require_indexable(m, self.n, m * m, "entries of the transposed A and B")
        two = detect_x_symmetric(FormCells.x_symmetric(min(m, 2), self.B + np.diag(self.d), self.A).transpose())
        if two is None:
            return None
        # [0, -1] is the off-diagonal entry; with m = 1 there is none to fill.
        a, b = np.full((m, m), two.A[0, -1]), np.full((m, m), two.B[0, -1])
        np.fill_diagonal(a, two.A[0, 0])
        np.fill_diagonal(b, 0.0)
        return XSymmetricData(self.n, np.full(m, two.d[0]), a, b)

    def max_abs_coeff(self) -> float:
        """max|coeff| of the dense tensor, read off (d, A, B); A only enters
        the polynomial when m >= 2."""
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
    two (of R alone when m = 1).  When ``psd`` is False, ``evidence`` is the
    InvalidReduction that shows it: an (x, y) with P(x, y) < 0 and the
    matrix that fails; ``witness`` reads its (x, y).  ``slack`` bounds the
    coefficient error of a decomposition built from a PSD certificate; see
    ``check_psd_monic``.
    """

    psd: bool
    q: SpectralDecomposition
    r: SpectralDecomposition
    scale: float
    kept: np.ndarray
    jacobi: np.ndarray
    evidence: InvalidReduction | None = None
    slack: float = 0.0

    @property
    def witness(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The (x, y) of a failing test's evidence, else None."""
        return None if self.evidence is None else (self.evidence.x, self.evidence.y)


def qr_pair(data: XSymmetricData) -> QRPair:
    return QRPair(*_qr_scaled(data, 0))


def _qr_scaled(data: XSymmetricData, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Q and R formed from (d, A, B) times 4^-k (exact)."""
    d, a, b = (np.ldexp(v, -2 * k) for v in (data.d, data.A, data.B))
    base = np.diag(d) + b
    return base - a, base + (data.m - 1) * a


def evaluate_xsym(data: XSymmetricData, x, y) -> float:
    """P(x, y) straight from (d, A, B), without a dense tensor."""
    x, y = point_vectors(data.m, data.n, x, y)
    return float(data.evaluate_batch(x[None, :], y[None, :])[0])


def reconstruct(data: XSymmetricData) -> BiquadraticForm:
    """Dense coefficient tensor of the form described by (d, A, B), scattered
    from its cells (``data.cells().to_form()``)."""
    return data.cells().to_form()


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
    (i, j, k, l), _ = FormCells.layout(m, n)
    if np.abs(c - c[np.where(i == k, 0, 1).ravel()]).max() > _DETECT_TOL * float(np.abs(c).max()):
        return None
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
    Both are formed as (2^k S) (4^-k Q) (2^k S), 4^k near max|coeff|, so no
    step overflows.  A failing verdict carries a concrete witness: if Q has
    a negative eigenvalue with eigenvector u, then x orthogonal to the
    all-ones vector and y = S u give P(x, y) = u'SQSu < 0; if only R fails,
    x = 1/sqrt(m) and y = S times the offending eigenvector work the same
    way.  Witnesses are verified numerically before being returned.

    A PSD verdict lets the decomposition drop every eigenvalue with
    |lam| <= eps * scale, so the scaled Q and R it rebuilds are off by a
    matrix E with ||E||_2 <= eps * scale.  Unscaled, entry (j, l) is off by
    |E_jl| / (s_j s_l) <= eps * scale * max s^-2 over the kept indices, and
    the coefficients D + B = Q + (R - Q)/m and A = (R - Q)/m by no more.
    That bound is the certificate's ``slack``; ``forms.verify_sos`` allows
    it on top of its rounding bound, so every form this test accepts
    decomposes within the verifier's bound.
    """
    m, n = data.m, data.n
    s = _jacobi_scaling(data.d)
    k = linalg.quarter_exponent(np.array(data.max_abs_coeff()))
    unit_s = np.ldexp(s, k)
    q, r = (matrix * np.outer(unit_s, unit_s) for matrix in _qr_scaled(data, k))
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
        slack = tol.eps * scale * float((1.0 / jacobi**2).max())
        return PSDCertificate(True, q_dec, r_dec, scale, kept, jacobi, slack=slack)

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
    return PSDCertificate(False, q_dec, r_dec, scale, kept, jacobi, InvalidReduction(x, y, value, reason))


def assemble_m_matrix(data: XSymmetricData) -> np.ndarray:
    """The mn x mn matrix I_m (x) Q + (1/m) 11' (x) (R - Q) with
    z' M z = P(x, y) for z = x (x) y."""
    return _m_scaled(data, 0)


def _m_scaled(data: XSymmetricData, k: int) -> np.ndarray:
    """``assemble_m_matrix`` formed from (d, A, B) times 4^-k (exact)."""
    q, r = _qr_scaled(data, k)
    return np.kron(np.eye(data.m), q) + np.kron(np.full((data.m, data.m), 1.0 / data.m), r - q)


def _require_psd(cert: PSDCertificate) -> None:
    """Raise NotPSD carrying the certificate's InvalidReduction when it fails."""
    if not cert.psd:
        raise NotPSD(f"form is not PSD: {cert.evidence.reason}", witness=cert.evidence)


def sos_decompose_naive(data: XSymmetricData, tol: Tolerances = DEFAULT_TOL) -> SOSDecomposition:
    """SOS decomposition via the full Gram matrix: assemble M times 4^-k, 4^k near max|coeff|, factor it,
    scale the rows by 2^k (exact), reshape each into an m x n matrix (m blocks of length n)."""
    cert = check_psd_monic(data, tol)
    _require_psd(cert)
    k = linalg.quarter_exponent(np.array(data.max_abs_coeff()))
    rows = np.ldexp(linalg.psd_factor(_m_scaled(data, k), tol), k)
    return SOSDecomposition(data.m, data.n, rows.reshape(-1, data.m, data.n))


def sos_decompose_structured(
    data: XSymmetricData, tol: Tolerances = DEFAULT_TOL, cert: PSDCertificate | None = None
) -> GroupedSOSDecomposition:
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
    are built.  Q and R are eigen-solved once, by the PSD test; a caller
    that already holds ``check_psd_monic(data, tol)`` passes it as ``cert``.
    """
    cert = check_psd_monic(data, tol) if cert is None else cert
    _require_psd(cert)
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
    _require_psd(cert)
    rank_r = linalg.rank_from_eigenvalues(cert.r.eigenvalues, tol, cert.scale)
    rank_q = linalg.rank_from_eigenvalues(cert.q.eigenvalues, tol, cert.scale)
    return rank_r + (data.m - 1) * rank_q


def sos_decompose_general(data: XSymmetricData, tol: Tolerances = DEFAULT_TOL) -> GroupedSOSDecomposition:
    """``sos_decompose_structured(data, tol)``: the structured route with
    the PSD test run here."""
    return sos_decompose_structured(data, tol)


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
