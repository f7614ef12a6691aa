"""Forms symmetric under permutation of the x variables.

An x-symmetric m x n biquadratic form is pinned down by a diagonal weight
vector d and two n x n symmetric matrices A, B (B with zero diagonal):

    P(x, y) = sum_ij d_j x_i^2 y_j^2
            + sum_{i != k} sum_jl A[j,l] x_i x_k y_j y_l
            + sum_i sum_{j != l} B[j,l] x_i^2 y_j y_l
            = (x'x) (y' diag(d) y) + ((1'x)^2 - x'x) (y'Ay) + (x'x) (y'By).

In the monic case (d = 1) positive semidefiniteness is equivalent to the two
matrix inequalities Q = I + B - A >= 0 and R = I + B + (m-1)A >= 0, and every
PSD form of this class decomposes as a sum of rank(R) + (m-1) rank(Q)
bilinear squares.  Both the direct route (assemble the mn x mn Gram matrix
and factor it) and the structured route (work on the n x n spectra of Q and
R only) are implemented; the structured route never forms the big matrix.
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
    GroupedSOSDecomposition,
    SOSDecomposition,
    helmert_basis,
)
from .linalg import COEFF_TOL, DEFAULT_TOL, SpectralDecomposition, Tolerances

_MONIC_ATOL = 1e-12
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

    @property
    def is_monic(self) -> bool:
        return self.n > 0 and bool(np.allclose(self.d, 1.0, rtol=0.0, atol=_MONIC_ATOL))

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
    """The two symmetric criterion matrices Q = I + B - A and
    R = I + B + (m-1) A."""

    Q: np.ndarray
    R: np.ndarray


@dataclass(frozen=True)
class PSDCertificate:
    """Re-verifiable outcome of the PSD test.

    ``q`` and ``r`` are the spectra of Q and R.  Both are parts of one form,
    so every cutoff on either is relative to ``scale``, the largest
    eigenvalue magnitude of the two (of R alone when m = 1).  When ``psd``
    is False, ``witness`` is an (x, y) pair of unit vectors with
    ``witness_value = P(x, y) < 0``.
    """

    psd: bool
    q: SpectralDecomposition
    r: SpectralDecomposition
    scale: float
    witness: tuple[np.ndarray, np.ndarray] | None = None
    witness_value: float | None = None

    @property
    def verdict(self) -> str:
        return "PSD" if self.psd else "NotPSD"


@dataclass(frozen=True)
class MonicReduction:
    """Outcome of scaling a general x-symmetric form down to a monic one.

    ``scale[j]`` is sqrt(d_j) for active indices and 0 for dropped ones;
    ``active`` lists the surviving y indices in order.  The monic data has
    order ``len(active)``.
    """

    monic: XSymmetricData
    scale: np.ndarray
    active: tuple[int, ...]


@dataclass(frozen=True)
class InvalidReduction:
    """Negativity evidence found while reducing: P(x, y) = value < 0."""

    x: np.ndarray
    y: np.ndarray
    value: float
    reason: str


def qr_pair(data: XSymmetricData) -> QRPair:
    eye = np.eye(data.n)
    return QRPair(Q=eye + data.B - data.A, R=eye + data.B + (data.m - 1) * data.A)


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


def detect_x_symmetric(form: BiquadraticForm) -> XSymmetricData | None:
    """Recognize an x-symmetric coefficient pattern.

    Returns the (d, A, B) data when every off-diagonal block ``P[i, :, k, :]``
    (i != k) is within ``1e-10 * max|coeff|`` of A and every diagonal block
    ``P[i, :, i, :]`` within it of ``B + diag(d)``, else None.  The blocks are
    compared by broadcasting, without building the dense tensor of the
    candidate.  On exactly x-symmetric input the round trip
    ``reconstruct(detect_x_symmetric(P)) == P`` is exact, because
    representative entries are taken verbatim.
    """
    m, n = form.m, form.n
    a = form.coeffs
    d = a[0, np.arange(n), 0, np.arange(n)].copy()
    if m >= 2:
        A = a[0, :, 1, :].copy()
    else:
        A = np.zeros((n, n))
    B = a[0, :, 0, :].copy()
    np.fill_diagonal(B, 0.0)
    try:
        candidate = XSymmetricData(m, d, 0.5 * (A + A.T), 0.5 * (B + B.T))
    except InvalidInput:
        return None
    diff = a - candidate.A[None, :, None, :]
    idx = np.arange(m)
    diff[idx, :, idx, :] = a[idx, :, idx, :] - (candidate.B + np.diag(candidate.d))
    if np.abs(diff, out=diff).max() <= _DETECT_TOL * float(np.abs(a).max()):
        return candidate
    return None


def check_psd_monic(data: XSymmetricData, tol: Tolerances = DEFAULT_TOL) -> PSDCertificate:
    """PSD test for a monic form via the Q / R matrix inequalities.

    A failing verdict carries a concrete witness: if Q has a negative
    eigenvalue with eigenvector u, then x orthogonal to the all-ones vector
    and y = u give P(x, y) = u'Qu < 0; if only R fails, x = 1/sqrt(m) and
    y = the offending eigenvector work the same way.  Witnesses are verified
    numerically before being returned.
    """
    if not data.is_monic:
        raise InvalidInput("form is not monic; apply reduce_general first")
    pair = qr_pair(data)
    q_dec = linalg.sym_eig(pair.Q, tol)
    r_dec = linalg.sym_eig(pair.R, tol)
    m = data.m
    # With a single x variable the cross terms vanish and A never enters the
    # polynomial, so only R = I + B is decisive.
    scale = linalg.spectral_scale(r_dec.eigenvalues, q_dec.eigenvalues if m >= 2 else ())
    q_ok, q_wit = linalg.psd_from_decomposition(q_dec, tol, scale) if m >= 2 else (True, None)
    r_ok, r_wit = linalg.psd_from_decomposition(r_dec, tol, scale)

    if q_ok and r_ok:
        return PSDCertificate(True, q_dec, r_dec, scale)

    if not q_ok:
        x = np.zeros(m)
        x[0], x[1] = 1.0, -1.0
        x /= math.sqrt(2.0)
        y = q_wit
    else:
        x = np.full(m, 1.0 / math.sqrt(m))
        y = r_wit
    value = evaluate_xsym(data, x, y)
    if not value < 0.0:
        raise linalg.NumericalError(f"PSD witness failed to evaluate negative: {value!r}")
    return PSDCertificate(False, q_dec, r_dec, scale, (x, y), value)


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
    paired with sqrt(mu) u for every positive eigenpair (mu, u) of R, and the
    Helmert rows, an orthonormal basis of the all-ones complement (tag
    ``HELMERT``), paired with sqrt(lam) u for every positive eigenpair of Q.
    Both X bases are named, not built.  The factor count is exactly
    rank(R) + (m-1) rank(Q) and the summed Gram matrix equals the one the
    direct route factors, so both routes decompose the same form; neither
    the big matrix nor the dense factors are built.  Q and R are
    eigen-solved once, by the PSD test.
    """
    cert = check_psd_monic(data, tol)
    if not cert.psd:
        raise NotPSD("form is not PSD", witness=cert)
    groups = [(ONES, linalg.factor_from_decomposition(cert.r, tol, cert.scale))]
    if data.m >= 2:
        groups.append((HELMERT, linalg.factor_from_decomposition(cert.q, tol, cert.scale)))
    return GroupedSOSDecomposition(data.m, data.n, tuple(groups))


def rank_bound(data: XSymmetricData, tol: Tolerances = DEFAULT_TOL) -> int:
    """rank(R) + (m-1) rank(Q): the square count of the structured route and
    the rank of the assembled Gram matrix."""
    cert = check_psd_monic(data, tol)
    if not cert.psd:
        raise NotPSD("form is not PSD", witness=cert)
    rank_r = linalg.rank_from_eigenvalues(cert.r.eigenvalues, tol, cert.scale)
    rank_q = linalg.rank_from_eigenvalues(cert.q.eigenvalues, tol, cert.scale)
    return rank_r + (data.m - 1) * rank_q


def _line_witness(data: XSymmetricData, x0, y0, dx, dy) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimize P along a line that moves only x or only y, where P restricts
    to a quadratic in the step; returns the (x, y, value) at the minimizer."""
    q0 = evaluate_xsym(data, x0, y0)
    qp = evaluate_xsym(data, x0 + dx, y0 + dy)
    qm = evaluate_xsym(data, x0 - dx, y0 - dy)
    alpha = 0.5 * (qp + qm) - q0
    beta = 0.5 * (qp - qm)
    if alpha > 0.0:
        t = -beta / (2.0 * alpha)
    elif beta != 0.0:
        t = -math.copysign(1e6, beta)
    else:
        t = 1e6
    x = x0 + t * dx
    y = y0 + t * dy
    return x, y, evaluate_xsym(data, x, y)


def reduce_general(data: XSymmetricData, tol: Tolerances = DEFAULT_TOL) -> MonicReduction | InvalidReduction:
    """Scale a general x-symmetric form to a monic one, or certify it is not PSD.

    Positive weights are absorbed by y_j -> y_j / sqrt(d_j).  A weight at
    most ``1e-12 * max(0, max d)`` counts as zero.  A zero weight d_j0
    forces, for a PSD form, B[:, j0] = 0, A[j0, j0] = 0 and A[:, j0] = 0,
    each up to ``1e-12 * max|coeff|``; when those vanishing conditions hold
    the index is dropped, otherwise the violated first-order condition
    yields an explicit descent direction on which the form goes strictly
    negative, returned as an InvalidReduction.  A weight below
    ``-1e-12 * max|coeff|`` is itself a witness.
    """
    d = data.d
    n = data.n
    m = data.m
    eps_d = COEFF_TOL * float(d.max(initial=0.0))
    coeff_scale = COEFF_TOL * data.max_abs_coeff()

    e1 = np.eye(m)[0]
    for j0 in range(n):
        if d[j0] < -coeff_scale:
            return InvalidReduction(e1, np.eye(n)[j0], float(d[j0]), f"negative square coefficient d[{j0}]")

    zero = [j for j in range(n) if d[j] <= eps_d]
    for j0 in zero:
        # First-order conditions at the vanishing square term: each one that
        # fails gives a line through (x0, e) on which P goes negative.
        e = np.eye(n)[j0]
        checks = [(data.B[:, j0], f"B[:, {j0}]", e1, np.zeros(m), -2.0 * (d * e + data.B @ e))]
        if m >= 2:
            grad_a = 2.0 * (d * e + (m - 1) * (data.A @ e) + data.B @ e)
            checks += [
                (data.A[j0, j0], f"A[{j0}, {j0}]", e1, np.ones(m) - e1, np.zeros(n)),
                (data.A[:, j0], f"A[:, {j0}]", np.full(m, 1.0 / math.sqrt(m)), np.zeros(m), -grad_a),
            ]
        for coeffs, name, x0, dx, dy in checks:
            if np.abs(coeffs).max() > coeff_scale:
                x, y, value = _line_witness(data, x0, e, dx, dy)
                if value < 0.0:
                    return InvalidReduction(x, y, value, f"{name} does not vanish with d[{j0}] = 0")

    active = tuple(j for j in range(n) if j not in set(zero))
    scale = np.zeros(n)
    if not active:
        monic = XSymmetricData(m, np.zeros(0), np.zeros((0, 0)), np.zeros((0, 0)))
        return MonicReduction(monic, scale, active)
    idx = np.asarray(active)
    roots = np.sqrt(d[idx])
    scale[idx] = roots
    denom = np.outer(roots, roots)
    a_red = data.A[np.ix_(idx, idx)] / denom
    b_red = data.B[np.ix_(idx, idx)] / denom
    np.fill_diagonal(b_red, 0.0)
    monic = XSymmetricData(m, np.ones(len(active)), a_red, b_red)
    return MonicReduction(monic, scale, active)


def undo_reduction(
    reduction: MonicReduction, monic_dec: SOSDecomposition | GroupedSOSDecomposition, m: int, n: int
) -> SOSDecomposition | GroupedSOSDecomposition:
    """Map factors of the reduced monic form back to the original variables:
    active y columns pick up sqrt(d_j), dropped indices become zero columns.
    Grouped decompositions only rescale and scatter their Y rows."""
    if not reduction.active:
        return SOSDecomposition(m, n, ())
    idx = np.asarray(reduction.active)
    col_scale = reduction.scale[idx]

    def scatter(w: np.ndarray) -> np.ndarray:
        full = np.zeros(w.shape[:-1] + (n,))
        full[..., idx] = w * col_scale
        return full

    if isinstance(monic_dec, GroupedSOSDecomposition):
        return GroupedSOSDecomposition(m, n, tuple((xg, scatter(yg)) for xg, yg in monic_dec.groups))
    return SOSDecomposition(m, n, tuple(scatter(w) for w in monic_dec.factors))


def lift_witness(reduction: MonicReduction, z: np.ndarray, n: int) -> np.ndarray:
    """Map a witness y-vector of the reduced monic form back to the original
    variables: y_j = z_j / sqrt(d_j) on active indices, 0 on dropped ones,
    so P(x, y) equals the monic form's value at (x, z)."""
    y = np.zeros(n)
    idx = np.asarray(reduction.active)
    y[idx] = z / reduction.scale[idx]
    return y


def sos_decompose_general(
    data: XSymmetricData, tol: Tolerances = DEFAULT_TOL
) -> SOSDecomposition | GroupedSOSDecomposition:
    """Reduce to monic, decompose with the structured route, undo the scaling.

    The result verifies against the original form.  A form that is not PSD
    raises NotPSD whose witness is an InvalidReduction in the original
    variables, with ``value = P(x, y) < 0``.
    """
    reduction = reduce_general(data, tol)
    if isinstance(reduction, InvalidReduction):
        raise NotPSD(f"form is not PSD: {reduction.reason}", witness=reduction)
    if not reduction.active:
        return SOSDecomposition(data.m, data.n, ())
    try:
        monic_dec = sos_decompose_structured(reduction.monic, tol)
    except NotPSD as exc:
        x, z = exc.witness.witness
        y = lift_witness(reduction, z, data.n)
        reason = "Q/R eigenvalue test failed"
        witness = InvalidReduction(x, y, evaluate_xsym(data, x, y), reason)
        raise NotPSD(f"form is not PSD: {reason}", witness=witness) from None
    return undo_reduction(reduction, monic_dec, data.m, data.n)


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
