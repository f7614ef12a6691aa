"""M-eigenvalues of small biquadratic tensors.

A pair of unit vectors (x, y) with

    sum_jkl a_ijkl y_j x_k y_l = lambda x_i,   sum_ikl a_ijkl x_i x_k y_l = lambda y_j

is an M-eigenpair; lambda then equals P(x, y), and the form is PSD exactly
when no M-eigenvalue is negative (Qi, Dai and Han 2009).  There is no direct
algorithm here.  The solver runs all seeded starts as one stack: a few
alternating symmetric eigensteps on the contracted matrices
G(y)_ik = sum_jl a_ijkl y_j y_l and H(x)_jl = sum_ik a_ijkl x_i x_k, each
start targeting the smallest or the largest eigenpair, then Newton steps on
the M-eigen system for the starts still open.  Every pair it returns is the
targeted extreme eigenpair of both G(y) and H(x), that is, a fixed point of
the extreme-targeting alternation.  It can miss pairs, so it serves as a
cross-check oracle, never as a PSD decision procedure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, require_count
from .forms import BiquadraticForm, evaluate_batch, max_abs_coeff, point_vectors
from .linalg import canonical_sign

# Default residual bound of meig_solve and min_probe, relative to max|c|.
_TOL = 1e-10
# meig_solve's duplicate test, in units of max|c| (see its docstring).
_DEDUP_TOL = 1e-6
# Alternating eigensteps before the Newton polish takes over, and the cap
# on all steps of a start.
_ALTERNATIONS = 15
_MAX_ITER = 200
# Newton's residual need not fall at every step, but a start whose residual
# norm is not below this share of its norm two steps earlier has stalled.
_NEWTON_DECAY = 0.5
# meig_solve rejects forms with m or n above this.
_SIZE_CAP = 8


def check_size(m: int, n: int) -> None:
    """InvalidInput when m or n is above the cap ``meig_solve`` accepts."""
    if m > _SIZE_CAP or n > _SIZE_CAP:
        raise InvalidInput(f"form size {m} x {n} exceeds the cap {_SIZE_CAP}")


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Rows drawn uniformly from the unit sphere in R^dim."""
    v = rng.standard_normal((count, dim))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    degenerate = norms[:, 0] < 1e-12
    if degenerate.any():
        v[degenerate] = 0.0
        v[degenerate, 0] = 1.0
        norms[degenerate] = 1.0
    return v / norms


@dataclass(frozen=True)
class MEigenpair:
    """One converged eigenpair with its defining-system residuals."""

    eigenvalue: float
    x: np.ndarray
    y: np.ndarray
    residual_x: float
    residual_y: float


def contract_x(form: BiquadraticForm, x, y) -> np.ndarray:
    """Vector with components sum_jkl a_ijkl y_j x_k y_l; contracting it
    against x recovers P(x, y)."""
    x, y = point_vectors(form.m, form.n, x, y)
    return _Contractor(form.coeffs).x_matrices(y[None])[0] @ x


def contract_y(form: BiquadraticForm, x, y) -> np.ndarray:
    """Vector with components sum_ikl a_ijkl x_i x_k y_l."""
    x, y = point_vectors(form.m, form.n, x, y)
    return _Contractor(form.coeffs).y_matrices(x[None])[0] @ y


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (u[:, :, None] * v[:, None, :]).reshape(len(u), -1)


class _Contractor:
    """Unfoldings of an (m, n, m, n) tensor, so that contracting a stack of
    starts is one matmul.  A form's unfolding rows (i, k) and (k, i) are
    equal, so G(y) and H(x) need no symmetrizing: ``eigh`` reads one triangle."""

    def __init__(self, coeffs: np.ndarray):
        m, n = coeffs.shape[:2]
        self.m, self.n = m, n
        self.x_unfold = coeffs.transpose(0, 2, 1, 3).reshape(m * m, n * n)
        self.y_unfold = coeffs.transpose(1, 3, 0, 2).reshape(n * n, m * m)
        self.gram = coeffs.reshape(m * n, m * n)

    def x_matrices(self, y: np.ndarray) -> np.ndarray:
        """G(y) for each row of y: (b, n) -> (b, m, m)."""
        return (_outer(y, y) @ self.x_unfold.T).reshape(-1, self.m, self.m)

    def y_matrices(self, x: np.ndarray) -> np.ndarray:
        """H(x) for each row of x: (b, m) -> (b, n, n)."""
        return (_outer(x, x) @ self.y_unfold.T).reshape(-1, self.n, self.n)

    def cross(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """C_ij = sum_kl a_ijkl x_k y_l for each row pair: (b, m, n)."""
        return (_outer(x, y) @ self.gram).reshape(-1, self.m, self.n)


def _eigenstep(contractor: _Contractor, g: np.ndarray, pick: np.ndarray):
    """One alternating step for a stack of starts from g = G(y): x is the
    picked eigenvector of each G(y) (pick 0 the smallest, -1 the largest),
    then y that of H(x).  Returns x, y, H(x) and G(y) for the new y."""
    rows = np.arange(len(pick))
    x = canonical_sign(np.linalg.eigh(g)[1][rows, :, pick])
    h = contractor.y_matrices(x)
    y = canonical_sign(np.linalg.eigh(h)[1][rows, :, pick])
    return x, y, h, contractor.x_matrices(y)


def _residuals(x, y, g, h):
    """lambda = P(x, y) and the residual vectors of G(y)x = lambda x and
    H(x)y = lambda y, for each row."""
    gx = np.einsum("bik,bk->bi", g, x)
    hy = np.einsum("bjl,bl->bj", h, y)
    lam = np.einsum("bi,bi->b", x, gx)
    return lam, gx - lam[:, None] * x, hy - lam[:, None] * y


class _Starts:
    """State of a stack of starts: the last iterate of each and whether it
    passed the residual test ``|G(y)x - lam x|, |H(x)y - lam y| <= tol``."""

    def __init__(self, y0: np.ndarray, m: int):
        count = len(y0)
        self.x, self.y = np.zeros((count, m)), y0.copy()
        self.lam, self.rx, self.ry = np.full(count, np.inf), np.full(count, np.inf), np.full(count, np.inf)
        self.converged = np.zeros(count, dtype=bool)

    def record(self, idx, x, y, lam, fx, fy, tol) -> np.ndarray:
        """Store the iterates of starts ``idx``; return which converged."""
        rx, ry = np.linalg.norm(fx, axis=1), np.linalg.norm(fy, axis=1)
        self.x[idx], self.y[idx], self.lam[idx], self.rx[idx], self.ry[idx] = x, y, lam, rx, ry
        done = (rx <= tol) & (ry <= tol)
        self.converged[idx[done]] = True
        return done


def _search(contractor: _Contractor, y0: np.ndarray, pick: np.ndarray, tol: float) -> _Starts:
    """Run every start: ``_ALTERNATIONS`` alternating eigensteps, then Newton
    steps for the ones still open, at most ``_MAX_ITER`` steps in all.
    Thresholds are in the units of the contractor's tensor."""
    starts = _Starts(y0, contractor.m)
    idx = np.arange(len(y0))
    g = contractor.x_matrices(y0)
    for _ in range(_ALTERNATIONS):
        x, y, h, g = _eigenstep(contractor, g, pick[idx])
        done = starts.record(idx, x, y, *_residuals(x, y, g, h), tol)
        idx, g = idx[~done], g[~done]
        if not len(idx):
            return starts
    _polish(contractor, starts, idx, pick, tol, _MAX_ITER - _ALTERNATIONS)
    return starts


def _polish(contractor: _Contractor, starts: _Starts, idx, pick, tol: float, steps: int) -> None:
    """Newton steps on G(y)x = lam x, H(x)y = mu y, |x| = |y| = 1 for the
    open starts ``idx``, all systems in one stacked solve.

    The Jacobian in (x, y, lam, mu) is
    [[G - lam I, 2C, -x, 0], [2C', H - mu I, 0, -y], [x', 0, 0, 0], [0, y', 0, 0]]
    with C_ij = sum_kl a_ijkl x_k y_l.  Each iterate is renormalized and takes
    lam = mu = P(x, y).  A start is dropped when its system is singular or
    its residual norm is not below half of what it was two steps earlier.
    A converged start is kept only if lam is also the targeted extreme
    eigenvalue of G(y) and H(x).
    """
    m, n = contractor.m, contractor.n
    x, y = starts.x[idx], starts.y[idx]
    earlier = np.full((2, len(idx)), np.inf)  # residual norms one and two steps back
    polished = []
    for _ in range(steps):
        if not len(idx):
            break
        g, h = contractor.x_matrices(y), contractor.y_matrices(x)
        lam, fx, fy = _residuals(x, y, g, h)
        done = starts.record(idx, x, y, lam, fx, fy, tol)
        polished.append(idx[done])
        norm = np.hypot(np.linalg.norm(fx, axis=1), np.linalg.norm(fy, axis=1))
        jac = np.zeros((len(idx), m + n + 2, m + n + 2))
        c2 = 2.0 * contractor.cross(x, y)
        jac[:, :m, :m] = g - lam[:, None, None] * np.eye(m)
        jac[:, :m, m:m + n] = c2
        jac[:, :m, m + n] = -x
        jac[:, m:m + n, :m] = c2.transpose(0, 2, 1)
        jac[:, m:m + n, m:m + n] = h - lam[:, None, None] * np.eye(n)
        jac[:, m:m + n, m + n + 1] = -y
        jac[:, m + n, :m] = x
        jac[:, m + n + 1, m:m + n] = y
        keep = ~done & (norm < _NEWTON_DECAY * earlier[1]) & np.isfinite(np.linalg.slogdet(jac)[1])
        idx, x, y = idx[keep], x[keep], y[keep]
        earlier = np.stack([norm[keep], earlier[0, keep]])
        rhs = -np.concatenate([fx[keep], fy[keep], np.zeros((len(idx), 2))], axis=1)
        step = np.linalg.solve(jac[keep], rhs[:, :, None])[:, :, 0]
        # the border rows make each step orthogonal to x and y, so no norm
        # falls below 1
        x = canonical_sign(_unit(x + step[:, :m]))
        y = canonical_sign(_unit(y + step[:, m:m + n]))
    polished = np.concatenate(polished) if polished else np.zeros(0, dtype=int)
    if len(polished):
        g_eigs = np.linalg.eigvalsh(contractor.x_matrices(starts.y[polished]))
        h_eigs = np.linalg.eigvalsh(contractor.y_matrices(starts.x[polished]))
        lam = starts.lam[polished]
        extreme = np.where(
            pick[polished] == -1,
            (lam >= g_eigs[:, -1] - tol) & (lam >= h_eigs[:, -1] - tol),
            (lam <= g_eigs[:, 0] + tol) & (lam <= h_eigs[:, 0] + tol),
        )
        starts.converged[polished[~extreme]] = False


def _seeded_starts(form: BiquadraticForm, restarts: int, seed: int) -> np.ndarray:
    """The y0 of each restart, one per row, drawn from ``default_rng([seed, r])``.

    Raises InvalidInput when ``restarts`` is below 1.
    """
    require_count("restarts", restarts)
    y0 = np.empty((restarts, form.n))
    for ridx in range(len(y0)):
        rng = np.random.default_rng([seed, ridx])
        # Each stream opens with the m normals of an x row; they are skipped,
        # not normalised, as the first eigenstep sets x and y0 follows them.
        rng.standard_normal(form.m)
        y0[ridx] = _unit_rows(rng, 1, form.n)[0]
    return y0


def _normalized(form: BiquadraticForm) -> tuple[_Contractor, float]:
    """Contractor of coeffs / max|c| (1 for the zero form), so that every
    threshold of the search is relative to max|c|."""
    scale = max_abs_coeff(form) or 1.0
    return _Contractor(form.coeffs / scale), scale


def meig_solve(form: BiquadraticForm, restarts: int = 20, seed: int = 0, tol: float = _TOL) -> list[MEigenpair]:
    """M-eigenpairs from seeded starts, sorted by eigenvalue.

    Forms with m or n above 8 are rejected.  Each of the ``restarts`` seeded
    y0 starts twice, once driven toward the smallest and once toward the
    largest eigenpair, and all starts run as one stack: up to 15 alternating
    eigensteps, then Newton steps on the M-eigen system for the starts still
    open, 200 steps in all.  A pair is returned when both residuals
    ``|G(y)x - lam x|`` and ``|H(x)y - lam y|`` are at most
    ``tol * max|c|``; a polished pair must also have lam as the targeted
    extreme eigenvalue of G(y) and H(x).  Starts that stall or
    whose Newton system is singular are dropped.  Two converged
    starts are one pair when, in units of max|c|, their lambdas differ by at
    most 1e-6 and min(|x_a'x_b|, |y_a'y_b|) >= 1 - 1e-6, so (x, y) and its
    sign flips count once.  The smallest value returned is an upper bound on
    the true minimum M-eigenvalue; the list is not guaranteed complete.
    """
    check_size(form.m, form.n)
    contractor, scale = _normalized(form)
    y0 = _seeded_starts(form, restarts, seed)
    pick = np.tile([0, -1], len(y0))
    starts = _search(contractor, np.repeat(y0, 2, axis=0), pick, tol)
    kept: list[int] = []
    for b in range(len(pick)):
        if starts.converged[b] and not any(
            abs(starts.lam[a] - starts.lam[b]) <= _DEDUP_TOL
            and min(abs(starts.x[a] @ starts.x[b]), abs(starts.y[a] @ starts.y[b])) >= 1.0 - _DEDUP_TOL
            for a in kept
        ):
            kept.append(b)
    pairs = [
        MEigenpair(
            float(scale * starts.lam[b]), starts.x[b].copy(), starts.y[b].copy(),
            float(scale * starts.rx[b]), float(scale * starts.ry[b]),
        )
        for b in kept
    ]
    pairs.sort(key=lambda p: p.eigenvalue)
    return pairs


def min_probe(
    form: BiquadraticForm, restarts: int = 20, seed: int = 0
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Negativity probe: the smallest P(x, y) over the last iterates of
    ``restarts`` min-seeking starts of the ``meig_solve`` search (the same
    seeded y0), converged or not, with its unit (x, y).  No size cap; like
    ``psd_sample_check``, it can show a form is not PSD but never that it is."""
    contractor, scale = _normalized(form)
    y0 = _seeded_starts(form, restarts, seed)
    starts = _search(contractor, y0, np.zeros(len(y0), dtype=int), _TOL)
    best = int(np.argmin(starts.lam))
    return float(scale * starts.lam[best]), (starts.x[best].copy(), starts.y[best].copy())


def psd_sample_check(
    form: BiquadraticForm, samples: int = 100_000, seed: int = 0
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Monte Carlo negativity probe: minimum of P over seeded sphere pairs,
    sharpened by one min-seeking start of ``min_probe``'s search from the
    best sample's y, kept when its last iterate is lower.  Deterministic
    given the seed."""
    rng = np.random.default_rng(seed)
    best_val, best_x, best_y = np.inf, np.eye(form.m)[0], np.eye(form.n)[0]
    for done in range(0, samples, 20_000):
        take = min(20_000, samples - done)
        xs = _unit_rows(rng, take, form.m)
        ys = _unit_rows(rng, take, form.n)
        vals = evaluate_batch(form, xs, ys)
        idx = int(np.argmin(vals))
        if vals[idx] < best_val:
            best_val = float(vals[idx])
            best_x, best_y = xs[idx].copy(), ys[idx].copy()
    contractor, scale = _normalized(form)
    starts = _search(contractor, best_y[None], np.zeros(1, dtype=int), _TOL)
    polished = float(scale * starts.lam[0])
    if polished < best_val:
        return polished, (starts.x[0], starts.y[0])
    return best_val, (best_x, best_y)
