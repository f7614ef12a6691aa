"""M-eigenvalues of small biquadratic tensors.

A pair of unit vectors (x, y) with

    sum_jkl a_ijkl y_j x_k y_l = lambda x_i,   sum_ikl a_ijkl x_i x_k y_l = lambda y_j

is an M-eigenpair; lambda then equals P(x, y), and the form is PSD exactly
when no M-eigenvalue is negative.  There is no direct algorithm here: the
solver alternates symmetric eigensteps on the two contracted matrices
G(y)_ik = sum_jl a_ijkl y_j y_l and H(x)_jl = sum_ik a_ijkl x_i x_k from
seeded random starts, targeting the extreme eigenpairs.  It can miss pairs,
so it serves as a cross-check oracle, never as a PSD decision procedure.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .forms import BiquadraticForm, _unit_rows, evaluate_batch, max_abs_coeff

logger = logging.getLogger(__name__)

_DEDUP_TOL = 1e-6
DEFAULT_SIZE_CAP = 8


@dataclass(frozen=True)
class MEigenpair:
    """One converged eigenpair with its defining-system residuals."""

    eigenvalue: float
    x: np.ndarray
    y: np.ndarray
    residual_x: float
    residual_y: float


def _check_lengths(form: BiquadraticForm, x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (form.m,) or y.shape != (form.n,):
        raise InvalidInput("vector lengths do not match the form")
    return x, y


def contract_x(form: BiquadraticForm, x, y) -> np.ndarray:
    """Vector with components sum_jkl a_ijkl y_j x_k y_l; contracting it
    against x recovers P(x, y)."""
    x, y = _check_lengths(form, x, y)
    return _Contractor(form).x_matrix(y) @ x


def contract_y(form: BiquadraticForm, x, y) -> np.ndarray:
    """Vector with components sum_ikl a_ijkl x_i x_k y_l."""
    x, y = _check_lengths(form, x, y)
    return _Contractor(form).y_matrix(x) @ y


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    pivot = int(np.argmax(np.abs(v)))
    return -v if v[pivot] < 0.0 else v


class _Contractor:
    """Precomputed unfoldings so the alternating loop is two mat-vecs."""

    def __init__(self, form: BiquadraticForm):
        m, n = form.m, form.n
        self.m, self.n = m, n
        self.x_unfold = form.coeffs.transpose(0, 2, 1, 3).reshape(m * m, n * n)
        self.y_unfold = form.coeffs.transpose(1, 3, 0, 2).reshape(n * n, m * m)

    def x_matrix(self, y: np.ndarray) -> np.ndarray:
        g = (self.x_unfold @ np.outer(y, y).ravel()).reshape(self.m, self.m)
        return 0.5 * (g + g.T)

    def y_matrix(self, x: np.ndarray) -> np.ndarray:
        h = (self.y_unfold @ np.outer(x, x).ravel()).reshape(self.n, self.n)
        return 0.5 * (h + h.T)


def _eigenstep(contractor: _Contractor, g: np.ndarray, pick: int):
    """One alternating step from g = G(y): x is the picked eigenvector of g,
    then y that of H(x).  Returns x, y, H(x) and G(y) for the new y."""
    x = _canonical_sign(np.linalg.eigh(g)[1][:, pick])
    h = contractor.y_matrix(x)
    y = _canonical_sign(np.linalg.eigh(h)[1][:, pick])
    return x, y, h, contractor.x_matrix(y)


def _alternate(
    contractor: _Contractor,
    y: np.ndarray,
    want_max: bool,
    tol_abs: float,
    max_iter: int,
) -> MEigenpair | None:
    pick = -1 if want_max else 0
    g = contractor.x_matrix(y)
    for _ in range(max_iter):
        x, y, h, g = _eigenstep(contractor, g, pick)
        gx, hy = g @ x, h @ y
        lam = float(x @ gx)
        rx = float(np.linalg.norm(gx - lam * x))
        ry = float(np.linalg.norm(hy - lam * y))
        if rx <= tol_abs and ry <= tol_abs:
            return MEigenpair(lam, x.copy(), y.copy(), rx, ry)
    return None


def meig_solve(
    form: BiquadraticForm,
    restarts: int = 20,
    seed: int = 0,
    tol: float = 1e-10,
    size_cap: int = DEFAULT_SIZE_CAP,
    max_iter: int = 200,
) -> list[MEigenpair]:
    """Alternating eigenstep search for M-eigenpairs, sorted by eigenvalue.

    Runs ``restarts`` seeded random starts, each driven toward the largest
    and the smallest eigenpair; non-convergent starts are dropped (debug
    log).  Duplicates agree on lambda and on (x, y) up to simultaneous sign
    flips within 1e-6.  The smallest value returned is an upper bound on the
    true minimum M-eigenvalue; the list is not guaranteed complete.
    """
    if form.m > size_cap or form.n > size_cap:
        raise InvalidInput(f"form size {form.m} x {form.n} exceeds the cap {size_cap}")
    contractor = _Contractor(form)
    tol_abs = tol * max(1.0, max_abs_coeff(form))
    pairs: list[MEigenpair] = []
    for ridx in range(max(1, restarts)):
        rng = np.random.default_rng([seed, ridx])
        _unit_rows(rng, 1, form.m)  # keeps the seeded y0; the first eigenstep sets x
        y0 = _unit_rows(rng, 1, form.n)[0]
        for want_max in (False, True):
            pair = _alternate(contractor, y0, want_max, tol_abs, max_iter)
            if pair is None:
                logger.debug("meig start %d (%s) did not converge", ridx, "max" if want_max else "min")
                continue
            if not _is_duplicate(pair, pairs):
                pairs.append(pair)
    pairs.sort(key=lambda p: p.eigenvalue)
    return pairs


def _is_duplicate(pair: MEigenpair, known: list[MEigenpair]) -> bool:
    for other in known:
        if abs(pair.eigenvalue - other.eigenvalue) > _DEDUP_TOL:
            continue
        # Vectors are sign-canonicalized, but compare both orientations in
        # case the pivot entry is near zero.
        x_match = min(
            float(np.abs(pair.x - other.x).max()),
            float(np.abs(pair.x + other.x).max()),
        )
        y_match = min(
            float(np.abs(pair.y - other.y).max()),
            float(np.abs(pair.y + other.y).max()),
        )
        if x_match <= _DEDUP_TOL and y_match <= _DEDUP_TOL:
            return True
    return False


def psd_sample_check(
    form: BiquadraticForm,
    samples: int = 100_000,
    seed: int = 0,
    polish_steps: int = 10,
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Monte Carlo negativity probe: minimum of P over seeded sphere pairs,
    sharpened by a few min-seeking alternating eigensteps from the best
    sample.  Deterministic given the seed."""
    rng = np.random.default_rng(seed)
    best_val = np.inf
    best_x = np.zeros(form.m)
    best_x[0] = 1.0
    best_y = np.zeros(form.n)
    best_y[0] = 1.0
    chunk = 20_000
    remaining = samples
    while remaining > 0:
        take = min(chunk, remaining)
        xs = _unit_rows(rng, take, form.m)
        ys = _unit_rows(rng, take, form.n)
        vals = evaluate_batch(form, xs, ys)
        idx = int(np.argmin(vals))
        if vals[idx] < best_val:
            best_val = float(vals[idx])
            best_x, best_y = xs[idx].copy(), ys[idx].copy()
        remaining -= take

    contractor = _Contractor(form)
    g = contractor.x_matrix(best_y)
    for _ in range(polish_steps):
        x, y, _, g = _eigenstep(contractor, g, 0)
        val = float(x @ g @ x)
        if val < best_val:
            best_val = val
            best_x, best_y = x, y
    return best_val, (best_x, best_y)
