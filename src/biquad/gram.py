"""The affine family of Gram matrices representing a biquadratic form.

With z = x (x) y (row index i*n + j), every symmetric matrix M satisfying
z'Mz = P(x, y) differs from the coefficient-tensor reshape by a combination
of swap directions: for each i < k, j < l the matrix with +1 at entries
((i,j),(k,l)) and -1 at ((i,l),(k,j)), mirrored symmetrically, annihilates
every z because x_i y_j x_k y_l - x_i y_l x_k y_j = 0.  Those directions are
linearly independent and count C(m,2) * C(n,2), the full kernel dimension,
so the family sweeps out all symmetric representations of P.

The SOS rank of an SOS form equals the minimum rank over the PSD members of
this family.  ``reduce_to_boundary`` moves along a line from a positive
definite member to the PSD-cone boundary (rank <= mn - 1) in one step, whose
length is computed in closed form as an eigenvalue of a symmetric-definite
pencil.  ``psd_point`` and ``min_rank_search`` search the factors instead
(Burer and Monteiro, 2003): a Gram matrix F'F of r stacked m x n factors
W_p represents P exactly when sum_p (x'W_p y)^2 = P, so one seeded
least-squares fit of the W_p to the coefficients either yields a PSD member
of rank <= r or fails.  The fit runs on ``_lm``, a Levenberg-Marquardt
loop in numpy, so this module (and the ``biquad`` command) never imports
scipy.optimize.  A failing fit stops at its stationary point, where the
residual is orthogonal to the Jacobian (MINPACK's gradient test), rather
than when its cost stops decreasing; failing fits are most of a search's
work.  ``min_rank_search`` lowers r one square at a time until no
start fits or a proven lower bound is reached; its rank is a verified upper
bound, never a claim of exactness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import CannotReduce, InvalidInput, NoPSDPointFound, NotPSD, require_count
from .forms import BiquadraticForm, SOSDecomposition
from .linalg import DEFAULT_TOL, Tolerances

# Accepted fit residual, relative to max|c|.  The fitted Gram matrix lies
# twice this far from the family, which must stay inside gamma_of's 1e-9.
_FIT_RTOL = 1e-10
# A fit whose residual misses _FIT_RTOL stops once max_j |J_j'f| / (|J_j| |f|)
# falls below this: f is then orthogonal to the Jacobian's range, a
# stationary point of nonzero cost.  On the general-rank benchmark forms and
# a 45-form planted sweep, failing fits left to run end near 3e-9 (4e-8 at
# most); fits that succeed never went below 2.8e-3 on their way in.
_GTOL = 1e-4


def __getattr__(name: str):
    # The benchmark's tracer wraps ``gram.minimize``, which no code here
    # calls; it is resolved on request so that importing gram does not load
    # scipy.optimize.  This shim goes once the tracer wraps ``gram._fit``.
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class GramFamily:
    """Base matrix plus the swap directions spanning the representation
    freedom of one biquadratic form."""

    m: int
    n: int
    base: np.ndarray
    quads: tuple[tuple[int, int, int, int], ...] = field(repr=False)
    _rows_plus: np.ndarray = field(repr=False, default=None)
    _cols_plus: np.ndarray = field(repr=False, default=None)
    _rows_minus: np.ndarray = field(repr=False, default=None)
    _cols_minus: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        n = self.n
        rp = np.array([i * n + j for i, k, j, l in self.quads], dtype=int)
        cp = np.array([k * n + l for i, k, j, l in self.quads], dtype=int)
        rm = np.array([i * n + l for i, k, j, l in self.quads], dtype=int)
        cm = np.array([k * n + j for i, k, j, l in self.quads], dtype=int)
        base = self.base.copy()
        base.setflags(write=False)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "_rows_plus", rp)
        object.__setattr__(self, "_cols_plus", cp)
        object.__setattr__(self, "_rows_minus", rm)
        object.__setattr__(self, "_cols_minus", cm)

    @property
    def dim(self) -> int:
        return len(self.quads)

    def matrix_at(self, gamma: np.ndarray) -> np.ndarray:
        gamma = np.asarray(gamma, dtype=float)
        if gamma.shape != (self.dim,):
            raise InvalidInput(f"gamma must have length {self.dim}, got shape {gamma.shape}")
        m = self.base.copy()
        # Supports of distinct directions are disjoint, so fancy updates are safe.
        m[self._rows_plus, self._cols_plus] += gamma
        m[self._cols_plus, self._rows_plus] += gamma
        m[self._rows_minus, self._cols_minus] -= gamma
        m[self._cols_minus, self._rows_minus] -= gamma
        return m

    def direction(self, t: int) -> np.ndarray:
        mn = self.m * self.n
        delta = np.zeros((mn, mn))
        delta[self._rows_plus[t], self._cols_plus[t]] = 1.0
        delta[self._cols_plus[t], self._rows_plus[t]] = 1.0
        delta[self._rows_minus[t], self._cols_minus[t]] = -1.0
        delta[self._cols_minus[t], self._rows_minus[t]] = -1.0
        return delta

    def combine(self, coeffs: np.ndarray) -> np.ndarray:
        """Dense matrix sum_t coeffs[t] * direction(t)."""
        return self.matrix_at(np.asarray(coeffs, dtype=float)) - self.base


@dataclass(frozen=True)
class GramPoint:
    family: GramFamily
    gamma: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float).copy()
        gamma.setflags(write=False)
        matrix = np.asarray(self.matrix, dtype=float).copy()
        matrix.setflags(write=False)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "matrix", matrix)


def build_family(form: BiquadraticForm) -> GramFamily:
    """Family for a form: base is the (mn x mn) reshape of the coefficient
    tensor, directions enumerated lexicographically over i < k, j < l."""
    m, n = form.m, form.n
    base = linalg.as_sym_matrix(form.coeffs.reshape(m * n, m * n))
    quads = tuple(
        (i, k, j, l)
        for i in range(m)
        for k in range(i + 1, m)
        for j in range(n)
        for l in range(j + 1, n)
    )
    return GramFamily(m, n, base, quads)


def gram_at(family: GramFamily, gamma) -> GramPoint:
    gamma = np.asarray(gamma, dtype=float)
    return GramPoint(family, gamma, family.matrix_at(gamma))


def gamma_of(family: GramFamily, matrix) -> np.ndarray:
    """Coordinates of a symmetric representation of the same form.

    Raises InvalidInput when the matrix is not in the family.
    """
    matrix = linalg.as_sym_matrix(matrix)
    gamma = matrix[family._rows_plus, family._cols_plus] - family.base[family._rows_plus, family._cols_plus]
    rebuilt = family.matrix_at(gamma)
    if not np.allclose(rebuilt, matrix, rtol=0.0, atol=1e-9 * float(np.abs(matrix).max())):
        raise InvalidInput("matrix does not represent the family's form")
    return gamma


def factor_gram(point: GramPoint, tol: Tolerances = DEFAULT_TOL) -> SOSDecomposition:
    """PSD-factor the Gram matrix and reshape the vectors into m x n factors."""
    family = point.family
    vectors = linalg.psd_factor(point.matrix, tol)
    factors = tuple(w.reshape(family.m, family.n) for w in vectors)
    return SOSDecomposition(family.m, family.n, factors)


def _boundary_step(m0: np.ndarray, delta: np.ndarray) -> float:
    """Largest t with m0 + t * delta PSD, for positive definite m0.

    With m0 = LL', m0 + t delta = L (I + t S) L' where S = L^-1 delta L^-T,
    so the cone is left where I + tS turns singular: t = -1 / lambda_min(S)
    (Golub and Van Loan, Matrix Computations, 8.7).  S shares the inertia
    of delta, so an indefinite delta gives a finite step.
    """
    chol = np.linalg.cholesky(m0)
    half = np.linalg.solve(chol, delta)
    return -1.0 / float(np.linalg.eigvalsh(np.linalg.solve(chol, half.T))[0])


def reduce_to_boundary(
    family: GramFamily,
    point: GramPoint,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    retries: int = 3,
) -> GramPoint:
    """Step from a PSD point to the PSD-cone boundary: rank <= mn - 1.

    Rank-deficient input is returned unchanged.  The direction is a seeded
    random combination of the family basis; it has a zero diagonal, so it is
    traceless and indefinite, and the boundary step along it is computed in
    closed form by ``_boundary_step``.  A new direction is drawn (up to
    ``retries`` draws) only when rounding leaves the end point failing the
    PSD or rank check.  Raises InvalidInput when ``retries`` is below 1.
    """
    require_count("retries", retries)
    ok, witness = linalg.is_psd(point.matrix, tol)
    if not ok:
        raise NotPSD("starting Gram point is not PSD", witness=witness)
    mn = family.m * family.n
    if linalg.numerical_rank(point.matrix, tol) <= mn - 1:
        return point
    if family.dim == 0:
        raise CannotReduce("family has no free directions; need m >= 2 and n >= 2")
    rng = np.random.default_rng(seed)
    for _ in range(retries):
        coeffs = rng.standard_normal(family.dim)
        t = _boundary_step(point.matrix, family.combine(coeffs))
        candidate = gram_at(family, point.gamma + t * coeffs)
        ok, _ = linalg.is_psd(candidate.matrix, tol)
        if ok and linalg.numerical_rank(candidate.matrix, tol) <= mn - 1:
            return candidate
    raise CannotReduce("no boundary point passed the PSD and rank checks within the retry budget")


def _lm(residual, jacobian, x: np.ndarray, max_nfev: int, fits) -> tuple[np.ndarray, np.ndarray]:
    """Levenberg-Marquardt minimization of |residual(x)|^2 / 2 from x.

    Each step solves (J'J + mu I) h = -J'f, and mu follows Nielsen's
    gain-ratio rule (Madsen, Nielsen and Tingleff, 2004, Algorithm 3.16).
    Three rules stop it.  Two are trf's: a step lowering the cost by less
    than 1e-15 of it with gain ratio above 1/4, and a step shorter than
    1e-15 |x|.  The third is MINPACK's gradient test (More, 1978), applied
    after each accepted step to a residual that ``fits(f)`` rejects: f is
    then nearly orthogonal to every Jacobian column, max_j |J_j'f| /
    (|J_j| |f|) < _GTOL, so the fit sits at a stationary point of nonzero
    cost and cannot succeed.  A fit that converges to zero residual keeps f
    in the range of J and is stopped only by trf's rules.  Besides these,
    at most max_nfev residual evaluations.  Returns the last accepted x and
    its residual.
    """
    f = residual(x)
    cost = 0.5 * (f @ f)
    jac = jacobian(x)
    normal, grad = jac.T @ jac, jac.T @ f
    mu, nu = 1e-3 * normal.diagonal().max(), 2.0
    diagonal = np.diag_indices_from(normal)
    for _ in range(max_nfev - 1):
        damped = normal.copy()
        damped[diagonal] += mu
        try:
            step = np.linalg.solve(damped, -grad)
        except np.linalg.LinAlgError:
            # mu fell below the rounding of a singular J'J: damp harder.
            mu *= nu
            nu *= 2.0
            continue
        x_new = x + step
        f_new = residual(x_new)
        cost_new = 0.5 * (f_new @ f_new)
        decrease = cost - cost_new
        predicted = 0.5 * (step @ (mu * step - grad))
        gain = decrease / predicted if predicted > 0.0 else 0.0
        stalled = (decrease < 1e-15 * cost and gain > 0.25) or (
            np.sqrt(step @ step) < 1e-15 * (1e-15 + np.sqrt(x @ x))
        )
        if decrease > 0.0:
            x, f, cost = x_new, f_new, cost_new
            jac = jacobian(x)
            normal, grad = jac.T @ jac, jac.T @ f
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
            if not fits(f):
                # max_j |J_j'f| / (|J_j| |f|) < _GTOL; a zero column has J_j'f = 0.
                columns = np.maximum(np.sqrt(normal.diagonal()), np.finfo(float).tiny)
                if (np.abs(grad) / columns).max() < _GTOL * np.sqrt(f @ f):
                    break
        else:
            mu *= nu
            nu *= 2.0
        if stalled:
            break
    return x, f


def _fit(family: GramFamily, start: np.ndarray, tol: Tolerances) -> GramPoint | None:
    """Least-squares fit of r bilinear squares sum_p (x'W_p y)^2 to the form.

    ``start`` holds the r initial m x n factors.  The residual is
    symmetrize(sum_p W_p (x) W_p) - coeffs, taken once per symmetry orbit
    and weighted by the square root of the orbit size, so its sum of squares
    is that over the whole tensor; ``_lm`` minimizes it with the Jacobian in
    closed form, and ``fits`` is its acceptance test.  Returns the PSD Gram
    point of the fitted factors when every coefficient is matched to
    _FIT_RTOL * max|c|, else None.
    """
    m, n = family.m, family.n
    r = start.shape[0]
    mn = m * n
    xi, xk = np.triu_indices(m)
    yj, yl = np.triu_indices(n)
    i, k = np.repeat(xi, yj.size), np.repeat(xk, yj.size)
    j, l = np.tile(yj, xi.size), np.tile(yl, xi.size)
    # Entry (i, j, k, l) averages the Gram entries at (ij, kl) and (il, kj).
    a, b, c, d = i * n + j, k * n + l, i * n + l, k * n + j
    weight = np.sqrt(np.where(i < k, 2.0, 1.0) * np.where(j < l, 2.0, 1.0))
    target = family.base[a, b]
    rows = target.size
    # d residual[e] / d W[p, entry] = weight[e] / 2 * W[p, partner]: the
    # Jacobian, laid out (row e, factor p, column entry), is one bincount
    # of these products at positions fixed for the whole fit.
    entry = np.stack([a, b, c, d], axis=1)
    partner = np.stack([b, a, d, c], axis=1)
    slot = (np.arange(rows)[:, None, None] * (r * mn) + np.arange(r)[None, None, :] * mn
            + entry[:, :, None]).ravel()
    half_weight = (0.5 * weight)[:, None, None]

    def residual(v: np.ndarray) -> np.ndarray:
        w = v.reshape(r, mn)
        return weight * (0.5 * ((w[:, a] * w[:, b]).sum(axis=0) + (w[:, c] * w[:, d]).sum(axis=0)) - target)

    def jacobian(v: np.ndarray) -> np.ndarray:
        values = half_weight * v.reshape(r, mn).T[partner]
        return np.bincount(slot, values.ravel(), minlength=rows * r * mn).reshape(rows, r * mn)

    bound = _FIT_RTOL * float(np.abs(target).max())

    def fits(f: np.ndarray) -> bool:
        return bool(np.abs(f / weight).max() <= bound)

    x, f = _lm(residual, jacobian, start.ravel(), 100 * r * mn, fits)
    if not fits(f):
        return None
    w = x.reshape(r, mn)
    point = gram_at(family, gamma_of(family, w.T @ w))
    return point if linalg.is_psd(point.matrix, tol)[0] else None


def _random_start(family: GramFamily, r: int, rng: np.random.Generator) -> np.ndarray:
    """r random m x n factors whose squares sum to about the form's scale."""
    scale = float(np.abs(family.base).max())
    return rng.standard_normal((r, family.m, family.n)) * np.sqrt(scale / r)


def _factors(point: GramPoint, tol: Tolerances) -> np.ndarray:
    return np.reshape(factor_gram(point, tol).factors, (-1, point.family.m, point.family.n))


def psd_point(family: GramFamily, seed: int = 0, tol: Tolerances = DEFAULT_TOL) -> GramPoint | None:
    """A PSD member of the family, or None when none was found.

    The base itself when it is PSD; otherwise the Gram matrix of the first
    r = 1, 2, ..., mn bilinear squares that fit the form from one seeded
    random start each.
    """
    base = gram_at(family, np.zeros(family.dim))
    if linalg.is_psd(base.matrix, tol)[0]:
        return base
    for r in range(1, family.m * family.n + 1):
        point = _fit(family, _random_start(family, r, np.random.default_rng([seed, r])), tol)
        if point is not None:
            return point
    return None


def min_rank_search(
    family: GramFamily,
    restarts: int = 20,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    floor: int = 1,
) -> tuple[GramPoint, int]:
    """Seeded top-down search for a low-rank PSD member of the family.

    Starts from the spectral factors of ``psd_point`` and repeatedly tries
    one square fewer: the current factors without the smallest-norm one
    first, then ``restarts - 1`` seeded random starts.  The search stops at
    the first square count that no start fits, or at ``floor`` squares: a
    proven lower bound on the SOS rank (a nonzero form needs one square,
    the default), below which no fit can succeed.  The returned rank is an
    upper bound on the SOS rank, carried by a verified Gram point, never a
    claim of exactness.

    Raises:
        InvalidInput: ``restarts`` is below 1.
        NoPSDPointFound: no PSD member was found; the form may still be PSD
            (or even SOS) - this outcome is inconclusive.
    """
    require_count("restarts", restarts)
    point = psd_point(family, seed, tol)
    if point is None:
        raise NoPSDPointFound("no PSD representation found; result inconclusive")
    factors = _factors(point, tol)
    while len(factors) > floor:
        r = len(factors) - 1
        weakest = int(np.argmin(np.linalg.norm(factors.reshape(r + 1, -1), axis=1)))
        fitted = None
        for attempt in range(restarts):
            if attempt == 0:
                start = np.delete(factors, weakest, axis=0)
            else:
                start = _random_start(family, r, np.random.default_rng([seed, r, attempt]))
            fitted = _fit(family, start, tol)
            if fitted is not None:
                break
        if fitted is None:
            break
        point = fitted
        factors = _factors(point, tol)
    return point, linalg.numerical_rank(point.matrix, tol)
