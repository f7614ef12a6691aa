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
loop in numpy (no scipy.optimize) on the cost's exact Hessian: the residual
is quadratic in the W_p, so it and its curvature come from the Jacobian.
Failing fits, most of a search's work, end at a nonzero residual, where
Gauss-Newton converges only linearly; MINPACK's gradient test stops them.
``rank_floor``, a proven lower bound, counts eigenvalues of the Gram
blocks every PSD member shares and of the ends of the segment of PSD members,
one point when the dead rows (zero x_i^2 y_j^2 coefficients) leave no direction
free; with one free the smaller end rank is the SOS rank, and one Schur
complement gives both ends as roots of a 4 x 4 eigenproblem: the face decides
every SOS 2 x 2 form.  One rule starts both searches: the face's own member (that
end, else the pinned member) when PSD, else, if a direction is free, the first
seeded fit from the floor up; ``min_rank_search`` lowers r to the floor or the
first square count no start fits: a verified upper bound, exact at the floor.

A family fixes one power of four, 4^k near max|c|: spectra, fits and the
searches' factors are taken on its ``scaled`` members, the form's times 4^-k
(exact), and only gamma and ``factor_gram`` return to the form's units.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import CannotReduce, InvalidInput, NoPSDPointFound, NotPSD, require_count
from .forms import BiquadraticForm, FormCells, SOSDecomposition, max_abs_coeff
from .linalg import DEFAULT_TOL, Tolerances

# gamma_of's bound on a member's rebuild error, relative to its max|entry|.
_MEMBER_RTOL = 1e-9
# Accepted fit residual, relative to max|c|.  The fitted Gram matrix lies
# twice this far from the family, which must stay inside _MEMBER_RTOL.
_FIT_RTOL = 1e-10
# A fit whose residual misses _FIT_RTOL stops once max_j |J_j'f| / (|J_j| |f|)
# falls below this, at a stationary point of nonzero cost.  On the general-rank
# benchmark forms and a 42-form planted sweep, fits that succeed never went below
# 7.6e-4 on their way in (2.9e-3 on the former); failing ones left to run end near 1e-12.
_GTOL = 1e-4
# The largest Gram order m * n check_size accepts, that of the 10 x 10 forms
# the search is meant to reach; a far larger form's tensor exhausts memory.
_ORDER_CAP = 100


def __getattr__(name: str):
    # The benchmark's tracer wraps ``gram.minimize``, which no code here
    # calls; it is resolved on request so that importing gram does not load
    # scipy.optimize.  This shim goes once the tracer wraps ``gram._fit``.
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def check_size(m: int, n: int) -> None:
    """InvalidInput when the Gram order m * n is above ``_ORDER_CAP``."""
    if m * n > _ORDER_CAP:
        raise InvalidInput(f"form size {m} x {n} gives Gram order {m * n}, above the cap {_ORDER_CAP}")


@dataclass(frozen=True)
class GramFamily:
    """Base matrix plus the swap directions spanning the representation
    freedom of one biquadratic form.  ``cells`` holds the Gram positions
    (ij, kl, il, kj), ij = i * n + j, of each cell of ``FormCells.layout``;
    ``swaps`` those with i < k, j < l, direction t's +1 and -1 entries.
    ``scaled`` is the base in family units, times 4^-k (exact), where k is
    ``linalg.quarter_exponent(base)``, fixed once."""

    m: int
    n: int
    base: np.ndarray
    cells: np.ndarray = field(init=False, repr=False)
    swaps: np.ndarray = field(init=False, repr=False)
    k: int = field(init=False, repr=False)
    scaled: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        (i, j, k, l), _ = FormCells.layout(self.m, self.n)
        cells = np.stack([i * self.n + j, k * self.n + l, i * self.n + l, k * self.n + j]).reshape(4, -1)
        base = self.base.copy()
        object.__setattr__(self, "k", linalg.quarter_exponent(base))
        for name, value in (("base", base), ("scaled", np.ldexp(base, -2 * self.k))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "swaps", cells[:, ((i < k) & (j < l)).ravel()])

    @property
    def dim(self) -> int:
        return self.swaps.shape[1]

    def direction(self, gamma) -> np.ndarray:
        """sum_t gamma_t D_t, exact: distinct directions have disjoint supports."""
        gamma = np.asarray(gamma, dtype=float)
        if gamma.shape != (self.dim,):
            raise InvalidInput(f"gamma must have length {self.dim}, got shape {gamma.shape}")
        d = np.zeros_like(self.base)
        ij, kl, il, kj = self.swaps
        d[ij, kl] = d[kl, ij] = gamma
        d[il, kj] = d[kj, il] = -gamma
        return d

    def matrix_at(self, gamma: np.ndarray, scaled: bool = False) -> np.ndarray:
        """The member at gamma; with ``scaled``, both in family units."""
        return (self.scaled if scaled else self.base) + self.direction(gamma)

    @functools.cached_property
    def floor_spectra(self) -> tuple[float, tuple, tuple[tuple[np.ndarray, np.ndarray], ...], np.ndarray, np.ndarray]:
        """(trace, shared, ends, pinned, free) of the face holding every PSD
        member, solved once per family.  A dead row (base diagonal exactly 0)
        is zero in a PSD member, which pins each direction reaching it:
        gamma_t = -base[ij, kl] if ij or kl is dead, else base[il, kj].  The
        ``free`` directions reach no dead row; G, the pinned member, is at
        ``pinned``: these gamma_t, with +0.0 on free ones and for every zero.

        trace and shared are G's in family units; shared stacks the x-line and
        the y-line blocks' eigenvalues (no direction reaches them).  The live
        blocks of the PSD members fill a segment: the point G when no direction
        is free (always if m = 1 or n = 1), G + tD on one interval when one is,
        D.  A member inside it holds both ends' kernels, so the SOS rank is the
        smaller end rank.  Each end is a member: its gamma (G's, but for its t
        times 4^k on D) and its live block's eigenvalues in family units.
        ``_segment_ends`` gives their t from one Schur complement onto the four
        rows D reaches, on any number of live rows, when the other live rows'
        block has a Cholesky factor; else, as with more free directions, ends
        is ().  Ends that fail the PSD test are the caller's to drop."""
        m, n, base = self.m, self.n, self.base
        dead = base.diagonal() == 0.0
        ij, kl, il, kj = self.swaps
        near = dead[ij] | dead[kl]
        free = ~(near | dead[il] | dead[kj])
        gamma = np.where(near, -base[ij, kl], np.where(free, 0.0, base[il, kj])) + 0.0
        g = self.matrix_at(np.ldexp(gamma, -2 * self.k), scaled=True)
        lines = g.reshape(m, n, m, n)
        shared = tuple(map(np.linalg.eigvalsh, (lines[range(m), :, range(m)], lines[:, range(n), :, range(n)])))
        trace, block = float(g.trace()), np.ix_(~dead, ~dead)
        # Each end is G + tD; with no direction free, G itself.
        steps, direction = () if free.any() else (0.0,), self.direction(free)[block]
        if np.count_nonzero(free) == 1:
            steps = _segment_ends(g[block], direction)
        ends = tuple((gamma + free * math.ldexp(t, 2 * self.k), np.linalg.eigvalsh(g[block] + t * direction))
                     for t in steps)
        return trace, shared, ends, gamma, free


@dataclass(frozen=True)
class GramPoint:
    """The member at ``gamma``; its read-only matrix is ``family.matrix_at(gamma)``."""

    family: GramFamily
    gamma: np.ndarray
    matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float).copy()
        for name, value in (("gamma", gamma), ("matrix", self.family.matrix_at(gamma))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @functools.cached_property
    def scaled(self) -> np.ndarray:
        """The member in family units, which its spectrum, factors and boundary step read."""
        return self.family.matrix_at(np.ldexp(self.gamma, -2 * self.family.k), scaled=True)

    @functools.cached_property
    def spectrum(self) -> linalg.SpectralDecomposition:
        """``linalg.sym_eig`` of ``scaled``, solved once per point: its PSD
        test, its rank and its factors all read this one spectrum."""
        return linalg.sym_eig(self.scaled)


def build_family(form: BiquadraticForm) -> GramFamily:
    """Family for a form: base is the (mn x mn) reshape of the coefficient
    tensor, directions in layout order, lexicographic over i < k, j < l.
    InvalidInput when 0 < max|c| < 2^-1074 / _FIT_RTOL (about 4.9e-314), where
    subnormals are spaced wider than the residual a fit may leave."""
    m, n = form.m, form.n
    scale, limit = max_abs_coeff(form), math.ulp(0.0) / _FIT_RTOL
    if 0.0 < scale < limit:
        raise InvalidInput(f"max|c| = {scale:.2g} is below {limit:.2g}, the smallest scale the Gram search can fit")
    return GramFamily(m, n, form.coeffs.reshape(m * n, m * n))


def gram_at(family: GramFamily, gamma) -> GramPoint:
    """``GramPoint(family, gamma)``; kept by name for criterion 8."""
    return GramPoint(family, gamma)


def gamma_of(family: GramFamily, matrix, scaled: bool = False) -> np.ndarray:
    """Coordinates of a symmetric representation of the same form (with
    ``scaled``, both in family units).

    Raises InvalidInput when the matrix is not in the family.
    """
    matrix = linalg.as_sym_matrix(matrix)
    ij, kl = family.swaps[:2]
    gamma = matrix[ij, kl] - (family.scaled if scaled else family.base)[ij, kl]
    rebuilt = family.matrix_at(gamma, scaled)
    if not np.allclose(rebuilt, matrix, rtol=0.0, atol=_MEMBER_RTOL * float(np.abs(matrix).max())):
        raise InvalidInput("matrix does not represent the family's form")
    return gamma


def factor_gram(point: GramPoint, tol: Tolerances = DEFAULT_TOL) -> SOSDecomposition:
    """``_factors`` back in the form's units, times 2^k (exact)."""
    family = point.family
    return SOSDecomposition(family.m, family.n, np.ldexp(_factors(point, tol), family.k))


def _factors(point: GramPoint, tol: Tolerances) -> np.ndarray:
    """The (p, m, n) factors of ``linalg.psd_factor`` of ``point.scaled``."""
    rows = linalg.psd_factor(point.scaled, tol, point.spectrum)
    return rows.reshape(-1, point.family.m, point.family.n)


def _boundary_steps(m0: np.ndarray, delta: np.ndarray) -> tuple[float, float]:
    """(lo, hi), the smallest and largest t with m0 + t * delta PSD, for
    positive definite m0 and indefinite delta.

    With m0 = LL', m0 + t delta = L (I + t S) L' where S = L^-1 delta L^-T
    shares the inertia of delta, so the cone is left where I + tS turns
    singular: lo = -1 / lambda_max(S), hi = -1 / lambda_min(S) (Golub and Van
    Loan, Matrix Computations, 8.7).  One Cholesky factor and one eigen-solve
    give both, on m0 and delta each scaled by a power of four (exact), so S
    can neither overflow nor underflow at any scale of the form.
    """
    k, j = linalg.quarter_exponent(m0), linalg.quarter_exponent(delta)
    chol = np.linalg.cholesky(np.ldexp(m0, -2 * k))
    half = np.linalg.solve(chol, np.ldexp(delta, -2 * j))
    w = np.linalg.eigvalsh(np.linalg.solve(chol, half.T))
    return math.ldexp(-1.0 / float(w[-1]), 2 * (k - j)), math.ldexp(-1.0 / float(w[0]), 2 * (k - j))


def _segment_ends(g: np.ndarray, direction: np.ndarray) -> tuple[float, ...]:
    """The t of the ends of the segment of PSD g + t direction, for a
    direction with +1 and -1 on two disjoint pairs of the rows F it reaches:
    (t2, t3), one (t,) when the middle roots came out a complex pair, or ()
    when g's block on the other rows, c, has no Cholesky factor or the Schur
    complement overflows, which no PSD g's can: g_Fc g_cc^-1 g_cF <= g_FF.

    With g_cc positive definite, g + tD is PSD exactly when the Schur
    complement S + tD_FF is, S = g_FF - g_Fc g_cc^-1 g_cF (Haynsworth's
    inertia additivity), and D_FF^2 = I, so S + tD_FF = D_FF (D_FF S + tI) is
    singular at the eigenvalues t1 <= t2 <= t3 <= t4 of -D_FF S (Golub and Van
    Loan, Matrix Computations, 8.7).  As t -> +-inf, S + tD_FF has the two
    negative eigenvalues of +-D_FF, so a nonempty PSD set is [t2, t3].  No
    nonzero vector lies in two members' kernels, as D_FF is invertible, so a
    segment with no positive definite member is one point, a double root that
    rounding may split into a complex pair.  The caller's PSD test drops the
    ends of an empty segment."""
    reach = (direction != 0.0).any(axis=0)
    f, c = np.ix_(reach, reach), np.ix_(~reach, ~reach)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # eigvals refuses a complement that overflowed
            half = np.linalg.solve(np.linalg.cholesky(g[c]), g[np.ix_(~reach, reach)])
            roots = np.sort_complex(np.linalg.eigvals(-direction[f] @ (g[f] - half.T @ half)))[1:3]
    except np.linalg.LinAlgError:
        return ()
    return (float(roots.real.mean()),) if roots.imag.any() else tuple(map(float, roots.real))


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
    closed form by ``_boundary_steps``.  A new direction is drawn (up to
    ``retries`` draws) only when rounding leaves the end point failing the
    PSD or rank check.  Raises InvalidInput when ``retries`` is below 1.
    """
    require_count("retries", retries)
    ok, witness = linalg.psd_from_decomposition(point.spectrum, tol)
    if not ok:
        raise NotPSD("starting Gram point is not PSD", witness=witness)
    mn = family.m * family.n
    if linalg.rank_from_eigenvalues(point.spectrum.eigenvalues, tol) <= mn - 1:
        return point
    if family.dim == 0:
        raise CannotReduce("family has no free directions; need m >= 2 and n >= 2")
    rng = np.random.default_rng(seed)
    for _ in range(retries):
        coeffs = rng.standard_normal(family.dim)
        _, t = _boundary_steps(point.scaled, family.direction(coeffs))
        candidate = GramPoint(family, point.gamma + math.ldexp(t, 2 * family.k) * coeffs)
        ok, _ = linalg.psd_from_decomposition(candidate.spectrum, tol)
        if ok and linalg.rank_from_eigenvalues(candidate.spectrum.eigenvalues, tol) <= mn - 1:
            return candidate
    raise CannotReduce("no boundary point passed the PSD and rank checks within the retry budget")


def _lm(jacobian, shift, model, x: np.ndarray, max_nfev: int, fits) -> tuple[np.ndarray, np.ndarray]:
    """Levenberg-Marquardt minimization of |f|^2 / 2 from x on its exact
    Hessian, for f = J x / 2 - shift, J = ``jacobian(x)`` linear in x (Euler's
    identity for a homogeneous quadratic less a constant): one ``jacobian``
    call per trial point; on acceptance ``model(J, f)`` gives H = J'J + sum_e
    f_e Hessian(f_e), J'f and J's column norms (0 floored to tiny).  Each
    step solves (H + mu I) h = -J'f; mu starts at 1e-3 max diag J'J and
    follows Nielsen's rule (Madsen, Nielsen and Tingleff, 2004, Algorithm
    3.16) on the predicted decrease h'(mu h - J'f) / 2, true for any
    symmetric H.  Three rules stop it: trf's two, a step lowering the cost by
    less than 1e-15 of it with gain ratio above 1/4 and a step shorter than
    1e-15 |x|, and MINPACK's gradient test (More, 1978) once an accepted f
    that ``fits`` rejects has max_j |J_j'f| / (|J_j| |f|) < _GTOL: a
    stationary point of nonzero cost, which a fit converging to zero residual
    never reaches.  At most max_nfev evaluations; returns the last accepted
    x and its residual."""
    jac = jacobian(x)
    f = 0.5 * (jac @ x) - shift
    hessian, grad, norms = model(jac, f)
    cost, mu, nu = 0.5 * float(f @ f), 1e-3 * float(norms.max()) ** 2, 2.0
    for _ in range(max_nfev - 1):
        damped = hessian.copy()
        damped.flat[:: len(x) + 1] += mu
        try:
            step = np.linalg.solve(damped, -grad)
        except np.linalg.LinAlgError:
            # mu fell below the rounding of a singular H: damp harder.
            mu *= nu
            nu *= 2.0
            continue
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan costs are rejected below
            x_new = x + step
            jac_new = jacobian(x_new)
            f_new = 0.5 * (jac_new @ x_new) - shift
            cost_new = 0.5 * float(f_new @ f_new)
            decrease = cost - cost_new
            predicted = 0.5 * float(step @ (mu * step - grad))
            # Both rules below treat a gain above 1 as 1; capped, its cube cannot overflow.
            gain = min(decrease / predicted, 1.0) if predicted > 0.0 else 0.0
            stalled = (decrease < 1e-15 * cost and gain > 0.25) or (
                math.sqrt(step @ step) < 1e-15 * (1e-15 + math.sqrt(x @ x))
            )
        if decrease > 0.0:
            x, f, cost = x_new, f_new, cost_new
            hessian, grad, norms = model(jac_new, f)
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
            if not fits(f) and (np.abs(grad) / norms).max() < _GTOL * math.sqrt(f @ f):
                break
        else:
            mu *= nu
            nu *= 2.0
        if stalled:
            break
    return x, f


def _fit(family: GramFamily, start: np.ndarray, tol: Tolerances) -> tuple[GramPoint, np.ndarray] | None:
    """Least-squares fit of r bilinear squares sum_p (x'W_p y)^2 to the form.

    ``start`` holds the r initial m x n factors.  The residual is
    symmetrize(sum_p W_p (x) W_p) - coeffs, taken once per cell of
    ``family.cells`` and weighted by the square root of its orbit size, so
    its sum of squares is that over the whole tensor; ``_lm`` minimizes it
    with the Jacobian and Hessian in closed form, and ``fits`` is its test.
    Returns the fitted PSD Gram point and its ``_factors`` (one eigen-solve
    for the PSD test and the factors) when every coefficient is matched to
    _FIT_RTOL * max|c|, else None.  ``start``, the fit and the factors are in
    family units, so no square of the residual can overflow or underflow.
    """
    r, m, n = start.shape
    mn = m * n
    # Cell e averages the Gram entries at (ij, kl) and (il, kj), the rows of
    # family.cells.  d residual[e] / d W[p, entry] = weight[e] / 2 * W[p, partner]:
    # the Jacobian, laid out (row e, factor p, column entry), is one bincount of
    # these products, gathered from v and summed at indices fixed for the fit.
    # The curvature I_r (x) M(f) puts 2 f[e] / weight[e] at each Gram position of cell e.
    _, (x_orbit, y_orbit) = FormCells.layout(m, n)
    weight = np.sqrt(x_orbit * y_orbit).ravel()
    target = family.scaled[family.cells[0], family.cells[1]]
    rows = target.size
    offset = np.arange(r) * mn
    gather = (family.cells[[1, 0, 3, 2]].T[:, :, None] + offset).ravel()
    slot = (np.arange(rows)[:, None, None] * (r * mn) + offset + family.cells.T[:, :, None]).ravel()
    half_weight = np.repeat(0.5 * weight, 4 * r)
    position, factors = np.empty((mn, mn), dtype=np.intp), np.arange(r)
    position[family.cells, family.cells[[1, 0, 3, 2]]] = np.arange(rows)

    def jacobian(v: np.ndarray) -> np.ndarray:
        return np.bincount(slot, half_weight * v[gather], minlength=rows * r * mn).reshape(rows, r * mn)

    def model(jac: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        hessian = jac.T @ jac
        norms = np.maximum(np.sqrt(hessian.diagonal()), np.finfo(float).tiny)
        hessian.reshape(r, mn, r, mn)[factors, :, factors] += (f / (0.5 * weight))[position]
        return hessian, jac.T @ f, norms

    bound = _FIT_RTOL * float(np.abs(target).max())

    def fits(f: np.ndarray) -> bool:
        return bool(np.abs(f / weight).max() <= bound)

    x, f = _lm(jacobian, weight * target, model, start.ravel(), 100 * r * mn, fits)
    if not fits(f):
        return None
    v = x.reshape(r, mn)
    point = GramPoint(family, np.ldexp(gamma_of(family, v.T @ v, scaled=True), 2 * family.k))
    try:
        return point, _factors(point, tol)
    except NotPSD:
        return None


def _random_start(family: GramFamily, r: int, rng: np.random.Generator) -> np.ndarray:
    """r random m x n factors whose squares sum to about the form's scale, in family units."""
    scale = float(np.abs(family.scaled).max())
    return rng.standard_normal((r, family.m, family.n)) * np.sqrt(scale / r)


def _face_start(family: GramFamily, tol: Tolerances) -> tuple[int, np.ndarray]:
    """(rank, gamma) of the lower-rank end in ``family.floor_spectra`` passing the PSD
    test at eps * trace, else (0, G): a form that is not PSD never sets the floor."""
    trace, _, ends, pinned, _ = family.floor_spectra
    ranks = [(int((w > tol.eps * trace).sum()), gamma) for gamma, w in ends if (w >= -tol.eps * trace).all()]
    return min(ranks, key=lambda end: end[0], default=(0, pinned))


def rank_floor(family: GramFamily, tol: Tolerances = DEFAULT_TOL) -> int:
    """A proven lower bound on the SOS rank from ``family.floor_spectra`` and
    one cutoff, eps * trace: the largest count in one shared block or, if
    larger, the smaller count of the segment's ends, the SOS rank itself.
    Every member has that trace, at least its top eigenvalue when PSD, so by
    Cauchy interlacing each one counted is above every PSD member's cutoff."""
    trace, shared, *_ = family.floor_spectra
    counts = [int((w > tol.eps * trace).sum(axis=-1).max()) for w in shared]
    return max(counts + [_face_start(family, tol)[0]])


def _first_fit(family: GramFamily, starts, tol: Tolerances) -> tuple[GramPoint, np.ndarray] | None:
    """``_fit`` of the first of ``starts`` that fits, or None; drawn one at a time."""
    return next(filter(None, (_fit(family, start, tol) for start in starts)), None)


def psd_point(family: GramFamily, seed: int = 0, tol: Tolerances = DEFAULT_TOL) -> GramPoint:
    """A PSD member of the family, started at the face's own member: the end
    of ``family.floor_spectra`` of smaller rank, else the pinned member (the
    base when no row is dead).  That member when it passes the PSD test;
    else, when a direction is free, the Gram matrix of the first
    r = f, f + 1, ..., mn bilinear squares that fit the form from one seeded
    random start each (``default_rng([seed, r])``), where f is ``rank_floor``
    (at least 1): no fit of fewer squares can succeed; no SOS 2 x 2 form needs one.

    Raises:
        NoPSDPointFound: no start fitted, or none was tried as no direction
            is free; the form may still be PSD (or even SOS) - inconclusive.
    """
    point = GramPoint(family, _face_start(family, tol)[1])
    if linalg.psd_from_decomposition(point.spectrum, tol)[0]:
        return point
    if family.floor_spectra[4].any():
        squares = range(max(rank_floor(family, tol), 1), family.m * family.n + 1)
        starts = (_random_start(family, r, np.random.default_rng([seed, r])) for r in squares)
        fitted = _first_fit(family, starts, tol)
        if fitted is not None:
            return fitted[0]
    raise NoPSDPointFound("no PSD representation found; result inconclusive")


def min_rank_search(
    family: GramFamily,
    restarts: int = 20,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[GramPoint, int]:
    """Seeded top-down search for a low-rank PSD member of the family.

    Starts from the spectral factors of ``psd_point``, the face's own member
    when that is PSD, and repeatedly tries one square fewer: ``_first_fit`` of
    the current factors but the last (``psd_factor``'s rows descend), then of
    ``restarts - 1`` seeded random starts.  It stops at the first square count
    that no start fits, or at ``rank_floor`` squares, below which no fit can
    succeed: at once when the start is a minimum-rank end.  The rank is an
    upper bound on the SOS rank, carried by a verified Gram point; exact at the floor.

    Raises:
        InvalidInput: ``restarts`` is below 1.
        NoPSDPointFound: from ``psd_point``, when the family has no PSD
            member to start from; this outcome is inconclusive.
    """
    require_count("restarts", restarts)
    point = psd_point(family, seed, tol)
    factors = _factors(point, tol)
    floor = max(rank_floor(family, tol), 1)
    while len(factors) > floor:
        r = len(factors) - 1
        randoms = (_random_start(family, r, np.random.default_rng([seed, r, a])) for a in range(1, restarts))
        fitted = _first_fit(family, itertools.chain([factors[:-1]], randoms), tol)
        if fitted is None:
            break
        point, factors = fitted
    # One factor per eigenvalue above the rank cutoff: the numerical rank, as
    # the negative eigenvalues of a point that passed the PSD test are within it.
    return point, len(factors)
