"""Biquadratic forms: canonical tensor carrier, evaluation, serialization.

A biquadratic form P(x, y) = sum a_ijkl x_i y_j x_k y_l (x in R^m, y in R^n)
is stored through its unique partially symmetric coefficient tensor, i.e.
``a[i,j,k,l] == a[k,j,i,l] == a[k,l,i,j]`` bit for bit.  Files store polynomial monomial
coefficients instead (one entry per distinct monomial x_i x_k y_j y_l), which
is the convention people actually write forms in; conversion between the two
views lives here.  A terms file is accumulated once, into its canonical
cells (``FormCells``, the entries with i <= k and j <= l); the dense tensor
is scattered from them only when a caller asks for it, and x-symmetric data
and grouped decompositions reach it through the same cells
(``FormCells.x_symmetric``); every module reads the cells' order from
``FormCells.layout``.  A form file's terms array is decoded in chunks of
about 64 KiB (``read_terms_cells``), each into five field arrays through a
flat list of numbers, so no whole-file JSON document or Python list is
built; a file with any chunk outside that one template is decoded whole,
with the same cells and errors.  A decomposition is verified against its
form's cells (``verify_sos``), never by sampling, and x-symmetric data
against a grouped decomposition in O(n^2).
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
from dataclasses import dataclass
from operator import itemgetter

import numpy as np
import orjson

from .errors import InvalidInput
from .linalg import COEFF_TOL, quarter_exponent


@dataclass(frozen=True)
class BiquadraticForm:
    """Coefficient tensor of shape (m, n, m, n); ``coeffs[i, j, k, l]``
    multiplies x_i y_j x_k y_l, stored as the ``_orbit_mean`` of the tensor given."""

    m: int
    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.coeffs, dtype=float)
        if self.m < 1 or self.n < 1:
            raise InvalidInput("m and n must be positive")
        if a.shape != (self.m, self.n, self.m, self.n):
            raise InvalidInput(f"coefficient tensor has shape {a.shape}, expected {(self.m, self.n, self.m, self.n)}")
        if not np.isfinite(a).all():
            raise InvalidInput("coefficients must be finite")
        atol = COEFF_TOL * float(np.abs(a).max())
        if not (
            np.allclose(a, a.transpose(2, 1, 0, 3), rtol=0.0, atol=atol)
            and np.allclose(a, a.transpose(2, 3, 0, 1), rtol=0.0, atol=atol)
        ):
            raise InvalidInput("tensor is not partially symmetric; use symmetrize() on raw coefficients")
        a = _orbit_mean(a)
        a.setflags(write=False)
        object.__setattr__(self, "coeffs", a)

    def __eq__(self, other):
        if not isinstance(other, BiquadraticForm):
            return NotImplemented
        return self.m == other.m and self.n == other.n and np.array_equal(self.coeffs, other.coeffs)


@dataclass(frozen=True)
class FormCells:
    """The canonical cells of a form: ``values[p, q] = a[i, j, k, l]`` at
    the p-th pair (i, k) of ``triu_indices(m)`` and the q-th pair (j, l) of
    ``triu_indices(n)``, positions that ``layout`` alone derives.  The orbit
    of every tensor entry holds exactly one position with i <= k and j <= l,
    so the cells are the whole form in about a quarter of its storage."""

    m: int
    n: int
    values: np.ndarray

    @staticmethod
    @functools.lru_cache(maxsize=8)
    def layout(m: int, n: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, np.ndarray]]:
        """``((i, j, k, l), (x_orbit, y_orbit))``: the tensor position of
        every m x n cell, i and k a column and j and l a row that broadcast to
        the cells' shape, and its orbit size x_orbit * y_orbit (2 if i < k,
        times 2 if j < l), never materialised: O(m^2 + n^2) memory.  Built
        once per (m, n) among the last few asked for; the arrays are shared,
        so they are read-only."""
        i, k = np.triu_indices(m)
        j, l = np.triu_indices(n)
        i, k = i[:, None], k[:, None]
        arrays = (i, j, k, l, np.where(i < k, 2.0, 1.0), np.where(j < l, 2.0, 1.0))
        for a in arrays:
            a.flags.writeable = False
        return arrays[:4], arrays[4:]

    @classmethod
    def of(cls, form: BiquadraticForm) -> FormCells:
        """The cells of a dense form, gathered: its tensor is exactly
        partially symmetric, so every entry of an orbit is the cell."""
        (i, j, k, l), _ = cls.layout(form.m, form.n)
        return cls(form.m, form.n, form.coeffs[i, j, k, l])

    @classmethod
    def x_symmetric(cls, m: int, same: np.ndarray, cross: np.ndarray) -> FormCells:
        """The cells of the m x n form whose n x n block (i, :, k, :) is
        ``same`` when i = k and ``cross`` otherwise (both symmetric), each
        cell copied verbatim from the upper triangle of its block."""
        n = len(same)
        require_indexable(m, n, (m * (m + 1) // 2) * (n * (n + 1) // 2), "canonical cells")
        (i, j, k, l), _ = cls.layout(m, n)
        return cls(m, n, np.where(i == k, same[j, l], cross[j, l]))

    def transpose(self) -> FormCells:
        """The cells of the n x m form P'(y, x) = P(x, y)."""
        return FormCells(self.n, self.m, self.values.T)

    def max_abs_coeff(self) -> float:
        """max|coeff| of the dense tensor, whose entries are the cells'."""
        return float(np.abs(self.values).max())

    def to_form(self) -> BiquadraticForm:
        """The dense tensor: each cell copied to the four positions of its
        orbit."""
        require_indexable(self.m, self.n, (self.m * self.n) ** 2, "dense tensor entries")
        (i, j, k, l), _ = self.layout(self.m, self.n)
        a = np.empty((self.m, self.n, self.m, self.n))
        a[i, j, k, l] = a[k, j, i, l] = a[i, l, k, j] = a[k, l, i, j] = self.values
        return BiquadraticForm(self.m, self.n, a)


@dataclass(frozen=True)
class SOSDecomposition:
    """Factors of a sum-of-squares representation sum_p (x' W_p y)^2, held as
    one read-only float array of shape (p, m, n), (0, m, n) when p = 0."""

    m: int
    n: int
    factors: np.ndarray

    def __post_init__(self):
        try:
            factors = np.asarray(self.factors, dtype=float) if len(self.factors) else np.empty((0, self.m, self.n))
        except ValueError as exc:  # factors of unequal shapes, or not numbers
            raise InvalidInput(f"factors do not form one float array: {exc}") from exc
        if factors.shape[1:] != (self.m, self.n):
            raise InvalidInput(f"factors have shape {factors.shape}, expected (p, {self.m}, {self.n})")
        factors = factors.view()  # read-only without freezing the caller's array
        factors.setflags(write=False)
        object.__setattr__(self, "factors", factors)

    def __len__(self):
        return len(self.factors)


ONES = "ones"  # X tag of a group: the single row 1_m / sqrt(m)
HELMERT = "helmert"  # X tag of a group: the m - 1 rows of helmert_basis(m).T
X_TAGS = (ONES, HELMERT)


def helmert_basis(m: int) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to the
    all-ones vector, as columns of an m x (m-1) matrix."""
    v = np.zeros((m, m - 1))
    for k in range(2, m + 1):
        scale = 1.0 / math.sqrt(k * (k - 1))
        v[: k - 1, k - 2] = scale
        v[k - 1, k - 2] = -(k - 1) * scale
    return v


def x_rows(xg: str, m: int) -> np.ndarray:
    """The X rows of a group, rebuilt from its tag and m."""
    return np.full((1, m), 1.0 / math.sqrt(m)) if xg == ONES else helmert_basis(m).T


@dataclass(frozen=True)
class GroupedSOSDecomposition:
    """Sum of squares made of Kronecker groups ``(X_g, Y_g)``.

    The factors of a group are every ``outer(x, y)`` with x a row of X_g
    (shape (a_g, m)) and y a row of Y_g (shape (b_g, n)), so a group stands
    for ``a_g * b_g`` bilinear squares and its share of the sum at (x, y) is
    ``|X_g x|^2 |Y_g y|^2``.  X_g is always a tag naming a fixed basis
    (``ONES``: 1 row, ``HELMERT``: m - 1 rows), rebuilt from m only for
    ``factors``.  Storage is the tags and the Y rows, not the dense factors.
    """

    m: int
    n: int
    groups: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self):
        groups = []
        for xg, yg in self.groups:
            if not (isinstance(xg, str) and xg in X_TAGS):
                raise InvalidInput(f"unknown group basis {xg!r}, expected one of {X_TAGS}")
            yg = np.asarray(yg, dtype=float)
            if not (yg.ndim == 2 and yg.shape[1] == self.n):
                raise InvalidInput(f"group has y rows of shape {yg.shape}, expected (_, {self.n})")
            groups.append((xg, yg))
        object.__setattr__(self, "groups", tuple(groups))

    def __len__(self):
        return sum((1 if xg == ONES else self.m - 1) * yg.shape[0] for xg, yg in self.groups)

    @property
    def factors(self) -> np.ndarray:
        """The dense m x n factors ``outer(x, y)`` as one read-only (p, m, n)
        array, materialised y-major within each group."""
        m, n = self.m, self.n
        blocks = [(yg[:, None, None, :] * x_rows(xg, m)[:, :, None]).reshape(-1, m, n) for xg, yg in self.groups]
        factors = np.concatenate([np.empty((0, m, n)), *blocks])
        factors.setflags(write=False)
        return factors


def symmetrize(raw) -> BiquadraticForm:
    """Average a raw coefficient tensor over its symmetry orbit.

    The result defines the same polynomial and is the canonical carrier.
    The mean over the swaps i <-> k and j <-> l pairs its sums so that it is
    bitwise invariant under both (float addition is commutative): an
    already-symmetric tensor keeps its bits; any finite one has a finite mean.
    """
    a = np.asarray(raw, dtype=float)
    if a.ndim != 4 or a.shape[0] != a.shape[2] or a.shape[1] != a.shape[3]:
        raise InvalidInput(f"expected shape (m, n, m, n), got {a.shape}")
    return BiquadraticForm(a.shape[0], a.shape[1], _orbit_mean(a))


def _orbit_mean(a: np.ndarray) -> np.ndarray:
    """``symmetrize``'s mean, unchecked; entries are taken times 1/4 (exact) before
    the sums only from max|a| = 2^1022 on, where four could overflow."""
    scale = 0.25 if np.abs(a).max(initial=0.0) >= 2.0**1022 else 1.0
    sym = a * scale
    sym = sym + sym.transpose(2, 1, 0, 3)
    return (sym + sym.transpose(0, 3, 2, 1)) * (0.25 / scale)


def max_abs_coeff(form: BiquadraticForm) -> float:
    return float(np.abs(form.coeffs).max())


def point_vectors(m: int, n: int, x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float vectors; InvalidInput unless their lengths are m and n."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (m,) or y.shape != (n,):
        raise InvalidInput(f"expected vectors of lengths {m} and {n}")
    return x, y


def evaluate(form: BiquadraticForm, x, y) -> float:
    """P(x, y).  Bihomogeneous: evaluate(s*x, t*y) == s^2 t^2 evaluate(x, y)."""
    x, y = point_vectors(form.m, form.n, x, y)
    return float(evaluate_batch(form, x[None], y[None])[0])


def evaluate_batch(form: BiquadraticForm, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """P at many points at once; xs is (s, m), ys is (s, n)."""
    if xs.shape[1] != form.m or ys.shape[1] != form.n or xs.shape[0] != ys.shape[0]:
        raise InvalidInput("batch shapes do not match the form")
    mn = form.m * form.n
    gram = form.coeffs.reshape(mn, mn)
    z = (xs[:, :, None] * ys[:, None, :]).reshape(xs.shape[0], mn)
    return np.einsum("si,si->s", z @ gram, z)


def evaluate_sos(dec: SOSDecomposition | GroupedSOSDecomposition, x, y) -> float:
    """sum_p (x' W_p y)^2; zero for an empty factor list.  A group adds
    |X_g x|^2 |Y_g y|^2, where the two bases give
    |x / sqrt(m)|^2 = (1'x)^2 / m and |Hx|^2 = |x|^2 - (1'x)^2 / m."""
    x, y = point_vectors(dec.m, dec.n, x, y)
    if isinstance(dec, GroupedSOSDecomposition):
        total = 0.0
        for xg, yg in dec.groups:
            mean_part = x.sum() ** 2 / dec.m
            x_part = mean_part if xg == ONES else x @ x - mean_part
            py = yg @ y
            total += x_part * (py @ py)
        return float(total)
    t = np.einsum("pij,i,j->p", dec.factors, x, y)
    return float(t @ t)


# verify_sos's bound on the largest coefficient difference, relative to max|c|.
RESIDUAL_RTOL = 1e-8


def residual_bound(form, slack: float = 0.0) -> float:
    """The largest coefficient difference ``verify_sos`` accepts:
    ``RESIDUAL_RTOL * max|c| + slack``.  ``slack`` is the coefficient error
    the form's own PSD test allows a decomposition to make (see
    ``partsym.PSDCertificate.slack``), 0 for a form without one."""
    scale = max_abs_coeff(form) if isinstance(form, BiquadraticForm) else form.max_abs_coeff()
    return RESIDUAL_RTOL * scale + slack


def verify_sos(
    form,
    dec: SOSDecomposition | GroupedSOSDecomposition,
    samples: int = 1000,
    seed: int = 0,
    slack: float = 0.0,
) -> tuple[bool, float]:
    """Check the decomposition against the form coefficient by coefficient.

    The residual is the largest absolute difference between a coefficient
    of the sum of squares and the form's; the check passes when it is at
    most ``residual_bound(form, slack)``, so only the zero form passes with
    no factors.  ``form`` is a ``BiquadraticForm``, its ``FormCells``, or
    x-symmetric data with fields ``m, d, A, B`` and the methods
    ``max_abs_coeff`` and ``cells`` (``partsym.XSymmetricData``).  Data
    checked against a grouped decomposition is compared through Q' = sum Y'Y
    over the ``HELMERT`` groups and R' over the ``ONES`` groups, in O(n^2),
    without the cells or the dense factors.  Every other pair is compared
    on the canonical cells (``_sos_cells``), without the form's tensor.
    ``samples`` and ``seed`` are accepted for older callers and ignored: no
    random number is drawn.  Returns (passed, max residual).
    """
    if (form.m, form.n) != (dec.m, dec.n):
        raise InvalidInput("form and decomposition dimensions differ")
    # Factors too large to square give an infinite residual, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(form, BiquadraticForm):
            diffs = (_sos_cells(dec, FormCells.of(form).values),)
        elif isinstance(form, FormCells):
            diffs = (_sos_cells(dec, form.values),)
        elif isinstance(dec, GroupedSOSDecomposition):
            same, cross, e = _grouped_blocks(dec)
            same_x = same - np.ldexp(form.B, -4 * e)
            same_x.flat[:: form.n + 1] -= np.ldexp(form.d, -4 * e)
            pairs = (same_x,) if form.m == 1 else (same_x, cross - np.ldexp(form.A, -4 * e))
            diffs = tuple(np.ldexp(diff, 4 * e) for diff in pairs)
        else:
            diffs = (_sos_cells(dec, form.cells().values),)
    resid = max(float(np.abs(diff).max(initial=0.0)) for diff in diffs)
    return resid <= residual_bound(form, slack), resid


def _grouped_blocks(dec: GroupedSOSDecomposition) -> tuple[np.ndarray, np.ndarray, int]:
    """(same, cross, e): the n x n blocks of sum_g X_g'X_g (x) Y_g'Y_g times
    16^-e, formed from the Y rows times 4^-e (exact, e their ``quarter_exponent``).
    With X'X = 11'/m (ONES) and I - 11'/m (HELMERT) they are Q' + (R' - Q')/m
    when i = k and (R' - Q')/m otherwise, where Q' and R' sum Y'Y over the
    HELMERT and the ONES groups; with m = 1 only the first kind exists."""
    e = max((quarter_exponent(yg) for _, yg in dec.groups), default=-1)
    q, r = np.zeros((dec.n, dec.n)), np.zeros((dec.n, dec.n))
    for xg, yg in dec.groups:
        gram = q if xg == HELMERT else r
        yg = np.ldexp(yg, -2 * e)
        gram += yg.T @ yg
    cross = (r - q) / dec.m
    return q + cross, cross, e


def _sos_cells(dec: SOSDecomposition | GroupedSOSDecomposition, values=0.0) -> np.ndarray:
    """The canonical cells of a decomposition's coefficients minus ``values``;
    a dense one's are symmetrize(G)'s entries, G = sum_p vec W_p vec W_p',
    formed unchecked from the factors times 4^-e (``quarter_exponent``), a grouped
    one's by ``_grouped_blocks``, less ``values`` times 16^-e, and scaled back
    by 16^e (exact scalings): only a difference beyond the float range overflows."""
    if isinstance(dec, GroupedSOSDecomposition):
        same, cross, e = _grouped_blocks(dec)
        cells = FormCells.x_symmetric(dec.m, same, cross).values
    else:
        flat = dec.factors.reshape(len(dec), dec.m * dec.n)
        e = quarter_exponent(flat)
        flat = np.ldexp(flat, -2 * e)
        (i, j, k, l), _ = FormCells.layout(dec.m, dec.n)
        cells = _orbit_mean((flat.T @ flat).reshape(dec.m, dec.n, dec.m, dec.n))[i, j, k, l]
    return np.ldexp(cells - np.ldexp(values, -4 * e), 4 * e)


# ---------------------------------------------------------------------------
# polynomial-coefficient view and JSON serialization
# ---------------------------------------------------------------------------

_TERM_FIELDS = ("i", "j", "k", "l", "c")


def _term_columns(form: BiquadraticForm) -> tuple[np.ndarray, ...]:
    """1-based i, j, k, l and the polynomial coefficient c of every nonzero
    monomial, sorted by (i, k, j, l)."""
    (i, j, k, l), (x_orbit, y_orbit) = FormCells.layout(form.m, form.n)
    with np.errstate(over="ignore"):
        c = x_orbit * y_orbit * form.coeffs[i, j, k, l]
    x_pair, y_pair = np.nonzero(c)
    return i[x_pair, 0] + 1, j[y_pair] + 1, k[x_pair, 0] + 1, l[y_pair] + 1, c[x_pair, y_pair]


_TERM_GETTERS = tuple(map(itemgetter, _TERM_FIELDS))


def _term_arrays(m: int, n: int, terms: list) -> tuple[np.ndarray, ...] | None:
    """0-based i, j, k, l and float c of a term list, checked column by
    column; None unless every term is well formed, in range and finite."""
    try:
        columns = [_column_array(list(map(get, terms))) for get in _TERM_GETTERS]
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    return _checked_columns(m, n, columns)


def _checked_columns(m: int, n: int, columns: list[np.ndarray]) -> tuple[np.ndarray, ...] | None:
    """``_term_arrays`` on the five field arrays of a term list, each
    ``_column_array`` of a field's values or those of pieces joined."""
    count = len(columns[0])
    if any(col.shape != (count,) for col in columns):
        return None
    *index, coeff = columns
    if not all(_integral(col) for col in index):
        return None
    i, j, k, l = index
    if ((i < 1) | (i > m) | (k < 1) | (k > m) | (j < 1) | (j > n) | (l < 1) | (l > n)).any():
        return None
    if coeff.dtype.kind not in "biuf":
        # Numbers only reach an object column as ints beyond 64 bits.
        if not all(isinstance(c, (int, float)) for c in coeff):
            return None
        try:
            coeff = coeff.astype(float)
        except OverflowError:
            return None
    coeff = coeff.astype(float, copy=False)
    if not np.isfinite(coeff).all():
        return None
    return (*(col.astype(np.intp) - 1 for col in index), coeff)


def _column_array(col: list) -> np.ndarray:
    """``np.array(col)``, except that a list of ints in [0, 256), as index
    columns are, goes through ``bytes``, in C and without numpy's per-item
    type discovery; the checks read the same values from either array."""
    try:
        return np.frombuffer(bytes(col), np.uint8)
    except (TypeError, ValueError):
        return np.array(col)


def _integral(col: np.ndarray) -> bool:
    """Integer or bool dtype, or finite integral floats."""
    if col.dtype.kind in "biu":
        return True
    return col.dtype.kind == "f" and bool((np.isfinite(col) & (col == np.trunc(col))).all())


def _term_error(m: int, n: int, terms: list) -> InvalidInput:
    """The error naming the first bad term: the first malformed one, else the
    first out of range, else the first with a non-finite coefficient.  Only
    built once ``_term_arrays`` has rejected the list."""
    rows = []
    for entry in terms:
        try:
            raw = (entry["i"], entry["j"], entry["k"], entry["l"])
            if tuple(map(int, raw)) != raw:
                raise ValueError("indices must be integers")
            c = entry["c"]
            if not isinstance(c, (int, float)):
                raise TypeError(f"coefficient must be a number, got {c!r}")
            rows.append((raw, float(c)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            return InvalidInput(f"malformed term {entry!r}: {exc}")
    for entry, ((i, j, k, l), _) in zip(terms, rows):
        if not (1 <= i <= m and 1 <= k <= m and 1 <= j <= n and 1 <= l <= n):
            return InvalidInput(f"term index out of range: {entry!r}")
    for entry, (_, c) in zip(terms, rows):
        if not math.isfinite(c):
            return InvalidInput(f"term coefficient is not finite: {entry!r}")
    return InvalidInput("malformed term list")


def _accumulate_cells(m: int, n: int, i, j, k, l, coeff: np.ndarray) -> np.ndarray:
    """Canonical cells of 0-based monomial coefficients.

    Each term adds c / |orbit| to the cell of its orbit.  ``np.bincount``
    adds the weights of a cell in term order from 0.0, so every cell is
    bit-identical to adding the terms one at a time.
    """
    shape = (m * (m + 1) // 2, n * (n + 1) // 2)
    require_indexable(m, n, shape[0] * shape[1], "canonical cells")
    i, k = np.minimum(i, k), np.maximum(i, k)
    j, l = np.minimum(j, l), np.maximum(j, l)
    # The layout's inverse: (i, k) with i <= k is row i * m - i * (i - 1) / 2 + (k - i).
    x_pair = i * (2 * m - i + 1) // 2 + k - i
    y_pair = j * (2 * n - j + 1) // 2 + l - j
    _, (x_orbit, y_orbit) = FormCells.layout(m, n)
    entry = coeff / (x_orbit[x_pair, 0] * y_orbit[y_pair])
    cells = np.bincount(x_pair * shape[1] + y_pair, weights=entry, minlength=shape[0] * shape[1])
    if not np.isfinite(cells).all():
        raise InvalidInput("coefficients must be finite")
    return cells.reshape(shape)


def require_indexable(m: int, n: int, count: int, what: str) -> None:
    """InvalidInput, before anything is allocated, unless an array of
    ``count`` 8-byte entries (the ``what`` of an m x n form) fits in the
    ``intp`` maximum of bytes that numpy allows one array."""
    if 8 * count > np.iinfo(np.intp).max:
        raise InvalidInput(
            f"form too large: m = {m}, n = {n} give {count} {what}, "
            f"{8 * count} bytes, more than the {np.iinfo(np.intp).max} bytes an array can hold"
        )


def form_to_dict(form: BiquadraticForm) -> dict:
    """The terms record; InvalidInput if a monomial coefficient overflows."""
    columns = _term_columns(form)
    if not np.isfinite(columns[-1]).all():
        raise InvalidInput("a monomial coefficient overflows the float range; the form has no terms record")
    rows = zip(*(col.tolist() for col in columns))
    return {"m": form.m, "n": form.n, "terms": [dict(zip(_TERM_FIELDS, row)) for row in rows]}


def integer_field(value, name: str) -> int:
    """A record's integer field; ValueError (or OverflowError) unless the
    value is integral, so 2.5 is rejected rather than truncated."""
    number = int(value)
    if number != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return number


def cells_from_dict(data: dict) -> FormCells:
    """Parse a form record into its canonical cells, without a dense
    tensor.  Terms are read column by column; a rejected list is walked
    entry by entry only to name its first bad term."""
    try:
        m = integer_field(data["m"], "m")
        n = integer_field(data["n"], "n")
        raw_terms = data["terms"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"malformed form record: {exc}") from exc
    if not isinstance(raw_terms, list):
        raise InvalidInput("malformed form record: terms must be a list")
    if m < 1 or n < 1:
        raise InvalidInput("m and n must be positive")
    columns = _term_arrays(m, n, raw_terms)
    if columns is None:
        raise _term_error(m, n, raw_terms)
    return FormCells(m, n, _accumulate_cells(m, n, *columns))


def form_from_dict(data: dict) -> BiquadraticForm:
    """Parse a form record into its dense coefficient tensor."""
    return cells_from_dict(data).to_form()


DECOMPOSITION_FORMAT = 2  # the version tag of the grouped decomposition record


def decomposition_to_dict(dec: SOSDecomposition | GroupedSOSDecomposition) -> dict:
    """Grouped decompositions keep their groups (a versioned record: each
    X as its tag, each Y as its rows); dense ones list every factor
    row-major (the unversioned record)."""
    if isinstance(dec, GroupedSOSDecomposition):
        return {
            "format": DECOMPOSITION_FORMAT,
            "m": dec.m,
            "n": dec.n,
            "groups": [{"x": xg, "y": yg.tolist()} for xg, yg in dec.groups],
        }
    return {
        "m": dec.m,
        "n": dec.n,
        "factors": dec.factors.reshape(len(dec), dec.m * dec.n).tolist(),
    }


def decomposition_from_dict(data: dict) -> SOSDecomposition | GroupedSOSDecomposition:
    """Parse a decomposition record; any malformed field, a dimension below
    1, a non-finite entry or a group's X given as rows rather than a tag is
    ``InvalidInput``."""
    try:
        m = integer_field(data["m"], "m")
        n = integer_field(data["n"], "n")
        if m < 1 or n < 1:
            raise ValueError("m and n must be positive")
        version = data.get("format")
        if version == DECOMPOSITION_FORMAT:
            groups = tuple((group["x"], _rows(group["y"], n)) for group in data["groups"])
            if any(isinstance(xg, list) for xg, _ in groups):
                raise ValueError(f"explicit X rows are no longer accepted; x must be one of the tags {X_TAGS}")
        elif version is None:
            factors = _rows(data["factors"], m * n).reshape(-1, m, n)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"malformed decomposition record: {exc}") from exc
    if version == DECOMPOSITION_FORMAT:
        return GroupedSOSDecomposition(m, n, groups)
    if version is not None:
        raise InvalidInput(f"unknown decomposition format {version!r}")
    return SOSDecomposition(m, n, factors)


def _rows(rows: list, width: int) -> np.ndarray:
    """A list of rows of ``width`` finite numbers as an array."""
    a = np.asarray(rows, dtype=float).reshape(len(rows), width)
    if not np.isfinite(a).all():
        raise ValueError("entries must be finite")
    return a


def dump_json(data: dict, path: str) -> None:
    """Write compact JSON atomically with a stable key order.

    No indent, so ``json.dumps`` runs its C encoder.  The temporary file is
    created with mode 0o666 so the kernel applies the process umask, as it
    would to a plain ``open``; the rename keeps it.  An error names ``path``.
    """
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    try:
        with os.fdopen(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "w") as handle:
            handle.write(text)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def load_json(path: str) -> dict:
    """Decode a JSON file with orjson, about 3x faster than ``json.load``
    on terms files.

    orjson rejects some input that ``json.load`` reads or reports in its own
    words: NaN/Infinity literals, numbers beyond the double range, lone
    surrogates and malformed JSON.  Such a file is read again with
    ``json.load``, so a non-finite coefficient still gets its "not finite"
    error and a parse failure ``json``'s message.  orjson reads an integer
    outside [-2**63, 2**64) as the nearest float, which equals ``float(int)``.
    A form file goes through ``read_terms_cells`` first; this whole-file
    decode is what it falls back on, for any file with a piece outside the
    flat template, and the only path that words an error about a terms file.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError:
        pass
    with open(path) as handle:
        return json.load(handle)


# File bytes decoded per orjson call when read_terms_cells splits a terms array.
TERMS_CHUNK_BYTES = 1 << 16

_TERMS_OPEN = re.compile(rb'"terms"[ \t\n\r]*:[ \t\n\r]*\[')
_TERM_SEPARATOR = re.compile(rb"\}[ \t\n\r]*,")


def read_terms_cells(path: str) -> FormCells | None:
    """The canonical cells of a form file, its terms array decoded in
    pieces of about ``TERMS_CHUNK_BYTES``, each into field arrays through a
    flat list of numbers (``_flat_fields``), so neither orjson's document of
    the whole file nor an object per term or number of it is held at once.

    The span from the ``[`` after the first ``"terms":`` to the last ``]``
    of the file is set aside.  The rest, with a placeholder in its place,
    must decode (once with 0, once with 1) to a record whose keys are
    exactly m, n and terms, with terms following the placeholder: then the
    span is the value of the record's terms.  The span is cut only after a
    ``}`` that whitespace and a comma follow, and every piece must be whole
    terms of the flat template, which holds no bracket and no string but a
    one-letter key.  So no cut falls inside a string, the pieces hold
    exactly the elements of the whole array, and each piece's fields are
    the int and float objects the whole-file decode reads.  Joined by
    numpy's dtype promotion, whatever the pieces' dtypes, their arrays pass
    the checks into the arrays of the whole-file columns, bit for bit, so
    every cell has the same bits.

    None for anything else: a data file, another record shape, an empty
    array, a piece outside the template, a bad field or term.  The caller
    then reads the file with ``load_json`` and ``cells_from_dict``, which
    give the same cells or word the error; only the accumulation's own
    InvalidInput, the same on both paths, comes from here.
    """
    fields = _streamed_fields(path)
    if fields is None:
        return None
    m, n, columns = fields
    checked = _checked_columns(m, n, columns)
    if checked is None:
        return None
    return FormCells(m, n, _accumulate_cells(m, n, *checked))


def _streamed_fields(path: str) -> tuple[int, int, list[np.ndarray]] | None:
    """m, n and the five field arrays of a form file for ``read_terms_cells``,
    or None; the file's bytes are freed when it returns."""
    with open(path, "rb") as handle:
        raw = handle.read()
    opened = _TERMS_OPEN.search(raw)
    if opened is None:
        return None
    start, stop = opened.end(), raw.rfind(b"]")
    if stop < start:
        return None
    head, tail = raw[: start - 1], raw[stop + 1 :]
    try:
        record, other = (orjson.loads(head + mark + tail) for mark in (b"0", b"1"))
        if not (isinstance(record, dict) and record.keys() == {"m", "n", "terms"}):
            return None
        if (record["terms"], other["terms"]) != (0, 1):
            return None
        m = integer_field(record["m"], "m")
        n = integer_field(record["n"], "n")
        if m < 1 or n < 1:
            return None
        return m, n, _streamed_columns(raw, start, stop)
    except (orjson.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError):
        return None


def _streamed_columns(raw: bytes, start: int, stop: int) -> list[np.ndarray]:
    """The five field arrays of the array whose elements span
    ``raw[start:stop]``, each joined from its pieces' arrays, decoded by
    ``_flat_fields``, which raises ValueError on a piece it declines."""
    pieces = []
    while True:
        cut = _TERM_SEPARATOR.search(raw, min(start + TERMS_CHUNK_BYTES, stop), stop)
        end = stop if cut is None else cut.start() + 1
        pieces.append(_flat_fields(raw[start:end]))
        if cut is None:
            return [np.concatenate(parts) for parts in zip(*pieces)]
        start = cut.end()


_WS = rb"[ \t\n\r]*"
# A term with its numbers deleted (five one-letter keys, each value empty),
# then the separator before the next term, if any.
_TEMPLATE = re.compile(
    rb"\{" + rb",".join([_WS + rb'"([ijklc])"' + _WS + rb":" + _WS] * 5) + rb"\}(" + _WS + rb"," + _WS + rb")?"
)
_COLON_TO_COMMA = bytes.maketrans(b":", b",")


def _flat_fields(piece: bytes) -> list[np.ndarray]:
    """The five field arrays (``_column_array``) of a piece of whole terms,
    decoded as one flat list of numbers; ValueError unless the piece holds
    terms that all have one layout.

    Three checks make the flat decode read what the whole-file decode reads:

    - the skeleton (the piece with its number characters deleted) is one
      ``_TEMPLATE`` term repeated, with one separator;
    - every closing brace is followed by that separator and the next
      opening brace, with no number between;
    - with the braces and key letters deleted and each colon read as a
      comma, every key decodes to the empty string.

    A number outside a value position then either sits next to another
    token without a comma, and the decode fails, or stays inside a key's
    quotes, and the last check fails.  So each value position holds exactly
    one JSON number, and the values are the int and float objects the
    whole-file decode reads.
    """
    skeleton = piece.translate(None, b"0123456789.eE+-").strip(b" \t\n\r")
    term = _TEMPLATE.match(skeleton)
    if term is None:
        raise ValueError("terms outside the flat template")
    unit, separator = term.group(0), term.group(6) or b""
    count = (len(skeleton) + len(separator)) // len(unit)
    order = term.group(1, 2, 3, 4, 5)
    if len(set(order)) != len(order) or unit * count != skeleton + separator:
        raise ValueError("a repeated key, or terms of more than one layout")
    if piece.count(b"}" + separator + b"{") != count - 1 or not piece.rstrip(b" \t\n\r").endswith(b"}"):
        raise ValueError("a number outside a term")
    # A decode error is an orjson.JSONDecodeError, a ValueError.
    flat = orjson.loads(b"[" + piece.translate(_COLON_TO_COMMA, b"{}ijklc") + b"]")
    keys = flat[::2]
    if keys.count("") != len(keys):
        raise ValueError("a number inside a key")
    return [_column_array(flat[2 * order.index(field.encode()) + 1 :: 2 * len(order)]) for field in _TERM_FIELDS]


def save_form(form: BiquadraticForm, path: str) -> None:
    dump_json(form_to_dict(form), path)


def load_form(path: str) -> BiquadraticForm:
    cells = read_terms_cells(path)
    return cells.to_form() if cells is not None else form_from_dict(load_json(path))


def save_decomposition(dec: SOSDecomposition | GroupedSOSDecomposition, path: str) -> None:
    dump_json(decomposition_to_dict(dec), path)


def load_decomposition(path: str) -> SOSDecomposition | GroupedSOSDecomposition:
    return decomposition_from_dict(load_json(path))
