"""Biquadratic forms: canonical tensor carrier, evaluation, serialization.

A biquadratic form P(x, y) = sum a_ijkl x_i y_j x_k y_l (x in R^m, y in R^n)
is stored through its unique partially symmetric coefficient tensor, i.e.
``a[i,j,k,l] == a[k,j,i,l] == a[k,l,i,j]``.  Files store polynomial monomial
coefficients instead (one entry per distinct monomial x_i x_k y_j y_l), which
is the convention people actually write forms in; conversion between the two
views lives here.  A terms file is accumulated once, into its canonical
cells (``FormCells``, the entries with i <= k and j <= l); the dense tensor
is scattered from them only when a caller asks for it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from operator import itemgetter

import numpy as np
import orjson

from .errors import InvalidInput
from .linalg import COEFF_TOL


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
class BiquadraticForm:
    """Coefficient tensor of shape (m, n, m, n); ``coeffs[i, j, k, l]``
    multiplies the product x_i y_j x_k y_l."""

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
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "coeffs", a)

    def __eq__(self, other):
        if not isinstance(other, BiquadraticForm):
            return NotImplemented
        return self.m == other.m and self.n == other.n and np.array_equal(self.coeffs, other.coeffs)


@dataclass(frozen=True)
class FormCells:
    """The canonical cells of a form: ``values[p, q] = a[i, j, k, l]`` for the
    p-th pair (i, k) of ``triu_indices(m)`` and the q-th pair (j, l) of
    ``triu_indices(n)``.  The orbit of every tensor entry holds exactly one
    position with i <= k and j <= l, so the cells are the whole form in about
    a quarter of the tensor's storage."""

    m: int
    n: int
    values: np.ndarray

    @classmethod
    def of(cls, form: BiquadraticForm) -> FormCells:
        """The cells of a dense form, each the mean of its entry and the
        y-swapped one, as a form may be off partial symmetry by COEFF_TOL
        (taken as a + (b - a) / 2, which cannot overflow)."""
        i, k = np.triu_indices(form.m)
        j, l = np.triu_indices(form.n)
        i, k, a = i[:, None], k[:, None], form.coeffs
        entry = a[i, j, k, l]
        return cls(form.m, form.n, entry + 0.5 * (a[i, l, k, j] - entry))

    def transpose(self) -> FormCells:
        """The cells of the n x m form P'(y, x) = P(x, y)."""
        return FormCells(self.n, self.m, self.values.T)

    def to_form(self) -> BiquadraticForm:
        """The dense tensor: each cell copied to the four positions of its
        orbit, as the symmetric n x n blocks (i, :, k, :) and (k, :, i, :)."""
        i, k = np.triu_indices(self.m)
        j, l = np.triu_indices(self.n)
        blocks = np.empty((len(i), self.n, self.n))
        blocks[:, j, l] = blocks[:, l, j] = self.values
        a = np.empty((self.m, self.n, self.m, self.n))
        a[i, :, k, :] = a[k, :, i, :] = blocks
        return BiquadraticForm(self.m, self.n, a)


@dataclass(frozen=True)
class MonomialTerm:
    """Polynomial coefficient of the monomial x_i x_k y_j y_l, 1-based,
    canonical order i <= k and j <= l."""

    i: int
    j: int
    k: int
    l: int
    c: float


@dataclass(frozen=True)
class SOSDecomposition:
    """Factors of a sum-of-squares representation sum_p (x' W_p y)^2."""

    m: int
    n: int
    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        factors = tuple(np.asarray(w, dtype=float) for w in self.factors)
        for w in factors:
            if w.shape != (self.m, self.n):
                raise InvalidInput(f"factor has shape {w.shape}, expected {(self.m, self.n)}")
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


def x_rows(xg: np.ndarray | str, m: int) -> np.ndarray:
    """The X rows of a group; a tagged basis is rebuilt from m."""
    if isinstance(xg, np.ndarray):
        return xg
    return np.full((1, m), 1.0 / math.sqrt(m)) if xg == ONES else helmert_basis(m).T


@dataclass(frozen=True)
class GroupedSOSDecomposition:
    """Sum of squares made of Kronecker groups ``(X_g, Y_g)``.

    The factors of a group are every ``outer(x, y)`` with x a row of X_g
    (shape (a_g, m)) and y a row of Y_g (shape (b_g, n)), so a group stands
    for ``a_g * b_g`` bilinear squares and its share of the sum at (x, y) is
    ``|X_g x|^2 |Y_g y|^2``.  X_g is an array of rows or a tag naming a fixed
    basis (``ONES``, ``HELMERT``), which is rebuilt only for ``factors``.
    Storage is the rows, not the dense factors.
    """

    m: int
    n: int
    groups: tuple[tuple[np.ndarray | str, np.ndarray], ...]

    def __post_init__(self):
        groups = []
        for xg, yg in self.groups:
            if not isinstance(xg, str):
                xg = np.asarray(xg, dtype=float)
            elif xg not in X_TAGS:
                raise InvalidInput(f"unknown group basis {xg!r}, expected one of {X_TAGS}")
            yg = np.asarray(yg, dtype=float)
            x_ok = isinstance(xg, str) or (xg.ndim == 2 and xg.shape[1] == self.m)
            if not (x_ok and yg.ndim == 2 and yg.shape[1] == self.n):
                raise InvalidInput(
                    f"group has row shapes {np.shape(xg)} and {yg.shape}, expected (_, {self.m}) and (_, {self.n})"
                )
            groups.append((xg, yg))
        object.__setattr__(self, "groups", tuple(groups))

    def _x_count(self, xg) -> int:
        if isinstance(xg, np.ndarray):
            return xg.shape[0]
        return 1 if xg == ONES else self.m - 1

    def __len__(self):
        return sum(self._x_count(xg) * yg.shape[0] for xg, yg in self.groups)

    @property
    def factors(self) -> tuple[np.ndarray, ...]:
        """The dense m x n factors, materialised y-major within each group."""
        return tuple(np.outer(x, y) for xg, yg in self.groups for y in yg for x in x_rows(xg, self.m))


def symmetrize(raw) -> BiquadraticForm:
    """Average a raw coefficient tensor over its symmetry orbit.

    The result defines the same polynomial and is the canonical carrier; an
    already-symmetric tensor passes through bit-identically.
    """
    a = np.asarray(raw, dtype=float)
    if a.ndim != 4 or a.shape[0] != a.shape[2] or a.shape[1] != a.shape[3]:
        raise InvalidInput(f"expected shape (m, n, m, n), got {a.shape}")
    # Pairing the sums keeps the result bitwise invariant under both swaps
    # (float addition is commutative), so symmetrize is an exact fixed point
    # on already-symmetric tensors.
    sym = a + a.transpose(2, 1, 0, 3)
    sym = (sym + sym.transpose(0, 3, 2, 1)) * 0.25
    return BiquadraticForm(a.shape[0], a.shape[1], sym)


def max_abs_coeff(form: BiquadraticForm) -> float:
    return float(np.abs(form.coeffs).max())


def evaluate(form: BiquadraticForm, x, y) -> float:
    """P(x, y).  Bihomogeneous: evaluate(s*x, t*y) == s^2 t^2 evaluate(x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (form.m,) or y.shape != (form.n,):
        raise InvalidInput(f"expected vectors of lengths {form.m} and {form.n}")
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
    """sum_p (x' W_p y)^2; zero for an empty factor list."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (dec.m,) or y.shape != (dec.n,):
        raise InvalidInput(f"expected vectors of lengths {dec.m} and {dec.n}")
    return float(_evaluate_sos_batch(dec, x[None, :], y[None, :])[0])


def _evaluate_sos_batch(
    dec: SOSDecomposition | GroupedSOSDecomposition, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    if isinstance(dec, GroupedSOSDecomposition):
        total = np.zeros(xs.shape[0])
        for xg, yg in dec.groups:
            py = ys @ yg.T
            total += _x_norms2(xg, xs) * np.einsum("sb,sb->s", py, py)
        return total
    if not dec.factors:
        return np.zeros(xs.shape[0])
    stack = np.stack(dec.factors)
    t = np.einsum("pij,si,sj->sp", stack, xs, ys, optimize=True)
    return np.einsum("sp,sp->s", t, t)


def _x_norms2(xg: np.ndarray | str, xs: np.ndarray) -> np.ndarray:
    """|X_g x|^2 for every row x of xs; the tagged bases use
    |x / sqrt(m)|^2 = (1'x)^2 / m and |Hx|^2 = |x|^2 - (1'x)^2 / m."""
    if isinstance(xg, np.ndarray):
        px = xs @ xg.T
        return np.einsum("sa,sa->s", px, px)
    ones = xs.sum(axis=1)
    mean_part = ones * ones / xs.shape[1]
    return mean_part if xg == ONES else np.einsum("si,si->s", xs, xs) - mean_part


def verify_sos(
    form,
    dec: SOSDecomposition | GroupedSOSDecomposition,
    samples: int = 1000,
    seed: int = 0,
) -> tuple[bool, float]:
    """Check the decomposition against the form at random sphere points.

    ``form`` is a ``BiquadraticForm`` or a structured carrier with
    ``evaluate_batch`` and ``max_abs_coeff`` methods (``partsym.XSymmetricData``),
    which is evaluated without a dense tensor.  Passes when
    ``max |P - sum of squares| <= 1e-8 * max|coeff|`` over ``samples`` pairs
    drawn on the unit spheres, so only the zero form passes with no factors;
    deterministic given the seed.  Returns (passed, max residual).
    """
    if (form.m, form.n) != (dec.m, dec.n):
        raise InvalidInput("form and decomposition dimensions differ")
    rng = np.random.default_rng(seed)
    xs = _unit_rows(rng, samples, form.m)
    ys = _unit_rows(rng, samples, form.n)
    if isinstance(form, BiquadraticForm):
        values, scale = evaluate_batch(form, xs, ys), max_abs_coeff(form)
    else:
        values, scale = form.evaluate_batch(xs, ys), form.max_abs_coeff()
    resid = float(np.abs(values - _evaluate_sos_batch(dec, xs, ys)).max())
    return resid <= 1e-8 * scale, resid


def transpose_xy(form: BiquadraticForm) -> BiquadraticForm:
    """The n x m form P'(y, x) = P(x, y); applying it twice is the identity."""
    return BiquadraticForm(form.n, form.m, form.coeffs.transpose(1, 0, 3, 2))


# ---------------------------------------------------------------------------
# polynomial-coefficient view and JSON serialization
# ---------------------------------------------------------------------------

_TERM_FIELDS = ("i", "j", "k", "l", "c")


def _term_columns(form: BiquadraticForm) -> tuple[np.ndarray, ...]:
    """1-based i, j, k, l and the polynomial coefficient c of every nonzero
    monomial, sorted by (i, k, j, l)."""
    i, k = np.triu_indices(form.m)
    j, l = np.triu_indices(form.n)
    orbit = np.where(i < k, 2.0, 1.0)[:, None] * np.where(j < l, 2.0, 1.0)
    c = (orbit * form.coeffs[i[:, None], j, k[:, None], l]).ravel()
    keep = np.flatnonzero(c)
    x_pair, y_pair = np.divmod(keep, len(j))
    return i[x_pair] + 1, j[y_pair] + 1, k[x_pair] + 1, l[y_pair] + 1, c[keep]


def to_terms(form: BiquadraticForm) -> list[MonomialTerm]:
    """Distinct monomials with their polynomial coefficients, sorted by
    (i, k, j, l); zero coefficients are omitted."""
    return [MonomialTerm(*row) for row in zip(*(col.tolist() for col in _term_columns(form)))]


def from_terms(m: int, n: int, terms) -> BiquadraticForm:
    """Build the canonical tensor from polynomial monomial coefficients.

    Indices are 1-based; non-canonical index order is accepted and
    canonicalized, duplicate monomials accumulate.
    """
    records = [{"i": t.i, "j": t.j, "k": t.k, "l": t.l, "c": t.c} for t in terms]
    return form_from_dict({"m": m, "n": n, "terms": records})


def _term_arrays(m: int, n: int, terms: list) -> tuple[np.ndarray, ...] | None:
    """0-based i, j, k, l and float c of a term list, checked column by
    column; None unless every term is well formed, in range and finite."""
    try:
        columns = [np.array(list(map(itemgetter(field), terms))) for field in _TERM_FIELDS]
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    if any(col.shape != (len(terms),) for col in columns):
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
    i, k = np.minimum(i, k), np.maximum(i, k)
    j, l = np.minimum(j, l), np.maximum(j, l)
    entry = coeff / (np.where(i < k, 2.0, 1.0) * np.where(j < l, 2.0, 1.0))
    # (i, k) with i <= k is row i * m - i * (i - 1) / 2 + (k - i) of triu_indices(m).
    x_pair = i * (2 * m - i + 1) // 2 + k - i
    y_pair = j * (2 * n - j + 1) // 2 + l - j
    shape = (m * (m + 1) // 2, n * (n + 1) // 2)
    cells = np.bincount(x_pair * shape[1] + y_pair, weights=entry, minlength=shape[0] * shape[1])
    if not np.isfinite(cells).all():
        raise InvalidInput("coefficients must be finite")
    return cells.reshape(shape)


def form_to_dict(form: BiquadraticForm) -> dict:
    rows = zip(*(col.tolist() for col in _term_columns(form)))
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
    """Grouped decompositions keep their groups (a versioned record, with a
    tagged X written as its tag); dense ones list every factor row-major
    (the unversioned record)."""
    if isinstance(dec, GroupedSOSDecomposition):
        return {
            "format": DECOMPOSITION_FORMAT,
            "m": dec.m,
            "n": dec.n,
            "groups": [
                {"x": xg if isinstance(xg, str) else xg.tolist(), "y": yg.tolist()} for xg, yg in dec.groups
            ],
        }
    return {
        "m": dec.m,
        "n": dec.n,
        "factors": [w.ravel().tolist() for w in dec.factors],
    }


def decomposition_from_dict(data: dict) -> SOSDecomposition | GroupedSOSDecomposition:
    try:
        m = integer_field(data["m"], "m")
        n = integer_field(data["n"], "n")
        version = data.get("format")
        if version == DECOMPOSITION_FORMAT:
            groups = tuple((_x_field(group["x"], m), _rows(group["y"], n)) for group in data["groups"])
        elif version is None:
            flat = data["factors"]
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"malformed decomposition record: {exc}") from exc
    if version == DECOMPOSITION_FORMAT:
        return GroupedSOSDecomposition(m, n, groups)
    if version is not None:
        raise InvalidInput(f"unknown decomposition format {version!r}")
    factors = []
    for row in flat:
        w = np.asarray(row, dtype=float)
        if w.size != m * n:
            raise InvalidInput(f"factor has {w.size} entries, expected {m * n}")
        factors.append(w.reshape(m, n))
    return SOSDecomposition(m, n, tuple(factors))


def _x_field(x, m: int) -> np.ndarray | str:
    """A group's X: a basis tag, or explicit rows as files before the tags held."""
    return x if isinstance(x, str) else _rows(x, m)


def _rows(rows: list, width: int) -> np.ndarray:
    return np.asarray(rows, dtype=float).reshape(len(rows), width)


def dump_json(data: dict, path: str) -> None:
    """Write compact JSON atomically with a stable key order.

    No indent, so ``json.dumps`` runs its C encoder.  The temporary file is
    created with mode 0o666 so the kernel applies the process umask, as it
    would to a plain ``open``; the rename keeps it.
    """
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
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
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError:
        pass
    with open(path) as handle:
        return json.load(handle)


def save_form(form: BiquadraticForm, path: str) -> None:
    dump_json(form_to_dict(form), path)


def load_form(path: str) -> BiquadraticForm:
    return form_from_dict(load_json(path))


def save_decomposition(dec: SOSDecomposition | GroupedSOSDecomposition, path: str) -> None:
    dump_json(decomposition_to_dict(dec), path)


def load_decomposition(path: str) -> SOSDecomposition | GroupedSOSDecomposition:
    return decomposition_from_dict(load_json(path))
