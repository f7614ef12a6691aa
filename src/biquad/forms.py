"""Biquadratic forms: canonical tensor carrier, evaluation, serialization.

A biquadratic form P(x, y) = sum a_ijkl x_i y_j x_k y_l (x in R^m, y in R^n)
is stored through its unique partially symmetric coefficient tensor, i.e.
``a[i,j,k,l] == a[k,j,i,l] == a[k,l,i,j]``.  Files store polynomial monomial
coefficients instead (one entry per distinct monomial x_i x_k y_j y_l), which
is the convention people actually write forms in; conversion between the two
views lives here.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

_SYM_ATOL = 1e-12


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
        scale = max(1.0, float(np.abs(a).max()))
        if not (
            np.allclose(a, a.transpose(2, 1, 0, 3), rtol=0.0, atol=_SYM_ATOL * scale)
            and np.allclose(a, a.transpose(2, 3, 0, 1), rtol=0.0, atol=_SYM_ATOL * scale)
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


@dataclass(frozen=True)
class GroupedSOSDecomposition:
    """Sum of squares made of Kronecker groups ``(X_g, Y_g)``.

    The factors of a group are every ``outer(x, y)`` with x a row of X_g
    (shape (a_g, m)) and y a row of Y_g (shape (b_g, n)), so a group stands
    for ``a_g * b_g`` bilinear squares and its share of the sum at (x, y) is
    ``|X_g x|^2 |Y_g y|^2``.  Storage is the rows, not the dense factors.
    """

    m: int
    n: int
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        groups = []
        for xg, yg in self.groups:
            xg = np.asarray(xg, dtype=float)
            yg = np.asarray(yg, dtype=float)
            if xg.ndim != 2 or xg.shape[1] != self.m or yg.ndim != 2 or yg.shape[1] != self.n:
                raise InvalidInput(
                    f"group has row shapes {xg.shape} and {yg.shape}, expected (_, {self.m}) and (_, {self.n})"
                )
            groups.append((xg, yg))
        object.__setattr__(self, "groups", tuple(groups))

    def __len__(self):
        return sum(xg.shape[0] * yg.shape[0] for xg, yg in self.groups)

    @property
    def factors(self) -> tuple[np.ndarray, ...]:
        """The dense m x n factors, materialised y-major within each group."""
        return tuple(np.outer(x, y) for xg, yg in self.groups for y in yg for x in xg)


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
    return float(np.einsum("ijkl,i,j,k,l->", form.coeffs, x, y, x, y, optimize=True))


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
            px = xs @ xg.T
            py = ys @ yg.T
            total += np.einsum("sa,sa->s", px, px) * np.einsum("sb,sb->s", py, py)
        return total
    if not dec.factors:
        return np.zeros(xs.shape[0])
    stack = np.stack(dec.factors)
    t = np.einsum("pij,si,sj->sp", stack, xs, ys, optimize=True)
    return np.einsum("sp,sp->s", t, t)


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

def to_terms(form: BiquadraticForm) -> list[MonomialTerm]:
    """Distinct monomials with their polynomial coefficients, sorted by
    (i, k, j, l); zero coefficients are omitted."""
    terms = []
    a = form.coeffs
    for i in range(form.m):
        for k in range(i, form.m):
            for j in range(form.n):
                for l in range(j, form.n):
                    orbit = (2 if i < k else 1) * (2 if j < l else 1)
                    c = orbit * a[i, j, k, l]
                    if c != 0.0:
                        terms.append(MonomialTerm(i + 1, j + 1, k + 1, l + 1, float(c)))
    return terms


def from_terms(m: int, n: int, terms) -> BiquadraticForm:
    """Build the canonical tensor from polynomial monomial coefficients.

    Indices are 1-based; non-canonical index order is accepted and
    canonicalized, duplicate monomials accumulate.
    """
    terms = list(terms)
    return _form_from_term_arrays(m, n, [(t.i, t.j, t.k, t.l) for t in terms], [t.c for t in terms], terms)


def _form_from_term_arrays(m: int, n: int, index, coeff, shown: list) -> BiquadraticForm:
    """Validate 1-based (i, j, k, l) rows and their coefficients, then build
    the tensor; ``shown[r]`` names term r in error messages."""
    if m < 1 or n < 1:
        raise InvalidInput("m and n must be positive")
    try:
        index = np.array(index, dtype=np.int64).reshape(-1, 4)
    except OverflowError as exc:
        raise InvalidInput(f"term index out of range: {exc}") from exc
    coeff = np.array(coeff, dtype=float)
    i, j, k, l = index.T
    out = (i < 1) | (i > m) | (k < 1) | (k > m) | (j < 1) | (j > n) | (l < 1) | (l > n)
    if out.any():
        raise InvalidInput(f"term index out of range: {shown[int(np.argmax(out))]!r}")
    nonfinite = ~np.isfinite(coeff)
    if nonfinite.any():
        raise InvalidInput(f"term coefficient is not finite: {shown[int(np.argmax(nonfinite))]!r}")
    return BiquadraticForm(m, n, _accumulate_terms(m, n, index - 1, coeff))


def _accumulate_terms(m: int, n: int, index: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Spread 0-based monomial coefficients over their symmetry orbits.

    Each term adds c / |orbit| once to every distinct position of its orbit.
    A tensor cell is reached by one orbit position kind only (which one
    depends on how its x and y index pairs are ordered), and ``np.add.at``
    accumulates in term order, so the sums are bit-identical to adding the
    terms one at a time.
    """
    i, j, k, l = index.T
    i, k = np.minimum(i, k), np.maximum(i, k)
    j, l = np.minimum(j, l), np.maximum(j, l)
    split_x = i < k
    split_y = j < l
    entry = coeff / (np.where(split_x, 2.0, 1.0) * np.where(split_y, 2.0, 1.0))
    both = split_x & split_y
    a = np.zeros((m, n, m, n))
    np.add.at(
        a,
        (
            np.concatenate([i, i[split_y], k[split_x], k[both]]),
            np.concatenate([j, l[split_y], j[split_x], l[both]]),
            np.concatenate([k, k[split_y], i[split_x], i[both]]),
            np.concatenate([l, j[split_y], l[split_x], j[both]]),
        ),
        np.concatenate([entry, entry[split_y], entry[split_x], entry[both]]),
    )
    return a


def form_to_dict(form: BiquadraticForm) -> dict:
    return {
        "m": form.m,
        "n": form.n,
        "terms": [
            {"i": t.i, "k": t.k, "j": t.j, "l": t.l, "c": t.c} for t in to_terms(form)
        ],
    }


def integer_field(value, name: str) -> int:
    """A record's integer field; ValueError (or OverflowError) unless the
    value is integral, so 2.5 is rejected rather than truncated."""
    number = int(value)
    if number != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return number


def form_from_dict(data: dict) -> BiquadraticForm:
    try:
        m = integer_field(data["m"], "m")
        n = integer_field(data["n"], "n")
        raw_terms = data["terms"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"malformed form record: {exc}") from exc
    if not isinstance(raw_terms, list):
        raise InvalidInput("malformed form record: terms must be a list")
    index = []
    coeff = []
    for entry in raw_terms:
        try:
            raw = (entry["i"], entry["j"], entry["k"], entry["l"])
            row = (int(raw[0]), int(raw[1]), int(raw[2]), int(raw[3]))
            if row != raw:
                raise ValueError("indices must be integers")
            index.append(row)
            coeff.append(float(entry["c"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidInput(f"malformed term {entry!r}: {exc}") from exc
    return _form_from_term_arrays(m, n, index, coeff, raw_terms)


DECOMPOSITION_FORMAT = 2  # the version tag of the grouped decomposition record


def decomposition_to_dict(dec: SOSDecomposition | GroupedSOSDecomposition) -> dict:
    """Grouped decompositions keep their groups (a versioned record); dense
    ones list every factor row-major (the unversioned record)."""
    if isinstance(dec, GroupedSOSDecomposition):
        return {
            "format": DECOMPOSITION_FORMAT,
            "m": dec.m,
            "n": dec.n,
            "groups": [{"x": xg.tolist(), "y": yg.tolist()} for xg, yg in dec.groups],
        }
    return {
        "m": dec.m,
        "n": dec.n,
        "factors": [w.ravel().tolist() for w in dec.factors],
    }


def decomposition_from_dict(data: dict) -> SOSDecomposition | GroupedSOSDecomposition:
    try:
        m = int(data["m"])
        n = int(data["n"])
        version = data.get("format")
        if version == DECOMPOSITION_FORMAT:
            groups = tuple((_rows(group["x"], m), _rows(group["y"], n)) for group in data["groups"])
        elif version is None:
            flat = data["factors"]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
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


def _rows(rows: list, width: int) -> np.ndarray:
    return np.asarray(rows, dtype=float).reshape(len(rows), width)


def dump_json(data: dict, path: str) -> None:
    """Write JSON atomically with a stable key order.

    The temporary file is created with mode 0o666 so the kernel applies the
    process umask, as it would to a plain ``open``; the rename keeps it.
    """
    text = json.dumps(data, indent=2, sort_keys=True)
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
