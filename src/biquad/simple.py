"""Simple biquadratic forms and exact SOS-rank certificates for them.

A simple form is a sum of distinct squares x_i^2 y_j^2; it is described
entirely by its support, the set of present index pairs.  The generator
below emits the diagonal-walk series used for tightness examples: for
k = 0..s-1 write k = p*m + q (0 <= q < m) and take the pair
(q + 1, (p + q) mod n + 1).

The lower-bound certificate generalizes a counting argument: in any SOS
representation, the coefficient vectors attached to present pairs must be
unit vectors, absent pairs force zero vectors, and vanishing cross terms
force the present-pair vectors to be pairwise orthogonal, unless the support
contains a combinatorial rectangle {(p,r),(p,s),(q,r),(q,s)}, in which case
only the sum of two products is constrained and the argument breaks.  A
rectangle-free support of size s therefore needs at least s squares, and s
squares always suffice, so the SOS rank is exactly the support size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .forms import BiquadraticForm
from .linalg import COEFF_TOL


@dataclass(frozen=True)
class SupportSet:
    """Ordered distinct index pairs (i, j), 1-based, inside [m] x [n]."""

    m: int
    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise InvalidInput("m and n must be positive")
        pairs = tuple((int(i), int(j)) for i, j in self.pairs)
        for i, j in pairs:
            if not (1 <= i <= self.m and 1 <= j <= self.n):
                raise InvalidInput(f"pair ({i}, {j}) outside [{self.m}] x [{self.n}]")
        if len(set(pairs)) != len(pairs):
            raise InvalidInput("support pairs must be distinct")
        object.__setattr__(self, "pairs", pairs)

    def __len__(self):
        return len(self.pairs)


@dataclass(frozen=True)
class LowerBoundCertificate:
    """Rectangle-free certificate: when applicable, the SOS rank of the
    supported form is at least (hence exactly) ``bound``."""

    applicable: bool
    bound: int | None
    rectangle: tuple[tuple[int, int], ...] | None


@dataclass(frozen=True)
class UpperBoundOnly:
    """The support size bounds the SOS rank from above but the rectangle
    argument does not apply, so the exact value is not certified."""

    bound: int


def gen_simple(m: int, n: int, s: int) -> SupportSet:
    """First s pairs of the diagonal-walk ordering on [m] x [n].

    Requires m >= n >= 1 and 1 <= s <= m*n; all emitted pairs are distinct.
    """
    if n < 1 or m < n:
        raise InvalidInput(f"need m >= n >= 1, got m={m}, n={n}")
    if not (1 <= s <= m * n):
        raise InvalidInput(f"need 1 <= s <= m*n = {m * n}, got s={s}")
    pairs = []
    for k in range(s):
        p, q = divmod(k, m)
        pairs.append((q + 1, (p + q) % n + 1))
    return SupportSet(m, n, tuple(pairs))


def to_form(support: SupportSet) -> BiquadraticForm:
    """The form sum over the support of x_i^2 y_j^2."""
    a = np.zeros((support.m, support.n, support.m, support.n))
    for i, j in support.pairs:
        a[i - 1, j - 1, i - 1, j - 1] = 1.0
    return BiquadraticForm(support.m, support.n, a)


def find_rectangle(support: SupportSet) -> tuple[tuple[int, int], ...] | None:
    """Four support pairs forming {(p,r),(p,s),(q,r),(q,s)}, or None."""
    by_row: dict[int, set[int]] = {}
    for i, j in support.pairs:
        by_row.setdefault(i, set()).add(j)
    rows = sorted(by_row)
    for a_idx in range(len(rows)):
        for b_idx in range(a_idx + 1, len(rows)):
            p, q = rows[a_idx], rows[b_idx]
            common = sorted(by_row[p] & by_row[q])
            if len(common) >= 2:
                r, s = common[0], common[1]
                return ((p, r), (p, s), (q, r), (q, s))
    return None


def lower_bound_certificate(support: SupportSet) -> LowerBoundCertificate:
    """Certify SOS rank >= |support| when the support is rectangle-free."""
    rectangle = find_rectangle(support)
    if rectangle is None:
        return LowerBoundCertificate(True, len(support), None)
    return LowerBoundCertificate(False, None, rectangle)


def exact_sos_rank_simple(support: SupportSet) -> int | UpperBoundOnly:
    """Exact SOS rank |support| for rectangle-free supports; otherwise only
    the trivial upper bound, to be tightened by the Gram search."""
    cert = lower_bound_certificate(support)
    if cert.applicable:
        return len(support)
    return UpperBoundOnly(len(support))


def detect_simple(form: BiquadraticForm) -> SupportSet | None:
    """Recognize a form with positive x_i^2 y_j^2 terms and nothing else.

    Coefficient magnitudes are irrelevant to the support argument, so any
    strictly positive diagonal entries qualify; returns None when any other
    monomial is present (or a diagonal term is negative).
    """
    a = form.coeffs
    atol = COEFF_TOL * float(np.abs(a).max())
    mask = np.zeros_like(a, dtype=bool)
    idx_m = np.arange(form.m)
    idx_n = np.arange(form.n)
    mask[idx_m[:, None], idx_n[None, :], idx_m[:, None], idx_n[None, :]] = True
    if np.abs(a[~mask]).max(initial=0.0) > atol:
        return None
    diag = a[idx_m[:, None], idx_n[None, :], idx_m[:, None], idx_n[None, :]]
    if diag.min(initial=0.0) < -atol:
        return None
    pairs = tuple(
        (int(i) + 1, int(j) + 1)
        for i in range(form.m)
        for j in range(form.n)
        if diag[i, j] > atol
    )
    return SupportSet(form.m, form.n, pairs)


def support_to_dict(support: SupportSet) -> dict:
    return {"m": support.m, "n": support.n, "pairs": [[i, j] for i, j in support.pairs]}
