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

``gen-simple`` states this rank from the support alone; ``sos-rank`` reaches
it through ``gram.rank_floor``, whose dead rows are the absent pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InvalidInput
from .forms import BiquadraticForm, form_from_dict


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


def form_record(support: SupportSet) -> dict:
    """The form file of sum over the support of x_i^2 y_j^2, as
    ``forms.form_to_dict`` gives it for that form: one term per pair,
    sorted by (i, j), each with c = 1.0; no tensor is built."""
    terms = [{"i": i, "j": j, "k": i, "l": j, "c": 1.0} for i, j in sorted(support.pairs)]
    return {"m": support.m, "n": support.n, "terms": terms}


def to_form(support: SupportSet) -> BiquadraticForm:
    """The form sum over the support of x_i^2 y_j^2."""
    return form_from_dict(form_record(support))


def find_rectangle(support: SupportSet) -> tuple[tuple[int, int], ...] | None:
    """Four support pairs forming {(p,r),(p,s),(q,r),(q,s)}, or None: the
    lexicographically smallest rows p < q sharing two columns, and the two
    smallest columns they share.  Each row q pairs every two of its columns
    with the first row that held both, in O(sum of squared row sizes); a
    rectangle's column pair was first held by a row at most its p."""
    by_row: dict[int, set[int]] = {}
    for i, j in support.pairs:
        by_row.setdefault(i, set()).add(j)
    first: dict[tuple[int, int], int] = {}
    best = None
    for q in sorted(by_row):
        for r, s in itertools.combinations(sorted(by_row[q]), 2):
            p = first.setdefault((r, s), q)
            if p != q and (best is None or (p, q) < best):
                best = (p, q)
    if best is None:
        return None
    p, q = best
    r, s = sorted(by_row[p] & by_row[q])[:2]
    return ((p, r), (p, s), (q, r), (q, s))


def lower_bound_certificate(support: SupportSet) -> LowerBoundCertificate:
    """Certify SOS rank >= |support| when the support is rectangle-free."""
    rectangle = find_rectangle(support)
    if rectangle is None:
        return LowerBoundCertificate(True, len(support), None)
    return LowerBoundCertificate(False, None, rectangle)


def exact_sos_rank_simple(support: SupportSet) -> int | None:
    """The exact SOS rank |support| of a rectangle-free support, else None:
    |support| is then only an upper bound, for the Gram search to tighten.
    No command calls it; acceptance criterion 6 and tests/test_simple.py do."""
    return len(support) if lower_bound_certificate(support).applicable else None


def support_to_dict(support: SupportSet) -> dict:
    return {"m": support.m, "n": support.n, "pairs": [[i, j] for i, j in support.pairs]}
