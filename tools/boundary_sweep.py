"""Decide the PSD-boundary and dead-row test forms of one checkout in bulk, as ``sos-rank`` does.

    python tools/boundary_sweep.py --root CHECKOUT --seeds A:B [--shapes 2x2,3x2,2x3,4x2] [--forms]

imports ``biquad`` from ``CHECKOUT/src`` and ``boundary_form``,
``dead_row_form`` and ``BOUNDARY_MARGINS`` from ``CHECKOUT/tests/conftest.py``.
For each shape, each seed in [A, B) and each margin it takes
``boundary_form(seed, m, n, margin)``, a PSD (so SOS) m x 2 or 2 x n form at
or near the PSD boundary; then, for each seed, ``dead_row_form(seed, 3, 2)``
and ``dead_row_form(seed, 2, 3)``, planted forms whose one free swap direction
leaves 5 live Gram rows.  It round-trips each form through ``form_to_dict``
and ``cells_from_dict`` (the form ``sos-rank`` reads from its terms file) and
runs ``sos-rank``'s defaults on it: ``min_rank_search(family, seed=0)``,
``rank_floor(family)`` and ``verify_sos(form, factor_gram(point))``.  It
prints one line per shape, then ``3x2-dead`` and ``2x3-dead``::

    SHAPE forms=N inconclusive=I exact=E fits=F

where an inconclusive form is one ``min_rank_search`` raises
``NoPSDPointFound`` on, an exact one has ``rank_floor`` equal to the rank,
and F counts the calls to ``gram._fit``.  Below it comes one ``bad`` line per
form whose lower bound is above its rank, whose rank is above the universal
bound mn - 1 (3 at 2 x 2) or a dead-row form's square count, or whose factors
fail re-verification.  With ``--forms`` each form also gets a line ``SHAPE
SEED MARGIN RANK LOWER`` (``SHAPE-dead SEED RANK LOWER`` for a dead-row form,
``- -`` when inconclusive), so two checkouts' ranks compare by ``diff``.
Nothing is written.
"""

from __future__ import annotations

import argparse
import os
import sys


def sweep(root: str, seeds: range, shapes: list[tuple[int, int]], forms: bool = False):
    root = os.path.abspath(root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]
    from biquad import gram
    from biquad.errors import NoPSDPointFound
    from biquad.forms import cells_from_dict, form_to_dict, verify_sos
    from conftest import BOUNDARY_MARGINS, boundary_form, dead_row_form

    fits = [0]
    fit = gram._fit

    def counted(*args):
        fits[0] += 1
        return fit(*args)

    def decide(name: str, cases):
        """The summary line of ``(case, form, bound)`` cases, then their bad lines and, with ``forms``, each case."""
        fits[0] = inconclusive = exact = 0
        bad, lines = [], []
        for case, form, bound in cases:
            form = cells_from_dict(form_to_dict(form)).to_form()
            family = gram.build_family(form)
            try:
                point, rank = gram.min_rank_search(family, seed=0)
            except NoPSDPointFound:
                inconclusive += 1
                lines.append(f"{case} - -")
                continue
            lower = gram.rank_floor(family)
            exact += lower == rank
            lines.append(f"{case} {rank} {lower}")
            if lower > rank or rank > bound or not verify_sos(form, gram.factor_gram(point))[0]:
                bad.append(f"bad {case} rank={rank} lower={lower}")
        yield f"{name} forms={len(lines)} inconclusive={inconclusive} exact={exact} fits={fits[0]}"
        yield from bad
        yield from lines if forms else ()

    gram._fit = counted
    for m, n in shapes:
        cases = ((f"{m}x{n} {seed} {margin:g}", boundary_form(seed, m, n, margin), m * n - 1)
                 for seed in seeds for margin in BOUNDARY_MARGINS)
        yield from decide(f"{m}x{n}", cases)
    for m, n in ((3, 2), (2, 3)):
        yield from decide(f"{m}x{n}-dead", ((f"{m}x{n}-dead {seed}", *dead_row_form(seed, m, n)) for seed in seeds))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", required=True, help="checkout whose src/ and tests/conftest.py are used")
    parser.add_argument("--seeds", required=True, help="A:B, the seeds A, A + 1, ..., B - 1")
    parser.add_argument("--shapes", default="2x2,3x2,2x3,4x2", help="comma-separated m x n shapes, m = 2 or n = 2")
    parser.add_argument("--forms", action="store_true", help="also print each form's rank and lower bound")
    args = parser.parse_args(argv)
    first, last = map(int, args.seeds.split(":"))
    shapes = [tuple(map(int, shape.split("x"))) for shape in args.shapes.split(",")]
    for line in sweep(args.root, range(first, last), shapes, args.forms):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
