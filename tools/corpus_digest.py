"""Digest every benchmark corpus invocation of one checkout, for byte-identity checks.

    python tools/corpus_digest.py --root CHECKOUT --seed S [--counts] > digest.txt

imports ``biquad`` from ``CHECKOUT/src`` and ``workloads`` from
``CHECKOUT/benchmark``, writes each workload's corpus
(``workloads.build_corpus``) into a temporary directory, and runs every
item once through ``biquad.cli.main`` in process.  It prints one line per
invocation: the workload, the item, the exit code, the sha256 of its
``--json`` stdout and the sha256 of the file it writes (``-`` when none).
Two checkouts answer alike on the corpora exactly when their digests
``diff`` clean.  With ``--counts`` each line also ends in
``fits=F eigs=E lm=N``: the calls that invocation made to ``gram._fit`` and
to ``np.linalg.eigh``, ``np.linalg.eigvalsh`` or ``np.linalg.eigvals`` (the
Gram face's nonsymmetric solve), and the points ``gram._lm``
evaluated, deterministic work counters that a timing run cannot give.
``lm`` counts calls to ``_lm``'s first argument, the callable it evaluates
once at its start and once per trial point: the residual in an ``_lm`` that
takes one, the Jacobian it reads the residual from in one that does not, so
checkouts on either side of that change compare.  After the last of those
lines ``--counts`` also prints one ``total WORKLOAD COMMAND fits=F eigs=E
lm=N`` line per workload and command (``Item.command``), in the order they
first ran: the sums over that command's invocations, so per-pass counts
need no hand sum.  Nothing under the checkout is written.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _count_calls(owner, name: str, tally: dict, key: str) -> None:
    """Replace ``owner.name`` by a wrapper adding one to ``tally[key]`` per call."""
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        tally[key] += 1
        return fn(*args, **kwargs)

    setattr(owner, name, counted)


def _count_points(gram, tally: dict) -> None:
    """Replace ``gram._lm`` by a wrapper adding one to ``tally["lm"]`` per
    call of its first argument, the callable it evaluates per point."""
    lm = gram._lm

    def counted(evaluate, *args, **kwargs):
        def evaluate_counted(x):
            tally["lm"] += 1
            return evaluate(x)

        return lm(evaluate_counted, *args, **kwargs)

    gram._lm = counted


def digest_lines(root: str, seed: int, counts: bool = False):
    root = os.path.abspath(root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "benchmark")]
    import biquad.cli
    import biquad.gram
    import numpy as np
    from workloads import WORKLOADS, build_corpus

    tally = {"fits": 0, "eigs": 0, "lm": 0}
    counted = [(biquad.gram, "_fit", "fits")] + [(np.linalg, name, "eigs") for name in ("eigh", "eigvalsh", "eigvals")]
    for owner, name, key in counted if counts else ():
        _count_calls(owner, name, tally, key)
    if counts:
        _count_points(biquad.gram, tally)

    totals = {}
    start = os.getcwd()
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory() as workdir:
            items = build_corpus(workload, seed, workdir)
            os.chdir(workdir)
            try:
                for item in items:
                    tally.update(fits=0, eigs=0, lm=0)
                    with contextlib.redirect_stdout(io.StringIO()) as out:
                        code = biquad.cli.main(item.argv)
                    written = "-"
                    if item.out is not None and os.path.exists(item.out):
                        with open(item.out, "rb") as handle:
                            written = _sha(handle.read())
                    line = f"{workload} {item.name} {code} {_sha(out.getvalue().encode())} {written}"
                    yield line + (f" {_counted(tally)}" if counts else "")
                    total = totals.setdefault((workload, item.command), dict.fromkeys(tally, 0))
                    for key in tally:
                        total[key] += tally[key]
            finally:
                os.chdir(start)
    for (workload, command), total in totals.items() if counts else ():
        yield f"total {workload} {command} {_counted(total)}"


def _counted(tally: dict) -> str:
    return f"fits={tally['fits']} eigs={tally['eigs']} lm={tally['lm']}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", required=True, help="checkout whose src/ and benchmark/ are used")
    parser.add_argument("--seed", type=int, required=True, help="corpus seed, as benchmark/run.py --seed")
    parser.add_argument("--counts", action="store_true",
                        help="end each line in its gram._fit and eigen-solve calls and gram._lm point evaluations, "
                        "then print their totals per workload and command")
    args = parser.parse_args(argv)
    for line in digest_lines(args.root, args.seed, args.counts):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
