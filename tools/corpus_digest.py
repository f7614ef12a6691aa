"""Digest every benchmark corpus invocation of one checkout, for byte-identity checks.

    python tools/corpus_digest.py --root CHECKOUT --seed S > digest.txt

imports ``biquad`` from ``CHECKOUT/src`` and ``workloads`` from
``CHECKOUT/benchmark``, writes each workload's corpus
(``workloads.build_corpus``) into a temporary directory, and runs every
item once through ``biquad.cli.main`` in process.  It prints one line per
invocation: the workload, the item, the exit code, the sha256 of its
``--json`` stdout and the sha256 of the file it writes (``-`` when none).
Two checkouts answer alike on the corpora exactly when their digests
``diff`` clean.  Nothing under the checkout is written.
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


def digest_lines(root: str, seed: int):
    root = os.path.abspath(root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "benchmark")]
    import biquad.cli
    from workloads import WORKLOADS, build_corpus

    start = os.getcwd()
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory() as workdir:
            items = build_corpus(workload, seed, workdir)
            os.chdir(workdir)
            try:
                for item in items:
                    with contextlib.redirect_stdout(io.StringIO()) as out:
                        code = biquad.cli.main(item.argv)
                    written = "-"
                    if item.out is not None and os.path.exists(item.out):
                        with open(item.out, "rb") as handle:
                            written = _sha(handle.read())
                    yield f"{workload} {item.name} {code} {_sha(out.getvalue().encode())} {written}"
            finally:
                os.chdir(start)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", required=True, help="checkout whose src/ and benchmark/ are used")
    parser.add_argument("--seed", type=int, required=True, help="corpus seed, as benchmark/run.py --seed")
    args = parser.parse_args(argv)
    for line in digest_lines(args.root, args.seed):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
