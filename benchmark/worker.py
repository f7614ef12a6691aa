"""One benchmark process: set up, run the workload's corpus in a closed loop, check.

Started by ``run.py``, never by hand.  It imports ``biquad`` from the
checkout's ``src`` directory, writes the seeded corpus, runs one warm-up
invocation and prints ``READY``; that much is the set-up ``run.py`` times.
With ``--setup-only`` it stops there.  Otherwise one client calls
``biquad.cli.main(argv)`` in process, one invocation after the other, for
the number of passes over the corpus that ``workloads.passes_for`` derives
from ``--seconds``.  Outputs are checked after the loop, so the oracle's own
time and memory stay out of the measurements.  The result goes to
``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--result")
    p.add_argument("--spans")
    return p.parse_args(argv)


def _import_biquad(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import biquad.cli
    import biquad.forms

    if os.path.commonpath([os.path.realpath(biquad.cli.__file__), os.path.realpath(src)]) != os.path.realpath(src):
        raise SystemExit(f"biquad was imported from {biquad.cli.__file__}, not from {src}")
    return biquad.cli, biquad.forms


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Invocation:
    """Outcome of one CLI call; ``seconds`` covers only ``cli.main``."""

    __slots__ = ("code", "stdout", "seconds", "error")

    def __init__(self, code, stdout, seconds, error):
        self.code, self.stdout, self.seconds, self.error = code, stdout, seconds, error


def invoke(cli, argv) -> Invocation:
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code, error = exc.code if isinstance(exc.code, int) else 1, f"SystemExit({exc.code!r})"
    except Exception as exc:  # a traceback escaping the CLI is a failure, not a crash of the benchmark
        code, error = None, f"traceback: {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return Invocation(code, buf.getvalue(), seconds, error)


def _file_digest(path: str) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
            size += len(chunk)
    return h.hexdigest(), size


class Loop:
    """Closed-loop client plus the per-invocation bookkeeping."""

    def __init__(self, cli, items, tracer=None):
        self.cli, self.items, self.tracer = cli, items, tracer
        self.times = {item.name: [] for item in items}
        self.traced_times = {item.name: [] for item in items}
        self.op_times: list[float] = []
        self.attempted = 0
        self.failures: dict[str, list[str]] = {item.name: [] for item in items}
        self.failed: dict[str, int] = {item.name: 0 for item in items}
        self.digests: dict[str, tuple] = {}
        self.first: dict[str, tuple[int, str]] = {}  # first clean (exit code, stdout)
        self.sizes: dict[str, tuple[int, int]] = {}
        self.codes: dict[str, list[int]] = {item.name: [] for item in items}
        self.pass_times: list[float] = []

    def _record(self, item, inv: Invocation) -> None:
        self.attempted += 1
        self.codes[item.name].append(inv.code)
        reasons = self.failures[item.name]
        before = len(reasons)
        if inv.error is not None:
            reasons.append(inv.error)
        else:
            if inv.code not in item.expect:
                reasons.append(f"exit {inv.code}, expected {item.expect}")
            self._digest(item, inv)
        self.failed[item.name] += len(reasons) > before

    def _digest(self, item, inv: Invocation) -> None:
        out_digest, out_size = (None, 0)
        if item.out is not None and os.path.exists(item.out):
            out_digest, out_size = _file_digest(item.out)
        digest = (hashlib.sha256(inv.stdout.encode()).hexdigest(), out_digest)
        if item.name not in self.digests:
            self.digests[item.name] = digest
            self.first[item.name] = (inv.code, inv.stdout)
            self.sizes[item.name] = (len(inv.stdout.encode()), out_size)
        elif self.digests[item.name] != digest:
            self.failures[item.name].append("--json stdout or output file differs between passes")

    @staticmethod
    def _clear(item) -> None:
        # Remove the previous pass's output first: replacing a large file
        # inside the timed call adds the filesystem's block freeing to it.
        if item.out is not None and os.path.exists(item.out):
            os.unlink(item.out)

    def _plain(self, item) -> None:
        self._clear(item)
        inv = invoke(self.cli, item.argv)
        self.times[item.name].append(inv.seconds)
        self.op_times.append(inv.seconds)
        self._record(item, inv)

    def _traced(self, item) -> None:
        self._clear(item)
        self.tracer.op_id += 1
        self.tracer.install()
        try:
            with self.tracer.span("harness.op"):
                inv = invoke(self.cli, item.argv)
        finally:
            self.tracer.uninstall()
        self.traced_times[item.name].append(inv.seconds)
        self._record(item, inv)

    def run_pass(self, traced: bool) -> None:
        t0 = time.perf_counter()
        for idx, item in enumerate(self.items):
            if not traced:
                self._plain(item)
            elif (idx + len(self.pass_times)) % 2:
                # Each traced invocation sits next to the same plain one, in
                # alternating order, so the overhead compares like with like
                # and the second run's warmer caches favour neither side.
                self._traced(item)
                self._plain(item)
            else:
                self._plain(item)
                self._traced(item)
        self.pass_times.append(time.perf_counter() - t0)

    def run(self, passes: int, traced: bool) -> None:
        for _ in range(passes):
            self.run_pass(traced)


def _envelope(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def check_outputs(loop: Loop, forms) -> None:
    """Oracle per distinct output; a bad output fails every invocation that gave it."""
    from oracle import check_output

    for item in loop.items:
        if item.name not in loop.first:
            continue
        code, stdout = loop.first[item.name]
        try:
            reason = check_output(item, code, _envelope(stdout), forms)
        except Exception as exc:  # an unreadable output is a failed output
            reason = f"oracle could not read the output: {type(exc).__name__}: {exc}"
        if reason is not None:
            loop.failures[item.name].append(reason)
            loop.failed[item.name] = len(loop.codes[item.name])


def search_quality(loop: Loop) -> dict:
    """inconclusive_share and rank_excess of the general-rank corpus (per pass)."""
    searches = [i for i in loop.items if i.sos and i.command in ("sos-rank", "reduce-rank")]
    if not searches:
        return {}
    inconclusive = sum(1 for i in searches if loop.codes[i.name][0] == 4)
    excess = []
    for item in searches:
        if item.command == "sos-rank" and loop.codes[item.name][0] == 0 and item.reference_rank is not None:
            payload = json.loads(loop.first[item.name][1])["payload"]
            excess.append(payload["upper_bound"] - item.reference_rank)
    return {
        "inconclusive": inconclusive,
        "searches": len(searches),
        "rank_excess": statistics.fmean(excess) if excess else None,
        "conclusive_ranked": len(excess),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    cli, forms = _import_biquad(args.root)
    from workloads import build_corpus, passes_for

    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)
    items = build_corpus(args.workload, args.seed, ".", smoke=args.smoke)
    invoke(cli, items[0].argv)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    passes = passes_for(args.workload, args.seconds, args.smoke)
    if tracer is not None:
        # Each traced pass runs every invocation twice, plain and traced.
        passes = max(1, passes // 2)
    loop = Loop(cli, items, tracer)
    loop.run(passes, traced=tracer is not None)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    check_outputs(loop, forms)

    result = {
        "env": environment(),
        "passes": len(loop.pass_times),
        "pass_times": loop.pass_times,
        "item_times": loop.times,
        "op_times": loop.op_times,
        "attempted": loop.attempted,
        "failed_by_item": loop.failed,
        "invocations": {name: len(codes) for name, codes in loop.codes.items()},
        "failures": {name: sorted(set(r))[:3] for name, r in loop.failures.items() if r},
        "digests": loop.digests,
        "stdout_bytes": sum(s for s, _ in loop.sizes.values()),
        "out_bytes": sum(o for _, o in loop.sizes.values()),
        "peak_rss_kb": peak_rss_kb,
        "search": search_quality(loop),
    }
    if tracer is not None:
        from tracer import layer_metrics

        result["traced_times"] = loop.traced_times
        result["layers"] = layer_metrics(tracer.spans, tracer.counters, len(loop.pass_times))
        result["spans"] = len(tracer.spans)
        if args.spans:
            with gzip.open(args.spans, "wt", compresslevel=1) as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(span) + "\n")
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
