"""Benchmark of the `biquad` CLI: one workload, one seed, one run.

    python3 benchmark/run.py --workload xsym-decompose --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout; nothing needs building.  Each run

* measures set-up (interpreter start, import of ``biquad.cli``, corpus
  generation and one warm-up invocation) in ``SETUPS`` fresh processes and
  reports the median as ``setup_s``;
* runs the workload in the last of those processes: one client calls
  ``biquad.cli.main(argv)`` in process, invocation after invocation, pass
  after pass over the seeded corpus (BLAS pinned to one thread).  The pass
  count is ``--seconds`` over the workload's nominal pass time, rounded
  down (``workloads.passes_for``), so a run measures for at most about
  ``--seconds`` on the reference machine and does the same work on every
  commit;
* checks every output (``oracle.py``) and that each invocation's ``--json``
  stdout and output file are byte-identical across passes and across runs
  of the same seed and program;
* prints every metric with its unit, then, as the last line, one JSON
  object ``{"correct", "attempted", "failed", "metrics"}``.  With
  ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json
  (the report lines above add the unbounded ones, see ``reported``);
  with ``--trace 1`` every invocation is repeated under span tracing and
  the metrics are the per-layer ones.

Run artefacts (results, span dumps, digests) go to ``.bench_out/`` in the
checkout.  ``--smoke`` swaps in tiny corpora for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("xsym-decompose", "xsym-check", "general-rank")
SETUPS = 3  # set-up samples per run; the last process goes on to measure
DEADLINE_S = 170.0  # a run must exit within 180 s
TAIL_BEYOND = 10  # op_ms.tail: highest percentile with this many samples beyond it
LAYERS = ("cli", "forms", "partsym", "linalg", "gram", "simple", "meig")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny corpora with the same oracle")
    return p.parse_args(argv)


def source_digest() -> str:
    """Digest of the program and the benchmark, keying the cross-run output digests."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Worker:
    """One worker process; ``ready()`` returns its set-up time."""

    def __init__(self, args, tag: str, workdir: Path, setup_only: bool, deadline: float):
        self.deadline = deadline
        self.result = OUT / "results" / f"{tag}.worker.json"
        self.result.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workdir", str(workdir),
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--result", str(self.result),
               "--spans", str(OUT / "spans" / f"{tag}.spans.jsonl.gz")]
        if args.smoke:
            cmd.append("--smoke")
        if setup_only:
            cmd.append("--setup-only")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env.update(PINNED)
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)

    def _remaining(self) -> float:
        return max(0.0, self.deadline - time.monotonic())

    def ready(self) -> float:
        ready, _, _ = select.select([self.proc.stdout], [], [], self._remaining())
        line = self.proc.stdout.readline() if ready else ""
        if line.strip() != "READY":
            self.stop()
            raise BenchError(f"worker did not finish set-up (exit {self.proc.returncode})")
        return time.perf_counter() - self.t0

    def finish(self) -> dict | None:
        try:
            code = self.proc.wait(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("worker ran past the deadline") from None
        finally:
            self.proc.stdout.close()
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
        if not self.result.exists():
            return None
        return json.loads(self.result.read_text())

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples, reverse=True)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[0], 100.0
    return ordered[TAIL_BEYOND], 100.0 * (1.0 - TAIL_BEYOND / len(ordered))


def corpus_seconds(item_times: dict[str, list[float]]) -> float:
    """Wall time of one pass: the sum over corpus items of each item's median."""
    return sum(statistics.median(times) for times in item_times.values())


def check_across_runs(args, res: dict) -> list[str]:
    """Compare output digests with an earlier run of this seed and program."""
    key = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}-{source_digest()}"
    store = OUT / "digests" / f"{key}.json"
    if not store.exists():
        store.write_text(json.dumps(res["digests"], sort_keys=True))
        return []
    earlier = json.loads(store.read_text())
    return sorted(name for name, digest in res["digests"].items()
                  if name in earlier and earlier[name] != digest)


def end_to_end(res: dict, setups: list[float]) -> dict[str, float]:
    return {
        "corpus_s": corpus_seconds(res["item_times"]),
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setups),
    }


def reported(res: dict) -> dict[str, float | None]:
    """Metrics printed with every untraced run but not bounded in
    BENCHMARK.json: the invocation percentiles swing with the machine's
    speed more than any bound allows, and the rest are zero or not
    applicable (None) on some workload."""
    search = res["search"]
    return {
        "op_ms.p50": 1e3 * statistics.median(res["op_times"]),
        "op_ms.tail": 1e3 * tail(res["op_times"])[0],
        "out_mb": res["out_bytes"] / 1e6,
        "fail_share": res["failed"] / res["attempted"],
        "inconclusive_share": search["inconclusive"] / search["searches"] if search else None,
        "rank_excess": search.get("rank_excess") if search else None,
    }


def per_layer(res: dict) -> dict[str, float]:
    """Per-pass layer metrics of a traced run.  inconclusive_share and
    rank_excess read 0 where they do not apply (x-symmetric workloads)."""
    layers = res["layers"]
    traced = corpus_seconds(res["traced_times"])
    covered = sum(layers[f"{layer}.self_ms"] for layer in LAYERS)
    q = reported(res)
    return {
        **layers,
        "cli.stdout_kb": res["stdout_bytes"] / 1024.0,
        "forms.bytes_written": float(res["out_bytes"]),
        "trace.corpus_s": traced,
        "trace.overhead_s": traced - corpus_seconds(res["item_times"]),
        "trace.coverage": covered / (covered + layers["harness.self_ms"]),
        "trace.spans": res["spans"] / res["passes"],
        "inconclusive_share": q["inconclusive_share"] or 0.0,
        "rank_excess": q["rank_excess"] or 0.0,
    }


def report(args, res: dict, setups: list[float], metrics: dict[str, dict]) -> None:
    env = res["env"]
    n_ops = len(res["op_times"])
    _, pct = tail(res["op_times"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {res['passes']}  "
          f"ops {n_ops}  setups {', '.join(f'{s:.3f}' for s in setups)} s")
    print(f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']}, "
          f"nproc {env['nproc']} (affinity {env['affinity']}), BLAS threads {env['blas_threads']}")
    rows = {name: (m["value"], m["unit"]) for name, m in metrics.items()}
    if not args.trace:
        units = {"op_ms.p50": "ms", "op_ms.tail": "ms", "out_mb": "MB", "fail_share": "ratio",
                 "inconclusive_share": "ratio", "rank_excess": "rank"}
        rows.update({name: (value, units[name]) for name, value in reported(res).items()})
    for name, (value, unit) in rows.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        note = f"   (p{pct:.1f} of {n_ops} ops)" if name == "op_ms.tail" else ""
        print(f"  {name:<28} {shown:>14} {unit}{note}")
    for name, reasons in res["failures"].items():
        print(f"  FAILED {name}: {'; '.join(reasons)}")


def run(args) -> dict:
    if not (ROOT / "src" / "biquad" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'biquad'} is missing")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    deadline = time.monotonic() + DEADLINE_S
    for sub in ("results", "spans", "digests"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    workdir = OUT / "work" / tag
    setups = []
    try:
        for _ in range(SETUPS - 1):
            worker = Worker(args, tag, workdir, setup_only=True, deadline=deadline)
            setups.append(worker.ready())
            worker.finish()
        worker = Worker(args, tag, workdir, setup_only=False, deadline=deadline)
        try:
            setups.append(worker.ready())
            res = worker.finish()
        finally:
            worker.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if res is None:
        raise BenchError("worker wrote no result")

    for name in check_across_runs(args, res):
        res["failures"].setdefault(name, []).append("output differs from an earlier run of this seed")
        res["failed_by_item"][name] = res["invocations"][name]
    res["failed"] = sum(res["failed_by_item"].values())

    values = per_layer(res) if args.trace else end_to_end(res, setups)
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report(args, res, setups, metrics)
    res["setups"] = setups
    res["metrics"] = metrics
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(res))
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        line = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
