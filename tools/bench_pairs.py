"""Alternating parent/change benchmark pairs with a verdict per end-to-end metric.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W --seed S [--out FILE]

runs the benchmark command of ``BENCHMARK.json`` (``benchmark/run.py ...
--trace 0``) in each checkout for the file's ``run_seconds``, ten times on
each side, switching which side runs first from one pair to the next.  It
stops at the first run that is not ``correct`` or has ``failed`` > 0.
Then, for every end-to-end metric of the parent's ``BENCHMARK.json``, it
prints each side's median and quartiles, the pairs the change won (ties
count for neither) and one verdict, where the bound is a fraction of the
parent's median:

* ``gain``: the change won at least nine tenths of the pairs, and the
  medians differ in its favour by more than the parent's quartile spread;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``unresolved``: the parent's quartile spread is wider than the bound,
  and not every change run reads better than every parent run;
* ``no worse``: otherwise.

``--out FILE`` appends one row to the ``rows`` of the JSON file FILE (a
``BENCH_*.json`` record; created when absent): the workload and seed, each
side's label (the name of its checkout directory, so an A/A control, the
parent against a copy with a dummy edit, reads as such), the run order,
every metric's summary and every run's full result line.  Nothing is
imported from either checkout; each run writes only its checkout's
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10  # the fewest pairs a gain may be claimed on


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    """One benchmark run in ``checkout``: its last stdout line, decoded, and
    its ``env:`` line (interpreter, libraries, CPUs)."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv)} exited {done.returncode}: {done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    env = next((line.removeprefix("env: ") for line in lines if line.startswith("env: ")), "")
    return json.loads(lines[-1]), env


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), interpolated as numpy's default percentile does."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[int, str]:
    """(pairs the change won, verdict) for one metric's paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    q1, median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    if won >= 0.9 * len(parent) and sign * (median - change_median) > q3 - q1:
        return won, "gain"
    if sign * (change_median - median) > bound * abs(median):
        return won, "worse"
    if q3 - q1 > bound * abs(median) and not max(sign * c for c in change) < min(sign * p for p in parent):
        return won, "unresolved"
    return won, "no worse"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", type=Path, help="append this row to the rows of this JSON file")
    args = parser.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in SIDES}
    order, machines = [], set()
    for pair in range(PAIRS):
        sides = SIDES if pair % 2 == 0 else SIDES[::-1]
        order.append(sides[0])
        for side in sides:
            result, env = run_once(checkouts[side], spec["command"], args.workload, args.seed, seconds)
            runs[side].append(result)
            machines.add(env)
            if not result["correct"] or result["failed"] > 0:
                print(f"pair {pair + 1}: the {side} run is not correct: {json.dumps(result)}", file=sys.stderr)
                return 1
    labels = {side: checkouts[side].resolve().name for side in SIDES}
    print(f"{args.workload}  seed {args.seed}  {PAIRS} pairs of {seconds:g} s runs, {labels['parent']} against "
          f"{labels['change']}, every run correct with 0 failed; first in each pair: {', '.join(order)}")
    print(f"  {'metric':<12} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} {'won':>6}  verdict")
    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES}
        won, said = verdict(values["parent"], values["change"], metric["better"], metric["bound"])
        spread = {side: quartiles(values[side]) for side in SIDES}
        shown = {side: f"{spread[side][1]:.4g} [{spread[side][0]:.4g}, {spread[side][2]:.4g}] {metric['unit']}"
                 for side in SIDES}
        print(f"  {name:<12} {shown['parent']:>32} {shown['change']:>32} {won:>3}/{PAIRS:<2}  {said}")
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent_q1_median_q3": spread["parent"], "change_q1_median_q3": spread["change"],
            "pairs_change_won": won, "verdict": said,
        }
    if args.out is not None:
        record = json.loads(args.out.read_text()) if args.out.exists() else {"rows": []}
        record["rows"].append({
            "workload": args.workload, "seed": args.seed, "parent_side": labels["parent"],
            "change_side": labels["change"], "pairs": PAIRS, "seconds": seconds, "machine": sorted(machines),
            "first_in_pair": order, "metrics": summary, "runs": runs,
        })
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
