"""Compare benchmark results of two commits.

    python3 perfbench/compare.py <base results dir> <change results dir>

Each directory holds the ``.json`` files ``perfbench/run.py --out DIR``
wrote.  Runs pair up by workload, seed and trace mode.  For every metric
the report gives each side's median and quartiles, how many pairs the
change won, and a verdict for end-to-end metrics: ``regression`` when
the change's median is worse than the base's by more than the metric's
bound, ``gain`` when the change won at least nine tenths of the pairs
and the medians differ by more than the base's own quartile spread,
``unresolved`` when the base's spread is wider than the bound (unless
every change run beats every base run), and ``flat`` otherwise.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict:
    """(workload, trace, seed) -> {metric: value}."""
    runs = {}
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path) as handle:
            record = json.load(handle)
        meta = record["provenance"]
        metrics = record["result"]["metrics"]
        runs[(meta["workload"], meta["trace"], meta["seed"])] = {
            name: entry["value"] for name, entry in metrics.items()}
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(argv[0]), load(argv[1])
    keys = sorted(set(base) & set(change))
    groups = sorted({(workload, trace) for workload, trace, _ in keys})
    for workload, trace in groups:
        seeds = [k for k in keys if k[:2] == (workload, trace)]
        print(f"\n{workload} ({'per-layer' if trace else 'end-to-end'}, "
              f"{len(seeds)} pairs)")
        for name in base[seeds[0]]:
            if name not in specs:
                continue
            sign = 1.0 if specs[name]["better"] == "higher" else -1.0
            b = [base[k][name] for k in seeds]
            c = [change[k][name] for k in seeds]
            wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
            b_lo, b_med, b_hi = quartiles(b)
            _, c_med, _ = quartiles(c)
            verdict = ""
            bound = specs[name].get("bound")
            if bound is not None and b_med:
                worse = sign * (b_med - c_med) / abs(b_med)
                separated = min(sign * y for y in c) \
                    > max(sign * x for x in b)
                if (b_hi - b_lo) / abs(b_med) > bound and not separated:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "regression"
                elif wins >= 0.9 * len(seeds) \
                        and abs(c_med - b_med) > b_hi - b_lo:
                    verdict = "gain"
                else:
                    verdict = "flat"
            print(f"  {name:34s} base {b_med:<12.5g} [{b_lo:.5g}, "
                  f"{b_hi:.5g}]  change {c_med:<12.5g} "
                  f"won {wins}/{len(seeds)}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
