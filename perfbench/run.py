"""Run one benchmark workload; the last stdout line is its JSON result.

    python3 perfbench/run.py --workload compile-zoo --seed 0 \\
        --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see perfbench/README.md).  The program is imported from
``src/`` of the checkout this file lives in; without it the run fails
before printing a result.  A results file with provenance (and, when
traced, the span log) goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: thread-pool sizes pinned before numpy loads: the measurement is one
#: program on one core, whatever the machine has.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

WORKLOAD_NAMES = ("compile-zoo", "serve-batched")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT,
                                                      ".perfbench_out"),
                        help="directory for the results file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"perfbench: program source not found at {source}",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [source, ROOT]

    from perfbench.measure import END_TO_END, measure
    from perfbench.harness import provenance

    report = measure(args.workload, args.seed, args.seconds,
                     trace=bool(args.trace))
    record = provenance(ROOT, args.workload, args.seed, args.seconds,
                        bool(args.trace), BLAS_THREAD_VARS)
    print("provenance: " + json.dumps(record, sort_keys=True))
    for line in report.lines:
        print(line)
    for failure in report.failures[:20]:
        print(f"FAILED {failure}")
    if len(report.failures) > 20:
        print(f"... {len(report.failures) - 20} more failures")

    names = END_TO_END if not args.trace else list(report.metrics)
    units = _units()
    result = {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": len(report.failures),
        "metrics": {name: {"value": report.metrics[name],
                           "unit": units[name]} for name in names},
    }
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"{args.workload}-seed{args.seed}"
                                  f"-trace{args.trace}")
    with open(stem + ".json", "w") as handle:
        json.dump({"provenance": record, "result": result,
                   "failures": report.failures, "lines": report.lines,
                   **report.detail}, handle, indent=2, sort_keys=True)
    if report.spans_jsonl is not None:
        with open(stem + ".spans.jsonl", "w") as handle:
            handle.write(report.spans_jsonl)
    print(json.dumps(result))
    return 0


def _units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
