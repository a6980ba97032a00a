"""The paper's experiments E1-E18: one table, one command.

    python -m repro.bench e3             # run, save and check E3
    python -m repro.bench e9 e11 --quick
    python -m repro.bench all

Each entry of :data:`EXPERIMENTS` names its runner (whose defaults are
the arguments behind the checked-in artifact), the smaller arguments of a
``--quick`` run, the table formatter, the artifact name and the check:
the experiment's acceptance criteria, written once.  Every run prints
its table, saves ``<id>_<artifact>.{txt,json}`` under
``benchmarks/results/`` (or ``$REPRO_RESULTS_DIR``; quick runs go to
its ``quick/`` subdirectory, never over a full-run artifact) and prints
``FAIL: <id>: <reason>`` for each criterion it misses.  The exit status
is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import (e1_end_to_end, e3_fusion_ablation, e4_shape_constraints,
               e5_codegen_strategies, e6_compile_overhead,
               e7_shape_diversity, e8_kernel_reduction,
               e9_schedule_selection, e10_placement_overhead,
               e11_memory_planning, e12_adaptive_specialization,
               e14_serving_tail_latency, e15_host_overhead,
               e16_async_serving, e17_dynamic_batching, e18_fleet_routing,
               format_adaptive_specialization, format_async_serving,
               format_codegen_strategies, format_compile_overhead,
               format_dynamic_batching, format_end_to_end,
               format_fleet_routing, format_fusion_ablation,
               format_host_overhead, format_kernel_reduction,
               format_memory_planning, format_placement_overhead,
               format_schedule_selection, format_serving_tail_latency,
               format_shape_constraints, format_shape_diversity,
               save_results)

#: E9: tuned schedules must beat the heuristic picks by this geomean on
#: schedulable-kernel device time.
REQUIRED_GEOMEAN_SPEEDUP = 1.15
#: E11: the one symbolic class plan's peak must stay within this factor
#: of per-shape re-planning at every sampled shape.
MAX_SYMBOLIC_RATIO = 1.1
#: E15: warm host overhead must beat the legacy interpreter by this factor.
REQUIRED_HOST_SPEEDUP = 2.0
#: E16: async p99 must beat sync p99 by this factor (the claim is
#: "strictly below"; the margin keeps the gate from winning by rounding).
REQUIRED_P99_IMPROVEMENT = 1.5
#: E17: batched throughput at the gate rate over unbatched.
REQUIRED_THROUGHPUT_GAIN = 2.0
#: E17: batched p99 bound at the gate rate, pinned at 1.5x the E16
#: async + fallback p99 of 89,802.0 us the gate was set against.
E17_P99_BOUND_US = 134_703.0
#: E18: round-robin p99 over affinity p99 at the gate replica count.
REQUIRED_P99_RATIO = 1.5


def _check(gen: Callable) -> Callable[[dict], list[str]]:
    """Turn a generator of failure reasons into ``check(result) -> list``."""
    @functools.wraps(gen)
    def check(result: dict) -> list[str]:
        return list(gen(result))
    return check


def _grouped(rows: list, key: str) -> dict:
    """``rows`` grouped by ``row[key]``, in first-seen order."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(row[key], []).append(row)
    return groups


def _wins_on_average(result: dict, floor: float):
    for system, stats in result["summary"].items():
        if not stats["mean"] > floor:
            yield (f"mean speedup over {system} {stats['mean']:.3f}x, "
                   f"need > {floor}x")


@_check
def check_end_to_end_a10(result):
    summary = result["summary"]
    yield from _wins_on_average(result, 1.0)
    if not summary["XLA"]["mean"] < summary["PyTorch"]["mean"]:
        yield "XLA is not a stronger baseline than PyTorch"
    if not summary["TensorRT"]["mean"] < summary["TorchScript"]["mean"]:
        yield "TensorRT is not a stronger baseline than TorchScript"


@_check
def check_end_to_end_t4(result):
    yield from _wins_on_average(result, 0.95)
    summary = result["summary"]
    if not summary["PyTorch"]["mean"] > summary["XLA"]["mean"]:
        yield "PyTorch gap not above the XLA gap on T4"


@_check
def check_end_to_end_cpu(result):
    yield from _wins_on_average(result, 0.9)
    if not result["summary"]["PyTorch"]["mean"] > 1.2:
        yield "PyTorch dispatch overhead gap at or below 1.2x on CPU"


@_check
def check_fusion_ablation(result):
    for model, rows in _grouped(result["rows"], "model").items():
        kernels = [r["kernels_per_query"] for r in rows]
        if kernels != sorted(kernels, reverse=True):
            yield f"{model}: kernels/query grow as fusion kinds are added"
        if not rows[0]["mean_steady_us"] > rows[-1]["mean_steady_us"]:
            yield f"{model}: full fusion not faster than no fusion"
        if not rows[0]["mbytes_per_query"] >= rows[-1]["mbytes_per_query"]:
            yield f"{model}: full fusion moves more bytes than no fusion"


@_check
def check_shape_constraints(result):
    for model, rows in _grouped(result["rows"], "model").items():
        level = {r["level"]: r for r in rows}
        full, equality, none = level["full"], level["equality"], \
            level["none"]
        if not full["kernels"] <= equality["kernels"] \
                <= none["kernels"] + 1:
            yield f"{model}: more constraints did not fuse more kernels"
        if not full["fused_ops"] >= none["fused_ops"]:
            yield f"{model}: full constraints fused fewer ops than none"
        if not full["mean_steady_us"] <= none["mean_steady_us"] * 1.02:
            yield f"{model}: full constraints > 1.02x slower than none"


@_check
def check_codegen_strategies(result):
    disc, xla, trt = ("combined (BladeDISC)", "recompile/shape (XLA-style)",
                      "bucket+pad (TensorRT-style)")
    rows = {(r["strategy"], r["distinct_shapes"]): r
            for r in result["rows"]}
    counts = sorted({r["distinct_shapes"] for r in result["rows"]})
    low, high = counts[0], counts[-1]
    for k in counts:
        if rows[(disc, k)]["compile_events"] != 1:
            yield f"BladeDISC compiled more than once at {k} shapes"
    if not rows[(xla, high)]["compile_events"] \
            > rows[(xla, low)]["compile_events"]:
        yield "per-shape recompilation did not grow with diversity"
    if not rows[(xla, high)]["compile_total_s"] \
            > rows[(disc, high)]["compile_total_s"]:
        yield "per-shape recompilation not costlier than compile-once"
    if not rows[(trt, high)]["steady_us_per_query"] \
            > rows[(disc, high)]["steady_us_per_query"]:
        yield f"bucket+pad paid no padding tax at {high} shapes"


def _analysis_is_cheap(rows: list):
    for row in rows:
        if not row["analysis_ms"] < 1e3 * row["pipeline_wall_s"]:
            yield f"{row['model']}: symbolic analysis outlasts compilation"


@_check
def check_compile_overhead(result):
    for row in result["rows"]:
        if not row["kernels"] > 0:
            yield f"{row['model']}: compiled to no kernels"
        if not row["pipeline_wall_s"] < 60:
            yield f"{row['model']}: compile took {row['pipeline_wall_s']}s"
    yield from _analysis_is_cheap(result["rows"])


@_check
def check_shape_diversity(result):
    series = result["series"]
    disc = series["BladeDISC"]
    if not max(disc) < 2.5 * min(disc):
        yield "BladeDISC amortised latency not flat across diversity"
    if not series["XLA"][-1] > series["XLA"][0]:
        yield "per-signature JIT cost did not grow with diversity"
    for system in ("XLA", "TensorRT", "TVM"):
        if not series[system][-1] > disc[-1]:
            yield f"{system} not worse than BladeDISC at top diversity"


@_check
def check_kernel_reduction(result):
    for row in result["rows"]:
        if not row["kernel_reduction"] > 1.3:
            yield f"{row['model']}: kernel reduction <= 1.3x"
        if not row["bytes_reduction"] >= 1.0:
            yield f"{row['model']}: DISC moves more bytes than eager"
    by_model = {r["model"]: r for r in result["rows"]}
    if not by_model["bert"]["kernel_reduction"] > 1.6:
        yield "bert: kernel reduction <= 1.6x"


def _tuned_softmax_regressed() -> bool:
    """True when a tuned softmax plan changes an output bit or runs slower
    than the heuristic plan: tuning may change schedule picks only."""
    from ..core import compile_graph
    from ..device import A10
    from ..ir import GraphBuilder, f32
    from ..runtime import ExecutionEngine
    from ..tuning import ScheduleTuner

    b = GraphBuilder("softmax_micro")
    x = b.parameter("x", (b.sym("rows"), b.sym("cols")), f32)
    b.outputs(b.softmax(x, axis=-1))
    exe = compile_graph(b.graph)
    data = np.random.default_rng(0).normal(
        size=(512, 2048)).astype(np.float32)
    engine = ExecutionEngine(exe, A10)
    expected, heuristic = engine.run({"x": data})
    signature = engine.host_program.signature({"x": data})
    tuned = ScheduleTuner(A10).tune(exe, signature)
    engine.prepare({"x": data}, signature, selector=tuned.selector(),
                   overwrite=True)
    outputs, stats = engine.run({"x": data})
    return (any(e.tobytes() != o.tobytes()
                for e, o in zip(expected, outputs))
            or stats.device_time_us > heuristic.device_time_us)


@_check
def check_schedule_selection(result):
    winners = set()
    for record in result["rows"]:
        winners.add(min(result["schedules"], key=lambda s: record[s]))
        if not record["selected"] <= 1.25 * record["best_fixed"]:
            yield f"{record['shape']}: selected > 1.25x the best schedule"
    if len(winners) < 2:
        yield "one fixed schedule wins at every shape"
    autotune = result["autotune"]
    if not autotune["geomean_kernel_speedup"] >= REQUIRED_GEOMEAN_SPEEDUP:
        yield (f"tuned geomean {autotune['geomean_kernel_speedup']:.3f}x "
               f"< {REQUIRED_GEOMEAN_SPEEDUP}x")
    if not autotune["geomean_model_speedup"] >= 1.0:
        yield "tuned whole-model geomean below the heuristic"
    slack = 1 + 1e-9
    for r in autotune["rows"]:
        if not r["tuned_kernel_us"] <= r["heuristic_kernel_us"] * slack:
            yield f"{r['model']}: tuned kernels slower than heuristic"
        if not r["tuned_model_us"] <= r["heuristic_model_us"] * slack:
            yield f"{r['model']}: tuned model slower than heuristic"
        if not r["worst_model_us"] >= r["heuristic_model_us"] * (1 - 1e-9):
            yield f"{r['model']}: worst case beats the heuristic"
        if not r["tuning_spent_us"] <= r["budget_us"]:
            yield f"{r['model']}: search overran its budget"
        if r["enumerated"] != r["pruned"] + r["scored"]:
            yield f"{r['model']}: enumerated != pruned + scored"
    for r in result["shape_sweep"]["rows"]:
        if not r["tuned_us_per_query"] <= r["heuristic_us_per_query"] \
                * slack:
            yield f"sweep at {r['distinct_shapes']} shapes: tuned slower"
        if r["signatures_tuned"] != r["distinct_shapes"]:
            yield f"sweep at {r['distinct_shapes']} shapes: " \
                  f"{r['signatures_tuned']} signatures tuned"
    if _tuned_softmax_regressed():
        yield "tuned softmax plan diverged from or was slower than heuristic"


@_check
def check_placement_overhead(result):
    enabled, disabled = result["placement_rows"]
    if not enabled["mean_steady_us"] < disabled["mean_steady_us"]:
        yield "host placement did not lower latency"
    if not enabled["kernels_per_query"] < disabled["kernels_per_query"]:
        yield "host placement did not remove launches"
    yield from _analysis_is_cheap(result["analysis_rows"])


@_check
def check_memory_planning(result):
    for row in result["rows"]:
        if not row["peak_mb"] <= row["naive_mb"] + 1e-9:
            yield f"{row['model']} {row['fusion']}: peak above naive"
        if not row["reuse_factor"] >= 1.0:
            yield f"{row['model']} {row['fusion']}: reuse factor < 1"
    by_key = {(r["model"], r["fusion"]): r for r in result["rows"]}
    for model in _grouped(result["rows"], "model"):
        fused, unfused = by_key[(model, "fused")], by_key[(model, "unfused")]
        if not fused["values"] <= unfused["values"]:
            yield f"{model}: fusion added intermediates"
        if not fused["naive_mb"] <= unfused["naive_mb"] + 1e-9:
            yield f"{model}: fusion added intermediate bytes"
    for row in result["diversity"]:
        if not row["proven"]:
            yield f"{row['model']}: class peak not provable under the axes"
        if row["worst_ratio"] > MAX_SYMBOLIC_RATIO:
            yield (f"{row['model']}: one-plan peak {row['worst_ratio']:.3f}x"
                   f" per-shape re-planning (gate {MAX_SYMBOLIC_RATIO}x)")
        if row["symbolic_peak_mb"] > row["naive_mb"] + 1e-9:
            yield f"{row['model']}: symbolic peak exceeds no-reuse baseline"


@_check
def check_adaptive_specialization(result):
    rows = {r["engine"]: r for r in result["rows"]}
    adaptive = rows["adaptive specialisation"]
    generic = rows["generic (compile once)"]
    jit = rows["per-shape JIT (XLA-style)"]
    if adaptive["stall_compiles"] != 0:
        yield "adaptive specialisation stalled a request"
    if not adaptive["background_compiles"] >= 1:
        yield "no background specialisation was built"
    if not adaptive["mean_steady_us"] <= generic["mean_steady_us"] + 1e-6:
        yield "adaptive steady state slower than generic-only"
    if not adaptive["total_us_per_query"] < jit["total_us_per_query"]:
        yield "adaptive total not below the per-shape JIT's"


@_check
def check_serving_tail_latency(result):
    rows = {r["system"]: r for r in result["rows"]}
    disc, xla, eager = rows["BladeDISC"], rows["XLA"], rows["PyTorch"]
    if disc["compile_stalls"] != 0:
        yield "BladeDISC stalled on a compile"
    if not disc["p99_us"] < 5 * disc["p50_us"]:
        yield "BladeDISC p99 >= 5x its p50"
    if not xla["compile_stalls"] > 0:
        yield "XLA never stalled on a compile"
    if not xla["p99_us"] > 100 * disc["p99_us"]:
        yield "XLA p99 not 100x above BladeDISC's"
    if not eager["p50_us"] > disc["p50_us"]:
        yield "PyTorch p50 not above BladeDISC's"
    if not eager["utilization"] > disc["utilization"]:
        yield "PyTorch utilisation not above BladeDISC's"


@_check
def check_host_overhead(result):
    aggregate = result["aggregate"]
    if not aggregate["bit_identical"]:
        yield "engines disagree on outputs or stats"
    speedup = aggregate["overhead_speedup_geomean"]
    if not speedup >= REQUIRED_HOST_SPEEDUP:
        yield (f"warm host overhead speedup {speedup:.2f}x < "
               f"{REQUIRED_HOST_SPEEDUP}x")
    for row in result["rows"]:
        if not row["overhead_speedup"] > 1.0:
            yield f"{row['model']}: host side slower than legacy"
        if "bench:cold" not in (row.get("span_breakdown") or {}):
            yield f"{row['model']}: row lacks its tracer span_breakdown"


@_check
def check_async_serving(result):
    modes = {r["mode"]: r for r in result["rows"]}
    sync, fast = modes["sync compile"], modes["async + fallback"]
    faulted = modes["async + faults"]
    if not fast["p99_us"] < sync["p99_us"]:
        yield "background compilation did not improve p99"
    if not result["p99_improvement"] >= REQUIRED_P99_IMPROVEMENT:
        yield (f"async p99 only {result['p99_improvement']}x below sync "
               f"(need >= {REQUIRED_P99_IMPROVEMENT}x)")
    if not faulted["quarantined"] > 0:
        yield "fault schedule never quarantined a signature"
    if not faulted["p99_us"] < sync["p99_us"]:
        yield "faulted async p99 not below sync p99"
    if not fast["fallback"] > 0:
        yield "no cold request hit the fallback"
    if not fast["fast"] > 0:
        yield "no request reached the warm path"
    if fast["compile_stalls"] != 0:
        yield "async mode stalled on a compile"
    for row in result["rows"]:
        if row["errors"]:
            yield f"{row['mode']}: {row['errors']} non-OK responses"
        spans = row.get("span_breakdown", {}).get("request", {})
        if spans.get("count", 0) != result["num_queries"]:
            yield (f"{row['mode']}: span_breakdown saw "
                   f"{spans.get('count', 0)} of {result['num_queries']} "
                   f"requests")


@_check
def check_dynamic_batching(result):
    rows = {(r["mode"], r["rate_qps"]): r for r in result["rows"]}
    gain = result["throughput_gain_at_gate"]
    if not gain >= REQUIRED_THROUGHPUT_GAIN:
        yield (f"batched throughput only {gain}x unbatched at "
               f"{result['gate_rate_qps']:.0f} qps "
               f"(need >= {REQUIRED_THROUGHPUT_GAIN}x)")
    p99 = rows[("batched", result["gate_rate_qps"])]["p99_us"]
    if not p99 <= E17_P99_BOUND_US:
        yield f"batched p99 {p99:.0f}us exceeds {E17_P99_BOUND_US:.0f}us"
    for rate in result["rates_qps"]:
        if rows[("batched", rate)]["shed"] > rows[("unbatched", rate)]["shed"]:
            yield f"batching shed more requests at {rate:.0f} qps"
    top = rows[("batched", max(result["rates_qps"]))]
    if not (top["batches"] > 0 and top["batched_served"] > 0):
        yield "no batch formed at the top rate"
    if not (top["mean_batch"] or 0) >= result["max_batch_size"] / 2:
        yield "saturating load filled batches less than halfway"
    for row in result["rows"]:
        waste = row["mean_padding_waste"]
        if waste is not None and not waste < 0.5:
            yield f"padding waste {waste} at {row['rate_qps']:.0f} qps"


@_check
def check_fleet_routing(result):
    rows = {(r["policy"], r["replicas"]): r for r in result["rows"]}
    affinity = rows[("affinity", result["gate_replicas"])]
    blind = rows[("round_robin", result["gate_replicas"])]
    if not affinity["p99_us"] < blind["p99_us"]:
        yield "signature affinity did not improve p99"
    if not result["p99_ratio_at_gate"] >= REQUIRED_P99_RATIO:
        yield (f"affinity p99 only {result['p99_ratio_at_gate']}x below "
               f"round-robin (need >= {REQUIRED_P99_RATIO}x)")
    if result["errors"]:
        yield f"{result['errors']} non-OK responses"
    if result["mismatches"]:
        yield f"{result['mismatches']} responses diverged from the engine"
    if not blind["recompiles"] > affinity["recompiles"]:
        yield "round-robin did not churn the plan cache"
    if not blind["fallback"] > affinity["fallback"]:
        yield "round-robin did not fall back more than affinity"
    if not affinity["affinity_hits"] > 0:
        yield "no repeat ever hit its home replica"
    if affinity["affinity_spills"] != 0:
        yield "affinity spilled with spill disabled"


@dataclass(frozen=True)
class Experiment:
    """One paper experiment: run it, render it, name it, judge it."""

    run: Callable[..., dict]
    format: Callable[[dict], str]
    artifact: str
    check: Callable[[dict], list[str]]
    quick: dict = field(default_factory=dict)


#: experiment id -> its one entry; artifacts are ``<id>_<artifact>``.
EXPERIMENTS = {
    "e1": Experiment(e1_end_to_end, format_end_to_end, "end_to_end_a10",
                     check_end_to_end_a10),
    "e2": Experiment(functools.partial(e1_end_to_end, "T4"),
                     format_end_to_end, "end_to_end_t4",
                     check_end_to_end_t4),
    "e3": Experiment(e3_fusion_ablation, format_fusion_ablation,
                     "fusion_ablation", check_fusion_ablation),
    "e4": Experiment(e4_shape_constraints, format_shape_constraints,
                     "shape_constraints", check_shape_constraints),
    "e5": Experiment(e5_codegen_strategies, format_codegen_strategies,
                     "codegen_strategies", check_codegen_strategies),
    "e6": Experiment(e6_compile_overhead, format_compile_overhead,
                     "compile_overhead", check_compile_overhead),
    "e7": Experiment(e7_shape_diversity, format_shape_diversity,
                     "shape_diversity", check_shape_diversity),
    "e8": Experiment(e8_kernel_reduction, format_kernel_reduction,
                     "kernel_reduction", check_kernel_reduction),
    "e9": Experiment(e9_schedule_selection, format_schedule_selection,
                     "schedule_selection", check_schedule_selection),
    "e10": Experiment(e10_placement_overhead, format_placement_overhead,
                      "placement_overhead", check_placement_overhead),
    # quick: an attention model, the two-axis TTS pipeline (the hardest
    # packing case) and the embedding-heavy recommender.
    "e11": Experiment(e11_memory_planning, format_memory_planning,
                      "memory_planning", check_memory_planning,
                      quick={"models": ["bert", "fastspeech2", "dien"]}),
    "e12": Experiment(e12_adaptive_specialization,
                      format_adaptive_specialization,
                      "adaptive_specialization",
                      check_adaptive_specialization),
    "e13": Experiment(functools.partial(
                          e1_end_to_end, "CPU-x86", num_queries=12,
                          models=["bert", "gpt2", "s2t", "dien"]),
                      format_end_to_end, "cpu_end_to_end",
                      check_end_to_end_cpu),
    "e14": Experiment(e14_serving_tail_latency,
                      format_serving_tail_latency, "serving_tail_latency",
                      check_serving_tail_latency),
    # quick: an attention model, the conv/LSTM pipeline and the
    # embedding-heavy recommender, fewer repeats.
    "e15": Experiment(e15_host_overhead, format_host_overhead,
                      "host_overhead", check_host_overhead,
                      quick={"models": ["bert", "crnn", "dien"],
                             "repeats": 3}),
    "e16": Experiment(e16_async_serving, format_async_serving,
                      "async_serving", check_async_serving,
                      quick={"num_queries": 60}),
    "e17": Experiment(e17_dynamic_batching, format_dynamic_batching,
                      "dynamic_batching", check_dynamic_batching,
                      quick={"num_queries": 120,
                             "rates_qps": [600.0, 2_000.0, 10_000.0]}),
    # quick: 240 queries keep the signature working set (~110 distinct)
    # above one replica's plan capacity; below that every cache holds
    # the whole trace and the policies converge.
    "e18": Experiment(e18_fleet_routing, format_fleet_routing,
                      "fleet_routing", check_fleet_routing,
                      quick={"num_queries": 240, "replica_counts": (4,)}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("experiments", nargs="+",
                        help=f"ids from {list(EXPERIMENTS)} or 'all'")
    parser.add_argument("--quick", action="store_true",
                        help="smaller runs, saved under quick/; what CI "
                             "gates on")
    args = parser.parse_args(argv)

    wanted = list(EXPERIMENTS) if "all" in args.experiments else \
        args.experiments
    unknown = [e for e in wanted if e not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment ids: {unknown}")
    failed = False
    for exp_id in wanted:
        entry = EXPERIMENTS[exp_id]
        result = entry.run(**(entry.quick if args.quick else {}))
        text = entry.format(result)
        print(f"\n{text}")
        save_results(f"{exp_id}_{entry.artifact}", result, text, args.quick)
        failures = entry.check(result)
        for reason in failures:
            print(f"FAIL: {exp_id}: {reason}")
        if not failures:
            print(f"OK: {exp_id}: every check holds")
        failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
