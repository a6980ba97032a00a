"""Command-line experiment runner.

Run any paper experiment directly::

    python -m repro.bench e3 --device T4
    python -m repro.bench e1 e2
    python -m repro.bench all

Tables print to stdout and persist under ``benchmarks/results/`` (or
``$REPRO_RESULTS_DIR``).  E1 and E2 are the A10 and T4 halves of the
headline figure: they run with their ``benchmarks/bench_e*.py`` fixtures'
arguments and regenerate the checked-in artifacts, so ``--device`` does
not apply to them.
"""

from __future__ import annotations

import argparse
import sys

from . import (e1_end_to_end, e3_fusion_ablation, e4_shape_constraints,
               e5_codegen_strategies, e6_compile_overhead,
               e7_shape_diversity, e8_kernel_reduction,
               e9_schedule_selection, e10_placement_overhead,
               e11_memory_planning, e12_adaptive_specialization,
               e14_serving_tail_latency, e15_host_overhead,
               e16_async_serving, format_async_serving,
               e17_dynamic_batching, format_dynamic_batching,
               e18_fleet_routing, format_fleet_routing,
               format_adaptive_specialization,
               format_codegen_strategies, format_compile_overhead,
               format_end_to_end, format_fusion_ablation,
               format_host_overhead, format_kernel_reduction,
               format_memory_planning,
               format_placement_overhead, format_schedule_selection,
               format_serving_tail_latency, format_shape_constraints,
               format_shape_diversity, print_and_save)

#: experiment id -> (runner(device) -> payload, formatter, result name)
EXPERIMENTS = {
    "e1": (lambda device: e1_end_to_end("A10", num_queries=20, seed=0),
           format_end_to_end, "end_to_end_a10"),
    "e2": (lambda device: e1_end_to_end("T4", num_queries=20, seed=0),
           format_end_to_end, "end_to_end_t4"),
    "e3": (lambda device: e3_fusion_ablation(device),
           format_fusion_ablation, "fusion_ablation"),
    "e4": (lambda device: e4_shape_constraints(device),
           format_shape_constraints, "shape_constraints"),
    "e5": (lambda device: e5_codegen_strategies(device),
           format_codegen_strategies, "codegen_strategies"),
    "e6": (lambda device: e6_compile_overhead(),
           format_compile_overhead, "compile_overhead"),
    "e7": (lambda device: e7_shape_diversity(device),
           format_shape_diversity, "shape_diversity"),
    "e8": (lambda device: e8_kernel_reduction(device),
           format_kernel_reduction, "kernel_reduction"),
    "e9": (lambda device: e9_schedule_selection(device),
           format_schedule_selection, "schedule_selection"),
    "e10": (lambda device: e10_placement_overhead(device),
            format_placement_overhead, "placement_overhead"),
    "e11": (lambda device: e11_memory_planning(),
            format_memory_planning, "memory_planning"),
    "e12": (lambda device: e12_adaptive_specialization(device),
            format_adaptive_specialization, "adaptive_specialization"),
    "e13": (lambda device: e1_end_to_end(
                "CPU-x86", models=["bert", "gpt2", "s2t", "dien"],
                num_queries=12),
            format_end_to_end, "cpu_end_to_end"),
    "e14": (lambda device: e14_serving_tail_latency(device),
            format_serving_tail_latency, "serving_tail_latency"),
    "e15": (lambda device: e15_host_overhead(device),
            format_host_overhead, "host_overhead"),
    "e16": (lambda device: e16_async_serving(device),
            format_async_serving, "async_serving"),
    "e17": (lambda device: e17_dynamic_batching(device),
            format_dynamic_batching, "dynamic_batching"),
    "e18": (lambda device: e18_fleet_routing(device),
            format_fleet_routing, "fleet_routing"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("experiments", nargs="+",
                        help=f"ids from {sorted(EXPERIMENTS)} or 'all'")
    parser.add_argument("--device", default="A10", choices=("A10", "T4"))
    args = parser.parse_args(argv)

    wanted = list(EXPERIMENTS) if "all" in args.experiments else \
        args.experiments
    unknown = [e for e in wanted if e not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment ids: {unknown}")
    for exp_id in wanted:
        runner, formatter, name = EXPERIMENTS[exp_id]
        result = runner(args.device)
        print_and_save(f"{exp_id}_{name}", result, formatter(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
