"""Measure one workload: set-up, timed phase, checks, metrics.

An untraced run (``trace=False``) reports the end-to-end metrics.  A
traced run first repeats the untraced timed phase for half the time,
then sets the workload up again under :class:`~perfbench.layers.LayerTrace`
and runs the other half traced; the per-layer metrics come from that
half, and their ratio of ops per second is the tracing overhead.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple, dataclass, field

from repro import baseline_names
from repro.obs import to_jsonl

from .harness import (SpeedProbe, beyond_p99, geomean, median, now,
                      peak_rss_mb, sim_summary)
from .layers import LAYERS, LayerTrace, layer_metrics, self_time_table
from .workloads import WORKLOADS, baseline_speedups

#: set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

END_TO_END = ("setup_s", "cold_start_s", "ops_per_s", "peak_rss_mb",
              "sim_latency_us.p50", "sim_latency_us.p99", "slo_ok_ratio",
              "sim_service_us_per_op", "sim_launches_per_op",
              "sim_peak_mb", "sim_speedup_vs_pytorch", "ok_ratio")

#: workload counters of the first pass; 0 where a workload has none.
COUNTS = ("serving.fast_ratio", "serving.fallback_ratio",
          "serving.queue_wait_us.p99", "serving.compile_jobs",
          "serving.coalesced", "batching.batches", "batching.mean_batch",
          "batching.padding_waste", "fleet.affinity_hit_ratio",
          "fleet.spills", "fleet.scale_ups", "fleet.drains",
          "fleet.replicas_peak")

PER_LAYER = (
    ("models.build_ms",)
    + ("core.compile_ms", "core.passes_ms", "core.analysis_ms",
       "core.fusion_ms", "core.codegen_ms", "core.memory_ms",
       "core.hostprog_ms", "core.nodes", "core.kernels",
       "tuning.tune_ms", "tuning.scored", "tuning.sim_gain",
       "runtime.record_us", "runtime.records", "runtime.replay_us",
       "runtime.replay_host_us", "runtime.plan_hit_ratio",
       "runtime.plan_evictions", "numerics.kernel_floor_us",
       "interp.run_us", "device.eager_cost_us",
       "serving.loop_us_per_request", "serving.fallback_build_ms")
    + COUNTS
    + ("batching.run_batched_us",)
    + tuple(f"baselines.sim_speedup.{s}" for s in baseline_names())
    + ("baselines.wall_s", "bench.harness_share", "bench.trace_overhead")
    + tuple(f"self_us_per_op.{layer}" for layer in LAYERS))


@dataclass
class Report:
    metrics: dict
    attempted: int
    failures: list
    #: human-readable lines printed before the result.
    lines: list = field(default_factory=list)
    #: extra payload for the results file (provenance is added later).
    detail: dict = field(default_factory=dict)
    spans_jsonl: str | None = None

    @property
    def correct(self) -> bool:
        return not self.failures and self.attempted > 0


def _set_up(workload_cls, seed: int, compile_options, repeats: int,
            trace=None):
    """Set up ``repeats`` times; set-up walls are normalised."""
    probe = SpeedProbe()
    walls, infos = [], []
    for _ in range(repeats):
        workload = workload_cls(seed, compile_options)
        start = now()
        info = workload.setup(trace)
        wall = now() - start
        walls.append(wall * probe.factor())
        infos.append(info)
    return workload, walls, infos


def _epilogue(workload, trace=None) -> tuple[dict, float]:
    if trace is not None:
        trace.phase = "epilogue"
    start = now()
    speedups = baseline_speedups(workload.baseline_traces(),
                                 workload.compile_options)
    return speedups, now() - start


def first_pass_digest(workload) -> str:
    """Hash of the first pass: the fleet transcript, else its sim records.

    Equal seeds must give equal digests, in any process on any machine.
    """
    payload = getattr(workload, "transcript", None)
    if payload is None:
        payload = [astuple(r) for r in workload.sim_records()]
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def measure(name: str, seed: int, seconds: float, trace: bool = False,
            compile_options=None,
            setup_repeats: int = SETUP_REPEATS) -> Report:
    """Run workload ``name`` once; see the module docstring."""
    workload_cls = WORKLOADS[name]
    workload, walls, _ = _set_up(
        workload_cls, seed, compile_options,
        1 if trace else setup_repeats)
    timed = workload.run_timed(seconds / 2 if trace else seconds)
    sim = sim_summary(workload.sim_records(), workload.SLO_US)
    failures = list(timed.failures)
    attempted = timed.attempted
    samples = len(workload.sim_records())
    digest = first_pass_digest(workload)
    lines = [f"sim latency samples: {samples} "
             f"({beyond_p99(samples)} beyond p99); "
             f"passes: {timed.passes}; timed wall: {timed.wall_s:.2f} s; "
             f"raw ops/s: {timed.raw_ops_per_s:.4g}; "
             f"first-pass digest: {digest}"]
    detail = {"sim": sim, "digest": digest, "ops_per_s": timed.ops_per_s,
              "raw_ops_per_s": timed.raw_ops_per_s,
              "setup_walls_s": walls}
    if not trace:
        speedups, _ = _epilogue(workload)
        metrics = {
            "setup_s": median(walls),
            "cold_start_s": workload.cold_start_s(SpeedProbe()),
            "ops_per_s": timed.ops_per_s,
            "peak_rss_mb": peak_rss_mb(),
            **sim,
            "sim_speedup_vs_pytorch": geomean(speedups["PyTorch"]),
            "ok_ratio": timed.ok / timed.attempted
            if timed.attempted else 0.0,
        }
        if name == "compile-zoo":
            lines += workload.model_rows(speedups)
        return Report(metrics, attempted, failures, lines, detail)

    layer_trace = LayerTrace()
    with layer_trace:
        traced, _, traced_infos = _set_up(workload_cls, seed,
                                          compile_options, 1, layer_trace)
        layer_trace.phase = "timed"
        traced_timed = traced.run_timed(seconds / 2, layer_trace)
        speedups, baseline_wall = _epilogue(traced, layer_trace)
    failures += traced_timed.failures
    attempted += traced_timed.attempted
    if sim_summary(traced.sim_records(), traced.SLO_US) != sim:
        failures.append("trace: simulated metrics differ from the "
                        "untraced run")
    if first_pass_digest(traced) != digest:
        failures.append("trace: first pass differs from the untraced run")
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics["models.build_ms"] = traced_infos[0]["build_ms"]
    metrics.update(layer_metrics(layer_trace, traced_timed.ok,
                                 traced_timed.wall_s))
    metrics.update(traced.layer_counts())
    for system, values in speedups.items():
        metrics[f"baselines.sim_speedup.{system}"] = geomean(values)
    metrics["baselines.wall_s"] = baseline_wall
    metrics["bench.trace_overhead"] = (traced_timed.ops_per_s
                                       / timed.ops_per_s
                                       if timed.ops_per_s else 0.0)
    lines.append("self time per layer, traced timed phase:")
    lines += self_time_table(layer_trace, traced_timed.wall_s,
                             traced_timed.ok)
    if name == "compile-zoo":
        lines += traced.model_rows(speedups)
    if set(metrics) != set(PER_LAYER):
        raise AssertionError(f"per-layer metrics out of sync: "
                             f"{sorted(set(metrics) ^ set(PER_LAYER))}")
    detail["self_us"] = layer_trace.layer_self_us(traced_timed.wall_s)
    return Report(metrics, attempted, failures, lines, detail,
                  to_jsonl(layer_trace.tracer.spans))
