"""The workloads.  Each one makes a different layer do most work.

- ``compile-zoo``: every zoo model from graph to first answer (compile,
  class tuning, three recorded first calls, fallback build and call).
- ``serve-batched``: a warm fleet of two batching replicas; the
  launch-plan cache is only read.

A workload builds everything it needs in :meth:`setup`, then
:meth:`run_timed` drives the program closed loop on the real clock.  The
first pass over the workload's input schedule always runs to the end:
its simulated-clock numbers are the workload's ``sim_*`` metrics, so they
depend on the seed alone.  Later passes run until the time is up.
Outputs are checked against references computed in setup by the
reference interpreter on the original model graph, outside the timed
wall.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict

import numpy as np

import repro
from repro import (BatchingOptions, CompileOptions, DiscExecutor,
                   ExecutionEngine, FleetEngine, FleetOptions,
                   ScheduleTuner, VirtualScheduler, baseline_names,
                   build_model, compile_graph, evaluate, make_baseline,
                   make_trace)
from repro.bench import BENCH_MODELS
from repro.serving import (InterpreterFallback, TenantTraffic,
                           poisson_arrivals)
from repro.workloads import sample_axis

from .harness import (SimRecord, Timed, check_outputs, geomean, median,
                      nearest_rank, now, output_dtypes, sim_summary)

DEVICE = repro.A10

#: queries per model of the untimed baseline comparison.
BASELINE_QUERIES = 6


def traced_options(options: CompileOptions, trace) -> CompileOptions:
    if trace is None:
        return options
    return dataclasses.replace(options, tracer=trace.tracer)


def baseline_speedups(traces: list, compile_options) -> dict:
    """Per system, per model: baseline steady sim time / DISC's."""
    speedups: dict[str, list] = defaultdict(list)
    for graph, inputs in traces:
        disc = DiscExecutor(graph, DEVICE, compile_options)
        disc_us = disc.run_trace(inputs).mean_steady_us
        for system in baseline_names():
            timeline = make_baseline(system, graph, DEVICE).run_trace(inputs)
            speedups[system].append(timeline.mean_steady_us / disc_us)
    return dict(speedups)


def await_answer(scheduler, ticket, step_us: float = 250.0) -> None:
    """Advance virtual time until ``ticket`` is answered, and check it."""
    while not ticket.done:
        scheduler.run_until(scheduler.now_us() + step_us)
    if not ticket.response.ok:
        raise RuntimeError(f"cold request failed: {ticket.response}")


# ---------------------------------------------------------------------------
# compile-zoo
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class ZooEntry:
    model: object
    #: three engine calls at small signatures, then one fallback call.
    inputs: list
    references: list
    dtypes: list


@dataclasses.dataclass
class ZooOp:
    entry: ZooEntry
    cold_start_s: float
    executable: object
    tuning: object
    #: (outputs, stats) of the three engine calls and the fallback call.
    calls: list


class CompileZoo:
    """Every zoo model at its ``BENCH_MODELS`` size, graph to answers."""

    name = "compile-zoo"
    #: limit on the simulated cold start (compile + tuning + first call).
    SLO_US = 10_000_000.0
    #: small signatures are drawn from the lowest values of each axis,
    #: which keeps wall time in the compiler rather than in numpy.
    SMALL_VALUES = 8

    def __init__(self, seed: int,
                 compile_options: CompileOptions | None = None) -> None:
        self.seed = seed
        self.compile_options = compile_options or CompileOptions()
        self.first_pass: list[ZooOp] = []

    def setup(self, trace=None) -> dict:
        rng = np.random.default_rng(self.seed)
        build_s = 0.0
        self.entries = []
        for name, sizes in BENCH_MODELS.items():
            start = now()
            model = build_model(name, **sizes)
            build_s += now() - start
            picks = {axis: lo + rng.choice(min(self.SMALL_VALUES,
                                               hi - lo + 1), 4,
                                           replace=False)
                     for axis, (lo, hi) in model.axes.items()}
            inputs = [model.make_inputs(rng, **{axis: int(values[i])
                                                for axis, values
                                                in picks.items()})
                      for i in range(4)]
            self.entries.append(ZooEntry(
                model, inputs, [evaluate(model.graph, x) for x in inputs],
                output_dtypes(model.graph)))
        return {"build_ms": build_s * 1e3}

    def _op(self, entry: ZooEntry, options: CompileOptions) -> ZooOp:
        start = now()
        executable = compile_graph(entry.model.graph, options)
        tuning = ScheduleTuner(DEVICE).tune_class(executable,
                                                  entry.model.axes)
        engine = ExecutionEngine(executable, DEVICE)
        calls = [engine.run(entry.inputs[0])]
        cold_start_s = now() - start
        calls.extend(engine.run(x) for x in entry.inputs[1:3])
        fallback = InterpreterFallback(executable, DEVICE)
        calls.append(fallback.run(entry.inputs[3]))
        return ZooOp(entry, cold_start_s, executable, tuning, calls)

    def run_timed(self, seconds: float, trace=None) -> Timed:
        options = traced_options(self.compile_options, trace)
        count = len(self.entries)
        timed = Timed()
        self.first_pass = []
        #: model name -> normalised cold start of each of its ops.
        self.cold_starts: dict[str, list] = defaultdict(list)
        while timed.attempted < count or timed.wall_s < seconds:
            index = timed.attempted
            entry = self.entries[index % count]
            if trace is not None:
                trace.pass_index = index // count
                trace.current_op = f"{entry.model.name}#{index}"
            start = now()
            op = self._op(entry, options)
            factor = timed.note_window(now() - start)
            self.cold_starts[entry.model.name].append(
                op.cold_start_s * factor)
            if index < count:
                self.first_pass.append(op)
            self._check(timed, f"{entry.model.name}#{index}", op,
                        self.first_pass[index % count])
        timed.passes = timed.attempted // count
        return timed

    @staticmethod
    def _check(timed: Timed, label: str, op: ZooOp, first: ZooOp) -> None:
        """Outputs against the references; sim stats against pass one."""
        timed.attempted += 1
        problem = None
        for (outputs, _), reference in zip(op.calls, op.entry.references):
            problem = problem or check_outputs(outputs, reference,
                                               op.entry.dtypes)
        if problem is None and [s for _, s in op.calls] \
                != [s for _, s in first.calls]:
            problem = "simulated stats differ between passes"
        if problem is not None:
            timed.fail(label, problem)
        else:
            timed.ok += 1

    def cold_start_s(self, probe=None) -> float:
        """Median over models of each model's median cold start."""
        return median(median(v) for v in self.cold_starts.values())

    @staticmethod
    def _sim_cold_start_us(op: ZooOp) -> float:
        first_stats = op.calls[0][1]
        return (op.executable.report.simulated_compile_us
                + op.tuning.spent_us + first_stats.total_time_us)

    def sim_records(self) -> list:
        records = []
        for op in self.first_pass:
            stats = [s for _, s in op.calls]
            peaks = [s.details["memory"]["total_peak_bytes"]
                     for s in stats if "memory" in s.details]
            records.append(SimRecord(
                ok=True, latency_us=self._sim_cold_start_us(op),
                service_us=sum(s.steady_time_us for s in stats),
                launches=sum(s.kernels_launched for s in stats),
                peak_bytes=max(peaks) if peaks else None))
        return records

    def layer_counts(self) -> dict:
        return {}

    def baseline_traces(self) -> list:
        traces = []
        for entry in self.entries:
            model = entry.model
            ranges = {axis: (lo, lo + (hi - lo) // 4)
                      for axis, (lo, hi) in model.axes.items()}
            trace = make_trace(model, BASELINE_QUERIES, "zipf",
                               seed=self.seed, axis_ranges=ranges)
            traces.append((model.graph, trace.inputs()))
        return traces

    def model_rows(self, speedups: dict) -> list[str]:
        """Per-model rows: real compile and cold start, sim outcome."""
        lines = [f"{'model':<12}{'ops':>4}{'cold ms':>9}{'nodes':>7}"
                 f"{'kernels':>8}{'sim cold us':>13}{'tune gain':>10}"
                 f"{'vs PyTorch':>11}"]
        gains, ratios = [], []
        for index, op in enumerate(self.first_pass):
            name = op.entry.model.name
            report = op.executable.report
            tuning = op.tuning
            gain = (tuning.heuristic_time_us / tuning.tuned_time_us
                    if tuning.tuned_time_us > 0 else 1.0)
            ratio = speedups["PyTorch"][index]
            gains.append(gain)
            ratios.append(ratio)
            colds = self.cold_starts[name]
            lines.append(
                f"{name:<12}{len(colds):>4}{median(colds) * 1e3:>9.1f}"
                f"{report.num_nodes:>7}{report.num_kernels:>8}"
                f"{self._sim_cold_start_us(op):>13.0f}{gain:>10.3f}"
                f"{ratio:>11.2f}")
        lines.append(f"{'zoo':<12}{'':>4}{self.cold_start_s() * 1e3:>9.1f}"
                     f"{'':>7}{'':>8}{'':>13}{geomean(gains):>10.3f}"
                     f"{geomean(ratios):>11.2f}")
        return lines


# ---------------------------------------------------------------------------
# the serving workloads
# ---------------------------------------------------------------------------

class ServingWorkload:
    """Shared pass loop: an arrival schedule replayed on a scheduler."""

    name = ""
    SLO_US = 0.0
    #: fresh cold starts per run; ``cold_start_s`` is their median.
    COLD_STARTS = 5

    def __init__(self, seed: int,
                 compile_options: CompileOptions | None = None) -> None:
        self.seed = seed
        self.compile_options = compile_options or CompileOptions()
        self.first_pass: list = []

    # Subclasses provide setup(), cold_start(), _start_pass() (a fresh
    # or reused scheduler and a submit function) and _pass_counters().

    def run_timed(self, seconds: float, trace=None) -> Timed:
        timed = Timed()
        last_window = int(self.schedule[-1][0] // self.WINDOW_US)
        deadline = None
        while True:
            requests = [(model, tenant, dict(self.pools[model][index]))
                        for _, tenant, model, index in self.schedule]
            if trace is not None:
                trace.pass_index = timed.passes
                trace.op_ids = {id(inputs): f"p{timed.passes}r{i}"
                                for i, (_, _, inputs)
                                in enumerate(requests)}
            tickets: list = []
            start = now()
            scheduler, submit = self._start_pass()
            base = scheduler.now_us()
            for (at_us, *_), (model, tenant, inputs) in zip(self.schedule,
                                                            requests):
                scheduler.call_at(
                    base + at_us,
                    lambda m=model, t=tenant, x=inputs:
                    tickets.append(submit(m, x, t)))
            window = 0
            while True:
                if window < last_window:
                    scheduler.run_until(base + (window + 1) * self.WINDOW_US)
                else:
                    scheduler.run_until_idle()
                end = now()
                timed.note_window(end - start)
                start = now()
                window += 1
                complete = window > last_window
                if complete or (deadline is not None and end >= deadline):
                    break
            self._check(timed, tickets, requests, complete)
            if deadline is None:
                self.first_pass = tickets
                self._pass_counters()
                deadline = now() + max(0.0, seconds - timed.wall_s)
            if complete:
                timed.passes += 1
            if now() >= deadline:
                return timed

    def cold_start(self) -> float:
        """Wall time from the model graph to a fresh entry's first answer."""
        raise NotImplementedError

    def cold_start_s(self, probe) -> float:
        return median(self.cold_start() * probe.factor()
                      for _ in range(self.COLD_STARTS))

    def _check(self, timed: Timed, tickets: list, requests: list,
               complete: bool) -> None:
        index_of = {id(inputs): (model, self.schedule[i][3])
                    for i, (model, _, inputs) in enumerate(requests)}
        if complete and len(tickets) != len(requests):
            for missing in range(len(tickets), len(requests)):
                timed.attempted += 1
                timed.fail(f"r{missing}", "never submitted")
        for i, ticket in enumerate(tickets):
            response = ticket.response
            if response is None:
                if complete:
                    timed.attempted += 1
                    timed.fail(f"r{i}", "never answered")
                continue
            timed.attempted += 1
            if not response.ok:
                timed.fail(f"r{i}", f"status {response.status.value}")
                continue
            model, index = index_of[id(ticket.request.inputs)]
            problem = check_outputs(response.outputs,
                                    self.references[model][index],
                                    self.dtypes[model])
            if problem is not None:
                timed.fail(f"r{i}", problem)
            else:
                timed.ok += 1

    def sim_records(self) -> list:
        members = Counter(id(t.response.stats) for t in self.first_pass
                          if t.response is not None
                          and t.response.stats is not None)
        records = []
        for ticket in self.first_pass:
            response = ticket.response
            if response is None or not response.ok:
                records.append(SimRecord(ok=False, latency_us=0.0))
                continue
            stats = response.stats
            share = members[id(stats)]
            memory = stats.details.get("memory") \
                or self._memory_plan(ticket.request)
            records.append(SimRecord(
                ok=True, latency_us=response.latency_us,
                service_us=stats.steady_time_us / share,
                launches=stats.kernels_launched / share,
                peak_bytes=memory["total_peak_bytes"]))
        return records

    def _memory_plan(self, request) -> dict:
        """The memory plan of a request served without a launch plan."""
        executable = self.executables[request.model]
        dims = executable.host_program.bind(request.inputs)
        return executable.buffer_plan.evaluate(dims)

    def path_counts(self) -> dict:
        responses = [t.response for t in self.first_pass
                     if t.response is not None]
        paths = Counter(r.path for r in responses)
        waits = [r.latency_us - r.stats.total_time_us for r in responses
                 if r.ok]
        total = len(self.first_pass) or 1
        return {
            "serving.fast_ratio": (paths["fast"] + paths["batched"])
            / total,
            "serving.fallback_ratio": (paths["fallback"]
                                       + paths["quarantined"]) / total,
            "serving.queue_wait_us.p99": nearest_rank(waits, 99),
        }

    def baseline_traces(self) -> list:
        """Every ``POOL // 16``-th pool entry: 16 queries spread over the
        stratified pool, so the shape mix barely moves with the seed."""
        step = self.POOL // 16
        return [(model.graph, self.pools[name][step // 2::step])
                for name, model in self.models.items()]

    def _pools_and_references(self, distribution: str) -> None:
        """One input pool per model, stratified over the seqlen mix.

        The pool's seqlens are evenly spaced quantiles of a large draw
        from ``distribution``, so every seed serves nearly the same shape
        mix while tensor data and arrivals change with the seed.  Pools
        drawn at random moved the fleet's fallback share, and with it
        every simulated metric, by 15 to 35 % between seeds.
        """
        rng = np.random.default_rng(self.seed)
        lo, hi = self.SEQLEN
        draw = np.sort(sample_axis(rng, lo, hi, 64 * self.POOL,
                                   distribution))
        seqlens = [int(v) for v in draw[32::64]]
        self.pools, self.references, self.dtypes = {}, {}, {}
        for name, model in self.models.items():
            pool = [model.make_inputs(rng, batch=1, seqlen=v)
                    for v in seqlens]
            self.pools[name] = pool
            self.references[name] = [evaluate(model.graph, x)
                                      for x in pool]
            self.dtypes[name] = output_dtypes(model.graph)

    def _schedule(self, phases: list) -> None:
        """Merge ``(start_us, [TenantTraffic, ...])`` Poisson phases."""
        arrivals = []
        for index, (start_us, traffic) in enumerate(phases):
            arrivals += [dataclasses.replace(a, at_us=a.at_us + start_us)
                         for a in poisson_arrivals(
                             traffic, seed=self.seed * len(phases) + index)]
        arrivals.sort(key=lambda a: (a.at_us, a.tenant))
        index_of = {(name, id(x)): i for name, pool in self.pools.items()
                    for i, x in enumerate(pool)}
        self.schedule = [(a.at_us, a.tenant, a.model,
                          index_of[(a.model, id(a.inputs))])
                         for a in arrivals]


class ServeBatched(ServingWorkload):
    """A warm, affinity-routed fleet of two batching replicas."""

    name = "serve-batched"
    #: virtual time per window of a pass (about 100 requests).
    WINDOW_US = 25_000.0
    SIZES = {"layers": 4, "hidden": 64, "heads": 2}
    SEQLEN = (8, 128)
    POOL = 128
    RATE_QPS = 4_000.0
    REQUESTS = 1_100
    SLO_US = 5_000.0
    OPTIONS = FleetOptions(replicas=2, policy="affinity",
                           batching=BatchingOptions())

    def setup(self, trace=None) -> dict:
        start = now()
        self.models = {"bert": build_model("bert", **self.SIZES)}
        build_ms = (now() - start) * 1e3
        self._pools_and_references("bimodal")

        self.scheduler = VirtualScheduler(seed=self.seed)
        self.fleet = FleetEngine(DEVICE, self.scheduler, self.OPTIONS)
        self.fleet.register_model(
            "bert", self.models["bert"].graph,
            traced_options(self.compile_options, trace))
        # Record every solo and batched plan the traffic can reach, on
        # every replica.
        largest = self.OPTIONS.batching.max_batch_size
        batch_dims = [1 << k for k in range(1, largest.bit_length())]
        for replica in self.fleet.replicas():
            engine = replica.engine.model("bert").engine
            bucketer = replica.engine.bucketer("bert")
            for inputs in self.pools["bert"]:
                signature = engine.host_program.signature(inputs)
                engine.prepare(inputs, signature)
                padded = bucketer.padded_signature(signature)
                for batch in batch_dims:
                    engine.prepare_batched(padded, batch)
        self.executables = {"bert": engine.executable}
        self._schedule([(0.0, [TenantTraffic("users", "bert", self.RATE_QPS,
                                             self.REQUESTS,
                                             self.pools["bert"])])])
        self.transcript = None
        return {"build_ms": build_ms}

    def cold_start(self) -> float:
        start = now()
        scheduler = VirtualScheduler(seed=self.seed)
        fleet = FleetEngine(DEVICE, scheduler, self.OPTIONS)
        fleet.register_model("bert", self.models["bert"].graph,
                             self.compile_options)
        await_answer(scheduler, fleet.submit("bert", self.pools["bert"][0],
                                             tenant="users"))
        return now() - start

    def _start_pass(self):
        submit = self.fleet.submit
        self._stats_before = self.fleet.stats()
        return self.scheduler, lambda model, inputs, tenant: submit(
            model, inputs, tenant=tenant)

    def _pass_counters(self) -> None:
        self.transcript = self.fleet.transcript()
        before, after = self._stats_before, self.fleet.stats()

        def delta(group: str, key: str) -> float:
            return after[group][key] - before[group][key]

        formed = delta("requests", "batches_formed")
        routed = delta("fleet", "routed")
        bucketer = self.fleet.replicas()[0].engine.bucketer("bert")
        waste = [bucketer.padding_waste(t.response.signature)
                 for t in self.first_pass
                 if t.response is not None and t.response.path == "batched"]
        self.counts = {
            **self.path_counts(),
            "serving.compile_jobs": delta("pool", "jobs_submitted"),
            "serving.coalesced": delta("pool", "jobs_coalesced"),
            "batching.batches": formed,
            "batching.mean_batch": delta("requests", "batched_served")
            / formed if formed else 0.0,
            "batching.padding_waste": float(np.mean(waste)) if waste
            else 0.0,
            "fleet.affinity_hit_ratio": delta("fleet", "affinity_hits")
            / routed if routed else 0.0,
            "fleet.spills": delta("fleet", "affinity_spills"),
            "fleet.scale_ups": delta("fleet", "scale_ups"),
            "fleet.drains": delta("fleet", "drains"),
            "fleet.replicas_peak": len(self.fleet.replicas()),
        }

    def layer_counts(self) -> dict:
        return self.counts


WORKLOADS = {w.name: w for w in (CompileZoo, ServeBatched)}
