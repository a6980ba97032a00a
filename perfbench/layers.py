"""The traced run: one real-clock span per call into a layer's entry point.

:class:`LayerTrace` swaps each entry point below for a wrapper at class
level, for the duration of a ``with`` block, so the program under test
is unchanged: every span is recorded from the benchmark's side of the
call.  Each span carries its layer, the phase of the run it belongs to
(``setup``, ``timed`` or ``epilogue``) and the id of the op it serves.
A layer's *self time* is its spans' duration minus their wrapped
children; what no span covers inside the timed phase is harness time.

Stage and pass spans of the compile pipeline come from the public
``CompileOptions(tracer=...)`` seam and count toward ``core``.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from typing import Mapping

import numpy as np

import repro
from repro.interp import Interpreter
from repro.obs import Tracer
from repro.serving import (FleetEngine, InterpreterFallback, ServingEngine,
                           VirtualScheduler)

from .harness import geomean, mean, median, now


def _defining_class(cls, name: str):
    return next(c for c in cls.__mro__ if name in c.__dict__)


#: (owner class, method, layer) of every wrapped entry point.
ENTRY_POINTS = (
    (repro.DiscCompiler, "compile", "core"),
    (repro.ScheduleTuner, "tune_class", "tuning"),
    (repro.ExecutionEngine, "__init__", "runtime"),
    (repro.ExecutionEngine, "run", "runtime"),
    (repro.ExecutionEngine, "prepare", "runtime"),
    (repro.ExecutionEngine, "prepare_batched", "runtime"),
    (repro.ExecutionEngine, "run_batched", "runtime"),
    (InterpreterFallback, "__init__", "serving"),
    (InterpreterFallback, "run", "device"),
    (Interpreter, "run", "interp"),
    (ServingEngine, "submit", "serving"),
    (VirtualScheduler, "run_until_idle", "serving"),
    (VirtualScheduler, "run_until", "serving"),
    (FleetEngine, "submit", "serving.fleet"),
    (_defining_class(repro.DiscExecutor, "run_trace"), "run_trace",
     "baselines"),
)

#: rows of the self-time table of the timed phase, in display order
#: (the baselines run after it, untimed).
LAYERS = ("core", "tuning", "runtime", "numerics", "interp", "device",
          "serving", "serving.fleet", "harness")

#: plan-cache counters read around each runtime call.
_PLAN_CALLS = {"ExecutionEngine.run", "ExecutionEngine.prepare",
               "ExecutionEngine.prepare_batched"}


def _plan_state(engine) -> tuple:
    plans = engine.plans
    return plans.hits, plans.evictions, len(plans)


def _after_plan_call(label: str, engine, before: tuple, span) -> None:
    hits, evictions, entries = _plan_state(engine)
    evicted = evictions - before[1]
    if label == "ExecutionEngine.run":
        span.set(path="replay" if hits > before[0] else "record")
    else:
        span.set(path="record"
                 if entries - before[2] + evicted > 0 else "existing")
    span.set(evicted=evicted)


class LayerTrace:
    """Records layer spans while active; summarises them afterwards."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        #: set by :func:`perfbench.measure.measure`: "setup", "timed" or
        #: "epilogue".
        self.phase = "setup"
        #: set by the workload: which pass over its inputs is running.
        self.pass_index = 0
        #: id(inputs mapping) -> op id, for calls that carry a request.
        self.op_ids: dict[int, object] = {}
        #: op id for calls that carry no inputs (compile, tune).
        self.current_op: object = None
        #: (host program, inputs) of every engine-replayed request in the
        #: timed phase: the kernel floor is measured over exactly these.
        self.replayed: list = []
        self.floor_us = 0.0
        self._layer_self: dict | None = None
        self._saved: list = []

    # -- wrapping ----------------------------------------------------------

    def __enter__(self) -> "LayerTrace":
        for owner, name, layer in ENTRY_POINTS:
            original = owner.__dict__[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(owner, name, layer, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _op_of(self, args: tuple):
        for arg in args[:2]:
            if isinstance(arg, Mapping):
                return self.op_ids.get(id(arg), self.current_op)
            if isinstance(arg, list) and arg \
                    and isinstance(arg[0], Mapping):
                return [self.op_ids.get(id(a), self.current_op)
                        for a in arg]
        return self.current_op

    def _wrap(self, owner, name: str, layer: str, original):
        label = f"{owner.__name__}.{name}"
        tracer = self.tracer
        trace = self
        plan_call = label in _PLAN_CALLS

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            before = _plan_state(obj) if plan_call else None
            with tracer.span(label, layer=layer, phase=trace.phase,
                             pass_index=trace.pass_index,
                             op=trace._op_of(args)) as span:
                result = original(obj, *args, **kwargs)
            if plan_call:
                _after_plan_call(label, obj, before, span)
            trace._annotate(label, obj, args, result, span)
            return result
        return wrapper

    def _annotate(self, label: str, obj, args: tuple, result,
                  span) -> None:
        if label == "DiscCompiler.compile":
            span.set(model=args[0].name, nodes=result.report.num_nodes,
                     kernels=result.report.num_kernels)
        elif label == "ScheduleTuner.tune_class":
            gain = (result.heuristic_time_us / result.tuned_time_us
                    if result.tuned_time_us > 0 else 1.0)
            span.set(model=args[0].graph.name, scored=result.scored,
                     gain=gain)
        elif self.phase != "timed":
            return
        elif label == "ExecutionEngine.run" \
                and span.attrs["path"] == "replay":
            self.replayed.append((obj.host_program, args[0]))
        elif label == "ExecutionEngine.run_batched":
            span.set(members=len(args[0]))
            self.replayed.extend((obj.host_program, inputs)
                                 for inputs in args[0])

    # -- summaries ---------------------------------------------------------

    def spans(self, phases=("timed",), label: str | None = None,
              **match) -> list:
        """Layer spans of ``phases``, optionally one label, attr-matched."""
        out = []
        for span in self.tracer.spans:
            attrs = span.attrs
            if span.kind != "span" or "layer" not in attrs \
                    or attrs["phase"] not in phases:
                continue
            if label is not None and span.name != label:
                continue
            if all(attrs.get(k) == v for k, v in match.items()):
                out.append(span)
        return out

    def self_us(self, phase: str = "timed") -> dict:
        """Self time per layer (us) of every span in ``phase``.

        Spans the program opens itself (compile stages and passes)
        belong to the layer of the nearest wrapped call around them.
        """
        totals: dict[str, float] = defaultdict(float)
        for span in self.tracer.spans:
            if span.kind != "span" or not span.finished:
                continue
            owner = span
            while owner is not None and "layer" not in owner.attrs:
                owner = owner.parent
            if owner is None or owner.attrs["phase"] != phase:
                continue
            totals[owner.attrs["layer"]] += _self(span)
        return dict(totals)

    def root_us(self, phase: str = "timed") -> float:
        """Wall covered by outermost calls into the program."""
        return sum(span.duration_us for span in self.spans((phase,))
                   if span.parent is None)

    def kernel_floor_us(self, repeats: int = 3) -> tuple[float, int]:
        """Mean bare-replay floor per engine-replayed request, and count.

        The floor is the host program's instruction stream with no
        signature, cache or stats work (the E15 method): what numpy
        costs for the request's kernels.  Identical requests are timed
        once and weighted by their count.
        """
        counts: Counter = Counter()
        samples: dict = {}
        for program, inputs in self.replayed:
            key = (id(program),) + tuple(id(v) for v in inputs.values())
            counts[key] += 1
            samples[key] = (program, inputs)
        weighted = 0.0
        for key, (program, inputs) in samples.items():
            floor = min(_bare_replay_us(program, inputs)
                        for _ in range(repeats))
            weighted += floor * counts[key]
        total = sum(counts.values())
        return (weighted / total if total else 0.0), total

    def layer_self_us(self, wall_s: float) -> dict:
        """Self time per table row of the timed phase.

        Kernel execution runs inside the runtime's spans; the measured
        kernel floor of the replayed requests is moved from ``runtime``
        to ``numerics``.  Harness time is the timed wall no outermost
        call into the program covers.
        """
        if self._layer_self is None:
            totals = self.self_us("timed")
            floor_us, replayed = self.kernel_floor_us()
            self.floor_us = floor_us
            totals["numerics"] = floor_us * replayed
            totals["runtime"] = totals.get("runtime", 0.0) \
                - totals["numerics"]
            totals["harness"] = wall_s * 1e6 - self.root_us("timed")
            self._layer_self = totals
        return self._layer_self


def _bare_replay_us(program, inputs) -> float:
    dims = program.bind(inputs)
    arrays = [(slot, np.ascontiguousarray(inputs[name]))
              for slot, name in program.param_slots]
    start = now()
    env = program.env_template.copy()
    for slot, array in arrays:
        env[slot] = array
    for instr in program.instructions:
        outputs = instr.kernel.execute([env[s] for s in instr.in_slots],
                                       dims)
        for slot, value in zip(instr.out_slots, outputs):
            env[slot] = value
        for slot in instr.release:
            env[slot] = None
    return (now() - start) * 1e6


def _self(span) -> float:
    return span.duration_us - sum(c.duration_us for c in span.children
                                  if c.kind == "span")


STAGES = ("passes", "analysis", "fusion", "codegen", "memory", "hostprog")


def compile_stage_ms(compiles: list) -> dict:
    """Median per-compile stage times from the pipeline's own spans."""
    stages: dict[str, list] = {stage: [] for stage in STAGES}
    for span in compiles:
        per = defaultdict(float)
        for child in span.walk():
            if child.name.startswith("pass:"):
                per["passes"] += child.duration_us
            elif child.name.startswith("stage:"):
                per[child.name[len("stage:"):]] += child.duration_us
        for stage in STAGES:
            stages[stage].append(per[stage] / 1e3)
    return {stage: median(values) for stage, values in stages.items()}


def layer_metrics(trace: LayerTrace, requests: int,
                  wall_s: float) -> dict:
    """The span-derived per-layer metrics of a traced run.

    Times are means (per call or per request) over the traced timed
    phase; compile and tuning numbers also cover the traced setup, where
    the serving workloads compile.  Counts cover the first pass only, so
    they depend on the seed and not on how many passes fit in the time.
    """
    built = ("setup", "timed")
    compiles = trace.spans(built, "DiscCompiler.compile")
    nodes = {s.attrs["model"]: s.attrs for s in compiles}
    tunes = trace.spans(built, "ScheduleTuner.tune_class")
    tuned = {s.attrs["model"]: s.attrs for s in tunes}
    records = [s for label in sorted(_PLAN_CALLS)
               for s in trace.spans(label=label, path="record")]
    replays = trace.spans(label="ExecutionEngine.run", path="replay")
    batched = trace.spans(label="ExecutionEngine.run_batched")
    replay_requests = len(replays) + sum(s.attrs["members"]
                                         for s in batched)
    replay_us = (sum(s.duration_us for s in replays + batched)
                 / replay_requests) if replay_requests else 0.0
    hits = sum(1 for s in replays + batched if s.attrs["pass_index"] == 0)
    first_records = sum(1 for s in records if s.attrs["pass_index"] == 0)
    self_us = trace.layer_self_us(wall_s)
    loop_us = (self_us.get("serving", 0.0)
               + self_us.get("serving.fleet", 0.0)
               - sum(_self(s) for s in trace.spans(
                   label="InterpreterFallback.__init__")))
    stage_ms = compile_stage_ms(compiles)
    ops = max(requests, 1)
    metrics = {
        "core.compile_ms": median(s.duration_us / 1e3 for s in compiles),
        **{f"core.{stage}_ms": value for stage, value in stage_ms.items()},
        "core.nodes": sum(a["nodes"] for a in nodes.values()),
        "core.kernels": sum(a["kernels"] for a in nodes.values()),
        "tuning.tune_ms": median(s.duration_us / 1e3 for s in tunes),
        "tuning.scored": sum(a["scored"] for a in tuned.values()),
        "tuning.sim_gain": geomean(a["gain"] for a in tuned.values()),
        "runtime.record_us": mean(s.duration_us for s in records),
        "runtime.records": first_records,
        "runtime.replay_us": replay_us,
        "runtime.replay_host_us": replay_us - trace.floor_us
        if replay_requests else 0.0,
        "runtime.plan_hit_ratio": hits / (hits + first_records)
        if hits + first_records else 0.0,
        "runtime.plan_evictions": sum(
            s.attrs["evicted"] for label in sorted(_PLAN_CALLS)
            for s in trace.spans(label=label, pass_index=0)),
        "numerics.kernel_floor_us": trace.floor_us,
        "interp.run_us": mean(s.duration_us for s in trace.spans(
            label="Interpreter.run")),
        "device.eager_cost_us": mean(_self(s) for s in trace.spans(
            label="InterpreterFallback.run")),
        "serving.loop_us_per_request": loop_us / ops,
        "serving.fallback_build_ms": mean(
            s.duration_us / 1e3 for s in trace.spans(
                built, "InterpreterFallback.__init__")),
        "batching.run_batched_us": mean(s.duration_us for s in batched),
        "bench.harness_share": self_us["harness"] / (wall_s * 1e6)
        if wall_s > 0 else 0.0,
    }
    for layer in LAYERS:
        metrics[f"self_us_per_op.{layer}"] = self_us.get(layer, 0.0) / ops
    return metrics


def self_time_table(trace: LayerTrace, wall_s: float,
                    requests: int) -> list[str]:
    """The per-layer self-time table of the traced timed phase."""
    self_us = trace.layer_self_us(wall_s)
    total = wall_s * 1e6
    ops = max(requests, 1)
    lines = [f"{'layer':<16}{'self ms':>12}{'share':>9}{'us/op':>12}"]
    for layer in LAYERS:
        value = self_us.get(layer, 0.0)
        lines.append(f"{layer:<16}{value / 1e3:>12.1f}"
                     f"{value / total if total else 0.0:>9.1%}"
                     f"{value / ops:>12.1f}")
    lines.append(f"{'timed wall':<16}{total / 1e3:>12.1f}{1:>9.1%}"
                 f"{total / ops:>12.1f}")
    return lines
