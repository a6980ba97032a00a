"""The execution engine (the paper's Runtime Abstraction Layer, RAL).

Runs an :class:`Executable` on concrete inputs.  Execution is split the
way the paper splits codegen:

- **compile time** — the executable is lowered once into a
  :class:`~repro.runtime.hostprog.HostProgram`: dense value slots,
  slot-indexed instructions, factored dim resolution, last-use release
  (see :mod:`repro.runtime.hostprog`);
- **per signature** — the first call with a given input-shape signature
  binds the shapes, solves derived symbols, selects every kernel's
  schedule and evaluates cost recipes + memory plan, freezing all of it
  into a :class:`~repro.runtime.launchplan.LaunchPlan` in a bounded LRU
  cache;
- **per call** — a cache hit executes the instruction stream against the
  frozen dims (gather slots, run the kernel, scatter slots, drop dead
  values) and charges the precomputed cost.

One loop executes the instructions and one charges them; every entry
point composes the two.  Each launch is priced by :func:`charge_kernel`,
the cost rule shared with the serving fallback and the baselines.

Simulated statistics and numeric outputs are bit-identical to
:class:`LegacyExecutionEngine`, the per-call interpreter-style engine
kept for the E15 host-overhead comparison and the equivalence suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from ..core.codegen.schedules import Schedule, schedule_named
from ..core.fusion.kinds import FusionKind
from ..device.cost import KernelSpec, kernel_time_us
from ..device.counters import RunStats
from ..device.profiles import DeviceProfile
from ..numerics.resolve import bind_inputs, resolve_all_dims
from ..obs.tracer import NULL_TRACER, resolve_tracer
from .executable import Executable
from .hostprog import HostProgram, host_program_of
from .launchplan import (BatchLaunchPlan, LaunchPlan, LaunchPlanCache,
                         format_signature)
from .memory import scale_batched_memory

__all__ = ["EngineOptions", "ExecutionEngine", "LegacyExecutionEngine",
           "charge_kernel"]


@dataclass
class EngineOptions:
    """Execution knobs (ablations use these)."""

    #: codegen quality relative to a perfectly tuned static kernel; the
    #: paper concedes a small gap versus shape-specialised code.
    base_efficiency: float = 0.95
    #: host-side cost of issuing one kernel from compiled host code.
    dispatch_us_per_kernel: float = 0.6
    #: force a single schedule variant everywhere (experiment E9); None
    #: enables the runtime selector.
    fixed_schedule: str | None = None
    #: charge host-placed ops at host cost instead of kernel launches
    #: (disabled by the E10 ablation to show why placement matters).
    host_placement_enabled: bool = True
    #: bound on live launch plans (per-signature frozen host state);
    #: None is unbounded.
    plan_capacity: int | None = 64


def charge_kernel(kernel, dims: dict, stats: RunStats,
                  device: DeviceProfile, efficiency: float,
                  schedule: Schedule | None = None, *, batch: int = 1,
                  dispatch_us: float | None = None,
                  host_placement: bool = True) -> KernelSpec | None:
    """Account one kernel launch into ``stats``; returns its KernelSpec.

    The one launch-pricing rule of the engines, the serving fallback and
    the simulated baselines.  Callers keep schedule policy and pass their
    own terms: ``schedule`` is the chosen variant; ``batch`` stacked
    members scale bytes/flops/parallelism but pay one launch (host work
    is per launch); ``dispatch_us`` is an eager dispatch gap each launch
    serialises behind (None = pipelined, charged by the caller);
    ``host_placement=False`` is the E10 ablation.  Host-side work
    returns None.
    """
    kind = kernel.kind
    if kind is FusionKind.METADATA:
        # reshape-only: a host-side view adjustment.
        stats.host_time_us += 0.1 * len(kernel.members)
        return None
    if kind is FusionKind.HOST and host_placement:
        stats.host_time_us += device.host_op_us * len(kernel.members)
        return None
    spec = kernel.cost_spec(dims, schedule, efficiency)
    if batch != 1:
        spec = replace(
            spec,
            bytes_read=spec.bytes_read * batch,
            bytes_written=spec.bytes_written * batch,
            flops=spec.flops * batch,
            parallel_elements=spec.parallel_elements * batch)
    device_us = kernel_time_us(spec, device)
    if dispatch_us is not None:
        device_us = max(device_us, dispatch_us)
    stats.device_time_us += device_us
    if kind is FusionKind.HOST:
        # Ablation: one shape-computation launch, no traffic accounted.
        stats.kernels_launched += 1
        return spec
    stats.kernels_launched += 1 + spec.extra_launches
    stats.bytes_read += spec.bytes_read
    stats.bytes_written += spec.bytes_written
    stats.flops += spec.flops
    return spec


def _pick_schedule(kernel, dims: dict, stats: RunStats,
                   forced: Schedule | None, selector) -> Schedule | None:
    """The engines' schedule policy (``forced`` = E9 ablation, ``selector``
    None = heuristics); picks land in ``stats.details["schedules"]``."""
    if kernel.kind in (FusionKind.METADATA, FusionKind.HOST):
        return None  # host-side work never picks a device schedule
    schedule = kernel.resolve_schedule(dims, forced, selector)
    if schedule is not None:
        stats.details.setdefault("schedules", {})[kernel.name] = \
            schedule.name
    return schedule


class ExecutionEngine:
    """Executes a compiled program through its host program.

    Every entry point composes two loops over the instructions:
    :meth:`_execute` runs them on data, :meth:`_charge` prices them.

    ``plan_cache``/``plan_tag`` let several engines share one
    :class:`LaunchPlanCache` (the adaptive specialiser runs a generic and
    a specialised engine over the same signature stream); the tag keeps
    their frozen plans apart while the signature statistics unify.

    ``tracer`` (None = off) wraps every call in an ``engine:run`` span
    holding an ``engine:record`` or ``engine:replay`` child with
    per-kernel launch spans.  ``run`` dispatches once on
    ``tracer.enabled``; the untraced loop tests one local per kernel.
    """

    def __init__(self, executable: Executable, device: DeviceProfile,
                 options: EngineOptions | None = None, *,
                 plan_cache: LaunchPlanCache | None = None,
                 plan_tag: str = "main", tracer=None) -> None:
        self.executable = executable
        self.device = device
        self.options = options or EngineOptions()
        self.tracer = resolve_tracer(tracer)
        self.host_program: HostProgram = host_program_of(executable)
        self.plans = plan_cache if plan_cache is not None else \
            LaunchPlanCache(self.options.plan_capacity,
                            tracer=tracer)
        self._plan_tag = plan_tag
        # The class-wide memory snapshot is computed once per engine —
        # every frozen plan of every signature in the class shares it,
        # so replay never touches the planner again.
        symbolic = getattr(executable, "symbolic_plan", None)
        self._memory_class = symbolic.snapshot() \
            if symbolic is not None else None

    def run(self, inputs: Mapping[str, np.ndarray],
            signature: tuple | None = None) -> tuple[list, RunStats]:
        """Execute on concrete inputs; returns (outputs, stats).

        ``signature`` lets a caller that already computed (and noted)
        the call's signature — the adaptive specialiser — skip the
        recomputation; plain callers leave it None.
        """
        if self.tracer.enabled:
            return self._run_traced(inputs, signature)
        program = self.host_program
        if signature is None:
            signature = program.signature(inputs)
            self.plans.note(signature)
        plan = self.plans.get((self._plan_tag, signature))
        if plan is None:
            outputs, stats, plan = self._record(inputs, signature)
            self.plans.put((self._plan_tag, signature), plan)
            return outputs, stats
        return self._replay(plan, inputs)

    def _run_traced(self, inputs: Mapping[str, np.ndarray],
                    signature: tuple | None) -> tuple[list, RunStats]:
        """The traced twin of :meth:`run`; same order, same charges.

        Replay kernel spans carry no ``launches``: replay charges the
        plan's frozen total, counted on the ``engine:replay`` span.
        """
        tracer = self.tracer
        program = self.host_program
        with tracer.span("engine:run", tag=self._plan_tag) as span:
            if signature is None:
                signature = program.signature(inputs)
                self.plans.note(signature)
            span.set(signature=format_signature(signature))
            plan = self.plans.get((self._plan_tag, signature))
            if plan is None:
                with tracer.span("engine:record") as rec:
                    outputs, stats, plan = self._record(inputs, signature)
                    rec.set(kernels_launched=stats.kernels_launched)
                self.plans.put((self._plan_tag, signature), plan)
                span.set(path="record", cache_hit=False)
                return outputs, stats
            with tracer.span("engine:replay") as rep:
                outputs, stats = self._replay(plan, inputs, tracer)
                rep.set(kernels_launched=stats.kernels_launched)
            span.set(path="replay", cache_hit=True)
            return outputs, stats

    def peek_plan(self, signature: tuple) -> LaunchPlan | None:
        """The frozen plan for ``signature`` (no stats side effects)."""
        return self.plans.peek((self._plan_tag, signature))

    def prepare(self, inputs: Mapping[str, np.ndarray],
                signature: tuple | None = None, *,
                selector=None, overwrite: bool = False) -> LaunchPlan:
        """Freeze and install the signature's plan without executing data.

        This is the background-compilation entry point of the serving
        runtime (:mod:`repro.serving`): all the shape-generic work of a
        first call — binding, derived-symbol resolution, schedule
        selection, cost-recipe and memory-plan evaluation — runs through
        the same :meth:`_charge` loop :meth:`_record` uses, so the frozen
        plan is bit-identical to one recorded by a data-carrying first
        call, and a later :meth:`run` of the signature replays it as a
        warm hit.

        ``selector`` freezes schedule picks chosen by a non-default
        policy (the autotuner's winners) into the plan; ``overwrite``
        replaces an already-installed plan — the tuner uses it to
        upgrade a heuristic plan in place.
        """
        program = self.host_program
        if signature is None:
            signature = program.signature(inputs)
        if not overwrite:
            existing = self.plans.peek((self._plan_tag, signature))
            if existing is not None:
                return existing
        tracer = self.tracer
        with tracer.span("engine:prepare", tag=self._plan_tag) as span:
            dims = program.bind(inputs)
            stats = self._charge(dims, selector)
            plan = LaunchPlan.freeze(signature, dims, stats,
                                     tuned=selector is not None)
            plan.memory_class = self._memory_class
            self.plans.put((self._plan_tag, signature), plan)
            if tracer.enabled:
                span.set(signature=format_signature(signature),
                         kernels_launched=stats.kernels_launched)
        return plan

    # -- batched launches (the serving batcher's entry points) -------------

    def _batched_key(self, signature: tuple, batch_size: int) -> tuple:
        """Plan-cache key of a batched launch: the batch dim is part of
        the signature (leading dim), the tag keeps a ``@batch`` marker so
        diagnostics can tell the plan populations apart."""
        return (f"{self._plan_tag}@batch",
                HostProgram.batched_signature(signature, batch_size))

    def peek_batched(self, signature: tuple,
                     batch_size: int) -> BatchLaunchPlan | None:
        """The frozen batched plan, or None (no stats side effects)."""
        return self.plans.peek(self._batched_key(signature, batch_size))

    def prepare_batched(self, signature: tuple,
                        batch_size: int) -> BatchLaunchPlan:
        """Freeze the launch plan for ``batch_size`` stacked members.

        ``signature`` is the bucket's *padded* per-member signature; the
        frozen cost charges every kernel once with bytes/flops/parallel
        elements scaled by ``batch_size`` (padding waste included — the
        padded dims, not the members' true dims, drive the recipes).
        Like :meth:`prepare`, no tensor data is touched; this is the
        background-compilation entry for batched plans.
        """
        key = self._batched_key(signature, batch_size)
        existing = self.plans.peek(key)
        if existing is not None:
            return existing
        tracer = self.tracer
        with tracer.span("engine:prepare_batched",
                         tag=self._plan_tag) as span:
            dims = self.host_program.bind_signature(signature)
            stats = self._charge(dims, batch=batch_size)
            plan = BatchLaunchPlan.freeze_batched(
                key[1], dims, stats, batch_size, signature)
            if self._memory_class is not None:
                plan.memory_class = dict(self._memory_class,
                                         batch=batch_size)
            self.plans.put(key, plan)
            if tracer.enabled:
                span.set(signature=format_signature(key[1]),
                         batch=batch_size,
                         kernels_launched=stats.kernels_launched)
        return plan

    def run_batched(self, inputs_list: Sequence[Mapping[str, np.ndarray]],
                    signature: tuple, batch_size: int) -> tuple:
        """Serve ``inputs_list`` members with one batched launch.

        Numeric execution is per member against its *true* dims —
        padding is a cost concept, never a numeric one — so each
        member's outputs are bit-identical to a solo run of the same
        inputs.  The simulated cost is the frozen batched plan's,
        charged once for the whole launch; returns
        ``(per_member_outputs, stats)``.
        """
        plan = self.plans.get(self._batched_key(signature, batch_size))
        if plan is None:
            plan = self.prepare_batched(signature, batch_size)
        results = [self._execute(inputs, self.host_program.bind(inputs))
                   for inputs in inputs_list]
        return results, plan.make_stats()

    # -- the two instruction loops -------------------------------------------

    def _record(self, inputs: Mapping[str, np.ndarray],
                signature: tuple) -> tuple:
        """First call of a signature: run, charge, and freeze.

        Bit-identical to the legacy engine's interleaved charge: every
        derived symbol is solved before the first kernel runs.
        """
        dims = self.host_program.bind(inputs)
        ledger = [] if self.tracer.enabled else None
        results = self._execute(inputs, dims, self.tracer, ledger)
        stats = self._charge(dims, ledger=ledger)
        plan = LaunchPlan.freeze(signature, dims, stats)
        plan.memory_class = self._memory_class
        return results, stats, plan

    def _replay(self, plan: LaunchPlan, inputs: Mapping[str, np.ndarray],
                tracer=NULL_TRACER) -> tuple:
        """Cache hit: run at the frozen dims, charge the frozen cost."""
        return self._execute(inputs, plan.dims, tracer), plan.make_stats()

    def _execute(self, inputs: Mapping[str, np.ndarray], dims: dict,
                 tracer=NULL_TRACER, ledger: list | None = None) -> list:
        """Run every instruction on ``inputs`` at ``dims``; the outputs.

        An enabled ``tracer`` gets one ``kernel:<name>`` span per kernel;
        a ``ledger`` (record path) collects them, tagged with their output
        slots, for :meth:`_charge` to add each kernel's launch count.
        """
        program = self.host_program
        traced = tracer.enabled
        env = program.env_template.copy()
        for slot, name in program.param_slots:
            env[slot] = np.ascontiguousarray(inputs[name])
        for instr in program.instructions:
            kernel = instr.kernel
            args = [env[s] for s in instr.in_slots]
            if traced:
                with tracer.span(f"kernel:{kernel.name}") as span:
                    outputs = kernel.execute(args, dims)
                if ledger is not None:
                    ledger.append(span.set(slots=list(instr.out_slots)))
            else:
                outputs = kernel.execute(args, dims)
            for slot, value in zip(instr.out_slots, outputs):
                env[slot] = value
            for slot in instr.release:
                env[slot] = None
        return [env[slot] for slot in program.output_slots]

    def _charge(self, dims: dict, selector=None, batch: int = 1,
                ledger: list | None = None) -> RunStats:
        """Price every instruction at ``dims`` (``batch`` stacked members
        per launch): the cost a plan freezes."""
        options = self.options
        device = self.device
        forced = (schedule_named(options.fixed_schedule)
                  if options.fixed_schedule is not None else None)
        stats = RunStats(cache_hit=True)
        for i, instr in enumerate(self.host_program.instructions):
            kernel = instr.kernel
            schedule = _pick_schedule(kernel, dims, stats, forced, selector)
            before = stats.kernels_launched
            charge_kernel(kernel, dims, stats, device,
                          options.base_efficiency, schedule, batch=batch,
                          host_placement=options.host_placement_enabled)
            if ledger is not None:
                ledger[i].set(launches=stats.kernels_launched - before)
        stats.host_time_us += (options.dispatch_us_per_kernel
                               * stats.kernels_launched)
        buffer_plan = self.executable.buffer_plan
        if buffer_plan is not None:
            memory = buffer_plan.evaluate(dims)
            if batch != 1:
                memory = scale_batched_memory(memory, batch)
            stats.details["memory"] = memory
        return stats


class LegacyExecutionEngine:
    """The per-call interpreter-style engine the host program replaced.

    Re-derives the shape-generic work — input binding, a whole-graph
    symbol-resolution walk, dict-of-node-id environment, per-kernel
    schedule selection and cost evaluation — on every call.  Kept as the
    bit-exactness reference for the equivalence suite and as the
    baseline the E15 host-overhead benchmark measures against.
    """

    def __init__(self, executable: Executable, device: DeviceProfile,
                 options: EngineOptions | None = None,
                 tracer=None) -> None:
        self.executable = executable
        self.device = device
        self.options = options or EngineOptions()
        self.tracer = resolve_tracer(tracer)

    def run(self, inputs: Mapping[str, np.ndarray]
            ) -> tuple[list, RunStats]:
        """Execute on concrete inputs; returns (outputs, stats)."""
        if self.tracer.enabled:
            with self.tracer.span("engine:legacy_run") as span:
                results, stats = self._run(inputs, self.tracer)
                span.set(kernels_launched=stats.kernels_launched)
            return results, stats
        return self._run(inputs, self.tracer)

    def _run(self, inputs: Mapping[str, np.ndarray], tracer
             ) -> tuple[list, RunStats]:
        executable = self.executable
        options = self.options
        dims = bind_inputs(executable.params, inputs)
        resolve_all_dims(executable.graph.nodes, dims)
        stats = RunStats(cache_hit=True)

        env: dict[int, np.ndarray] = {}
        for param in executable.params:
            env[param.id] = np.ascontiguousarray(
                inputs[param.attrs["param_name"]])
        for node, value in executable.constants.items():
            env[node.id] = value

        forced = (schedule_named(options.fixed_schedule)
                  if options.fixed_schedule is not None else None)
        traced = tracer.enabled
        for kernel in executable.kernels:
            if traced:
                span = tracer.begin(f"kernel:{kernel.name}")
            args = [env[n.id] for n in kernel.input_nodes]
            outputs = kernel.execute(args, dims)
            for node, value in zip(kernel.output_nodes, outputs):
                env[node.id] = value
            before = stats.kernels_launched
            schedule = _pick_schedule(kernel, dims, stats, forced, None)
            charge_kernel(kernel, dims, stats, self.device,
                          options.base_efficiency, schedule,
                          host_placement=options.host_placement_enabled)
            if traced:
                tracer.end(span,
                           launches=stats.kernels_launched - before)

        stats.host_time_us += (options.dispatch_us_per_kernel
                               * stats.kernels_launched)
        if executable.buffer_plan is not None:
            stats.details["memory"] = executable.buffer_plan.evaluate(dims)
        results = [env[out.id] for out in executable.outputs]
        return results, stats
