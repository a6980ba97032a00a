"""The simulated-baseline executor framework.

Each baseline system is described declaratively by a :class:`BaselineSpec`:
how it prepares the graph (does it decompose composites?), what fusion it is
capable of, how efficient its kernels are, how it dispatches work, and —
decisive under dynamic shapes — its *compilation policy*: never, once,
per shape signature, or per padded bucket.

:class:`SimulatedBaseline` interprets a spec: it reuses the repo's own
fusion planner and kernel compiler (with the spec's restricted config) so
that numerics are identical across systems, while the spec's cost knobs
steer the simulated time.  Padding systems execute real shapes but are
*charged* for the padded ones, exactly like a real padded engine wastes
compute on filler rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ..core.codegen.kernels import compile_group
from ..core.fusion.kinds import FusionConfig
from ..core.fusion.planner import plan_fusion
from ..core.symbolic import ConstraintLevel, analyze_shapes
from ..device.compilecost import compile_cost_us
from ..device.counters import RunStats
from ..device.profiles import DeviceProfile
from ..ir.graph import Graph
from ..numerics.resolve import bind_inputs, resolve_all_dims
from ..passes import (AlgebraicSimplify, CommonSubexpressionElimination,
                      ConstantFold, DeadCodeElimination, LowerComposites,
                      PassManager, PlaceShapeComputations)
from ..runtime.caches import shape_signature
from ..runtime.engine import charge_kernel
from .base import Executor

__all__ = ["BaselineSpec", "SimulatedBaseline", "pow2_bucket"]


def pow2_bucket(value: int) -> int:
    """Pad a dynamic extent up to the next power of two (min 1)."""
    if value <= 1:
        return 1
    return 1 << math.ceil(math.log2(value))


@dataclass
class BaselineSpec:
    """Declarative model of one baseline system's dynamic-shape strategy."""

    name: str
    #: decompose composites (compiler stacks) or keep them as fused
    #: library kernels (framework stacks / pattern fusers)?
    lower_composites: bool
    #: symbolic constraint strength available to its fuser.
    constraint_level: ConstraintLevel
    #: fusion capability.
    fusion: FusionConfig
    #: kernel quality relative to peak codegen.
    base_efficiency: float
    #: host cost to issue one kernel.
    dispatch_us: float
    #: eager frameworks serialise dispatch with execution per op; compiled
    #: runtimes pipeline dispatch.
    eager_dispatch: bool
    #: simulated compile-cost grade, or None if the system never compiles.
    compile_grade: str | None
    #: "none" | "once" | "per_signature" | "per_bucket"
    compile_policy: str = "none"
    #: per-call host overhead (e.g. Inductor guard evaluation).
    guard_overhead_us: float = 0.0
    #: dynamic-extent padding function for bucketed static systems.
    bucket: Callable[[int], int] | None = None
    #: run generic graph cleanups (simplify/CSE/DCE) during preparation.
    optimize_graph: bool = True
    extra: dict = field(default_factory=dict)


class SimulatedBaseline(Executor):
    """Executes a graph the way ``spec``'s system would."""

    def __init__(self, graph: Graph, device: DeviceProfile,
                 spec: BaselineSpec) -> None:
        super().__init__(graph, device)
        self.spec = spec
        self.name = spec.name
        self._prepare()

    # -- preparation (structural compilation, shared by all shapes) -------

    def _prepare(self) -> None:
        spec = self.spec
        working = self.graph.clone()
        passes = []
        if spec.lower_composites:
            passes.append(LowerComposites())
        if spec.optimize_graph:
            passes.extend([
                AlgebraicSimplify(), ConstantFold(),
                CommonSubexpressionElimination(), DeadCodeElimination(),
                PlaceShapeComputations(),
            ])
        if passes:
            PassManager(passes).run(working)
        analysis = analyze_shapes(working, spec.constraint_level)
        plan = plan_fusion(working, analysis, spec.fusion)
        users = working.users()
        self.working = working
        self.plan = plan
        self.kernels = [compile_group(group, users, working.outputs)
                        for group in plan.ordered_groups()]
        self.constants = {
            node: node.attrs["value"].astype(node.dtype.to_numpy(),
                                             copy=False)
            for node in working.nodes if node.op == "constant"}
        #: compiled keys (signatures, buckets, or ``()`` for "once").
        self._compiled: set = set()

    # -- serving ----------------------------------------------------------

    def run(self, inputs: Mapping[str, np.ndarray]
            ) -> tuple[list, RunStats]:
        stats = RunStats(cache_hit=True)
        dims = bind_inputs(self.working.params, inputs)
        resolve_all_dims(self.working.nodes, dims)

        self._charge_compilation(inputs, self._cost_dims(dims), stats)
        stats.host_time_us += self.spec.guard_overhead_us

        env: dict[int, np.ndarray] = {}
        for param in self.working.params:
            env[param.id] = np.ascontiguousarray(
                inputs[param.attrs["param_name"]])
        for node, value in self.constants.items():
            env[node.id] = value

        for kernel in self.kernels:
            args = [env[n.id] for n in kernel.input_nodes]
            outputs = kernel.execute(args, dims)
            for node, value in zip(kernel.output_nodes, outputs):
                env[node.id] = value

        results = [env[out.id] for out in self.working.outputs]
        return results, self.charge(dims, stats)

    # -- cost policy ---------------------------------------------------------

    def charge(self, dims: dict, stats: RunStats | None = None) -> RunStats:
        """Price one call's launches at ``dims`` into ``stats`` (fresh if
        None) — no data, compile or guard charge.  :meth:`run` charges
        here after executing; the serving fallback prices through the
        PyTorch spec here."""
        spec = self.spec
        if stats is None:
            stats = RunStats(cache_hit=True)
        cost_dims = self._cost_dims(dims)
        eager_us = spec.dispatch_us if spec.eager_dispatch else None
        for kernel in self.kernels:
            schedule = kernel.select_schedule(cost_dims)
            cost = charge_kernel(kernel, cost_dims, stats, self.device,
                                 spec.base_efficiency, schedule,
                                 dispatch_us=eager_us)
            if cost is not None and spec.bucket is not None:
                real = kernel.cost_spec(dims, schedule, spec.base_efficiency)
                stats.padding_waste_bytes += max(
                    0, cost.bytes_total - real.bytes_total)
        if not spec.eager_dispatch:
            stats.host_time_us += spec.dispatch_us * stats.kernels_launched
        return stats

    def _cost_dims(self, dims: dict) -> dict:
        """The dim bindings the system is *charged* for (padded if bucketed)."""
        if self.spec.bucket is None:
            return dims
        return {name: self.spec.bucket(value)
                for name, value in dims.items()}

    def _charge_compilation(self, inputs: Mapping, cost_dims: dict,
                            stats: RunStats) -> None:
        spec = self.spec
        if spec.compile_policy == "none" or spec.compile_grade is None:
            return
        if spec.compile_policy == "once":
            key = ()
        elif spec.compile_policy == "per_signature":
            key = shape_signature(inputs)
        elif spec.compile_policy == "per_bucket":
            key = tuple(sorted(cost_dims.items()))
        else:
            raise ValueError(
                f"unknown compile policy {spec.compile_policy!r}")
        if key not in self._compiled:
            self._compiled.add(key)
            stats.compile_time_us += compile_cost_us(
                len(self.working.nodes), spec.compile_grade)
            stats.cache_hit = False
