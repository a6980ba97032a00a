"""Adaptive shape specialisation on top of the shape-generic executable.

BladeDISC's runtime keeps the shape-generic executable as the always-
available fallback and can *speculatively* compile shape-specialised
kernels for signatures that turn out to be hot, picking up the last few
percent a static compiler would get — without ever stalling a request on
compilation (specialisation happens off the critical path) and without the
cold-shape cliff of a per-signature JIT.

:class:`AdaptiveEngine` wraps two :class:`ExecutionEngine` instances
(generic and specialised efficiency) over one shared
:class:`~repro.runtime.launchplan.LaunchPlanCache`: the cache owns all
signature accounting — call counts, hit/miss/eviction statistics, hot
signatures — so the specialiser no longer keeps a parallel count dict,
and E12 reports the unified numbers.  Once a signature has been seen
``threshold`` times a specialisation is "built" (charging the simulated
compile cost in the background) and subsequent calls of that signature
are served at the specialised efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from ..device.compilecost import compile_cost_us
from ..device.counters import RunStats
from ..device.profiles import DeviceProfile
from .engine import EngineOptions, ExecutionEngine
from .executable import Executable
from .launchplan import LaunchPlanCache

__all__ = ["SpecializationOptions", "AdaptiveEngine"]


@dataclass
class SpecializationOptions:
    """Knobs of the speculative specialiser."""

    #: calls of one signature before a specialisation is built.
    threshold: int = 3
    #: codegen quality of a shape-specialised kernel set (static-compiler
    #: grade, above the generic executable's 0.95).
    specialized_efficiency: float = 1.05
    #: simulated cost grade of one background specialisation build.
    compile_grade: str = "tracing_jit"
    #: build specialisations off the critical path (no request stall)?
    background: bool = True
    #: cap on live specialisations (memory for compiled artifacts).
    max_specializations: int = 32
    #: bound on frozen launch plans across both engine variants.
    plan_capacity: int | None = 128


class AdaptiveEngine:
    """Generic executable + hot-shape specialisations."""

    def __init__(self, executable: Executable, device: DeviceProfile,
                 options: SpecializationOptions | None = None,
                 engine_options: EngineOptions | None = None) -> None:
        self.executable = executable
        self.device = device
        self.options = options or SpecializationOptions()
        #: one cache for both variants: plans keyed by (tag, signature),
        #: signature statistics shared.
        self.plans = LaunchPlanCache(self.options.plan_capacity)
        base = engine_options or EngineOptions()
        self._generic = ExecutionEngine(executable, device, base,
                                        plan_cache=self.plans,
                                        plan_tag="generic")
        specialized = replace(
            base, base_efficiency=self.options.specialized_efficiency)
        self._specialized = ExecutionEngine(executable, device,
                                            specialized,
                                            plan_cache=self.plans,
                                            plan_tag="specialized")
        self._signature = self._generic.host_program.signature
        self._live: set = set()
        self.specializations_built = 0
        self.background_compile_us = 0.0

    def run(self, inputs: Mapping[str, np.ndarray]
            ) -> tuple[list, RunStats]:
        signature = self._signature(inputs)
        count = self.plans.note(signature)

        hit = signature in self._live
        should_build = (not hit
                        and count >= self.options.threshold
                        and len(self._live)
                        < self.options.max_specializations)
        stall_us = 0.0
        if should_build:
            cost = compile_cost_us(len(self.executable.graph.nodes),
                                   self.options.compile_grade)
            self._live.add(signature)
            self.specializations_built += 1
            if self.options.background:
                # built concurrently; this request still runs generic
                self.background_compile_us += cost
            else:
                stall_us = cost
                hit = True

        engine = self._specialized if hit else self._generic
        outputs, stats = engine.run(inputs, signature=signature)
        stats.compile_time_us += stall_us
        stats.details["specialized"] = hit
        return outputs, stats

    def run_trace(self, trace):
        """Serve a trace; mirrors :meth:`Executor.run_trace`."""
        from ..device.counters import Timeline
        timeline = Timeline()
        for inputs in trace:
            __, stats = self.run(inputs)
            timeline.record(stats)
        return timeline

    def stats(self) -> dict:
        cache = self.plans.stats()
        return {
            "signatures_seen": cache["signatures_seen"],
            "specializations": self.specializations_built,
            "background_compile_us": self.background_compile_us,
            "launch_plans": cache,
            "hot_signatures": self.plans.hot_signatures(),
        }
