"""Adaptive shape specialisation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import compile_graph
from repro.device import A10
from repro.runtime import (AdaptiveEngine, EngineOptions,
                           SpecializationOptions)

from ..conftest import toy_mlp_graph, toy_mlp_inputs


@pytest.fixture(scope="module")
def executable():
    return compile_graph(toy_mlp_graph().graph)


def test_threshold_triggers_specialization(executable, rng):
    engine = AdaptiveEngine(executable, A10,
                            SpecializationOptions(threshold=3))
    inputs = toy_mlp_inputs(rng, 2, 5)
    outcomes = []
    for _ in range(5):
        __, stats = engine.run(inputs)
        outcomes.append(stats.details["specialized"])
    # calls 1, 2 generic; call 3 builds in background (still generic);
    # calls 4, 5 specialised
    assert outcomes == [False, False, False, True, True]
    assert engine.specializations_built == 1
    assert engine.background_compile_us > 0


def test_background_build_never_stalls(executable, rng):
    engine = AdaptiveEngine(executable, A10,
                            SpecializationOptions(threshold=1))
    inputs = toy_mlp_inputs(rng, 2, 5)
    for _ in range(3):
        __, stats = engine.run(inputs)
        assert stats.compile_time_us == 0


def test_foreground_build_stalls_once(executable, rng):
    engine = AdaptiveEngine(executable, A10, SpecializationOptions(
        threshold=1, background=False))
    inputs = toy_mlp_inputs(rng, 2, 5)
    __, first = engine.run(inputs)
    __, second = engine.run(inputs)
    assert first.compile_time_us > 0
    assert first.details["specialized"]  # served specialised immediately
    assert second.compile_time_us == 0


def test_specialized_calls_are_faster(executable, rng):
    engine = AdaptiveEngine(executable, A10,
                            SpecializationOptions(threshold=1))
    inputs = toy_mlp_inputs(rng, 4, 16)
    __, generic = engine.run(inputs)        # builds in background
    __, special = engine.run(inputs)        # served specialised
    assert special.details["specialized"]
    assert special.device_time_us < generic.device_time_us


def test_distinct_shapes_tracked_separately(executable, rng):
    engine = AdaptiveEngine(executable, A10,
                            SpecializationOptions(threshold=2))
    a = toy_mlp_inputs(rng, 2, 5)
    b = toy_mlp_inputs(rng, 3, 7)
    engine.run(a)
    engine.run(b)
    __, stats_a = engine.run(a)  # second 'a': builds, still generic
    assert not stats_a.details["specialized"]
    __, stats_a2 = engine.run(a)
    assert stats_a2.details["specialized"]
    __, stats_b = engine.run(b)  # b at 2nd call: builds now
    assert not stats_b.details["specialized"]
    assert engine.stats()["signatures_seen"] == 2


def test_max_specializations_cap(executable, rng):
    engine = AdaptiveEngine(executable, A10, SpecializationOptions(
        threshold=1, max_specializations=1))
    engine.run(toy_mlp_inputs(rng, 2, 5))
    engine.run(toy_mlp_inputs(rng, 3, 7))
    engine.run(toy_mlp_inputs(rng, 4, 9))
    assert engine.specializations_built == 1


def test_stats_unify_launch_plan_accounting(executable, rng):
    """Signature counting lives in the shared launch-plan cache."""
    engine = AdaptiveEngine(executable, A10,
                            SpecializationOptions(threshold=2))
    inputs = toy_mlp_inputs(rng, 2, 5)
    for _ in range(4):
        engine.run(inputs)
    stats = engine.stats()
    assert stats["signatures_seen"] == 1
    assert engine.plans.seen(engine._signature(inputs)) == 4
    assert stats["hot_signatures"][0][1] == 4
    plans = stats["launch_plans"]
    # generic records once, replays once; the specialised variant records
    # its own plan under a distinct tag and replays it thereafter
    assert plans["misses"] == 2
    assert plans["hits"] == 2
    assert plans["entries"] == 2


def test_generic_and_specialized_plans_never_collide(executable, rng):
    engine = AdaptiveEngine(executable, A10, SpecializationOptions(
        threshold=1, background=False))
    inputs = toy_mlp_inputs(rng, 3, 4)
    __, first = engine.run(inputs)   # specialised immediately (stalls)
    __, again = engine.run(inputs)   # replayed from the specialised plan
    assert first.details["specialized"] and again.details["specialized"]
    assert again.device_time_us == first.device_time_us
    sig = engine._signature(inputs)
    assert engine._specialized.peek_plan(sig) is not None
    assert engine._generic.peek_plan(sig) is None


def test_numerics_unchanged_by_specialization(executable, rng):
    from repro.interp import evaluate
    engine = AdaptiveEngine(executable, A10,
                            SpecializationOptions(threshold=1))
    inputs = toy_mlp_inputs(rng, 3, 6)
    (first,), __ = engine.run(inputs)
    (second,), stats = engine.run(inputs)
    assert stats.details["specialized"]
    assert np.allclose(first, second)
    (reference,) = evaluate(executable.graph, inputs)
    assert np.allclose(second, reference, atol=1e-5)


def test_specialized_engine_keeps_every_base_option(executable):
    """Only the efficiency differs between the two variants; every other
    engine knob the caller set carries over to the specialised engine."""
    base = EngineOptions(dispatch_us_per_kernel=1.5,
                         fixed_schedule="two_pass",
                         host_placement_enabled=False, plan_capacity=7)
    engine = AdaptiveEngine(executable, A10, engine_options=base)
    assert engine._specialized.options == replace(
        base, base_efficiency=engine.options.specialized_efficiency)
