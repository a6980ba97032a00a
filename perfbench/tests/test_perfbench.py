"""Proof that the benchmark measures what it claims.

Run from the repository root (takes a few minutes):

    python3 -m pytest perfbench/tests -q

- each injected busy-wait raises its layer's per-layer metric by about
  the injected amount and lowers ``ops_per_s`` on the workload that
  exercises the layer, while the workload that bypasses the layer stays
  within the ``ops_per_s`` bound and no ``sim_*`` metric moves;
- compiling without fusion makes the fusion outcome worse;
- equal seeds give equal simulated results, compile counts and fleet
  transcripts (through the first-pass digest);
- ``BENCHMARK.json`` names exactly the metrics a run reports;
- without the program source the benchmark fails before any result.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro import CompileOptions, DiscCompiler, ExecutionEngine  # noqa: E402
from repro import FusionConfig  # noqa: E402
from repro.serving import InterpreterFallback  # noqa: E402

from perfbench.measure import END_TO_END, PER_LAYER, measure  # noqa: E402
from perfbench.harness import now  # noqa: E402

SEED = 0
#: long enough for one complete pass of each half of a traced run.
SECONDS = {"compile-zoo": 6.0, "serve-batched": 6.0}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _bound(metric: str) -> float:
    return next(m["bound"] for m in _spec()["end_to_end"]
                if m["name"] == metric)


@contextlib.contextmanager
def busy_wait(owner, name: str, delay_s: float):
    """Make every call of ``owner.name`` spin ``delay_s`` seconds first."""
    original = owner.__dict__[name]

    def slowed(self, *args, **kwargs):
        until = now() + delay_s
        while now() < until:
            pass
        return original(self, *args, **kwargs)

    setattr(owner, name, slowed)
    try:
        yield
    finally:
        setattr(owner, name, original)


_BASELINES: dict = {}


def run(workload: str, **kwargs):
    report = measure(workload, SEED, SECONDS[workload], trace=True,
                     setup_repeats=1, **kwargs)
    assert report.correct, report.failures[:5]
    return report


def baseline(workload: str):
    if workload not in _BASELINES:
        _BASELINES[workload] = run(workload)
    return _BASELINES[workload]


@pytest.mark.parametrize("owner, method, delay_s, metric, scale, "
                         "exercised, bypassed", [
    (DiscCompiler, "compile", 0.15, "core.compile_ms", 1e3,
     "compile-zoo", "serve-batched"),
    (ExecutionEngine, "run_batched", 0.03, "batching.run_batched_us",
     1e6, "serve-batched", "compile-zoo"),
    (InterpreterFallback, "run", 0.2, "device.eager_cost_us", 1e6,
     "compile-zoo", "serve-batched"),
])
def test_injected_delay_moves_its_layer_only(owner, method, delay_s,
                                             metric, scale, exercised,
                                             bypassed):
    before = baseline(exercised)
    with busy_wait(owner, method, delay_s):
        slowed = run(exercised)
        bypassing = run(bypassed)

    rise = slowed.metrics[metric] - before.metrics[metric]
    assert rise == pytest.approx(delay_s * scale, rel=0.35), (metric, rise)
    assert slowed.detail["ops_per_s"] < 0.9 * before.detail["ops_per_s"]
    assert slowed.detail["sim"] == before.detail["sim"]

    steady = baseline(bypassed)
    change = (bypassing.detail["ops_per_s"] / steady.detail["ops_per_s"]
              - 1.0)
    assert abs(change) <= _bound("ops_per_s"), change
    assert bypassing.detail["sim"] == steady.detail["sim"]


def test_no_fusion_worsens_the_fusion_outcome():
    fused = measure("compile-zoo", SEED, 3.0, setup_repeats=1)
    unfused = measure("compile-zoo", SEED, 3.0, setup_repeats=1,
                      compile_options=CompileOptions(
                          fusion=FusionConfig.none()))
    assert fused.correct and unfused.correct
    for name in ("sim_launches_per_op", "sim_service_us_per_op"):
        assert unfused.metrics[name] > fused.metrics[name], name
    assert unfused.metrics["sim_speedup_vs_pytorch"] \
        < fused.metrics["sim_speedup_vs_pytorch"]


def test_equal_seeds_give_equal_results():
    first = baseline("serve-batched")
    again = run("serve-batched")
    assert again.detail["digest"] == first.detail["digest"]
    assert again.detail["sim"] == first.detail["sim"]
    for name in ("core.nodes", "core.kernels", "batching.batches",
                 "fleet.affinity_hit_ratio", "serving.fast_ratio"):
        assert again.metrics[name] == first.metrics[name], name
    # Every request replays a plan recorded in setup.
    assert first.metrics["serving.fast_ratio"] == 1.0


def test_benchmark_json_names_the_reported_metrics():
    spec = _spec()
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert [w["name"] for w in spec["workloads"]] == [
        "compile-zoo", "serve-batched"]


def test_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile-zoo",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
