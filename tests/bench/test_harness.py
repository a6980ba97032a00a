"""Harness internals: bench model configs, trace builders, the
experiment table and its CLI."""

import copy
import dataclasses
import json
from pathlib import Path

import pytest

from repro.bench import BENCH_MODELS
from repro.bench.__main__ import EXPERIMENTS, main
from repro.bench.experiments import _bench_model, _k_distinct_trace
from repro.models import MODEL_BUILDERS


def test_bench_models_cover_the_zoo():
    assert set(BENCH_MODELS) == set(MODEL_BUILDERS)


def test_bench_models_buildable():
    model = _bench_model("dien")
    assert model.name == "dien"


def test_k_distinct_trace_counts():
    model = _bench_model("dien")
    for k in (1, 3, 5):
        trace = _k_distinct_trace(model, 20, k)
        assert len(trace) == 20
        assert trace.distinct_signatures() == k


def test_k_distinct_trace_cycles_deterministically():
    model = _bench_model("dien")
    trace = _k_distinct_trace(model, 8, 2)
    values = trace.axis_values
    assert values[0] == values[2] == values[4]
    assert values[1] == values[3]


RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def checked_in(exp_id: str) -> dict:
    path = RESULTS / f"{exp_id}_{EXPERIMENTS[exp_id].artifact}.json"
    with open(path) as handle:
        return json.load(handle)


def test_cli_runs_one_experiment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    assert main(["e11", "--quick"]) == 0
    assert (tmp_path / "quick" / "e11_memory_planning.json").exists()
    assert not (tmp_path / "e11_memory_planning.json").exists()


def test_cli_rejects_unknown(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    with pytest.raises(SystemExit):
        main(["e99"])


def test_cli_has_no_device_option(tmp_path, monkeypatch):
    """E2 and E13 are the T4 and CPU entries; no flag forks an artifact."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    with pytest.raises(SystemExit):
        main(["e3", "--device", "T4"])


def test_cli_artifact_names_are_the_checked_in_ones():
    """Every CLI experiment writes under a name ``benchmarks/results/``
    already holds, so a CLI run regenerates (never forks) an artifact."""
    missing = [f"{exp_id}_{entry.artifact}"
               for exp_id, entry in EXPERIMENTS.items()
               if not (RESULTS / f"{exp_id}_{entry.artifact}.json").exists()]
    assert missing == []


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_every_check_accepts_its_checked_in_artifact(exp_id):
    assert EXPERIMENTS[exp_id].check(checked_in(exp_id)) == []


#: per experiment: (path into the artifact, a value its check must reject)
MUTATIONS = {
    "e1": (("summary", "PyTorch", "mean"), 0.5),
    "e2": (("summary", "XLA", "mean"), 100.0),
    "e3": (("rows", 0, "kernels_per_query"), 0.0),
    "e4": (("rows", 2, "fused_ops"), -1),
    "e5": (("rows", 0, "compile_events"), 2),
    "e6": (("rows", 0, "kernels"), 0),
    "e7": (("series", "BladeDISC", -1), 1e12),
    "e8": (("rows", 0, "bytes_reduction"), 0.5),
    "e9": (("autotune", "geomean_kernel_speedup"), 1.0),
    "e10": (("placement_rows", 0, "kernels_per_query"), 1e9),
    "e11": (("diversity", 0, "worst_ratio"), 2.0),
    "e12": (("rows", 1, "stall_compiles"), 1),
    "e13": (("summary", "PyTorch", "mean"), 1.0),
    "e14": (("rows", 3, "compile_stalls"), 0),
    "e15": (("aggregate", "bit_identical"), False),
    "e16": (("rows", 2, "quarantined"), 0),
    "e17": (("throughput_gain_at_gate",), 1.0),
    "e18": (("mismatches",), 1),
}


def mutated(exp_id: str) -> dict:
    result = copy.deepcopy(checked_in(exp_id))
    path, value = MUTATIONS[exp_id]
    target = result
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return result


def test_every_experiment_has_a_mutation():
    assert set(MUTATIONS) == set(EXPERIMENTS)


@pytest.mark.parametrize("exp_id", list(MUTATIONS))
def test_check_rejects_a_mutated_artifact(exp_id):
    assert EXPERIMENTS[exp_id].check(mutated(exp_id)) != []


def test_cli_exits_1_when_a_check_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    failing = mutated("e17")
    monkeypatch.setitem(EXPERIMENTS, "e17", dataclasses.replace(
        EXPERIMENTS["e17"], run=lambda **_: failing))
    assert main(["e17", "--quick"]) == 1
    assert "FAIL: e17: batched throughput only 1.0x" in capsys.readouterr().out
    assert (tmp_path / "quick" / "e17_dynamic_batching.json").exists()
