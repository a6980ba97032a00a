"""Harness internals: bench model configs, trace builders, CLI."""

from pathlib import Path

import numpy as np
import pytest

from repro.bench import BENCH_MODELS, bench_queries
from repro.bench.experiments import _bench_model, _k_distinct_trace
from repro.models import MODEL_BUILDERS


def test_bench_models_cover_the_zoo():
    assert set(BENCH_MODELS) == set(MODEL_BUILDERS)


def test_bench_models_buildable():
    model = _bench_model("dien")
    assert model.name == "dien"


def test_bench_queries_env(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_QUERIES", raising=False)
    assert bench_queries(30) == 30
    monkeypatch.setenv("REPRO_BENCH_QUERIES", "7")
    assert bench_queries(30) == 7


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


def test_cli_runs_one_experiment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    from repro.bench.__main__ import main
    assert main(["e9", "--device", "A10"]) == 0
    assert (tmp_path / "e9_schedule_selection.txt").exists()


def test_cli_rejects_unknown(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    from repro.bench.__main__ import main
    with pytest.raises(SystemExit):
        main(["e99"])


def test_cli_artifact_names_are_the_checked_in_ones():
    """Every CLI experiment writes under a name ``benchmarks/results/``
    already holds, so a CLI run regenerates (never forks) an artifact."""
    from repro.bench.__main__ import EXPERIMENTS
    results = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
    missing = [f"{exp_id}_{name}" for exp_id, (_, _, name)
               in EXPERIMENTS.items()
               if not (results / f"{exp_id}_{name}.json").exists()]
    assert missing == []
