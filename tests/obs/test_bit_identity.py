"""Tracing must be a pure observer: bit-identical outputs and stats.

The hypothesis property runs the same inputs through an untraced engine
pair and a ``CapturingTracer``-instrumented pair (record + replay on
both sides) and demands byte-equal outputs and dataclass-equal
``RunStats``.  The zoo and the regression corpus replay the same
property deterministically; the corpus replay also goes through the
fuzzer's OBS oracle so this suite and ``python -m repro.fuzz --obs``
cannot drift apart.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import CompileOptions, compile_graph
from repro.device import A10
from repro.fuzz import DifferentialOracle, load_case
from repro.fuzz.corpus import iter_corpus
from repro.models import build_model
from repro.obs import CapturingTracer, trace_failures
from repro.runtime import ExecutionEngine

from ..conftest import toy_mlp_inputs

CORPUS_DIR = Path(__file__).parent.parent / "regressions" / "corpus"

ZOO = {
    "bert": {"layers": 1, "hidden": 64, "heads": 2, "vocab": 128},
    "crnn": {"channels": 16, "charset": 32},
    "dien": {"items": 256, "embed_dim": 16},
}


def assert_identical_runs(executable, inputs_list) -> None:
    """Run traced and untraced engines in lockstep; demand identity."""
    plain = ExecutionEngine(executable, A10)
    tracer = CapturingTracer()
    traced = ExecutionEngine(executable, A10, tracer=tracer)
    for inputs in inputs_list:
        expected_outs, expected = plain.run(inputs)
        actual_outs, actual = traced.run(inputs)
        assert actual == expected          # RunStats dataclass equality
        assert len(actual_outs) == len(expected_outs)
        for e, a in zip(expected_outs, actual_outs):
            assert e.dtype == a.dtype and e.shape == a.shape
            assert e.tobytes() == a.tobytes()
    assert trace_failures(tracer, pass_names=[]) == []


@given(batch=st.integers(min_value=1, max_value=6),
       seq=st.integers(min_value=1, max_value=9),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_property_tracing_never_changes_results(toy_exe, batch, seq,
                                                seed):
    rng = np.random.default_rng(seed)
    inputs = toy_mlp_inputs(rng, batch, seq)
    # same signature twice: the identity must hold on the record path
    # AND the replay path.
    assert_identical_runs(toy_exe, [inputs, inputs])


@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_models_bit_identical_under_tracing(name):
    model = build_model(name, **ZOO[name])
    rng = np.random.default_rng(7)
    executable = compile_graph(model.graph)
    inputs = model.sample_inputs(rng)
    assert_identical_runs(executable, [inputs, inputs])


@pytest.mark.parametrize("name", sorted(ZOO))
def test_compiling_under_a_tracer_is_equivalent(name):
    """The *compile* must be a pure observer too: an executable built
    with a tracer attached behaves identically to one built without."""
    model = build_model(name, **ZOO[name])
    rng = np.random.default_rng(11)
    inputs = model.sample_inputs(rng)
    plain_exe = compile_graph(model.graph)
    traced_exe = compile_graph(model.graph,
                               CompileOptions(tracer=CapturingTracer()))
    expected_outs, expected = ExecutionEngine(plain_exe, A10).run(inputs)
    actual_outs, actual = ExecutionEngine(traced_exe, A10).run(inputs)
    assert actual == expected
    for e, a in zip(expected_outs, actual_outs):
        assert e.tobytes() == a.tobytes()


CASES = iter_corpus(CORPUS_DIR)


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_corpus_replays_through_the_obs_oracle(path):
    """Every regression case passes the fuzzer's trace oracle: traced
    vs untraced bit-identity plus the trace invariants."""
    graph, bindings, meta = load_case(path)
    oracle = DifferentialOracle(legs=("obs",))
    result = oracle.check_case(graph, bindings,
                               input_seed=int(meta.get("input_seed", 0)))
    assert result.ok, "; ".join(str(f) for f in result.failures)
