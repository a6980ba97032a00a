"""Wall-clock timings of the compiler's distinct hot paths.

    pytest benchmarks/ --benchmark-only

A warm BladeDISC bert query (launch-plan replay), a bert compile (the
pipeline E6 tabulates) and E9's softmax engine call.  The paper
experiments themselves, with their artifacts and acceptance checks, run
through ``python -m repro.bench``.
"""

import numpy as np

from repro.core import DiscCompiler, compile_graph
from repro.device import A10
from repro.ir import GraphBuilder, f32
from repro.runtime import ExecutionEngine


def test_bench_disc_bert_query(benchmark, bert_disc, bert_inputs):
    bert_disc.run(bert_inputs)           # warm the launch plan
    benchmark(bert_disc.run, bert_inputs)


def test_bench_compile_bert(benchmark, bert_model):
    benchmark(DiscCompiler().compile, bert_model.graph)


def test_bench_softmax_engine_run(benchmark):
    b = GraphBuilder("softmax_micro")
    x = b.parameter("x", (b.sym("rows"), b.sym("cols")), f32)
    b.outputs(b.softmax(x, axis=-1))
    engine = ExecutionEngine(compile_graph(b.graph), A10)
    data = np.random.default_rng(0).normal(
        size=(1024, 256)).astype(np.float32)
    benchmark(engine.run, {"x": data})
