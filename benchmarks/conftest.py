"""Shared fixtures for the wall-clock timings in ``bench_hot_paths.py``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import DiscExecutor
from repro.bench import BENCH_MODELS
from repro.device import A10
from repro.models import build_model


@pytest.fixture(scope="session")
def bert_model():
    return build_model("bert", **BENCH_MODELS["bert"])


@pytest.fixture(scope="session")
def bert_disc(bert_model):
    return DiscExecutor(bert_model.graph, A10)


@pytest.fixture(scope="session")
def bert_inputs(bert_model):
    rng = np.random.default_rng(0)
    return bert_model.make_inputs(rng, batch=2, seqlen=64)
