"""Bounded deterministic fuzz campaign as a regression gate.

Marked ``fuzz`` so the default tier-1 run stays fast; CI runs it
explicitly (``-m fuzz``).  25 iterations with seed 0 is the same prefix
the full acceptance campaign (``--seed 0 --iters 200``) starts with.
"""

import pytest

from repro.fuzz import DifferentialOracle, run_campaign
from repro.fuzz.oracle import LEGS

pytestmark = pytest.mark.fuzz

#: campaign length per leg; fleet and obs are the slowest legs.
_LEG_ITERS = {"fleet": 10, "obs": 10}


def test_bounded_campaign_seed0_is_clean(tmp_path):
    report = run_campaign(seed=0, iters=25, out_dir=tmp_path)
    assert report.ok, report.summary()
    assert report.cases_run == 25
    # every executor participates in every campaign
    assert len(report.executors) == 8
    # the generator's op mix shows up even in a short run
    assert len(report.ops_covered) >= 15


@pytest.mark.parametrize("leg", list(LEGS))
def test_bounded_leg_campaign_seed0_is_clean(tmp_path, leg):
    """Each oracle leg rides the same campaign and holds its contract
    (the leg's check docstring) on every case."""
    report = run_campaign(seed=0, iters=_LEG_ITERS.get(leg, 15),
                          out_dir=tmp_path,
                          oracle=DifferentialOracle(legs=(leg,)))
    assert report.ok, report.summary()
    assert leg.upper() in report.executors
