"""Differential compiler fuzzing for the DISC pipeline.

The paper's claim is that one compiled artifact stays correct for *every*
shape.  This package cross-checks that claim systematically rather than by
hand-built cases:

- :mod:`generator` — a seeded random graph generator drawing from the
  ``repro.ir.ops`` registry; every emitted graph is well-formed (built
  through :class:`~repro.ir.builder.GraphBuilder`, so shape inference has
  already accepted it) and carries symbolic dims.
- :mod:`sampler` — binds the free symbols of a graph to adversarial edge
  values (1, 2, primes, large, equal-vs-unequal) and synthesizes the
  concrete input arrays.
- :mod:`oracle` — runs one (graph, binding) case through the optimizing
  pipeline + runtime engine and through all seven simulated baselines,
  comparing numerics against the reference interpreter with dtype-aware
  tolerances, and asserting pipeline invariants along the way; optional
  legs (``oracle.LEGS``: serving, batching, tuning, fleet, memplan, obs)
  replay the case through further subsystems, each under its own
  contract.
- :mod:`minimizer` — delta-debugging shrinker that reduces a failing graph
  to a minimal repro while a predicate keeps holding.
- :mod:`faults` — deliberate fault injection (corrupted kernels, corrupted
  op semantics) used to validate that the oracle and minimizer actually
  catch and shrink miscompiles.
- :mod:`corpus` — (graph, bindings) case serialisation via ``ir.serde``;
  minimized repros are checked into ``tests/regressions/corpus``.
- :mod:`runner` / ``__main__`` — the campaign driver behind
  ``python -m repro.fuzz --seed N --iters K``.
"""

from .corpus import load_case, save_case
from .faults import CompileFaultInjector, CorruptedInterpreter, \
    TunerFaultError, TunerFaultInjector, corrupt_kernel
from .generator import GeneratorConfig, generate_graph
from .minimizer import MinimizeResult, minimize
from .oracle import CaseResult, DifferentialOracle, Failure, make_inputs
from .runner import FuzzReport, run_campaign
from .sampler import binding_suite, free_symbols, sample_bindings

__all__ = [
    "GeneratorConfig",
    "generate_graph",
    "free_symbols",
    "sample_bindings",
    "binding_suite",
    "make_inputs",
    "DifferentialOracle",
    "CaseResult",
    "Failure",
    "minimize",
    "MinimizeResult",
    "corrupt_kernel",
    "CorruptedInterpreter",
    "CompileFaultInjector",
    "TunerFaultError",
    "TunerFaultInjector",
    "save_case",
    "load_case",
    "run_campaign",
    "FuzzReport",
]
