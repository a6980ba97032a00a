"""The interpreter fallback path of the serving runtime.

While a signature's launch plan is still compiling in the background —
or forever, if its compiles are quarantined — requests are answered by
interpreting the compiled executable's optimized graph.  Two properties
make that a *serving* path rather than a debugging crutch:

- **bit-identical outputs.**  The fallback interprets the same optimized
  graph the engine's kernels were generated from, with derived symbols
  pre-resolved and the interpreter's ``kernel_layout`` mode matching
  codegen's materialisation decisions; a request cannot observe which
  path served it (the property suite and the serving fuzz oracle enforce
  exact equality against a direct :class:`ExecutionEngine` run).
- **the eager baseline's cost.**  The simulated latency of a fallback
  call is exactly what the PyTorch baseline charges for the same graph:
  one un-fused kernel per op, each launch serialized behind a host
  dispatch (``max(kernel_time, dispatch)``).  That keeps E16 honest —
  the fallback is *slower* than the compiled path by construction, and
  the benefit of background compilation is the measured difference.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..baselines.executor import SimulatedBaseline
from ..baselines.systems import PYTORCH
from ..device.counters import RunStats
from ..device.profiles import DeviceProfile
from ..interp import Interpreter
from ..runtime.executable import Executable
from ..runtime.hostprog import host_program_of

__all__ = ["InterpreterFallback"]


class InterpreterFallback:
    """Serves an executable's requests through the interpreter.

    Construction is cheap relative to a compile: besides the interpreter
    it builds the PyTorch baseline over the optimized graph purely for
    *costing* (its un-fused kernels never execute data; :meth:`run`
    computes outputs through the interpreter and charges latency through
    :meth:`SimulatedBaseline.charge`).
    """

    def __init__(self, executable: Executable,
                 device: DeviceProfile) -> None:
        self.executable = executable
        self.device = device
        self._program = host_program_of(executable)
        self._interp = Interpreter(executable.graph, check_shapes=False,
                                   kernel_layout=True)
        self._eager = SimulatedBaseline(executable.graph, device, PYTORCH)

    def run(self, inputs: Mapping[str, np.ndarray]
            ) -> tuple[list, RunStats]:
        """Interpret one request; returns (outputs, eager-cost stats)."""
        dims = self._program.bind(inputs)
        outputs = self._interp.run(inputs, bindings=dims)
        return outputs, self._eager.charge(dims)
