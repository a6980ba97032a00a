"""Measurement helpers shared by the workloads.

Everything here is benchmark-side: order statistics, the record of one
timed phase, the simulated-clock summary of a workload's first pass,
output checking against independent references, and run provenance.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.fuzz.oracle import compare_arrays

now = time.perf_counter

MIB = float(1 << 20)


def median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2.0


def nearest_rank(values, q: float) -> float:
    """The ``q``-th percentile by nearest rank (an observed sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_outputs(outputs, reference, dtype_names) -> str | None:
    """None when every output matches its reference, else the reason."""
    if outputs is None:
        return "no outputs"
    if len(outputs) != len(reference):
        return f"{len(outputs)} outputs, reference has {len(reference)}"
    for index, (ref, got, dtype) in enumerate(
            zip(reference, outputs, dtype_names)):
        problem = compare_arrays(np.asarray(ref), np.asarray(got), dtype)
        if problem is not None:
            return f"output {index}: {problem}"
    return None


def output_dtypes(graph) -> list:
    return [node.dtype.name for node in graph.outputs]


@dataclass
class SimRecord:
    """One attempted op of a workload's first pass, on the virtual clock."""

    ok: bool
    latency_us: float
    service_us: float = 0.0
    launches: float = 0.0
    peak_bytes: int | None = None


class SpeedProbe:
    """Tracks how fast the machine runs, to take its drift out of timings.

    The probe is a fixed mix of interpreter work and small-array numpy
    work, like the program's own, and does not touch the program.  On a
    shared machine the same code ran 1.6 times slower for tens of
    seconds at a time; the probe, timed right after each measured
    interval, slowed down with it.  :meth:`factor` converts that
    interval's wall time to the time it takes when the probe takes
    ``REFERENCE_S``, so a change to the program still moves every
    normalised time, while machine drift does not.
    """

    REFERENCE_S = 1.0e-3

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((48, 48)).astype(np.float32)
        self._b = rng.standard_normal((48, 48)).astype(np.float32)

    def _once(self) -> float:
        start = now()
        total, table = 0, {}
        for i in range(2000):
            total += i * i
            table[i & 63] = total
        y = self._a
        for _ in range(30):
            y = np.tanh(y @ self._b) + self._a.sum(axis=0)
        return now() - start

    def factor(self) -> float:
        """Reference time over the probe's current time (best of 3)."""
        return self.REFERENCE_S / min(self._once() for _ in range(3))


@dataclass
class Timed:
    """What one timed phase did on the real clock.

    The phase is measured in windows (one op on compile-zoo, a slice of
    virtual time on the serving workloads); each window's wall time is
    normalised by the :class:`SpeedProbe` timed right after it.
    """

    #: total wall of the timed phase.
    wall_s: float = 0.0
    #: the same, at the probe's reference speed.
    normalised_s: float = 0.0
    #: ops whose outcome is known (answered, failed or refused).
    attempted: int = 0
    ok: int = 0
    #: one ``"<op>: <reason>"`` line per failed op.
    failures: list = field(default_factory=list)
    #: complete passes over the workload's input schedule.
    passes: int = 0
    probe: SpeedProbe = field(default_factory=SpeedProbe, repr=False)

    def fail(self, op, reason: str) -> None:
        self.failures.append(f"{op}: {reason}")

    def note_window(self, wall_s: float) -> float:
        """Account one window; returns its normalisation factor."""
        factor = self.probe.factor()
        self.wall_s += wall_s
        self.normalised_s += wall_s * factor
        return factor

    @property
    def ops_per_s(self) -> float:
        """OK ops per second at the probe's reference speed."""
        return self.ok / self.normalised_s if self.normalised_s else 0.0

    @property
    def raw_ops_per_s(self) -> float:
        return self.ok / self.wall_s if self.wall_s else 0.0


def sim_summary(records: list, slo_us: float) -> dict:
    """The simulated-clock end-to-end metrics of one pass."""
    good = [r for r in records if r.ok]
    latencies = [r.latency_us for r in good]
    peaks = [r.peak_bytes for r in good if r.peak_bytes is not None]
    return {
        "sim_latency_us.p50": nearest_rank(latencies, 50),
        "sim_latency_us.p99": nearest_rank(latencies, 99),
        "slo_ok_ratio": (sum(1 for r in good if r.latency_us <= slo_us)
                         / len(records)) if records else 0.0,
        "sim_service_us_per_op": mean(r.service_us for r in good),
        "sim_launches_per_op": mean(r.launches for r in good),
        "sim_peak_mb": (max(peaks) / MIB) if peaks else 0.0,
    }


def beyond_p99(count: int) -> int:
    """Samples strictly above the nearest-rank p99 of ``count`` samples."""
    return count - max(1, math.ceil(0.99 * count)) if count else 0


def _git_commit(root: str) -> str:
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown (not a git checkout)"
    return lines[1]


def provenance(root: str, workload: str, seed: int, seconds: float,
               trace: bool, blas_vars) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": {var: os.environ.get(var)
                         for var in blas_vars},
        "argv": sys.argv[1:],
    }
