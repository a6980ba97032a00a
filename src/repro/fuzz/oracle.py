"""The differential oracle: every executor against the interpreter.

One *case* is a (graph, dim bindings, input seed) triple.  The oracle

1. synthesizes concrete inputs for the bindings (:func:`make_inputs`);
2. evaluates the reference interpreter — the source of numerical truth;
3. compiles the graph through the full optimizing pipeline with
   per-pass IR verification, asserting the structural invariants (fusion
   plan is an acyclic total partition, buffer plan never shares a slot
   between overlapping live ranges), and runs it on the runtime engine —
   the ``DISC`` executor;
4. runs each selected *leg* of :data:`LEGS` (serving, batching, tuning,
   fleet, memplan, obs) against the DISC artifacts; a leg's contract is
   its check function's docstring, and it reports under its upper-cased
   name;
5. runs all seven simulated baselines, comparing every output of them
   and of DISC against the reference with dtype-aware tolerances.

Any deviation — wrong numbers, an exception in one executor but not the
reference, or a broken invariant — is recorded as a :class:`Failure`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ..baselines.systems import baseline_names, make_baseline
from ..core.pipeline import CompileOptions, compile_graph
from ..device.profiles import A10, DeviceProfile
from ..interp.interpreter import evaluate
from ..ir.graph import Graph
from ..ir.shapes import substitute
from ..ir.verifier import verify
from ..lint.diagnostics import LintLevel
from ..lint.engine import lint_graph
from ..lint.interval_checks import check_memory_symbolic
from ..numerics.resolve import bind_inputs
from ..obs import CapturingTracer, trace_failures
from ..runtime.engine import ExecutionEngine
from ..runtime.symplan import measure_peak_bytes
from ..serving import (BatchingOptions, BatchingServingEngine, FleetEngine,
                       FleetOptions, ReplicaState, ServingEngine,
                       ServingOptions, SignatureCompileCost,
                       VirtualScheduler)
from ..tuning import ScheduleTuner, TuningOptions
from .faults import CompileFaultInjector, TunerFaultInjector

__all__ = ["Failure", "CaseResult", "DifferentialOracle", "LEGS",
           "make_inputs", "compare_arrays", "DISC_EXECUTOR",
           "SERVING_EXECUTOR",
           "BATCHING_EXECUTOR", "OBS_EXECUTOR", "TUNING_EXECUTOR",
           "FLEET_EXECUTOR", "MEMPLAN_EXECUTOR"]

#: names under which executors appear in results: the optimized
#: pipeline, then each leg of :data:`LEGS` under its upper-cased name.
DISC_EXECUTOR = "DISC"
SERVING_EXECUTOR = "SERVING"
BATCHING_EXECUTOR = "BATCHING"
OBS_EXECUTOR = "OBS"
TUNING_EXECUTOR = "TUNING"
FLEET_EXECUTOR = "FLEET"
MEMPLAN_EXECUTOR = "MEMPLAN"

#: (rtol, atol) per dtype name; ints/bools compare exactly.
_TOLERANCES = {
    "f16": (2e-2, 2e-2),
    "f32": (2e-4, 1e-5),
    "f64": (1e-8, 1e-10),
}


def make_inputs(graph: Graph, bindings: Mapping[str, int],
                seed: int = 0) -> dict[str, np.ndarray]:
    """Deterministic input arrays for every parameter of ``graph``.

    Floats are drawn from a bounded uniform range (the generator's
    magnitude guards assume |x| <= 2), ints from a small non-negative
    range, bools fairly.
    """
    rng = np.random.default_rng(seed)
    inputs: dict[str, np.ndarray] = {}
    for param in graph.params:
        shape = substitute(param.shape, bindings)
        concrete = tuple(int(d) for d in shape)
        dtype = param.dtype
        if dtype.is_float:
            value = rng.uniform(-2.0, 2.0, size=concrete)
        elif dtype.is_bool:
            value = rng.integers(0, 2, size=concrete)
        else:
            value = rng.integers(0, 4, size=concrete)
        inputs[param.attrs["param_name"]] = value.astype(dtype.to_numpy())
    return inputs


def compare_arrays(reference: np.ndarray, got: np.ndarray,
                   dtype_name: str) -> str | None:
    """None when ``got`` matches ``reference``; else a short description."""
    if reference.shape != got.shape:
        return f"shape {got.shape} != reference {reference.shape}"
    if reference.dtype != got.dtype:
        return f"dtype {got.dtype} != reference {reference.dtype}"
    tol = _TOLERANCES.get(dtype_name)
    if tol is None:
        if not np.array_equal(reference, got):
            bad = int(np.sum(reference != got))
            return f"{bad} element(s) differ (exact dtype {dtype_name})"
        return None
    rtol, atol = tol
    ref_finite = np.isfinite(reference)
    got_finite = np.isfinite(got)
    if not np.array_equal(ref_finite, got_finite):
        return "finite/non-finite pattern differs"
    # Non-finite entries must agree exactly (inf sign, nan-for-nan).
    if not np.array_equal(reference[~ref_finite], got[~got_finite],
                          equal_nan=True):
        return "non-finite values differ"
    a = reference[ref_finite].astype(np.float64)
    b = got[got_finite].astype(np.float64)
    err = np.abs(a - b) - (atol + rtol * np.abs(a))
    if err.size and float(np.max(err)) > 0:
        worst = float(np.max(np.abs(a - b)))
        return f"max abs err {worst:.3e} beyond rtol={rtol}, atol={atol}"
    return None


@dataclass
class Failure:
    """One observed deviation for one executor on one case."""

    executor: str
    kind: str        # "mismatch" | "exception" | "invariant"
    detail: str
    output_index: int | None = None

    def __str__(self) -> str:
        where = "" if self.output_index is None \
            else f" (output {self.output_index})"
        return f"[{self.executor}] {self.kind}{where}: {self.detail}"


@dataclass
class CaseResult:
    """Everything the oracle observed for one (graph, bindings) case."""

    graph: Graph
    bindings: dict
    input_seed: int
    failures: list = field(default_factory=list)
    executors_checked: list = field(default_factory=list)
    ops_covered: set = field(default_factory=set)

    @property
    def ok(self) -> bool:
        return not self.failures

    def failed_executors(self) -> set:
        return {f.executor for f in self.failures}




class DifferentialOracle:
    """Checks cases against the interpreter across all executors.

    ``legs`` selects names from :data:`LEGS`; they run in table order
    whatever order they are given in.  ``lint_level`` other than OFF
    runs the static-analysis suite (repro.lint) on every case — the
    generated graph before compilation and the pipeline artifacts
    after — and reports failing diagnostics as failures of kind
    ``lint``.
    """

    def __init__(self, device: DeviceProfile = A10,
                 baselines: tuple | None = None,
                 check_invariants: bool = True,
                 lint_level: LintLevel = LintLevel.OFF,
                 legs=()) -> None:
        unknown = sorted(set(legs) - set(LEGS))
        if unknown:
            raise ValueError(f"unknown oracle leg(s) {unknown}; "
                             f"choose from {list(LEGS)}")
        self.device = device
        self.baselines = tuple(baselines) if baselines is not None \
            else tuple(baseline_names())
        self.check_invariants = check_invariants
        self.lint_level = lint_level
        self.legs = tuple(name for name in LEGS if name in legs)

    # -- single case -------------------------------------------------------

    def check_case(self, graph: Graph, bindings: Mapping[str, int],
                   input_seed: int = 0) -> CaseResult:
        result = CaseResult(graph=graph, bindings=dict(bindings),
                            input_seed=input_seed,
                            ops_covered={n.op for n in graph.nodes})
        if self.lint_level is not LintLevel.OFF:
            # The raw generated graph legitimately carries dead code (DCE
            # has not run yet), so only error-severity findings gate here;
            # the chosen level applies in full to the pipeline artifacts.
            for diag in lint_graph(graph).failures(LintLevel.DEFAULT):
                result.failures.append(Failure(
                    executor="lint", kind="lint",
                    detail=f"generated graph: {diag}"))
            # Dynamic cross-check of the interval engine: every concrete
            # value this case actually binds/derives must lie inside the
            # statically derived interval for its symbol — a violation
            # means the L6xx abstraction is unsound, the one defect the
            # analyzers themselves cannot see.
            try:
                from ..core.symbolic.intervals import \
                    check_dynamic_bindings
                for detail in check_dynamic_bindings(graph, bindings):
                    result.failures.append(Failure(
                        executor="lint", kind="interval",
                        detail=f"static/dynamic disagreement: {detail}"))
            except Exception as exc:  # noqa: BLE001 - unbindable case
                result.failures.append(Failure(
                    executor="lint", kind="interval",
                    detail=f"interval cross-check crashed: "
                           f"{type(exc).__name__}: {exc}"))
        try:
            inputs = make_inputs(graph, bindings, input_seed)
        except Exception as exc:  # noqa: BLE001 - unbindable case
            result.failures.append(Failure(
                executor="inputs", kind="exception",
                detail=f"{type(exc).__name__}: {exc}"))
            return result
        try:
            reference = [np.asarray(v) for v in evaluate(graph, inputs)]
        except Exception as exc:  # noqa: BLE001 - the fuzzer must survive
            result.failures.append(Failure(
                executor="interpreter", kind="exception",
                detail=f"{type(exc).__name__}: {exc}"))
            return result

        executable, direct = self._check_pipeline(graph, inputs, reference,
                                                  result)
        for name in self.legs:
            # Only the obs leg has a contract for a failed compile.
            if executable is None and name != "obs":
                continue
            case = _Case(self, name.upper(), graph, inputs, executable,
                         direct, result)
            result.executors_checked.append(case.executor)
            try:
                LEGS[name](case)
            except Exception as exc:  # noqa: BLE001 - a crash is a finding
                case.fail("exception", f"{type(exc).__name__}: {exc}")
        self._check_baselines(graph, inputs, reference, result)
        return result

    # -- optimized pipeline ------------------------------------------------

    def _check_pipeline(self, graph: Graph, inputs, reference,
                        result: CaseResult):
        """(executable or None, direct-engine outputs or None)."""
        result.executors_checked.append(DISC_EXECUTOR)
        options = CompileOptions(verify_each_pass=self.check_invariants,
                                 lint_level=self.lint_level)
        try:
            executable = compile_graph(graph, options)
        except Exception as exc:  # noqa: BLE001
            result.failures.append(Failure(
                executor=DISC_EXECUTOR, kind="exception",
                detail=f"compile: {type(exc).__name__}: {exc}"))
            return None, None
        if self.check_invariants:
            for failure in self._invariant_failures(executable):
                result.failures.append(failure)
        if executable.report.lint is not None:
            for diag in executable.report.lint.failures(self.lint_level):
                result.failures.append(Failure(
                    executor=DISC_EXECUTOR, kind="lint",
                    detail=f"pipeline artifacts: {diag}"))
        try:
            engine = ExecutionEngine(executable, self.device)
            outputs, _stats = engine.run(inputs)
        except Exception as exc:  # noqa: BLE001
            result.failures.append(Failure(
                executor=DISC_EXECUTOR, kind="exception",
                detail=f"run: {type(exc).__name__}: {exc}"))
            return executable, None
        self._compare(DISC_EXECUTOR, graph, reference, outputs, result)
        return executable, outputs

    def _invariant_failures(self, executable) -> list[Failure]:
        failures: list[Failure] = []
        try:
            verify(executable.graph)
        except Exception as exc:  # noqa: BLE001
            failures.append(Failure(
                executor=DISC_EXECUTOR, kind="invariant",
                detail=f"post-pipeline verify: {exc}"))
        try:
            ordered = executable.plan.ordered_groups()
            planned = {m for g in ordered for m in g.members}
            computed = {n for n in executable.graph.nodes
                        if n.op not in ("parameter", "constant")}
            missing = computed - planned
            if missing:
                failures.append(Failure(
                    executor=DISC_EXECUTOR, kind="invariant",
                    detail=f"fusion plan misses nodes: "
                           f"{sorted(n.short() for n in missing)}"))
        except Exception as exc:  # noqa: BLE001
            failures.append(Failure(
                executor=DISC_EXECUTOR, kind="invariant",
                detail=f"fusion plan not acyclic: {exc}"))
        if executable.buffer_plan is not None:
            try:
                executable.buffer_plan.verify_no_overlap_sharing()
            except Exception as exc:  # noqa: BLE001
                failures.append(Failure(
                    executor=DISC_EXECUTOR, kind="invariant",
                    detail=f"buffer plan: {exc}"))
        return failures

    # -- baselines ---------------------------------------------------------

    def _check_baselines(self, graph: Graph, inputs, reference,
                         result: CaseResult) -> None:
        for name in self.baselines:
            result.executors_checked.append(name)
            try:
                executor = make_baseline(name, graph, self.device)
                outputs, _stats = executor.run(inputs)
            except Exception as exc:  # noqa: BLE001
                result.failures.append(Failure(
                    executor=name, kind="exception",
                    detail=f"{type(exc).__name__}: {exc}"))
                continue
            self._compare(name, graph, reference, outputs, result)

    # -- comparison --------------------------------------------------------

    @staticmethod
    def _compare(executor: str, graph: Graph, reference, outputs,
                 result: CaseResult) -> None:
        if len(outputs) != len(reference):
            result.failures.append(Failure(
                executor=executor, kind="mismatch",
                detail=f"{len(outputs)} outputs != "
                       f"reference {len(reference)}"))
            return
        for index, (ref, got) in enumerate(zip(reference, outputs)):
            detail = compare_arrays(np.asarray(ref), np.asarray(got),
                                    graph.outputs[index].dtype.name)
            if detail is not None:
                result.failures.append(Failure(
                    executor=executor, kind="mismatch",
                    detail=detail, output_index=index))


class _Case:
    """One leg's view of a case: the inputs, the DISC artifacts, the
    shared serving harness and the leg's failure sink."""

    def __init__(self, oracle: DifferentialOracle, executor: str,
                 graph: Graph, inputs: dict, executable, direct,
                 result: CaseResult) -> None:
        self.oracle = oracle
        self.device = oracle.device
        self.executor = executor
        self.graph = graph
        self.inputs = inputs
        self.executable = executable
        self._direct = direct
        self.result = result
        self.seed = result.input_seed

    @property
    def expected(self) -> list:
        """The DISC leg's direct-engine outputs for ``inputs``."""
        if self._direct is None:
            raise RuntimeError("no direct engine outputs: the DISC run "
                               "failed")
        return self._direct

    def fail(self, kind: str, detail: str,
             output_index: int | None = None) -> None:
        self.result.failures.append(Failure(
            executor=self.executor, kind=kind, detail=detail,
            output_index=output_index))

    def expect_identical(self, expected, got, detail: str) -> None:
        """Bit-identity: as many outputs, each with the same shape,
        dtype and bytes."""
        if len(got) != len(expected):
            self.fail("mismatch", f"{len(got)} outputs != expected "
                                  f"{len(expected)}: {detail}")
            return
        for index, (ref, out) in enumerate(zip(expected, got)):
            ref, out = np.asarray(ref), np.asarray(out)
            if (ref.shape != out.shape or ref.dtype != out.dtype
                    or ref.tobytes() != out.tobytes()):
                self.fail("mismatch", detail, output_index=index)

    def expect_served(self, tickets: list,
                      expected_for: Callable[[object], list],
                      context: str = "") -> None:
        """Every ticket resolved OK, bit-identical to
        ``expected_for(ticket)``."""
        for index, ticket in enumerate(tickets):
            where = f"request {index}"
            if getattr(ticket, "replica", None) is not None:
                where += f" on replica {ticket.replica!r}"
            response = ticket.response
            if response is None or not response.ok:
                status = "unresolved" if response is None \
                    else response.status.value
                self.fail("exception", f"{where} ended {status}"
                                       f"{context}, expected ok")
                continue
            self.expect_identical(
                expected_for(ticket), response.outputs,
                f"{where} (path {response.path!r}) not bit-identical to "
                f"a direct engine run{context}")

    def serving_options(self, **extra) -> ServingOptions:
        """One compile slot, short backoff, per-signature compile cost."""
        return ServingOptions(
            compile_workers=1, compile_backoff_us=1_000.0,
            compile_cost=SignatureCompileCost(fixed_us=5_000.0,
                                              per_kernel_us=100.0),
            **extra)

    def compile_fault(self) -> CompileFaultInjector:
        """The seeded compile-fault schedule: every other case eats a
        transient retry first, every third quarantines permanently."""
        return CompileFaultInjector(
            transient_attempts=1 if self.seed % 2 == 0 else 0,
            permanent=self.seed % 3 == 2)

    def serve(self, engine, scheduler: VirtualScheduler,
              waves: list) -> list:
        """Register the executable as ``"case"`` on ``engine``, then run
        ``waves`` of ``(time_us, inputs list | action)`` on the virtual
        clock until idle; returns the tickets in submission order."""
        engine.register_model("case", self.executable)
        tickets: list = []
        for at, wave in waves:
            scheduler.call_at(at, wave if callable(wave) else (
                lambda wave=wave: tickets.extend(
                    engine.submit("case", x) for x in wave)))
        scheduler.run_until_idle()
        return tickets


# -- the legs ----------------------------------------------------------------


def _check_serving(case: _Case) -> None:
    """Replay every case through the serving runtime with compile faults.

    A cold-start burst (fallback path, in-flight coalescing) then a late
    request once compiles settled (fast or quarantined path), on a
    virtual scheduler seeded from the case, under the seeded
    compile-fault schedule (every other case eats a transient retry,
    every third quarantines permanently).  Every response must be OK and
    bit-identical to a direct engine run.
    """
    expected = case.expected
    scheduler = VirtualScheduler(seed=case.seed)
    engine = ServingEngine(case.device, scheduler, case.serving_options(),
                           compile_fault=case.compile_fault())
    tickets = case.serve(engine, scheduler, [
        (0.0, [case.inputs] * 2), (1e8, [case.inputs])])
    case.expect_served(tickets, lambda _: expected)


def _check_batching(case: _Case) -> None:
    """Replay every case through the dynamic-batching serving engine.

    Three waves on the virtual clock: a cold burst (the batch explodes
    to solo fallbacks while the batched plan compiles), a warm burst
    (one batched launch — unless a permanent compile fault quarantined
    the batched key, which must pin the bucket to solo service), and a
    late lone request (a single-member flush serves solo).  Every
    response must be OK and bit-identical to a direct engine run; each
    member carries *distinct* float payloads of one signature, so
    cross-member contamination inside a batch is a bit mismatch.
    """
    permanent = case.seed % 3 == 2

    def variant(index: int) -> dict:
        # Same signature (co-buckets with the others), different float
        # payloads; integer tensors (gather indices, masks) stay
        # untouched so they remain valid.
        shifted = {}
        for name, value in case.inputs.items():
            array = np.asarray(value)
            if np.issubdtype(array.dtype, np.floating):
                array = (array + array.dtype.type(0.125) * index)
            shifted[name] = array
        return shifted

    direct = ExecutionEngine(case.executable, case.device)
    members = [case.inputs] + [variant(i) for i in range(1, 7)]
    expected_by_id = {id(m): direct.run(m)[0] for m in members}
    scheduler = VirtualScheduler(seed=case.seed)
    engine = BatchingServingEngine(
        case.device, scheduler, case.serving_options(),
        batching=BatchingOptions(max_batch_size=4,
                                 max_queue_delay_us=2_000.0),
        compile_fault=case.compile_fault())
    tickets = case.serve(engine, scheduler, [
        (0.0, members[0:3]), (1e8, members[3:6]), (2e8, members[6:])])
    case.expect_served(
        tickets, lambda ticket: expected_by_id[id(ticket.request.inputs)])
    batched = engine.counters["batched_served"]
    if permanent and batched:
        case.fail("invariant", f"{batched} batched response(s) despite a "
                               f"permanent compile fault — quarantine "
                               f"must pin the bucket to solo service")
    if not permanent and not batched:
        case.fail("invariant", "warm burst never took the batched path")


def _check_tuning(case: _Case) -> None:
    """Run the schedule autotuner on every case against three contracts.

    (1) *Correctness*: a tuned plan's outputs are bit-identical to the
    heuristic plan's — schedules move simulated cost, never numerics —
    and its simulated device time is never higher.  (2) *Determinism*:
    an independent tuner with the same signature and budget reaches the
    same winners for the same spend, and spend never exceeds the budget
    (seeds alternate a generous and a starvation budget to cover the
    exhaustion path).  (3) *Isolation*: on every third seed, a serving
    run with an injected tuner fault must quarantine the search only —
    the compile completes, the installed plan is untuned, and every
    response is OK and bit-identical.
    """
    options = TuningOptions(
        budget_us=250_000.0 if case.seed % 2 == 0 else 2_000.0)
    engine = ExecutionEngine(case.executable, case.device)
    heur_out, heur_stats = engine.run(case.inputs)
    signature = engine.host_program.signature(case.inputs)
    tuned = ScheduleTuner(case.device, options).tune(case.executable,
                                                      signature)
    engine.prepare(case.inputs, signature, selector=tuned.selector(),
                   overwrite=True)
    tuned_out, tuned_stats = engine.run(case.inputs)
    again = ScheduleTuner(case.device, options).tune(case.executable,
                                                      signature)
    case.expect_identical(heur_out, tuned_out,
                          "tuned plan not bit-identical to heuristic plan")
    if tuned_stats.device_time_us > heur_stats.device_time_us \
            * (1 + 1e-12):
        case.fail("invariant", f"tuned plan slower than heuristic "
                               f"({tuned_stats.device_time_us:.3f}us > "
                               f"{heur_stats.device_time_us:.3f}us)")
    if tuned.spent_us > tuned.budget_us:
        case.fail("invariant", f"search spent {tuned.spent_us:.0f}us over "
                               f"its {tuned.budget_us:.0f}us budget")
    if tuned.pick_names() != again.pick_names() \
            or tuned.spent_us != again.spent_us:
        case.fail("invariant", "tuning not deterministic: same signature "
                               "and budget produced different winners or "
                               "spend")
    if case.seed % 3 == 2:
        _check_tuning_fault(case, heur_out, options)


def _check_tuning_fault(case: _Case, expected: list,
                        options: TuningOptions) -> None:
    """Tuner fault under serving: quarantine the search, serve on."""
    scheduler = VirtualScheduler(seed=case.seed)
    engine = ServingEngine(
        case.device, scheduler, case.serving_options(tuning=options),
        tuning_fault=TunerFaultInjector(fault_signatures=99))
    tickets = case.serve(engine, scheduler, [
        (0.0, [case.inputs] * 2), (1e8, [case.inputs])])
    case.expect_served(tickets, lambda _: expected, " under a tuner fault")
    if engine.counters["tuning_faults"] < 1:
        case.fail("invariant", "injected tuner fault never fired")
    plan = engine.model("case").engine.peek_plan(
        tickets[-1].request.signature)
    if plan is None or plan.tuned:
        case.fail("invariant", "tuner fault must install an untuned "
                               "heuristic plan")


def _check_fleet(case: _Case) -> None:
    """Drive every case through a multi-replica serving fleet.

    Routing policy and replica count vary with the seed; replica ``r0``
    carries the seeded compile-fault schedule (and, every fourth seed, a
    tuner-fault schedule on top of budgeted tuning) while the other
    replicas stay clean, and ``r0`` is drained mid-stream.  No request
    may be lost or double-served across the scale-down, quarantine must
    stay on the faulted replica, and every response must be OK and
    bit-identical to a direct engine run.
    """
    expected = case.expected
    seed = case.seed
    tune = seed % 4 == 3
    fault = case.compile_fault()
    scheduler = VirtualScheduler(seed=seed)
    fleet = FleetEngine(
        case.device, scheduler,
        FleetOptions(
            replicas=2 + seed % 2,
            policy=("affinity", "round_robin",
                    "least_outstanding")[seed % 3],
            serving=case.serving_options(
                tuning=TuningOptions(budget_us=2_000.0) if tune
                else None)),
        compile_fault_factory=lambda uid: fault if uid == 0 else None,
        tuning_fault_factory=(
            (lambda uid: TunerFaultInjector() if uid == 0 else None)
            if tune else None))
    # A cold burst across the fleet, a scale-down mid-stream, then a
    # late wave that must survive the retired replica.
    tickets = case.serve(fleet, scheduler, [
        (0.0, [case.inputs] * 3), (5e7, lambda: fleet.drain("r0")),
        (1e8, [case.inputs] * 3)])
    counters = fleet.stats()["requests"]
    if counters["submitted"] != 6 or counters["ok"] != 6:
        case.fail("invariant", f"{counters['submitted']} submitted / "
                               f"{counters['ok']} ok across scale-down, "
                               "expected 6/6 (lost or double-served)")
    drained = fleet.replica("r0")
    if drained.state is not ReplicaState.RETIRED \
            or drained.outstanding() != 0:
        case.fail("invariant", f"drained replica ended "
                               f"{drained.state.value} with "
                               f"{drained.outstanding()} outstanding")
    for replica in fleet.replicas() + fleet.retired:
        leaked = (replica.engine._quarantined
                  | replica.engine._tuning_quarantined)
        if replica.name != "r0" and leaked:
            case.fail("invariant", f"quarantine leaked off the faulted "
                                   f"replica onto {replica.name}: "
                                   f"{sorted(leaked)[:1]}")
    case.expect_served(tickets, lambda _: expected)


def _check_memplan(case: _Case) -> None:
    """Audit the symbolic (class-wide) memory plan on every case.

    (1) *Exactness*: the class plan's frozen slot expressions price the
    binding exactly like the concrete plan, and the class peak interval
    contains the result.  (2) *Soundness*: the ground-truth oracle
    (``measure_peak_bytes``) never observes more live bytes than the
    plan charges, and its replayed outputs are bit-identical to a direct
    engine run.  (3) The plan's own aliasing proof (``verify_sound``) is
    clean.  (4) *Cross-check*: the independent L602 analyzer reaches
    the same verdict — the two implement one judgement separately.
    (5) *Reorder differential*: a recompile under the peak-aware reorder
    pass stays bit-identical with a sound plan.
    """
    symbolic = getattr(case.executable, "symbolic_plan", None)
    if symbolic is None:
        case.fail("invariant", "pipeline produced no symbolic plan "
                               "(CompileOptions.symbolic_memory defaults "
                               "on)")
        return
    program = case.executable.host_program
    dims = bind_inputs(program.params, case.inputs)
    program.resolution.run(dims)
    expected = case.expected
    peak = symbolic.peak_at(dims)
    charged = symbolic.evaluate(dims)["peak_bytes"]
    measured = measure_peak_bytes(case.executable, case.inputs)
    if peak != charged:
        case.fail("invariant", f"class plan prices this binding at {peak} "
                               f"bytes but the concrete plan charges "
                               f"{charged} — the frozen slot expressions "
                               f"drifted from the slot assignment")
    interval = symbolic.peak_fact.interval
    if interval.lo is not None and peak < interval.lo:
        case.fail("invariant", f"in-class peak {peak} below the class "
                               f"interval lower bound {interval.lo}")
    if interval.hi is not None and peak > interval.hi:
        case.fail("invariant", f"in-class peak {peak} exceeds the *proven* "
                               f"class upper bound {interval.hi} — the "
                               f"interval abstraction is unsound")
    if measured["measured_peak_bytes"] > peak:
        case.fail("invariant", f"ground truth observed "
                               f"{measured['measured_peak_bytes']} live "
                               f"bytes but the class plan charges only "
                               f"{peak} — the reuse plan under-provisions "
                               f"this binding")
    case.expect_identical(expected, measured["outputs"],
                          "memory-oracle replay not bit-identical to a "
                          "direct engine run")
    own = symbolic.verify_sound()
    analyzer = check_memory_symbolic(case.executable.buffer_plan,
                                     symbolic.imap).by_code("L602")
    for violation in own:
        case.fail("invariant", f"aliasing proof failed: {violation}")
    for diag in analyzer:
        case.fail("invariant", f"L602 analyzer: {diag}")
    if bool(own) != bool(analyzer):
        case.fail("invariant", f"planner proof and L602 disagree "
                               f"({len(own)} vs {len(analyzer)} findings) "
                               f"— one of the two independent judgements "
                               f"is wrong")
    reordered = compile_graph(case.graph, CompileOptions(
        verify_each_pass=case.oracle.check_invariants,
        reorder_for_memory=True))
    outputs, _ = ExecutionEngine(reordered, case.device).run(case.inputs)
    case.expect_identical(expected, outputs,
                          "peak-aware reorder changed numerics — the pass "
                          "must only move schedule cost")
    plan = getattr(reordered, "symbolic_plan", None)
    if plan is not None:
        for violation in plan.verify_sound():
            case.fail("invariant", f"reordered plan aliasing proof "
                                   f"failed: {violation}")


def _check_obs(case: _Case) -> None:
    """Recompile and re-run every case under a CapturingTracer.

    (1) Outputs are bit-identical to an untraced engine run; (2) the
    simulated RunStats are equal field for field on both the record and
    the replay call; (3) the recorded trace satisfies the structural
    invariants of ``repro.obs.invariants`` (balanced spans, parent
    containment, pass coverage, kernel accounting).  When the untraced
    compile failed, the traced one must fail too.
    """
    verify_each_pass = case.oracle.check_invariants
    if case.executable is None:
        try:
            compile_graph(case.graph, CompileOptions(
                verify_each_pass=verify_each_pass, tracer=CapturingTracer()))
        except Exception:  # noqa: BLE001 - expected parity
            return
        case.fail("trace", "compile succeeded under tracing but failed "
                           "untraced")
        return
    untraced = ExecutionEngine(case.executable, case.device)
    plain = [untraced.run(case.inputs), untraced.run(case.inputs)]
    tracer = CapturingTracer()
    traced_exe = compile_graph(case.graph, CompileOptions(
        verify_each_pass=verify_each_pass, tracer=tracer))
    engine = ExecutionEngine(traced_exe, case.device, tracer=tracer)
    traced = [engine.run(case.inputs), engine.run(case.inputs)]
    for call, ((ref_out, ref_stats), (got_out, got_stats)) in \
            enumerate(zip(plain, traced)):
        case.expect_identical(ref_out, got_out,
                              f"call {call}: traced output not "
                              f"bit-identical to untraced run")
        if ref_stats != got_stats:
            case.fail("mismatch", f"call {call}: traced RunStats differ "
                                  f"from untraced ({got_stats} != "
                                  f"{ref_stats})")
    for detail in trace_failures(tracer):
        case.fail("trace", detail)


#: The oracle's optional legs in report order: ``--<name>`` on the CLI,
#: ``DifferentialOracle(legs=(name, ...))`` in code.  Each check's
#: docstring is that leg's contract.
LEGS: dict[str, Callable[[_Case], None]] = {
    "serving": _check_serving,
    "batching": _check_batching,
    "tuning": _check_tuning,
    "fleet": _check_fleet,
    "memplan": _check_memplan,
    "obs": _check_obs,
}
