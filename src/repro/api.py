r"""``repro.api`` -- the stable, typed entry point of the reproduction.

Historically every consumer built its own stack by hand: the CLI, the
five evalsuite drivers and the benchmark harnesses each picked a manager
factory, threaded loose ``Simulator`` keyword arguments and invented
their own sweep loop.  This module replaces those five divergent
construction surfaces with one typed facade:

:class:`SimulatorConfig`
    A frozen, hashable, picklable description of *how* to simulate:
    number system, tolerance, normalisation scheme, sanitizer mode,
    garbage-collection policy, telemetry mode.  It is the single
    construction path for managers and simulators.

:class:`RunRequest` / :class:`RunResult`
    One simulation job and its transportable outcome.  A result carries
    the final state as a :mod:`repro.dd.serialize` document (exact for
    the algebraic systems), the per-gate trace, and a telemetry
    snapshot -- everything crosses process boundaries as plain data.

:func:`run` / :func:`run_batch`
    Execute one request in-process, or fan a list of independent
    requests out over a worker pool (:mod:`repro.exec`).

Quickstart::

    from repro.api import RunRequest, SimulatorConfig, run, run_batch
    from repro import Circuit

    bell = Circuit(2).h(0).cx(0, 1)
    result = run(RunRequest(bell, SimulatorConfig(system="algebraic")))
    print(result.node_count, result.is_zero_state)

    sweep = [
        RunRequest(bell, SimulatorConfig(system="numeric", eps=eps))
        for eps in (0.0, 1e-10, 1e-5)
    ]
    batch = run_batch(sweep, workers=4)
    for job in batch.completed:
        print(job.label, job.node_count)

Direct ``Simulator(...)`` construction outside this module is linted
against (rule RL008 of ``tools/repro_lint``); ``Simulator`` takes its
options only as ``config=``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.circuits.circuit import Circuit
from repro.dd import serialize
from repro.dd.edge import Edge
from repro.dd.manager import (
    DDManager,
    algebraic_gcd_manager,
    algebraic_manager,
    numeric_manager,
)
from repro.dd.mem import MemoryBudget, MemoryConfig, cyclic_gc_paused
from repro.errors import ConfigError
from repro.obs import Telemetry, TraceContext
from repro.sim.simulator import Simulator
from repro.sim.trace import SimulationTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (exec imports api)
    from repro.exec.batch import BatchResult

__all__ = [
    "SYSTEMS",
    "SANITIZE_MODES",
    "TELEMETRY_MODES",
    "SimulatorConfig",
    "RunRequest",
    "RunResult",
    "make_simulator",
    "run",
    "run_batch",
    "run_with",
]

#: The number-system choices of the facade (and of every CLI subcommand).
SYSTEMS: Tuple[str, ...] = ("algebraic", "algebraic-gcd", "numeric")

#: Sanitizer modes accepted by :class:`SimulatorConfig.sanitize`.
SANITIZE_MODES: Tuple[str, ...] = ("off", "check-on-root", "check-every-op")

#: Telemetry modes: ``off`` (null instruments), ``metrics`` (default),
#: ``tracing`` (metrics plus the span ring).
TELEMETRY_MODES: Tuple[str, ...] = ("off", "metrics", "tracing")

_NORMALIZATIONS: Tuple[str, ...] = ("leftmost", "max-magnitude")
_PRECISIONS: Tuple[str, ...] = ("double", "single")


@dataclass(frozen=True)
class SimulatorConfig:
    """Frozen description of one simulation configuration.

    Instances are immutable, hashable and picklable, so they can key
    sweep dictionaries and travel to worker processes unchanged.  All
    fields have library defaults; validation happens eagerly at
    construction (:class:`~repro.errors.ConfigError`).

    Parameters
    ----------
    system:
        ``"algebraic"`` (Q[omega], Algorithm 2), ``"algebraic-gcd"``
        (D[omega] GCD scheme, Algorithm 3) or ``"numeric"`` (IEEE-754
        doubles behind a tolerance table).
    eps:
        Numeric tolerance; ignored by the exact systems.
    normalization / precision:
        Numeric-system variants (paper Section III / V-A): leftmost vs
        largest-magnitude pivot, double vs single machine precision.
    sanitize:
        DD-invariant sanitizer mode (see :mod:`repro.dd.sanitizer`).
    gc:
        Garbage-collection node threshold; ``None`` keeps automatic
        collection off.  ``gc_min_yield`` tunes the grow-on-low-yield
        heuristic.
    max_nodes / max_bytes:
        Optional hard :class:`~repro.dd.mem.MemoryBudget`; a run whose
        live state cannot fit raises
        :class:`~repro.errors.MemoryBudgetExceeded`.
    record_bit_widths:
        Collect the per-gate max coefficient bit-width (Fig. 5).
    use_apply_kernel:
        Apply gates through the direct vector kernel (default) or the
        matrix-DD fallback.
    telemetry:
        ``"off"``, ``"metrics"`` or ``"tracing"``.
    """

    system: str = "algebraic"
    eps: float = 0.0
    normalization: str = "leftmost"
    precision: str = "double"
    sanitize: str = "off"
    gc: Optional[int] = None
    gc_min_yield: float = 0.25
    max_nodes: Optional[int] = None
    max_bytes: Optional[int] = None
    record_bit_widths: bool = False
    use_apply_kernel: bool = True
    telemetry: str = "metrics"

    def __post_init__(self) -> None:
        if self.system not in SYSTEMS:
            raise ConfigError(f"unknown number system {self.system!r}; choose from {SYSTEMS}")
        if self.sanitize not in SANITIZE_MODES:
            raise ConfigError(
                f"unknown sanitizer mode {self.sanitize!r}; choose from {SANITIZE_MODES}"
            )
        if self.telemetry not in TELEMETRY_MODES:
            raise ConfigError(
                f"unknown telemetry mode {self.telemetry!r}; choose from {TELEMETRY_MODES}"
            )
        if self.normalization not in _NORMALIZATIONS:
            raise ConfigError(
                f"unknown normalization {self.normalization!r}; choose from {_NORMALIZATIONS}"
            )
        if self.precision not in _PRECISIONS:
            raise ConfigError(
                f"unknown precision {self.precision!r}; choose from {_PRECISIONS}"
            )
        if self.eps < 0.0:
            raise ConfigError("eps must be non-negative")
        if self.gc is not None and self.gc < 1:
            raise ConfigError("gc threshold must be a positive node count")
        for name in ("max_nodes", "max_bytes"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be positive when set")

    # -- derived descriptions -------------------------------------------

    @property
    def label(self) -> str:
        """Short human-readable configuration tag (sweep keys, reports)."""
        if self.system == "numeric":
            return f"eps={self.eps:g}"
        return self.system

    def with_updates(self, **changes: Any) -> "SimulatorConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    # -- construction ----------------------------------------------------

    def create_telemetry(self) -> Telemetry:
        if self.telemetry == "off":
            return Telemetry.disabled()
        if self.telemetry == "tracing":
            return Telemetry.tracing()
        return Telemetry()

    def memory_config(self) -> Optional[MemoryConfig]:
        """The GC trigger policy, or ``None`` when fully off."""
        if self.gc is None and self.max_nodes is None and self.max_bytes is None:
            return None
        budget = None
        if self.max_nodes is not None or self.max_bytes is not None:
            budget = MemoryBudget(max_nodes=self.max_nodes, max_bytes=self.max_bytes)
        if self.gc is None:
            return MemoryConfig(enabled=False, budget=budget)
        return MemoryConfig(
            threshold=self.gc, min_yield=self.gc_min_yield, budget=budget
        )

    def create_manager(
        self, num_qubits: int, telemetry: Optional[Telemetry] = None
    ) -> DDManager:
        """A fresh :class:`~repro.dd.manager.DDManager` for this config."""
        telemetry = telemetry if telemetry is not None else self.create_telemetry()
        memory = self.memory_config()
        if self.system == "algebraic":
            return algebraic_manager(num_qubits, telemetry=telemetry, memory=memory)
        if self.system == "algebraic-gcd":
            return algebraic_gcd_manager(num_qubits, telemetry=telemetry, memory=memory)
        return numeric_manager(
            num_qubits,
            eps=self.eps,
            normalization=self.normalization,
            precision=self.precision,
            telemetry=telemetry,
            memory=memory,
        )

    def create_simulator(
        self, num_qubits: int, telemetry: Optional[Telemetry] = None
    ) -> Simulator:
        """Manager plus simulator in one step (single construction path)."""
        return Simulator(self.create_manager(num_qubits, telemetry), config=self)


def make_simulator(
    manager: DDManager, config: Optional[SimulatorConfig] = None
) -> Simulator:
    """A :class:`~repro.sim.simulator.Simulator` over an existing manager.

    This is the facade's construction path for callers that already own
    a manager (equivalence checking, fault injection); everything else
    should go through :meth:`SimulatorConfig.create_simulator`.
    """
    return Simulator(manager, config=config if config is not None else SimulatorConfig())


@dataclass(frozen=True)
class RunRequest:
    """One independent simulation job.

    ``label`` defaults to ``<circuit>/<config label>``.  When
    ``error_reference`` names an exact configuration, the worker also
    simulates the reference and fills the per-gate footnote-8 error
    series into the returned trace (plus ``final_error`` and
    ``fidelity`` on the result) -- this is how the eps-tradeoff sweep
    runs as an embarrassingly parallel batch.

    ``trace_context`` is the distributed-tracing context
    (:class:`~repro.obs.TraceContext`: trace id, parent span id, clock
    anchor) injected by :func:`run_batch` when its coordinator
    telemetry has tracing enabled; callers never set it by hand.  A
    worker that receives one records spans and ships them home in the
    job outcome for re-parenting under the coordinator's ``exec.batch``
    span.  It has no effect on simulation results.
    """

    circuit: Circuit
    config: SimulatorConfig = SimulatorConfig()
    label: Optional[str] = None
    error_reference: Optional[SimulatorConfig] = None
    trace_context: Optional[TraceContext] = None

    @property
    def job_label(self) -> str:
        return self.label if self.label else f"{self.circuit.name}/{self.config.label}"


@dataclass
class RunResult:
    """The transportable outcome of one :class:`RunRequest`.

    The final state travels as a :mod:`repro.dd.serialize` JSON
    document (``state_payload``): exact for the algebraic systems,
    value-preserving for the numeric one, and reloadable into any fresh
    manager of the same configuration via :meth:`restore_state`.
    ``metrics`` is the job's own ``sim.*``/``dd.*`` telemetry snapshot;
    :func:`repro.exec.run_batch` merges these fleet-wide.
    """

    label: str
    config: SimulatorConfig
    num_qubits: int
    num_gates: int
    state_payload: str
    trace: SimulationTrace
    node_count: int
    is_zero_state: bool
    seconds: float
    attempts: int = 1
    final_error: Optional[float] = None
    fidelity: Optional[float] = None
    metrics: Dict[str, Any] = field(default_factory=dict)

    def restore_state(
        self, manager: Optional[DDManager] = None
    ) -> Tuple[DDManager, Edge]:
        """Rebuild the final state into ``manager`` (fresh one if omitted)."""
        if manager is None:
            manager = self.config.create_manager(self.num_qubits)
        return manager, serialize.loads(manager, self.state_payload)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready view (batch reports, committed artifacts)."""
        return {
            "label": self.label,
            "config": self.config.label,
            "system": self.config.system,
            "num_qubits": self.num_qubits,
            "num_gates": self.num_gates,
            "node_count": self.node_count,
            "is_zero_state": self.is_zero_state,
            "seconds": self.seconds,
            "attempts": self.attempts,
            "final_error": self.final_error,
            "fidelity": self.fidelity,
            "state_payload": self.state_payload,
            "trace": self.trace.to_dict(),
            "metrics": self.metrics,
        }


def run(
    request: RunRequest,
    telemetry: Optional[Telemetry] = None,
    client: Optional[Any] = None,
) -> RunResult:
    """Execute one request in the current process.

    ``telemetry`` overrides the scope built from the config -- the batch
    worker passes its own so a partial snapshot survives job failure.

    ``client`` targets a running :class:`repro.serve.SimulationService`
    instead: the request goes through the service's shard router, warm
    workers and result cache, and the call returns the byte-identical
    payload the in-process path would produce (or raises the service's
    typed :class:`~repro.errors.QueueFull` /
    :class:`~repro.errors.DeadlineExceeded` rejections).

    The in-process path runs with CPython's cyclic collector paused
    (:func:`~repro.dd.mem.cyclic_gc_paused`) until the job's manager
    has been freed by reference counting.
    """
    if client is not None:
        return client.submit(request)
    with cyclic_gc_paused():
        return _run_cold(request, telemetry)


def _run_cold(request: RunRequest, telemetry: Optional[Telemetry]) -> RunResult:
    """:func:`run` on a fresh stack, which dies with this frame."""
    config = request.config
    circuit = request.circuit
    scope = telemetry if telemetry is not None else config.create_telemetry()
    manager = config.create_manager(circuit.num_qubits, scope)
    simulator = Simulator(manager, config=config)
    return run_with(request, simulator, telemetry=scope)


def run_with(
    request: RunRequest,
    simulator: Simulator,
    telemetry: Optional[Telemetry] = None,
    keep_state: bool = True,
) -> RunResult:
    """Execute one request on an *existing* simulator stack.

    This is the warm path behind :func:`run` (which builds a fresh
    manager and simulator per call) and the persistent service's worker
    loop (:mod:`repro.serve`), which reuses one manager per
    configuration so unique/compute/weight tables stay hot across
    requests.  The simulator's manager must match the request's
    configuration and circuit width; results are byte-identical to the
    cold path because DD canonicity makes serialized payloads
    value-based, not history-based.

    ``telemetry`` is the scope whose metrics snapshot lands on the
    result (defaults to the simulator's own scope).  ``keep_state=False``
    releases the final state's GC root registration after the state is
    serialized -- the long-lived service worker keeps tables warm
    without accumulating one live root per served request.
    """
    config = request.config
    circuit = request.circuit
    scope = telemetry if telemetry is not None else simulator.telemetry
    manager = simulator.manager

    reference_states: List[Edge] = []
    reference_manager: Optional[DDManager] = None
    if request.error_reference is not None:
        reference_manager = request.error_reference.create_manager(circuit.num_qubits)
        make_simulator(reference_manager, request.error_reference).run(
            circuit, step_callback=lambda _i, state: reference_states.append(state)
        )

    # The timed run only appends state edges; the dense error series is
    # filled in afterwards so reference conversions (expensive for
    # wide-coefficient algebraic states) never pollute per-gate timings.
    step_states: List[Edge] = []
    callback = (
        (lambda _index, state: step_states.append(state))
        if reference_manager is not None
        else None
    )

    started = time.perf_counter()
    outcome = simulator.run(circuit, step_callback=callback)
    seconds = time.perf_counter() - started

    trace = outcome.trace
    final_error: Optional[float] = None
    fidelity: Optional[float] = None
    if reference_manager is not None:
        from repro.sim.accuracy import state_error

        errors: List[float] = []
        for index, state in enumerate(step_states):
            reference_vector = reference_manager.to_statevector(reference_states[index])
            errors.append(state_error(manager.to_statevector(state), reference_vector))
        trace = trace.with_errors(errors)
        final_error = errors[-1] if errors else 0.0
        import numpy as np

        reference_vector = reference_manager.to_statevector(reference_states[-1])
        final_vector = manager.to_statevector(outcome.state)
        fidelity = float(abs(np.vdot(reference_vector, final_vector)) ** 2)

    # The last trace step already counted the final state's nodes; only
    # an empty circuit has no step.  Metrics are read before the state
    # release below so is_zero_state observes the live DD.
    steps = outcome.trace.steps
    node_count = steps[-1].node_count if steps else outcome.node_count
    result = RunResult(
        label=request.job_label,
        config=config,
        num_qubits=circuit.num_qubits,
        num_gates=len(circuit),
        state_payload=serialize.dumps(manager, outcome.state),
        trace=trace,
        node_count=node_count,
        is_zero_state=outcome.is_zero_state,
        seconds=seconds,
        final_error=final_error,
        fidelity=fidelity,
        metrics=dict(scope.metrics.snapshot()),
    )
    if not keep_state:
        # Simulator.run transfers the final state's root registration to
        # the caller (when GC is active); the state has been serialized
        # into the result, so a caller that only wants the payload hands
        # the root back here instead of leaking one per request.
        memory = manager.memory
        if memory.config.enabled or memory.config.budget is not None:
            memory.dec_ref(outcome.state)
    return result


def run_batch(
    requests: Sequence[RunRequest],
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.5,
    telemetry: Optional[Telemetry] = None,
    client: Optional[Any] = None,
) -> "BatchResult":
    """Fan independent requests out over a process pool.

    ``workers=1`` is the deterministic in-process fallback (used by
    tests); any higher count uses a
    :class:`concurrent.futures.ProcessPoolExecutor`.  Per-job
    ``timeout`` (seconds) and bounded ``retries`` with exponential
    ``backoff`` turn individual crashes into typed
    :class:`~repro.exec.batch.JobFailure` records instead of aborting
    the sweep.  See :mod:`repro.exec` for the engine semantics.

    ``client`` routes the whole batch through a running
    :class:`repro.serve.SimulationService` instead of spawning a pool:
    warm workers, shared result cache, per-request ``timeout`` as the
    service deadline.  ``workers``/``retries``/``backoff`` are the
    pool's knobs and are ignored on the client path (the service's own
    worker fleet and backpressure apply); the returned
    :class:`~repro.exec.batch.BatchResult` keeps the same shape, with
    typed rejections recorded as failures.
    """
    if client is not None:
        return client.run_batch(requests, timeout=timeout)
    from repro.exec.batch import run_batch as _run_batch

    return _run_batch(
        requests,
        workers=workers,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        telemetry=telemetry,
    )
