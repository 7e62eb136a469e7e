r"""Gate-by-gate QMDD simulation of quantum circuits.

The :class:`Simulator` evolves a state-vector DD by one matrix-vector
multiplication per gate (the paper's simulation workload, Section III:
"hundreds or even thousands of ... matrix-vector multiplications"),
recording the per-gate metrics that the evaluation figures plot.

The same simulator runs against any
:class:`~repro.dd.manager.DDManager`, so switching between the
numerical representation (with its ``eps``) and the two algebraic
representations is a one-argument change::

    result_num = Simulator(numeric_manager(n, eps=1e-10)).run(circuit)
    result_alg = Simulator(algebraic_manager(n)).run(circuit)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.circuits.circuit import Circuit, Operation
from repro.dd.apply import prepare_gate
from repro.dd.edge import Edge
from repro.dd.gatebuild import build_gate_dd
from repro.dd.manager import DDManager
from repro.dd.mem import cyclic_gc_paused
from repro.dd.sanitizer import Sanitizer, SanitizerMode
from repro.errors import SimulationError
from repro.obs import Telemetry
from repro.rings.domega import BIT_WIDTH_BUCKETS
from repro.sim.trace import SimulationStep, SimulationTrace

__all__ = ["Simulator", "SimulationResult"]

#: Bucket bounds (seconds) for the per-gate duration histogram
#: ``sim.gate.seconds``.  Log-spaced from "trivial single-qubit gate"
#: to "pathological blow-up gate"; fixed so exports stay comparable.
GATE_SECONDS_BUCKETS = (
    0.0001,
    0.0003,
    0.001,
    0.003,
    0.01,
    0.03,
    0.1,
    0.3,
    1.0,
)


@dataclass
class SimulationResult:
    """Final state plus the per-gate metric trace."""

    manager: DDManager
    state: Edge
    trace: SimulationTrace

    def final_amplitudes(self) -> np.ndarray:
        """Dense final statevector (exponential; metrics/tests only)."""
        return self.manager.to_statevector(self.state)

    def amplitude(self, index: int) -> complex:
        return self.manager.system.to_complex(self.manager.amplitude(self.state, index))

    @property
    def node_count(self) -> int:
        return self.manager.node_count(self.state)

    @property
    def is_zero_state(self) -> bool:
        """True when the DD collapsed to the all-zero vector -- the
        paper's worst-case outcome of over-aggressive tolerance
        (Example 5: "a perfectly compact but obviously wrong
        representation")."""
        return self.manager.is_zero_edge(self.state)


class Simulator:
    """QMDD circuit simulator with per-gate metric recording.

    Parameters
    ----------
    manager:
        The decision-diagram manager (fixes the number system).
    telemetry:
        The :class:`~repro.obs.Telemetry` scope for the simulator-level
        instruments (``sim.gates``, ``sim.gate.seconds``, per-gate
        spans).  Defaults to the manager's own scope, so one profile
        covers the whole stack; pass an explicit scope only to separate
        driver metrics from engine metrics.
    config:
        A :class:`repro.api.SimulatorConfig` (``None``: its defaults).
        The simulator reads three of its fields:

        * ``record_bit_widths`` -- collect the max integer bit-width
          after every gate (slightly costly; needed for the Fig. 5
          overhead analysis).  Only then are ``sim.state.max_bit_width``
          and ``sim.state.bit_width`` registered.
        * ``sanitize`` -- a :class:`~repro.dd.sanitizer.SanitizerMode`
          value: ``"off"``, ``"check-on-root"`` (full invariant check of
          the final state of each :meth:`run`) or ``"check-every-op"``
          (a full check after every gate).  Violations raise
          :class:`~repro.errors.SanitizerError`.
        * the memory fields, via ``config.memory_config()`` -- when it
          is not ``None`` it replaces the manager's
          :class:`~repro.dd.mem.MemoryManager` policy; otherwise the
          manager's own ``memory=`` policy stands.  With GC active,
          :meth:`run` keeps the evolving state registered as a root,
          gives the collector a chance to run after every gate, and
          leaves the final state registered (it backs the returned
          :class:`SimulationResult`).  A configured budget raises
          :class:`~repro.errors.MemoryBudgetExceeded` mid-run when the
          live state cannot fit.

        Duck-typed (:mod:`repro.api` imports this module); any object
        with those fields works.
    """

    def __init__(
        self,
        manager: DDManager,
        telemetry: Optional[Telemetry] = None,
        config: "Any | None" = None,
    ) -> None:
        if config is None:
            from repro.api import SimulatorConfig  # deferred: import cycle

            config = SimulatorConfig()
        self.manager = manager
        self.record_bit_widths = config.record_bit_widths
        self.telemetry = telemetry if telemetry is not None else manager.telemetry
        registry = self.telemetry.metrics
        self._gate_counter = registry.counter("sim.gates")
        self._gate_seconds = registry.histogram("sim.gate.seconds", GATE_SECONDS_BUCKETS)
        self._nodes_gauge = registry.gauge("sim.state.nodes")
        self._peak_nodes_gauge = registry.gauge("sim.state.peak_nodes")
        if self.record_bit_widths:
            self._bit_width_gauge = registry.gauge("sim.state.max_bit_width")
            self._bit_width_hist = registry.histogram(
                "sim.state.bit_width", BIT_WIDTH_BUCKETS
            )
        mode = SanitizerMode.coerce(config.sanitize)
        self.sanitizer: Optional[Sanitizer] = (
            Sanitizer(manager, mode) if mode is not SanitizerMode.OFF else None
        )
        self._gate_cache: Dict[Tuple, Edge] = {}
        self._entry_cache: Dict[Tuple, Tuple[Any, ...]] = {}
        self._kernel_cache: Dict[Tuple, Any] = {}
        memory_config = config.memory_config()
        if memory_config is not None:
            manager.memory.configure(memory_config)
        memory = manager.memory
        self._gc_active = memory.config.enabled or memory.config.budget is not None

    # ------------------------------------------------------------------

    def gate_dd(self, operation: Operation) -> Edge:
        """The (cached) matrix DD of one gate application."""
        key = (
            operation.gate.name,
            operation.gate.params,
            operation.target,
            operation.controls,
            operation.negative_controls,
        )
        cached = self._gate_cache.get(key)
        if cached is not None:
            return cached
        entries = self._import_entries(operation)
        edge = build_gate_dd(
            self.manager,
            entries,
            operation.target,
            controls=operation.controls,
            negative_controls=operation.negative_controls,
        )
        # Cached across gate applications: pin so a GC pass between two
        # uses cannot sweep the gate's nodes from under the cache.
        self.manager.memory.pin(edge)
        self._gate_cache[key] = edge
        return edge

    def _import_entries(self, operation: Operation) -> Tuple[Any, ...]:
        system = self.manager.system
        gate = operation.gate
        key = (gate.name, gate.params)
        cached = self._entry_cache.get(key)
        if cached is not None:
            return cached
        if gate.exact is not None:
            entries = tuple(system.from_domega(entry) for entry in gate.exact)
        elif not system.supports_arbitrary_complex:
            raise SimulationError(
                f"gate {gate.name!r} has no exact D[omega] representation; "
                "compile it to Clifford+T first (repro.approx.approximate_circuit)"
            )
        else:
            entries = tuple(system.from_complex(entry) for entry in gate.matrix)
        self._entry_cache[key] = entries
        return entries

    def _apply_operation(self, state: Edge, operation: Operation) -> Edge:
        """One gate application through the direct vector-DD kernel.

        The kernel (:func:`repro.dd.apply.prepare_gate`) skips the
        identity levels a matrix DD would walk; ``unitary`` and
        ``run_matrix_matrix`` use the gate's matrix DD (:meth:`gate_dd`).
        """
        key = (
            operation.gate.name,
            operation.gate.params,
            operation.target,
            operation.controls,
            operation.negative_controls,
        )
        kernel = self._kernel_cache.get(key)
        if kernel is None:
            kernel = prepare_gate(
                self.manager,
                self._import_entries(operation),
                operation.target,
                controls=operation.controls,
                negative_controls=operation.negative_controls,
            )
            self._kernel_cache[key] = kernel
        return kernel.apply(state)

    # ------------------------------------------------------------------

    def run(
        self,
        circuit: Circuit,
        initial_state: Optional[Edge] = None,
        step_callback: Optional[Callable[[int, Edge], None]] = None,
    ) -> SimulationResult:
        """Simulate ``circuit`` from ``initial_state`` (default ``|0..0>``).

        ``step_callback(gate_index, state_edge)`` runs after every gate;
        the evaluation harness uses it to compute per-gate errors against
        a reference run.

        The gates run with CPython's cyclic collector paused
        (:func:`~repro.dd.mem.cyclic_gc_paused`): the engine builds no
        reference cycles, so the collector would only re-traverse the
        growing tables.
        """
        with cyclic_gc_paused():
            return self._run(circuit, initial_state, step_callback)

    def _run(
        self,
        circuit: Circuit,
        initial_state: Optional[Edge],
        step_callback: Optional[Callable[[int, Edge], None]],
    ) -> SimulationResult:
        if circuit.num_qubits != self.manager.num_qubits:
            raise SimulationError(
                f"circuit width {circuit.num_qubits} does not match "
                f"manager width {self.manager.num_qubits}"
            )
        state = initial_state if initial_state is not None else self.manager.zero_state()
        trace = SimulationTrace(
            system_name=self.manager.system.name,
            circuit_name=circuit.name,
            num_qubits=circuit.num_qubits,
        )
        sanitizer = self.sanitizer
        check_every_op = (
            sanitizer is not None and sanitizer.mode is SanitizerMode.CHECK_EVERY_OP
        )
        tracer = self.telemetry.tracer
        tracing = tracer.enabled  # hoisted: no span kwargs built when off
        gate_counter = self._gate_counter
        gate_seconds = self._gate_seconds
        gc_active = self._gc_active
        memory = self.manager.memory
        if gc_active:
            # The evolving state is the collector's root.  The previous
            # state is released only after the new one is registered, so
            # a same-node transition never transiently drops to zero.
            memory.inc_ref(state)
        previous_nodes = 0
        previous_elapsed = 0.0
        started = time.perf_counter()
        for index, operation in enumerate(circuit):
            if tracing:
                span = tracer.span("sim.gate", gate=str(operation.gate), index=index)
                with span:
                    new_state = self._apply_operation(state, operation)
            else:
                new_state = self._apply_operation(state, operation)
            if gc_active:
                memory.inc_ref(new_state)
                memory.dec_ref(state)
                state = new_state
                memory.maybe_collect()
            else:
                state = new_state
            if check_every_op:
                sanitizer.check_state(state)
            elapsed = time.perf_counter() - started
            width = self.manager.max_bit_width(state) if self.record_bit_widths else 0
            node_count = self.manager.node_count(state)
            gate_counter.inc()
            gate_seconds.observe(elapsed - previous_elapsed)
            self._nodes_gauge.set(node_count)
            self._peak_nodes_gauge.set_max(node_count)
            if self.record_bit_widths:
                self._bit_width_gauge.set_max(width)
                self._bit_width_hist.observe(width)
            if tracing:
                span.set(nodes=node_count, node_delta=node_count - previous_nodes)
            previous_nodes = node_count
            previous_elapsed = elapsed
            trace.steps.append(
                SimulationStep(
                    gate_index=index,
                    gate_name=str(operation.gate),
                    node_count=node_count,
                    cumulative_seconds=elapsed,
                    max_bit_width=width,
                )
            )
            if step_callback is not None:
                step_callback(index, state)
        if sanitizer is not None and not check_every_op:
            sanitizer.check_state(state)
        # The final state's root registration is deliberately retained:
        # it keeps the returned DD alive across later collections, and
        # its ownership moves into the result handed to the caller.
        return SimulationResult(  # repro-lint: transfers-ownership
            manager=self.manager, state=state, trace=trace
        )

    def apply(self, state: Edge, operation: Operation) -> Edge:
        """Apply a single gate to a state edge (no trace)."""
        return self._apply_operation(state, operation)

    def unitary(self, circuit: Circuit) -> Edge:
        """The full circuit unitary as a matrix DD (gate-matrix products
        in reversed order, paper Section II-A)."""
        if circuit.num_qubits != self.manager.num_qubits:
            raise SimulationError("circuit width does not match manager width")
        accumulator = self.manager.identity()
        for operation in circuit:
            accumulator = self.manager.mat_mat(self.gate_dd(operation), accumulator)
        return accumulator

    def run_matrix_matrix(
        self,
        circuit: Circuit,
        initial_state: Optional[Edge] = None,
        block_size: Optional[int] = None,
    ) -> SimulationResult:
        """Simulate via matrix-matrix products (strategy of [25]).

        Instead of one matrix-vector multiplication per gate, gate
        matrices are first combined into blocks of ``block_size``
        consecutive gates (the whole circuit when ``None``) and each
        block is applied to the state at once.  The authors' companion
        paper [25] shows this trades the usually-small state DD against
        usually-larger intermediate matrix DDs -- profitable when the
        state DD is large or gates share structure.

        The per-step trace records one entry per *block*; node counts
        refer to the state after the block is applied, and
        ``max_bit_width`` (if enabled) to that state as well.
        """
        if circuit.num_qubits != self.manager.num_qubits:
            raise SimulationError(
                f"circuit width {circuit.num_qubits} does not match "
                f"manager width {self.manager.num_qubits}"
            )
        if block_size is not None and block_size < 1:
            raise SimulationError("block_size must be positive")
        operations = list(circuit)
        size = block_size if block_size is not None else max(1, len(operations))
        state = initial_state if initial_state is not None else self.manager.zero_state()
        trace = SimulationTrace(
            system_name=self.manager.system.name,
            circuit_name=f"{circuit.name}[mm:{size}]",
            num_qubits=circuit.num_qubits,
        )
        tracer = self.telemetry.tracer
        started = time.perf_counter()
        for block_index in range(0, max(len(operations), 1), size):
            block = operations[block_index : block_index + size]
            if not block:
                break
            with tracer.span("sim.block", gates=len(block)):
                accumulator = self.gate_dd(block[0])
                for operation in block[1:]:
                    accumulator = self.manager.mat_mat(
                        self.gate_dd(operation), accumulator
                    )
                state = self.manager.mat_vec(accumulator, state)
            elapsed = time.perf_counter() - started
            width = self.manager.max_bit_width(state) if self.record_bit_widths else 0
            trace.steps.append(
                SimulationStep(
                    gate_index=min(block_index + size, len(operations)) - 1,
                    gate_name=f"block[{len(block)}]",
                    node_count=self.manager.node_count(state),
                    cumulative_seconds=elapsed,
                    max_bit_width=width,
                )
            )
        return SimulationResult(manager=self.manager, state=state, trace=trace)
