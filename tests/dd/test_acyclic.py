"""The DD engine is acyclic: a finished job is freed by reference counting.

A manager, its unique/compute/weight tables, its memory manager and its
telemetry collectors form an ownership tree (see "Ownership and
reclamation" in ``docs/ALGORITHMS.md``).  Every case below runs with
CPython's cyclic collector disabled: once the case drops its result,
every manager it built must already be dead, and ``gc.collect()`` must
find nothing left to free.
"""

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.algorithms.grover import grover_circuit
from repro.api import RunRequest, SimulatorConfig, run, run_batch
from repro.circuits.circuit import Circuit
from repro.dd import serialize
from repro.dd.manager import DDManager
from repro.errors import DDError
from repro.obs import Telemetry
from repro.sim import measure
from repro.sim.simulator import Simulator


@pytest.fixture
def managers(monkeypatch):
    """Weak references to every :class:`DDManager` built during a test."""
    refs = []
    original = DDManager.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(DDManager, "__init__", init)
    return refs


@contextmanager
def cyclic_gc_off():
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def assert_freed(refs):
    """Every manager is dead *before* the cyclic collector runs, and the
    collector then finds no garbage at all."""
    assert refs, "the case built no manager"
    alive = [ref for ref in refs if ref() is not None]
    assert not alive, f"{len(alive)} of {len(refs)} managers outlived their job"
    assert gc.collect() == 0


def _circuit():
    return grover_circuit(4, 5)


RUN_CONFIGS = [
    pytest.param(SimulatorConfig(system="numeric"), id="numeric-eps0"),
    pytest.param(SimulatorConfig(system="numeric", eps=1e-3), id="numeric-eps1e-3"),
    pytest.param(SimulatorConfig(system="algebraic"), id="algebraic"),
    pytest.param(SimulatorConfig(system="algebraic-gcd"), id="algebraic-gcd"),
]


@pytest.mark.parametrize("gc_threshold", [None, 16], ids=["gc-off", "gc-16"])
@pytest.mark.parametrize("config", RUN_CONFIGS)
def test_run_frees_its_manager(managers, config, gc_threshold):
    with cyclic_gc_off():
        result = run(RunRequest(_circuit(), config.with_updates(gc=gc_threshold)))
        assert result.state_payload
        del result
        assert_freed(managers)


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(SimulatorConfig(sanitize="check-every-op"), id="sanitizer"),
        pytest.param(SimulatorConfig(telemetry="off"), id="telemetry-off"),
        pytest.param(SimulatorConfig(telemetry="metrics"), id="telemetry-metrics"),
        pytest.param(SimulatorConfig(telemetry="tracing"), id="telemetry-tracing"),
    ],
)
def test_run_modes_free_their_manager(managers, config):
    with cyclic_gc_off():
        result = run(RunRequest(_circuit(), config))
        del result
        assert_freed(managers)


def test_matrix_path_frees_its_manager(managers):
    """Each gate's matrix DD times the state, on the manager directly."""
    with cyclic_gc_off():
        manager = SimulatorConfig(system="numeric").create_manager(_circuit().num_qubits)
        simulator = Simulator(manager)
        state = manager.zero_state()
        for operation in _circuit():
            state = manager.mat_vec(simulator.gate_dd(operation), state)
        assert serialize.dumps(manager, state)
        del manager, simulator, state
        assert_freed(managers)


@pytest.mark.parametrize("system", ["numeric", "algebraic"])
def test_detail_tracing_frees_its_manager(managers, system):
    with cyclic_gc_off():
        telemetry = Telemetry.tracing(detail=True)
        result = run(
            RunRequest(_circuit(), SimulatorConfig(system=system)), telemetry=telemetry
        )
        names = {span.name for span in telemetry.tracer.spans()}
        assert {"dd.normalize", "dd.ut.lookup", "dd.ct.lookup"} <= names
        del result, telemetry
        assert_freed(managers)


def test_error_reference_run_frees_both_managers(managers):
    request = RunRequest(
        _circuit(),
        SimulatorConfig(system="numeric", eps=1e-3),
        error_reference=SimulatorConfig(system="algebraic"),
    )
    with cyclic_gc_off():
        result = run(request)
        assert result.final_error is not None
        del result
        assert len(managers) == 2
        assert_freed(managers)


@pytest.mark.parametrize("tracing", [False, True], ids=["metrics", "tracing"])
def test_batch_with_a_failing_job_frees_every_manager(managers, tracing):
    requests = [
        RunRequest(_circuit(), SimulatorConfig(system="algebraic"), label="good"),
        RunRequest(_circuit(), SimulatorConfig(max_nodes=1), label="poisoned"),
        RunRequest(_circuit(), SimulatorConfig(system="numeric", gc=16), label="gc"),
    ]
    with cyclic_gc_off():
        telemetry = Telemetry.tracing() if tracing else None
        batch = run_batch(requests, workers=1, telemetry=telemetry)
        (failure,) = batch.failures
        assert failure.error_type == "MemoryBudgetExceeded"
        del batch, failure, telemetry
        assert len(managers) == 3
        assert_freed(managers)


# ---------------------------------------------------------------------------
# Recursive helpers: none may leave a self-referencing closure behind
# ---------------------------------------------------------------------------

HELPER_SYSTEMS = ["numeric", "algebraic", "algebraic-gcd"]


def _state_and_unitary(system):
    config = SimulatorConfig(system=system)
    circuit = Circuit(3, name="helpers")
    circuit.h(0).t(0).cx(0, 1).h(2).s(2).cx(2, 1)
    simulator = config.create_simulator(circuit.num_qubits)
    state = simulator.run(circuit).state
    return simulator.manager, state, simulator.unitary(circuit)


@pytest.mark.parametrize("system", HELPER_SYSTEMS)
def test_vector_helpers_leave_no_cycle(managers, system):
    with cyclic_gc_off():
        manager, state, _unitary = _state_and_unitary(system)
        manager.to_statevector(state)
        manager.to_exact_amplitudes(state)
        manager.norm_squared(state)
        manager.inner_product(state, state)
        measure.measure_probabilities(manager, state, 0)
        measure.sample_counts(manager, state, 8, seed=1)
        measure.measure_and_collapse(manager, state, 0, outcome=0)
        del manager, state, _unitary
        assert_freed(managers)


@pytest.mark.parametrize("system", HELPER_SYSTEMS)
def test_matrix_helpers_leave_no_cycle(managers, system):
    with cyclic_gc_off():
        manager, _state, unitary = _state_and_unitary(system)
        manager.to_matrix(unitary)
        manager.to_exact_matrix(unitary)
        manager.adjoint(unitary)
        del manager, _state, unitary
        assert_freed(managers)


@pytest.mark.parametrize("system", HELPER_SYSTEMS)
def test_serialize_round_trip_leaves_no_cycle(managers, system):
    with cyclic_gc_off():
        manager, state, unitary = _state_and_unitary(system)
        for edge in (state, unitary):
            text = serialize.dumps(manager, edge)
            fresh = SimulatorConfig(system=system).create_manager(manager.num_qubits)
            assert serialize.dumps(fresh, serialize.loads(fresh, text)) == text
        del manager, state, unitary, edge, fresh
        assert_freed(managers)


def test_memory_manager_holds_its_manager_weakly(managers):
    with cyclic_gc_off():
        manager = SimulatorConfig().create_manager(2)
        memory = manager.memory
        assert memory.manager is manager
        state = manager.zero_state()
        memory.inc_ref(state)
        del manager
        assert_freed(managers)
        # The memory manager outlives its owner on purpose (telemetry
        # collectors read it); it keeps working on the tables it holds.
        assert memory.node_count == 2
        assert memory.collect(extra_roots=[state]).swept_nodes == 0
        with pytest.raises(DDError, match="has been freed"):
            memory.manager


def test_simulator_drop_frees_manager(managers):
    with cyclic_gc_off():
        simulator = Simulator(SimulatorConfig(system="algebraic-gcd").create_manager(4))
        simulator.run(_circuit())
        del simulator
        assert_freed(managers)
