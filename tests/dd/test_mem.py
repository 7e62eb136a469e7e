"""Tests for the node lifecycle / memory-management subsystem.

Covers the :mod:`repro.dd.mem` contract: incremental refcounts agree
with a structural recount, mark-and-sweep keeps exactly the reachable
closure, derived memo state (compute tables, weight memos, weight
tables) is invalidated or swept coherently, and the trigger policy
(threshold growth, hard budgets) behaves as documented.
"""

import pytest

from repro.api import SimulatorConfig
from repro.circuits.circuit import Circuit
from repro.dd.edge import REF_SATURATION, TERMINAL
from repro.dd.manager import (
    algebraic_gcd_manager,
    algebraic_manager,
    numeric_manager,
)
from repro.dd.mem import GcStats, MemoryBudget, MemoryConfig
from repro.errors import DDError, MemoryBudgetExceeded
from repro.sim.simulator import Simulator


def _entangled_state(manager, num_qubits=3):
    circuit = Circuit(num_qubits).h(0)
    for target in range(1, num_qubits):
        circuit.cx(target - 1, target)
    return Simulator(manager).run(circuit).state


class TestRefcounts:
    def test_terminal_is_born_saturated(self):
        assert TERMINAL.ref == REF_SATURATION

    def test_interning_maintains_in_degrees(self, manager_factory):
        manager = manager_factory(3)
        _entangled_state(manager)
        assert manager.memory.audit() == []

    def test_audit_detects_corrupted_count(self):
        manager = algebraic_manager(3)
        state = _entangled_state(manager)
        state.node.ref += 1
        violations = manager.memory.audit()
        assert violations and violations[0].code == "refcount"
        assert violations[0].node_uid == state.node.uid

    def test_audit_skips_saturated_counts(self):
        manager = algebraic_manager(3)
        state = _entangled_state(manager)
        state.node.ref = REF_SATURATION
        assert manager.memory.audit() == []

    def test_inc_dec_roundtrip(self):
        manager = algebraic_manager(2)
        state = manager.basis_state(3)
        before = state.node.ref
        memory = manager.memory
        memory.inc_ref(state)
        memory.inc_ref(state)
        assert state.node.ref == before + 2
        memory.dec_ref(state)
        memory.dec_ref(state)
        assert state.node.ref == before
        assert memory.audit() == []

    def test_dec_ref_unregistered_raises(self):
        manager = algebraic_manager(2)
        state = manager.basis_state(0)
        with pytest.raises(DDError, match="balanced"):
            manager.memory.dec_ref(state)

    def test_saturated_count_is_sticky(self):
        manager = algebraic_manager(2)
        state = manager.basis_state(1)
        state.node.ref = REF_SATURATION
        memory = manager.memory
        memory.inc_ref(state)
        assert state.node.ref == REF_SATURATION
        memory.dec_ref(state)
        assert state.node.ref == REF_SATURATION


class TestCollect:
    def test_collect_keeps_exactly_the_registered_closure(self, manager_factory):
        manager = manager_factory(3)
        memory = manager.memory
        live = _entangled_state(manager)
        memory.inc_ref(live)
        manager.basis_state(5)  # dead intermediate state
        before = memory.node_count
        stats = memory.collect()
        assert isinstance(stats, GcStats)
        assert stats.swept_nodes > 0
        assert stats.before_nodes == before
        assert stats.after_nodes == memory.node_count
        assert memory.audit() == []
        # The retained DD still evaluates.
        assert manager.to_statevector(live) is not None

    def test_extra_roots_survive_without_registration(self):
        manager = algebraic_manager(3)
        state = _entangled_state(manager)
        manager.memory.collect(extra_roots=[state])
        uids = {node.uid for node in manager._vector_table.nodes()}
        assert state.node.uid in uids

    def test_pinned_edges_survive(self):
        manager = algebraic_manager(3)
        state = _entangled_state(manager)
        manager.memory.pin(state)
        manager.memory.collect()
        uids = {node.uid for node in manager._vector_table.nodes()}
        assert state.node.uid in uids
        assert manager.memory.audit() == []

    def test_collect_invalidates_compute_tables(self):
        manager = algebraic_manager(2)
        manager.add(manager.basis_state(0), manager.basis_state(3))
        assert manager.statistics()["add_cache"] > 0
        generation_before = manager._add_cache.generation
        stats = manager.memory.collect()
        assert stats.invalidated_entries > 0
        assert manager.statistics()["add_cache"] == 0
        assert manager._add_cache.generation == generation_before + 1

    def test_rebuild_after_collect_is_identical(self, manager_factory):
        manager = manager_factory(3)
        circuit = Circuit(3).h(0).cx(0, 1).t(1).cx(1, 2)
        reference = Simulator(manager).run(circuit).final_amplitudes()
        manager.memory.collect()
        rebuilt = Simulator(manager).run(circuit).final_amplitudes()
        assert reference.tobytes() == rebuilt.tobytes()


class TestWeightSweep:
    def test_dead_algebraic_weights_are_tombstoned(self):
        manager = algebraic_manager(3)
        _entangled_state(manager)  # dead: nothing registered
        table = manager.system.table
        before = table.statistics()["entries"]
        stats = manager.memory.collect()
        assert stats.swept_weights > 0
        after = table.statistics()["entries"]
        assert after == before - stats.swept_weights

    def test_zero_and_one_survive_everything(self):
        manager = algebraic_manager(2)
        manager.basis_state(3)
        manager.memory.collect()
        system = manager.system
        assert system.value_for_key(system.key(system.zero)) == system.zero
        assert system.value_for_key(system.key(system.one)) == system.one

    def test_swept_weight_id_raises_a_typed_error(self):
        from repro.rings.domega import DOmega

        manager = algebraic_gcd_manager(2)
        # A weight that is neither zero/one nor any gate-matrix entry
        # (gate-signature keys are kept live for the apply caches).
        weight = manager.system.from_domega(
            DOmega.from_coefficients(1, 1, 0, 0, 1)
        )
        dead_key = manager.system.key(weight)
        manager.memory.collect()  # nothing registered: the weight dies
        with pytest.raises(DDError, match="swept"):
            manager.system.table.value(dead_key)

    def test_tolerant_numeric_table_is_never_swept(self):
        manager = numeric_manager(3, eps=1e-10)
        _entangled_state(manager)
        table = manager.system.table
        before = len(table)
        stats = manager.memory.collect()
        assert stats.swept_weights == 0
        assert len(table) == before  # anchors all stay

    def test_sweep_weights_can_be_disabled(self):
        manager = algebraic_manager(3)
        manager.memory.configure(MemoryConfig(sweep_weights=False))
        _entangled_state(manager)
        stats = manager.memory.collect()
        assert stats.swept_nodes > 0
        assert stats.swept_weights == 0


class TestTriggerPolicy:
    def test_coercions(self):
        assert MemoryConfig.coerce(None).enabled is False
        assert MemoryConfig.coerce(False).enabled is False
        assert MemoryConfig.coerce(True).enabled is True
        assert MemoryConfig.coerce(64).threshold == 64
        budget = MemoryBudget(max_nodes=10)
        assert MemoryConfig.coerce(budget).budget is budget
        with pytest.raises(TypeError):
            MemoryConfig.coerce("lots")

    def test_threshold_triggers_maybe_collect(self):
        manager = algebraic_manager(3)
        memory = manager.memory
        _entangled_state(manager)  # unregistered: fully collectable
        memory.configure(MemoryConfig(threshold=2, min_yield=0.0))
        stats = memory.maybe_collect()
        assert stats is not None and stats.trigger == "threshold"
        assert memory.statistics()["collections"] == 1

    def test_low_yield_grows_the_threshold(self):
        manager = algebraic_manager(3)
        memory = manager.memory
        state = _entangled_state(manager)
        memory.inc_ref(state)
        memory.collect()  # shrink to the live closure first
        live = memory.node_count
        memory.configure(
            MemoryConfig(threshold=max(1, live), min_yield=0.9, growth_factor=2.0)
        )
        memory.maybe_collect()  # everything is live: yield ~0
        assert memory.statistics()["threshold"] == max(1, live) * 2

    def test_max_threshold_clamps_growth(self):
        manager = algebraic_manager(2)
        memory = manager.memory
        state = manager.basis_state(3)
        memory.inc_ref(state)
        memory.configure(
            MemoryConfig(threshold=1, min_yield=1.0, growth_factor=100.0, max_threshold=5)
        )
        memory.maybe_collect()
        assert memory.statistics()["threshold"] == 5

    def test_disabled_gc_never_collects(self):
        manager = algebraic_manager(3)
        _entangled_state(manager)
        assert manager.memory.maybe_collect() is None
        assert manager.memory.statistics()["collections"] == 0


class TestBudget:
    def test_budget_requires_a_limit(self):
        with pytest.raises(ValueError):
            MemoryBudget()

    def test_budget_failure_carries_the_numbers(self):
        manager = algebraic_manager(3)
        memory = manager.memory
        state = _entangled_state(manager)
        memory.inc_ref(state)
        memory.configure(MemoryConfig(enabled=False, budget=MemoryBudget(max_nodes=1)))
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            memory.maybe_collect()
        error = excinfo.value
        assert error.max_nodes == 1
        assert error.nodes > 1
        assert memory.statistics()["collections"] == 1  # it tried to collect first

    def test_budget_satisfied_after_collection_does_not_raise(self):
        manager = algebraic_manager(3)
        memory = manager.memory
        _entangled_state(manager)  # all dead
        memory.configure(MemoryConfig(enabled=False, budget=MemoryBudget(max_nodes=3)))
        stats = memory.maybe_collect()
        assert stats is not None and stats.trigger == "budget"

    def test_byte_budget(self):
        manager = algebraic_manager(3)
        memory = manager.memory
        state = _entangled_state(manager)
        memory.inc_ref(state)
        assert memory.approx_bytes() > 0
        memory.configure(MemoryConfig(enabled=False, budget=MemoryBudget(max_bytes=1)))
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            memory.maybe_collect()
        assert excinfo.value.approx_bytes is not None


class TestSimulatorWiring:
    def test_simulator_gc_keeps_the_final_state_registered(self):
        manager = algebraic_manager(4)
        simulator = Simulator(manager, config=SimulatorConfig(gc=8, gc_min_yield=0.0))
        circuit = Circuit(4).h(0).cx(0, 1).t(1).cx(1, 2).cx(2, 3)
        result = simulator.run(circuit)
        memory = manager.memory
        assert memory.statistics()["collections"] > 0
        assert memory.statistics()["registered_roots"] == 1
        assert memory.audit() == []
        # The final state must still be resident and evaluable.
        assert manager.to_statevector(result.state) is not None

    def test_simulator_budget_failure_is_typed(self):
        manager = algebraic_manager(6)
        simulator = Simulator(manager, config=SimulatorConfig(max_nodes=4))
        circuit = Circuit(6)
        for qubit in range(6):
            circuit.h(qubit)
        circuit.cx(0, 5)
        with pytest.raises(MemoryBudgetExceeded):
            simulator.run(circuit)

    def test_manager_statistics_expose_gc_block(self):
        manager = algebraic_manager(2)
        stats = manager.statistics()["gc"]
        assert stats["enabled"] is False
        assert stats["collections"] == 0

    def test_collect_garbage_entry_point(self):
        manager = algebraic_manager(3)
        state = _entangled_state(manager)
        stats = manager.collect_garbage(roots=[state])
        assert stats.trigger == "explicit"
        assert manager.memory.audit() == []
