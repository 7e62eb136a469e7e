"""Regression tests for monotonic table statistics and apply routing
counters.

Satellite fixes under test:

* :class:`ComputeTable` wholesale eviction and ``clear`` must keep all
  counters monotonic and account for dropped entries in
  ``evicted_entries`` (previously a cleared table looked like a fresh
  one, so benchmark snapshots went backwards).
* :class:`UniqueTable.clear` keeps its hit/miss counters.
* ``DDManager.statistics()`` exposes how many gate applications the
  direct apply kernel handled itself (``apply_direct_ops``) versus
  delegated to the matrix path (``apply_delegated_ops`` -- the numeric
  below-target-control escape hatch).
"""

import pytest

from repro.circuits.circuit import Circuit
from repro.dd.manager import algebraic_manager, numeric_manager
from repro.dd.unique_table import ComputeTable, UniqueTable
from repro.sim.simulator import Simulator


class TestComputeTableMonotonicStats:
    def test_eviction_accounts_for_dropped_entries(self):
        table = ComputeTable("t", capacity=4)
        for i in range(4):
            table.put(i, i)
        stats = table.statistics()
        assert stats["size"] == 4 and stats["evicted_entries"] == 0
        table.put(99, 99)  # triggers wholesale eviction
        stats = table.statistics()
        assert stats["size"] == 1
        assert stats["evictions"] == 1
        assert stats["evicted_entries"] == 4
        assert stats["inserts"] == 5

    def test_clear_keeps_counters(self):
        table = ComputeTable("t", capacity=8)
        table.put("a", 1)
        assert table.get("a") == 1
        assert table.get("b") is None
        before = table.statistics()
        table.clear()
        after = table.statistics()
        assert after["size"] == 0
        assert after["hits"] == before["hits"] == 1
        assert after["misses"] == before["misses"] == 1
        assert after["inserts"] == before["inserts"] == 1
        assert after["evicted_entries"] == 1  # the cleared entry is counted

    def test_counters_monotonic_across_mixed_operations(self):
        table = ComputeTable("t", capacity=3)
        previous = table.statistics()
        for step in range(40):
            table.put(step % 7, step)
            table.get(step % 5)
            if step % 11 == 0:
                table.clear()
            current = table.statistics()
            for counter in ("hits", "misses", "inserts", "evictions", "evicted_entries"):
                assert current[counter] >= previous[counter], counter
            previous = current


class TestUniqueTableMonotonicStats:
    def test_clear_keeps_hit_miss_counters(self):
        manager = algebraic_manager(2)
        manager.basis_state(0)
        manager.basis_state(0)  # re-interns the same nodes: hits
        table = manager._vector_table
        before = table.statistics()
        assert before["hits"] > 0 and before["misses"] > 0
        table.clear()
        after = table.statistics()
        assert after["size"] == 0
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]

    def test_prune_keeps_cumulative_counters(self):
        manager = algebraic_manager(3)
        circuit = Circuit(3, name="mix")
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.t(2)
        state = Simulator(manager).run(circuit).state
        before = manager.statistics()
        manager.prune([state])
        after = manager.statistics()
        for arity in ("vector", "matrix"):
            assert (
                after["unique_tables"][arity]["hits"]
                >= before["unique_tables"][arity]["hits"]
            )
            assert (
                after["unique_tables"][arity]["misses"]
                >= before["unique_tables"][arity]["misses"]
            )
        for name, counters in after["compute_tables"].items():
            for key in ("hits", "misses", "inserts", "evicted_entries"):
                assert counters[key] >= before["compute_tables"][name][key], (name, key)


class TestApplyRoutingCounters:
    def test_numeric_below_target_control_delegates(self):
        # Control on qubit 1 (level 1) below target qubit 0 (level 2):
        # the numeric system takes the matrix-path escape hatch.
        manager = numeric_manager(2, eps=0.0)
        circuit = Circuit(2, name="updown")
        circuit.h(1)
        circuit.cx(1, 0)  # control below target
        circuit.cx(0, 1)  # control above target: direct
        Simulator(manager).run(circuit)
        stats = manager.statistics()
        assert stats["apply_delegated_ops"] == 1
        assert stats["apply_direct_ops"] == 2

    def test_exact_system_never_delegates(self):
        manager = algebraic_manager(2)
        circuit = Circuit(2, name="updown")
        circuit.h(1)
        circuit.cx(1, 0)
        circuit.cx(0, 1)
        Simulator(manager).run(circuit)
        stats = manager.statistics()
        assert stats["apply_delegated_ops"] == 0
        assert stats["apply_direct_ops"] == 3

    def test_matrix_path_touches_neither_counter(self):
        manager = numeric_manager(2, eps=0.0)
        circuit = Circuit(2, name="bell")
        circuit.h(0)
        circuit.cx(0, 1)
        simulator = Simulator(manager)
        state = manager.zero_state()
        for operation in circuit:
            state = manager.mat_vec(simulator.gate_dd(operation), state)
        stats = manager.statistics()
        assert stats["apply_delegated_ops"] == 0
        assert stats["apply_direct_ops"] == 0


class TestComputeTableBalanceInvariant:
    """Regression: ``discard`` removed entries without counting them, so
    ``inserts - evicted_entries`` overstated the resident size and
    snapshot deltas went negative after a sanitizer memo replay.  The
    accounting now satisfies, at every point in time::

        inserts - evicted_entries - discards == len(table)

    and overwriting an existing key is an ``update``, not an insert."""

    @staticmethod
    def _assert_balanced(table):
        stats = table.statistics()
        assert (
            stats["inserts"] - stats["evicted_entries"] - stats["discards"]
            == stats["size"]
        )

    def test_discard_is_counted(self):
        table = ComputeTable("t", capacity=8)
        table.put("a", 1)
        assert table.discard("a") == 1
        assert table.discard("a") is None  # absent: not double-counted
        stats = table.statistics()
        assert stats["discards"] == 1
        assert stats["size"] == 0
        self._assert_balanced(table)

    def test_overwrite_is_an_update_not_an_insert(self):
        table = ComputeTable("t", capacity=8)
        table.put("a", 1)
        table.put("a", 2)
        stats = table.statistics()
        assert stats["inserts"] == 1
        assert stats["updates"] == 1
        assert table.get("a") == 2
        self._assert_balanced(table)

    def test_invalidate_bumps_generation_and_balances(self):
        table = ComputeTable("t", capacity=8)
        for i in range(5):
            table.put(i, i)
        assert table.generation == 0
        dropped = table.invalidate()
        assert dropped == 5
        stats = table.statistics()
        assert stats["generation"] == 1
        assert stats["invalidations"] == 1
        assert stats["size"] == 0
        self._assert_balanced(table)

    def test_balance_holds_across_mixed_operations(self):
        table = ComputeTable("t", capacity=3)
        for step in range(60):
            table.put(step % 7, step)      # inserts, updates, evictions
            if step % 5 == 0:
                table.discard(step % 7)
            if step % 13 == 0:
                table.invalidate()
            if step % 17 == 0:
                table.clear()
            self._assert_balanced(table)
