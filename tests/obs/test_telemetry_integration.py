"""End-to-end telemetry: registry-backed statistics, spans, schemas.

The uniform-table-schema regression here is the contract the
``profile`` CLI and ``evalsuite.reporting.hit_rate_rows`` build on:
every engine table -- unique tables, compute tables, weight memos, the
numeric complex table -- reports ``size/hits/misses/inserts/evictions``
under all four number systems.
"""

import pytest

from repro.algorithms.grover import grover_circuit
from repro.api import SimulatorConfig
from repro.dd.manager import algebraic_gcd_manager, algebraic_manager, numeric_manager
from repro.evalsuite.reporting import hit_rate_rows
from repro.obs import Telemetry, validate_chrome_trace, spans_to_chrome_trace
from repro.sim.simulator import Simulator

UNIFORM_KEYS = {"size", "hits", "misses", "inserts", "evictions"}

SYSTEMS = {
    "numeric-double": lambda n, **kw: numeric_manager(n, eps=1e-12, **kw),
    "numeric-single": lambda n, **kw: numeric_manager(
        n, eps=1e-6, precision="single", **kw
    ),
    "algebraic-q": algebraic_manager,
    "algebraic-gcd": algebraic_gcd_manager,
}


def _run_grover(factory, telemetry=None):
    kwargs = {} if telemetry is None else {"telemetry": telemetry}
    manager = factory(3, **kwargs)
    simulator = Simulator(manager)
    simulator.run(grover_circuit(3, 2))
    return manager


class TestUniformSchema:
    @pytest.mark.parametrize("kind", list(SYSTEMS))
    def test_every_table_reports_the_uniform_counters(self, kind):
        manager = _run_grover(SYSTEMS[kind])
        stats = manager.statistics()
        tables = {}
        tables.update(("ut." + name, t) for name, t in stats["unique_tables"].items())
        tables.update(("ct." + name, t) for name, t in stats["compute_tables"].items())
        tables.update(("w." + name, t) for name, t in stats["weights"].items())
        assert tables, f"no tables reported for {kind}"
        for name, table in tables.items():
            missing = UNIFORM_KEYS - set(table)
            assert not missing, f"{kind}/{name} missing {sorted(missing)}"
            for key in UNIFORM_KEYS:
                assert table[key] >= 0, f"{kind}/{name}[{key}] negative"

    @pytest.mark.parametrize("kind", list(SYSTEMS))
    def test_hit_rate_rows_cover_every_system(self, kind):
        manager = _run_grover(SYSTEMS[kind])
        rows = hit_rate_rows(manager.telemetry.metrics.snapshot())
        tables = {row[0] for row in rows}
        assert "dd.ct.apply" in tables
        assert any(table.startswith("dd.ut.") for table in tables)
        assert any(table.startswith("weights.") for table in tables)


class TestRegistryIntegration:
    def test_apply_routing_counters(self):
        manager = _run_grover(SYSTEMS["algebraic-q"])
        snapshot = manager.telemetry.metrics.snapshot()
        assert snapshot["dd.apply.direct"] == manager.apply_direct_ops
        assert snapshot["dd.apply.direct"] > 0
        assert snapshot["sim.gates"] == snapshot["dd.apply.direct"]
        assert snapshot["sim.state.peak_nodes"] >= snapshot["sim.state.nodes"]

    def test_system_metric_values_in_snapshot(self):
        gcd = _run_grover(SYSTEMS["algebraic-gcd"])
        snapshot = gcd.telemetry.metrics.snapshot()
        assert snapshot["rings.domega.bit_width"] >= 1
        assert snapshot["rings.domega.interned_values"] > 0
        numeric = _run_grover(SYSTEMS["numeric-double"])
        snapshot = numeric.telemetry.metrics.snapshot()
        assert snapshot["numeric.eps.lookups"] > 0
        assert (
            snapshot["numeric.eps.identifications"]
            == snapshot["numeric.eps.lookups"] - snapshot["numeric.eps.inserts"]
        )

    def test_disabled_telemetry_keeps_collector_statistics(self):
        manager = _run_grover(SYSTEMS["algebraic-q"], telemetry=Telemetry.disabled())
        stats = manager.statistics()
        # Hot tables always count; only push instruments are null.
        assert stats["compute_tables"]["apply"]["misses"] > 0
        assert manager.apply_direct_ops == 0  # push counter was null
        snapshot = manager.telemetry.metrics.snapshot()
        assert snapshot["dd.ct.apply.misses"] > 0

    def test_unused_compute_tables_export_no_keys(self):
        # The apply kernel never touches the matrix-DD compute tables, so
        # a default run must not export their (all-zero) counters; the
        # matrix-DD gate path uses them and exports live counts.
        from repro.api import RunRequest, run

        circuit = grover_circuit(5, 3)
        kernel = run(RunRequest(circuit, SimulatorConfig(system="algebraic-gcd"))).metrics
        unused = [
            name
            for name in kernel
            if name.startswith(("dd.ct.mat_vec.", "dd.ct.mat_mat.", "dd.ct.kron."))
        ]
        assert unused == []
        assert kernel["dd.ct.apply.misses"] > 0
        manager = SimulatorConfig(system="algebraic-gcd").create_manager(circuit.num_qubits)
        simulator = Simulator(manager)
        state = manager.zero_state()
        for operation in circuit:
            state = manager.mat_vec(simulator.gate_dd(operation), state)
        assert manager.telemetry.metrics.snapshot()["dd.ct.mat_vec.hits"] > 0

    def test_legacy_statistics_match_snapshot(self):
        manager = _run_grover(SYSTEMS["algebraic-q"])
        stats = manager.statistics()
        snapshot = manager.telemetry.metrics.snapshot()
        assert stats["vector_nodes"] == snapshot["dd.nodes.vector"]
        assert (
            stats["compute_tables"]["apply"]["hits"] == snapshot["dd.ct.apply.hits"]
        )


class TestTracingIntegration:
    def test_gate_spans_recorded(self):
        telemetry = Telemetry.tracing()
        manager = SYSTEMS["algebraic-q"](3, telemetry=telemetry)
        result = Simulator(manager).run(grover_circuit(3, 2))
        spans = telemetry.tracer.spans()
        names = {span.name for span in spans}
        assert "sim.gate" in names
        assert "dd.apply.direct" in names
        gate_spans = [span for span in spans if span.name == "sim.gate"]
        assert len(gate_spans) == len(result.trace.steps)
        assert all("node_delta" in span.attrs for span in gate_spans)
        document = spans_to_chrome_trace(spans)
        assert validate_chrome_trace(document) == []

    def test_detail_spans(self):
        telemetry = Telemetry.tracing(detail=True)
        manager = SYSTEMS["algebraic-q"](3, telemetry=telemetry)
        Simulator(manager).run(grover_circuit(3, 2))
        names = {span.name for span in telemetry.tracer.spans()}
        assert "dd.ut.lookup" in names
        assert "dd.normalize" in names

    def test_sanitizer_spans(self):
        telemetry = Telemetry.tracing()
        manager = SYSTEMS["algebraic-q"](3, telemetry=telemetry)
        simulator = Simulator(manager, config=SimulatorConfig(sanitize="check-on-root"))
        simulator.run(grover_circuit(3, 2))
        names = {span.name for span in telemetry.tracer.spans()}
        assert "dd.sanitize.walk" in names
