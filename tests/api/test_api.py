"""Tests for the repro.api facade: config validation, run, deprecation."""

import warnings

import pytest

import repro
from repro import Circuit
from repro.api import (
    RunRequest,
    RunResult,
    SANITIZE_MODES,
    SYSTEMS,
    SimulatorConfig,
    make_simulator,
    run,
)
from repro.dd.manager import algebraic_manager
from repro.errors import ConfigError
from repro.sim.simulator import Simulator


def bell(num_qubits: int = 2) -> Circuit:
    circuit = Circuit(num_qubits, name=f"bell{num_qubits}")
    circuit.h(0)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    return circuit


class TestSimulatorConfig:
    def test_defaults_are_valid(self):
        config = SimulatorConfig()
        assert config.system == "algebraic"
        assert config.label == "algebraic"

    def test_numeric_label_carries_eps(self):
        assert SimulatorConfig(system="numeric", eps=1e-5).label == "eps=1e-05"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"system": "bogus"},
            {"sanitize": "sometimes"},
            {"telemetry": "loud"},
            {"normalization": "rightmost"},
            {"precision": "quad"},
            {"eps": -1.0},
            {"gc": 0},
            {"max_nodes": 0},
            {"max_bytes": -5},
        ],
    )
    def test_validation_is_eager(self, kwargs):
        with pytest.raises(ConfigError):
            SimulatorConfig(**kwargs)

    def test_frozen_and_hashable(self):
        config = SimulatorConfig()
        with pytest.raises(Exception):
            config.system = "numeric"
        assert config in {config}

    def test_with_updates_revalidates(self):
        config = SimulatorConfig().with_updates(system="numeric", eps=1e-6)
        assert config.eps == 1e-6
        with pytest.raises(ConfigError):
            config.with_updates(eps=-1.0)

    def test_memory_config_shapes(self):
        assert SimulatorConfig().memory_config() is None
        gc_only = SimulatorConfig(gc=500).memory_config()
        assert gc_only is not None and gc_only.enabled and gc_only.threshold == 500
        budget_only = SimulatorConfig(max_nodes=100).memory_config()
        assert budget_only is not None and not budget_only.enabled
        assert budget_only.budget.max_nodes == 100

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_create_simulator_runs_every_system(self, system):
        config = SimulatorConfig(system=system, eps=1e-10)
        result = config.create_simulator(2).run(bell())
        assert result.node_count >= 1

    @pytest.mark.parametrize("mode", SANITIZE_MODES)
    def test_sanitize_modes_accepted(self, mode):
        simulator = SimulatorConfig(sanitize=mode).create_simulator(2)
        simulator.run(bell())
        assert (simulator.sanitizer is None) == (mode == "off")


class TestRun:
    def test_run_returns_transportable_result(self):
        result = run(RunRequest(bell()))
        assert isinstance(result, RunResult)
        assert result.label == "bell2/algebraic"
        assert result.num_gates == 2
        assert not result.is_zero_state
        assert result.metrics  # telemetry snapshot rode along
        manager, state = result.restore_state()
        assert manager.node_count(state) == result.node_count

    def test_empty_circuit_counts_its_initial_state(self):
        # No gate, so no trace step holds the count: run walks |000>.
        result = run(RunRequest(Circuit(3, name="empty")))
        assert result.num_gates == 0 and not result.trace.steps
        assert result.node_count == 3

    def test_error_reference_fills_error_series(self):
        request = RunRequest(
            bell(),
            SimulatorConfig(system="numeric", eps=1e-8),
            error_reference=SimulatorConfig(system="algebraic"),
        )
        result = run(request)
        assert result.final_error is not None and result.final_error < 1e-6
        assert result.fidelity == pytest.approx(1.0, abs=1e-9)
        errors = [e for e in result.trace.errors() if e is not None]
        assert len(errors) == result.num_gates

    def test_empty_circuit_with_error_reference(self):
        # No gate, so no per-gate error: the error is that of the
        # initial states, and both runs start from |000>.
        request = RunRequest(
            Circuit(3, name="empty"),
            SimulatorConfig(system="numeric", eps=1e-2),
            error_reference=SimulatorConfig(),
        )
        result = run(request)
        assert result.num_gates == 0 and not result.trace.steps
        assert result.final_error == 0.0
        assert result.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_to_dict_is_json_ready(self):
        import json

        payload = json.dumps(run(RunRequest(bell())).to_dict())
        assert "state_payload" in payload


class TestDeprecation:
    def test_plain_construction_stays_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Simulator(algebraic_manager(2))

    def test_config_path_wires_sanitizer_and_gc(self):
        config = SimulatorConfig(sanitize="check-on-root", gc=100)
        simulator = make_simulator(config.create_manager(2), config)
        assert simulator.sanitizer is not None
        simulator.run(bell())


class TestReExports:
    def test_facade_names_on_the_package_root(self):
        assert repro.SimulatorConfig is SimulatorConfig
        assert repro.RunRequest is RunRequest
        assert repro.RunResult is RunResult
        assert repro.run is run
        for name in ("SimulatorConfig", "RunRequest", "RunResult", "run", "run_batch"):
            assert name in repro.__all__
