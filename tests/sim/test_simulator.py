"""Tests for the QMDD circuit simulator against the dense reference."""

import math

import numpy as np
import pytest

from repro.api import RunRequest, SimulatorConfig, run
from repro.circuits.circuit import Circuit
from repro.circuits.library import ghz_circuit, qft_circuit, uniform_superposition
from repro.dd.manager import algebraic_gcd_manager, algebraic_manager, numeric_manager
from repro.errors import SimulationError
from repro.sim.simulator import Simulator
from repro.sim.statevector import StatevectorSimulator

ALL_MANAGERS = [
    ("numeric", lambda n: numeric_manager(n, eps=0.0)),
    ("numeric-tol", lambda n: numeric_manager(n, eps=1e-10)),
    ("algebraic-q", algebraic_manager),
    ("algebraic-gcd", algebraic_gcd_manager),
]


def random_clifford_t_circuit(num_qubits, num_gates, seed):
    """A random exactly-representable circuit (like the paper's Grover/BWT)."""
    import random

    rng = random.Random(seed)
    circuit = Circuit(num_qubits, name=f"random_{seed}")
    for _ in range(num_gates):
        choice = rng.randrange(6)
        qubit = rng.randrange(num_qubits)
        if choice == 0:
            circuit.h(qubit)
        elif choice == 1:
            circuit.t(qubit)
        elif choice == 2:
            circuit.s(qubit)
        elif choice == 3:
            circuit.x(qubit)
        elif choice == 4 and num_qubits > 1:
            other = rng.randrange(num_qubits - 1)
            other = other if other != qubit else num_qubits - 1
            circuit.cx(qubit, other)
        else:
            circuit.z(qubit)
    return circuit


class TestAgainstDenseReference:
    @pytest.mark.parametrize("kind,factory", ALL_MANAGERS, ids=[k for k, _ in ALL_MANAGERS])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_clifford_t(self, kind, factory, seed):
        n = 4
        circuit = random_clifford_t_circuit(n, 25, seed)
        result = Simulator(factory(n)).run(circuit)
        expected = StatevectorSimulator(n).run(circuit)
        np.testing.assert_allclose(result.final_amplitudes(), expected, atol=1e-9)

    @pytest.mark.parametrize("kind,factory", ALL_MANAGERS, ids=[k for k, _ in ALL_MANAGERS])
    def test_ghz(self, kind, factory):
        result = Simulator(factory(4)).run(ghz_circuit(4))
        expected = StatevectorSimulator(4).run(ghz_circuit(4))
        np.testing.assert_allclose(result.final_amplitudes(), expected, atol=1e-12)
        assert result.node_count == 7  # GHZ is linear-size (2n-1 nodes)

    def test_qft_numeric_only(self):
        """The 5-qubit QFT has pi/8 phases -- numeric simulation works,
        algebraic must refuse (paper: GSE needed Quipper preprocessing)."""
        circuit = qft_circuit(5)
        result = Simulator(numeric_manager(5)).run(circuit)
        expected = StatevectorSimulator(5).run(circuit)
        np.testing.assert_allclose(result.final_amplitudes(), expected, atol=1e-9)
        with pytest.raises(SimulationError):
            Simulator(algebraic_manager(5)).run(circuit)

    def test_uniform_superposition_is_one_node_per_level(self):
        result = Simulator(algebraic_manager(6)).run(uniform_superposition(6))
        assert result.node_count == 6
        np.testing.assert_allclose(
            result.final_amplitudes(), np.full(64, 1 / 8.0), atol=1e-12
        )


class TestExactness:
    def test_algebraic_amplitudes_are_exact(self):
        """After H T H Tdg ... the algebraic amplitudes are exact ring
        elements; verify one against its closed form."""
        from repro.rings.qomega import QOmega

        circuit = Circuit(1).h(0).t(0).h(0)
        result = Simulator(algebraic_manager(1)).run(circuit)
        amp0 = result.manager.amplitude(result.state, 0)
        # HTH|0> amplitude 0: (1 + omega)/2
        expected = (QOmega.one() + QOmega.omega_power(1)) * QOmega.one_over_sqrt2(2)
        assert amp0 == expected

    def test_numeric_eps0_misses_redundancy(self):
        """(H;H)^k on all qubits: algebraic recognises |0..0> exactly;
        eps=0 numeric typically accumulates distinct float weights."""
        n = 3
        circuit = Circuit(n)
        for _ in range(4):
            for q in range(n):
                circuit.h(q)
        alg = Simulator(algebraic_manager(n)).run(circuit)
        assert alg.manager.edges_equal(alg.state, alg.manager.zero_state())

    def test_trace_metrics_recorded(self):
        circuit = ghz_circuit(3)
        result = Simulator(algebraic_manager(3)).run(circuit)
        trace = result.trace
        assert len(trace.steps) == len(circuit)
        assert trace.final_node_count == 5  # GHZ on 3 qubits: 2n-1
        assert trace.peak_node_count >= 1
        assert trace.total_seconds > 0
        assert trace.steps[0].gate_name == "h"

    def test_bit_width_recording(self):
        circuit = Circuit(2).h(0).t(0).h(0).t(0)
        config = SimulatorConfig(record_bit_widths=True)
        result = Simulator(algebraic_manager(2), config=config).run(circuit)
        assert all(step.max_bit_width >= 1 for step in result.trace.steps)
        # The bit-width instruments exist only while recording, so a
        # default run exports no always-zero gauge or empty histogram.
        recorded = run(RunRequest(circuit, config)).metrics
        assert recorded["sim.state.max_bit_width"] > 0
        assert "sim.state.bit_width" in recorded
        default = run(RunRequest(circuit)).metrics
        assert "sim.state.max_bit_width" not in default
        assert "sim.state.bit_width" not in default


class TestUnitary:
    @pytest.mark.parametrize("kind,factory", ALL_MANAGERS, ids=[k for k, _ in ALL_MANAGERS])
    def test_circuit_unitary_matches_dense(self, kind, factory):
        circuit = Circuit(3).h(0).cx(0, 1).t(2).ccx(0, 2, 1)
        manager = factory(3)
        unitary = Simulator(manager).unitary(circuit)
        expected = StatevectorSimulator(3).unitary(circuit)
        np.testing.assert_allclose(manager.to_matrix(unitary), expected, atol=1e-9)

    def test_unitary_of_inverse_is_adjoint(self):
        circuit = Circuit(2).h(0).t(1).cx(0, 1)
        manager = algebraic_manager(2)
        simulator = Simulator(manager)
        forward = manager.to_matrix(simulator.unitary(circuit))
        backward = manager.to_matrix(simulator.unitary(circuit.inverse()))
        np.testing.assert_allclose(backward, forward.conj().T, atol=1e-9)


class TestValidation:
    def test_width_mismatch(self):
        with pytest.raises(SimulationError):
            Simulator(numeric_manager(2)).run(Circuit(3).h(0))

    def test_gate_cache_reuse(self):
        # Kernel path: the ten identical gates share one prepared kernel.
        simulator = Simulator(algebraic_manager(2))
        circuit = Circuit(2)
        for _ in range(10):
            circuit.h(0)
        simulator.run(circuit)
        assert len(simulator._kernel_cache) == 1
        # Matrix-DD path: they share one built gate DD.
        manager = algebraic_manager(2)
        simulator = Simulator(manager)
        state = manager.zero_state()
        for operation in circuit:
            state = manager.mat_vec(simulator.gate_dd(operation), state)
        assert len(simulator._gate_cache) == 1

    def test_step_callback(self):
        seen = []
        Simulator(numeric_manager(2)).run(
            ghz_circuit(2), step_callback=lambda i, s: seen.append(i)
        )
        assert seen == [0, 1]

    def test_initial_state_override(self):
        manager = algebraic_manager(2)
        simulator = Simulator(manager)
        start = manager.basis_state(3)
        result = simulator.run(Circuit(2).x(0), initial_state=start)
        np.testing.assert_allclose(
            result.final_amplitudes(), [0, 1, 0, 0], atol=1e-12
        )
