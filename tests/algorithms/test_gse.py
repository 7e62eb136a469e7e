"""Tests for the GSE (phase estimation) benchmark."""

import math

import numpy as np
import pytest

from repro.algorithms.gse import (
    DiagonalHamiltonian,
    default_hamiltonian,
    ground_state,
    gse_circuit,
    gse_rotation_circuit,
)
from repro.api import SimulatorConfig
from repro.dd.manager import algebraic_manager, numeric_manager
from repro.errors import CircuitError
from repro.sim.simulator import Simulator
from repro.sim.statevector import StatevectorSimulator

SMALL = dict(max_words=2000, max_length=18)


class TestHamiltonian:
    def test_energy_of_z_basis(self):
        hamiltonian = DiagonalHamiltonian(
            num_sites=2, fields=(0.5, -0.25), couplings=((0, 1, 0.1),)
        )
        # |00>: z = (+1, +1)
        assert hamiltonian.energy(0) == pytest.approx(0.5 - 0.25 + 0.1)
        # |11>: z = (-1, -1)
        assert hamiltonian.energy(3) == pytest.approx(-0.5 + 0.25 + 0.1)
        # |01>: z = (+1, -1)
        assert hamiltonian.energy(1) == pytest.approx(0.5 + 0.25 - 0.1)

    def test_spectrum_size(self):
        assert len(default_hamiltonian(3).spectrum()) == 8

    def test_ground_state_is_minimum(self):
        hamiltonian = default_hamiltonian(3)
        index, energy = ground_state(hamiltonian)
        assert energy == min(hamiltonian.spectrum())
        assert hamiltonian.energy(index) == energy

    def test_default_coefficients_irrational(self):
        """No evolution angle may be a pi/4 multiple, or the benchmark
        would not exercise the approximation path."""
        hamiltonian = default_hamiltonian(3)
        for coefficient in hamiltonian.fields:
            ratio = coefficient / (math.pi / 4)
            assert abs(ratio - round(ratio)) > 1e-6

    def test_validation(self):
        with pytest.raises(CircuitError):
            default_hamiltonian(0)


class TestRotationCircuit:
    def test_phase_estimation_recovers_energy(self):
        """With a diagonal H and eigenstate input, the ancilla register
        must peak at the binary phase of exp(i E t)."""
        hamiltonian = DiagonalHamiltonian(num_sites=2, fields=(0.7, -0.3), couplings=())
        bits = 5
        time = 1.0
        circuit = gse_rotation_circuit(
            num_sites=2, precision_bits=bits, time=time, hamiltonian=hamiltonian
        )
        state = StatevectorSimulator(circuit.num_qubits).run(circuit)
        probabilities = np.abs(state) ** 2
        # Ancillas are the most significant qubits.
        ancilla_probs = probabilities.reshape(1 << bits, -1).sum(axis=1)
        measured = int(ancilla_probs.argmax())
        index, energy = ground_state(hamiltonian)
        expected_phase = (energy * time / (2 * math.pi)) % 1.0
        measured_phase = measured / (1 << bits)
        distance = min(
            abs(measured_phase - expected_phase),
            1 - abs(measured_phase - expected_phase),
        )
        assert distance <= 1.5 / (1 << bits)

    def test_not_exactly_representable(self):
        """The raw GSE circuit is the paper's 'not directly compatible'
        case: arbitrary-angle rotations."""
        circuit = gse_rotation_circuit(num_sites=2, precision_bits=3)
        assert not circuit.is_exactly_representable

    def test_hamiltonian_size_mismatch(self):
        with pytest.raises(CircuitError):
            gse_rotation_circuit(
                num_sites=3, precision_bits=2, hamiltonian=default_hamiltonian(2)
            )

    def test_precision_bits_validation(self):
        with pytest.raises(CircuitError):
            gse_rotation_circuit(num_sites=2, precision_bits=0)


class TestCompiledCircuit:
    def test_compiled_is_exact(self):
        compiled = gse_circuit(num_sites=2, precision_bits=2, **SMALL)
        assert compiled.is_exactly_representable
        assert compiled.t_count() > 0

    def test_compiled_much_longer(self):
        raw = gse_rotation_circuit(num_sites=2, precision_bits=2)
        compiled = gse_circuit(num_sites=2, precision_bits=2, **SMALL)
        assert len(compiled) > 3 * len(raw)

    def test_algebraic_simulation_runs(self):
        """The compiled circuit must simulate exactly -- and produce a
        state close to the raw rotation circuit's."""
        compiled = gse_circuit(num_sites=2, precision_bits=2, **SMALL)
        result = Simulator(algebraic_manager(compiled.num_qubits)).run(compiled)
        dense = StatevectorSimulator(compiled.num_qubits).run(compiled)
        np.testing.assert_allclose(result.final_amplitudes(), dense, atol=1e-8)

    def test_compiled_close_to_rotation_circuit(self):
        raw = gse_rotation_circuit(num_sites=2, precision_bits=2)
        compiled = gse_circuit(num_sites=2, precision_bits=2, **SMALL)
        simulator = StatevectorSimulator(raw.num_qubits)
        overlap = abs(np.vdot(simulator.run(raw), simulator.run(compiled)))
        assert overlap > 0.9  # coarse budget, many rotations

    def test_bit_width_growth(self):
        """Paper Fig. 5 / Section V-B: algebraic simulation of the
        compiled GSE circuit grows integer bit-widths substantially."""
        compiled = gse_circuit(num_sites=2, precision_bits=2, **SMALL)
        result = Simulator(
            algebraic_manager(compiled.num_qubits),
            config=SimulatorConfig(record_bit_widths=True),
        ).run(compiled)
        widths = [step.max_bit_width for step in result.trace.steps]
        assert max(widths) > 16  # far beyond the Grover/BWT regime

    def test_numeric_simulation_of_compiled(self):
        compiled = gse_circuit(num_sites=2, precision_bits=2, **SMALL)
        result = Simulator(numeric_manager(compiled.num_qubits, eps=1e-12)).run(compiled)
        assert not result.is_zero_state
