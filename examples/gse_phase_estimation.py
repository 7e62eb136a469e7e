"""Ground State Estimation via phase estimation (paper benchmark 3).

Shows the full paper pipeline: a diagonal model Hamiltonian, the raw
rotation circuit (not exactly representable), the Clifford+T compiled
version (exact, via repro.approx -- our Quipper substitute), and the
phase read-out, plus the bit-width growth that makes this the algebraic
representation's worst case (paper Fig. 5 / Section V-B).

Run:  python examples/gse_phase_estimation.py
"""

import math

import numpy as np

from repro import Simulator, SimulatorConfig, algebraic_manager, numeric_manager
from repro.algorithms.gse import (
    default_hamiltonian,
    ground_state,
    gse_circuit,
    gse_rotation_circuit,
)


def main() -> None:
    num_sites, precision_bits, time = 2, 3, 0.5
    hamiltonian = default_hamiltonian(num_sites)
    index, energy = ground_state(hamiltonian)
    print(f"model Hamiltonian on {num_sites} sites; ground state |{index:0{num_sites}b}> "
          f"with energy {energy:.6f}")
    expected_phase = (energy * time / (2 * math.pi)) % 1.0
    print(f"expected phase reading: {expected_phase:.4f} "
          f"(~ {round(expected_phase * (1 << precision_bits))}/{1 << precision_bits})")
    print()

    raw = gse_rotation_circuit(num_sites, precision_bits, time, hamiltonian)
    print(f"raw phase-estimation circuit: {len(raw)} gates, "
          f"exactly representable: {raw.is_exactly_representable}")

    compiled = gse_circuit(num_sites, precision_bits, time, hamiltonian, max_words=4000)
    print(f"Clifford+T compiled: {len(compiled)} gates "
          f"(T-count {compiled.t_count()}), exactly representable: "
          f"{compiled.is_exactly_representable}")
    print()

    result = Simulator(
        algebraic_manager(compiled.num_qubits),
        config=SimulatorConfig(record_bit_widths=True),
    ).run(compiled)
    amplitudes = result.final_amplitudes()
    ancilla_probs = (np.abs(amplitudes) ** 2).reshape(1 << precision_bits, -1).sum(axis=1)
    measured = int(ancilla_probs.argmax())
    print("phase register distribution (algebraic, exact):")
    for value, probability in enumerate(ancilla_probs):
        if probability > 0.01:
            marker = " <-- peak" if value == measured else ""
            print(f"  {value}/{1 << precision_bits}: {probability:.4f}{marker}")
    print(f"measured phase {measured}/{1 << precision_bits} = "
          f"{measured / (1 << precision_bits):.4f}")
    print()

    widths = [step.max_bit_width for step in result.trace.steps]
    print("integer bit-width growth during the algebraic run "
          "(the paper's Fig. 5 overhead mechanism):")
    checkpoints = [0, len(widths) // 4, len(widths) // 2, 3 * len(widths) // 4, -1]
    for checkpoint in checkpoints:
        print(f"  after gate {checkpoint % len(widths):4d}: {widths[checkpoint]:4d} bits")

    numeric = Simulator(numeric_manager(compiled.num_qubits, eps=1e-12)).run(compiled)
    print(f"\nrun-time: algebraic {result.trace.total_seconds:.2f} s vs "
          f"numeric {numeric.trace.total_seconds:.2f} s "
          f"(overhead x{result.trace.total_seconds / max(numeric.trace.total_seconds, 1e-9):.1f})")


if __name__ == "__main__":
    main()
