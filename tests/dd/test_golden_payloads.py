"""Golden serialized payloads of the two exact number systems.

The sha256 digests below were taken from ``repro.dd.serialize`` payloads
of the ring layer before its integer-level rewrite.  Canonical forms are
a contract: the node structure, the edge-weight normalisation (the
paper's Algorithms 2 and 3) and the canonical ring keys must all come
out byte for byte the same, with and without garbage collection.
"""

import hashlib
import random

import pytest

from repro.algorithms.bwt import bwt_circuit
from repro.algorithms.grover import grover_circuit
from repro.api import RunRequest, SimulatorConfig, run
from repro.circuits.circuit import Circuit


def _brickwork(num_qubits: int, layers: int, seed: int) -> Circuit:
    """Per layer: H on every qubit, one random phase from {T, T^dagger,
    S, Z} per qubit, then CX on alternating neighbour pairs."""
    rng = random.Random(seed)
    circuit = Circuit(num_qubits, name="brickwork")
    for layer in range(layers):
        for qubit in range(num_qubits):
            circuit.h(qubit)
            getattr(circuit, ("t", "tdg", "s", "z")[rng.randrange(4)])(qubit)
        for qubit in range(layer % 2, num_qubits - 1, 2):
            if rng.random() < 0.5:
                circuit.cx(qubit, qubit + 1)
            else:
                circuit.cx(qubit + 1, qubit)
    return circuit


CIRCUITS = {
    "grover_5q": lambda: grover_circuit(5, 11),
    "brickwork_4q": lambda: _brickwork(4, 8, 7),
    "bwt_8q": lambda: bwt_circuit(3, 2, seed=5),
}

GOLDEN = {
    ("grover_5q", "algebraic"): "ca66fba3365e8747aa56f352096ef845b08e6899ef8551e58c6a4999eaf12968",
    ("grover_5q", "algebraic-gcd"): "2051a8fec09933c6e348b11c8d4bba6c9134f74b92045e688bca7911ec738253",
    ("brickwork_4q", "algebraic"): "9002963ec820cb0bacb6b0b882d5e88e97fc4bb5f13b18412a9a8a06b157f390",
    ("brickwork_4q", "algebraic-gcd"): "859399ca7f0fc6406482e8744ce81fdcdbced28002f1e5c38dcf645ebb3b78f0",
    ("bwt_8q", "algebraic"): "33a502d0d7e198377cbee188bd00939a76585d6f9be574ea07c1d6b61f4c2c87",
    ("bwt_8q", "algebraic-gcd"): "043c96292b3ee7f2b7b59e8f6d397e167175a1ae7a1d0660e6f5af4b5aa67205",
}


@pytest.mark.parametrize("gc", [None, 16], ids=["gc-off", "gc-16"])
@pytest.mark.parametrize("name, system", sorted(GOLDEN))
def test_payload_matches_golden_digest(name, system, gc):
    circuit = CIRCUITS[name]()
    payload = run(RunRequest(circuit, SimulatorConfig(system=system, gc=gc))).state_payload
    assert hashlib.sha256(payload.encode()).hexdigest() == GOLDEN[(name, system)]
