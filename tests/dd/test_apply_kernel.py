"""The direct apply kernel must reproduce the matrix-DD path exactly.

Property test: on random Clifford+T circuits (with positive and
negative multi-controls) the kernel's state is the *same canonical
edge* -- ``edges_equal``, i.e. pointer-equal node plus equal weight key
-- as ``mat_vec(build_gate_dd(...), state)`` after every gate, for all
three number systems.  Plus sanity checks for the compute-table and
weight-memo counters the kernel relies on.
"""

import random

import pytest

from repro.api import SimulatorConfig
from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.dd.apply import apply_gate, prepare_gate
from repro.dd.manager import algebraic_gcd_manager, algebraic_manager, numeric_manager
from repro.errors import CircuitError
from repro.sim.simulator import Simulator

FACTORIES = {
    "numeric": numeric_manager,
    "algebraic-q": algebraic_manager,
    "algebraic-gcd": algebraic_gcd_manager,
}

SINGLE_QUBIT = ["x", "y", "z", "h", "s", "sdg", "t", "tdg"]


def random_circuit(rng: random.Random, num_qubits: int, depth: int) -> Circuit:
    circuit = Circuit(num_qubits, name="random_cliffordt")
    for _ in range(depth):
        target = rng.randrange(num_qubits)
        if rng.random() < 0.5:
            getattr(circuit, rng.choice(SINGLE_QUBIT))(target)
        else:
            others = [q for q in range(num_qubits) if q != target]
            rng.shuffle(others)
            chosen = others[: rng.randint(1, min(2, len(others)))]
            negatives = tuple(q for q in chosen if rng.random() < 0.4)
            positives = tuple(q for q in chosen if q not in negatives)
            gate = gates.X if rng.random() < 0.6 else gates.Z
            circuit.append(
                gate, target, controls=positives, negative_controls=negatives
            )
    return circuit


@pytest.mark.parametrize("kind", list(FACTORIES))
@pytest.mark.parametrize("seed", [11, 23, 47])
def test_kernel_matches_matrix_path(kind, seed):
    rng = random.Random(seed)
    num_qubits = rng.randint(3, 5)
    circuit = random_circuit(rng, num_qubits, 30)
    manager = FACTORIES[kind](num_qubits)
    # Both simulators share one manager, so canonicity makes equal
    # states pointer-equal and ``edges_equal`` is an O(1) check.
    kernel_sim = Simulator(manager)
    matrix_sim = Simulator(manager, config=SimulatorConfig(use_apply_kernel=False))
    kernel_state = manager.zero_state()
    matrix_state = manager.zero_state()
    for index, operation in enumerate(circuit):
        kernel_state = kernel_sim.apply(kernel_state, operation)
        matrix_state = matrix_sim.apply(matrix_state, operation)
        assert manager.edges_equal(kernel_state, matrix_state), (
            f"kernel diverged from matrix path at gate {index} "
            f"({operation.gate.name}) under {kind}"
        )


def test_apply_gate_function_matches():
    manager = algebraic_gcd_manager(3)
    simulator = Simulator(manager)
    state = manager.zero_state()
    entries = tuple(manager.system.from_domega(e) for e in gates.H.exact)
    direct = apply_gate(manager, state, entries, 0)
    via_sim = simulator.apply(manager.zero_state(), Circuit(3).h(0)[0])
    assert manager.edges_equal(direct, via_sim)


def test_prepare_gate_validation():
    manager = algebraic_manager(2)
    entries = tuple(manager.system.from_domega(e) for e in gates.X.exact)
    with pytest.raises(CircuitError):
        prepare_gate(manager, entries[:3], 0)
    with pytest.raises(CircuitError):
        prepare_gate(manager, entries, 0, controls=[0])
    with pytest.raises(CircuitError):
        prepare_gate(manager, entries, 0, controls=[1], negative_controls=[1])
    with pytest.raises(CircuitError):
        prepare_gate(manager, entries, 5)


@pytest.mark.parametrize("kind", list(FACTORIES))
def test_apply_cache_counters(kind):
    """Re-applying a gate to the same state must hit the apply cache,
    and every compute table reports hit/miss/insert counters."""
    manager = FACTORIES[kind](4)
    simulator = Simulator(manager)
    circuit = Circuit(4).h(0).h(1).h(2)
    state = manager.zero_state()
    for operation in circuit:
        state = simulator.apply(state, operation)
    once = simulator.apply(state, circuit[0])
    twice = simulator.apply(state, circuit[0])  # memoised second time
    assert manager.edges_equal(once, twice)
    stats = manager.statistics()
    apply_stats = stats["compute_tables"]["apply"]
    assert apply_stats["hits"] > 0
    assert apply_stats["inserts"] > 0
    for name, counters in stats["compute_tables"].items():
        for key in ("hits", "misses", "inserts", "size", "capacity"):
            assert key in counters, f"{name} lacks counter {key!r}"
    flat = manager.cache_stats()
    assert "apply" in flat
    assert all("hits" in counters for counters in flat.values())


def test_weight_memo_counters_exposed():
    """The interned-arithmetic memos must show up in the statistics,
    including the gcd system's canonical-associate memo."""
    from repro.rings.domega import DOmega

    manager = algebraic_gcd_manager(3)
    system = manager.system
    root2_inv = system.from_domega(DOmega.one_over_sqrt2())
    omega = system.from_domega(DOmega.omega_power(1))
    mixed = system.from_domega(DOmega.from_coefficients(1, 0, 1, 2, 1))
    product = system.mul(root2_inv, omega)
    assert system.mul(root2_inv, omega) is product  # memo hit
    total = system.add(product, mixed)
    assert system.add(product, mixed) is total  # memo hit
    # 3 and 5 are coprime non-units: neither divides the other, their
    # numerator-norm gcd is 1, so normalisation must walk the
    # canonical-associate selection (the ``weight_assoc`` memo).
    three = system.from_domega(DOmega.from_coefficients(3, 0, 0, 0))
    five = system.from_domega(DOmega.from_coefficients(5, 0, 0, 0))
    system.normalize((three, five))
    assert system.division_helper(total, root2_inv) is not None
    weights = manager.statistics()["weights"]
    for memo in (
        "weight_mul",
        "weight_add",
        "weight_normalize",
        "weight_div",
        "weight_assoc",
    ):
        assert memo in weights, f"missing weight memo {memo!r}"
        assert weights[memo]["hits"] + weights[memo]["misses"] > 0
    assert weights["weight_mul"]["hits"] > 0
    assert weights["weight_add"]["hits"] > 0
