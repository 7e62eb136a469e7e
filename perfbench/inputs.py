"""Seeded input generation for the three benchmark workloads.

Everything here is a pure function of the workload seed: the same seed
gives the same circuits, configs and request order, and so the same
``canonical_hash`` values.  The program under test only ever receives
the generated :class:`~repro.api.RunRequest` objects.

Work per seed is kept nearly constant on purpose.  The families whose
cost depends on the draw (random Clifford+T) are built as brickwork
layers with a Hadamard on every qubit in every layer, so their decision
diagrams saturate towards the dense ``2**n - 1`` nodes whatever the
draw; widths and counts are fixed per workload and only the gate
content is random.  They saturate only partly: at 5-6 qubits one draw
cost up to 3x another, and the total weight lookups of ``exact_direct``
spread 14 % over ten seeds (``eps_sweep``: 8 %, most of it from its
7-qubit brickwork circuits).  So these two workloads draw their
brickwork circuits from one fixed stream each, the same for every
seed; the seed picks the Grover marked elements, the BWT graphs and
the job order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.algorithms.bwt import bwt_circuit
from repro.algorithms.grover import grover_circuit
from repro.api import RunRequest, SimulatorConfig
from repro.circuits.canonical import canonical_hash
from repro.circuits.circuit import Circuit

EXACT_SYSTEMS = ("algebraic", "algebraic-gcd")
SWEEP_EPS = (0.0, 1e-14, 1e-10, 1e-6, 1e-3)

#: GC threshold (resident nodes) for the exact_direct jobs that collect.
EXACT_GC_THRESHOLD = 400

#: Widths the serve stream cycles through; every block of
#: ``SERVE_BLOCK`` requests holds exactly ``SERVE_REPEATS`` repeats, the
#: first of them of one of the ``SERVE_RECENT`` latest fresh requests.
SERVE_WIDTHS = (4, 5, 6, 7, 8, 9, 10)
SERVE_BLOCK = 10
SERVE_REPEATS = 3
SERVE_RECENT = 2
SERVE_ZIPF_S = 1.2


def stream_rng(seed: int, name: str) -> random.Random:
    """An independent, reproducible generator per (seed, purpose)."""
    return random.Random(f"perfbench/{name}/{seed}")


def random_clifford_t(num_qubits: int, layers: int, rng: random.Random, name: str) -> Circuit:
    """Brickwork Clifford+T circuit: per layer H on every qubit, one random
    phase from {T, T^dagger, S, Z} per qubit, then CX on alternating
    neighbour pairs with random orientation."""
    circuit = Circuit(num_qubits, name=name)
    for layer in range(layers):
        for qubit in range(num_qubits):
            circuit.h(qubit)
            phase = rng.randrange(4)
            if phase == 0:
                circuit.t(qubit)
            elif phase == 1:
                circuit.tdg(qubit)
            elif phase == 2:
                circuit.s(qubit)
            else:
                circuit.z(qubit)
        for qubit in range(layer % 2, num_qubits - 1, 2):
            if rng.random() < 0.5:
                circuit.cx(qubit, qubit + 1)
            else:
                circuit.cx(qubit + 1, qubit)
    return circuit


def gse_workload_circuit(small: bool = False) -> Circuit:
    """The Clifford+T-compiled GSE circuit (5 qubits, 1500 gates); its
    ``repro.approx`` synthesis is part of set-up."""
    from repro.algorithms.gse import gse_circuit

    if small:
        return gse_circuit(num_sites=2, precision_bits=2, max_words=600)
    return gse_circuit(num_sites=2, precision_bits=3, max_words=4000)


def warm_up_circuit(index: int) -> Circuit:
    """A 3-qubit circuit (no workload uses 3 qubits) for warm-up calls."""
    return random_clifford_t(3, 2, random.Random(index), f"warm_{index}")


def _grover(num_qubits: int, rng: random.Random) -> Circuit:
    return grover_circuit(num_qubits, rng.randrange(1 << num_qubits))


# ---------------------------------------------------------------------------
# exact_direct
# ---------------------------------------------------------------------------


def exact_direct_jobs(seed: int, gse: Circuit, small: bool = False) -> List[RunRequest]:
    """The job list of the exact closed loop: both exact systems over Grover
    7-9q and brickwork Clifford+T 5-6q (from a fixed stream, see the
    module notes), and the GSE circuit on ``algebraic-gcd``; one job of
    each circuit's pair collects garbage mid-run.  Job order is a seeded
    shuffle.  ``small`` is the seconds-long variant for self-tests."""
    rng = stream_rng(seed, "exact_direct")
    fixed = stream_rng(0, "exact_direct/brickwork")
    grover = ((4, 1), (5, 1)) if small else ((7, 4), (8, 2), (9, 2))
    brickwork = ((4, 4, 2),) if small else ((5, 8, 3), (6, 8, 2))
    circuits: List[Circuit] = []
    for width, count in grover:
        circuits.extend(_grover(width, rng) for _ in range(count))
    for width, layers, count in brickwork:
        circuits.extend(
            random_clifford_t(width, layers, fixed, f"rct_{width}q_{index}")
            for index in range(count)
        )
    requests: List[RunRequest] = []
    for index, circuit in enumerate(circuits):
        for parity, system in enumerate(EXACT_SYSTEMS):
            gc = EXACT_GC_THRESHOLD if (index + parity) % 2 else None
            requests.append(RunRequest(circuit, SimulatorConfig(system=system, gc=gc)))
    requests.append(RunRequest(gse, SimulatorConfig(system="algebraic-gcd")))
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# eps_sweep
# ---------------------------------------------------------------------------


def eps_sweep_jobs(seed: int, small: bool = False) -> List[RunRequest]:
    """The accuracy/compactness sweep: numeric system at every eps over
    Grover 7q, BWT walks and brickwork Clifford+T (from a fixed stream,
    see the module notes), GC off, in seeded order."""
    rng = stream_rng(seed, "eps_sweep")
    fixed = stream_rng(0, "eps_sweep/brickwork")
    if small:
        circuits: List[Circuit] = [
            _grover(4, rng),
            bwt_circuit(1, 1, seed=rng.randrange(1 << 16)),
            random_clifford_t(4, 3, fixed, "rct_4q_0"),
        ]
    else:
        circuits = [_grover(7, rng), _grover(7, rng)]
        circuits.extend(bwt_circuit(3, 2, seed=rng.randrange(1 << 16)) for _ in range(2))
        circuits.extend(
            random_clifford_t(7, 8, fixed, f"rct_7q_{index}") for index in range(3)
        )
    requests = [
        RunRequest(circuit, SimulatorConfig(system="numeric", eps=eps))
        for circuit in circuits
        for eps in SWEEP_EPS
    ]
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------


SERVE_CONFIGS = (
    SimulatorConfig(system="algebraic-gcd"),
    SimulatorConfig(system="numeric", eps=1e-12),
)


@dataclass(frozen=True)
class StreamItem:
    """One request of the serve stream; ``repeat_of`` is the index of
    the earlier item it repeats, or ``None`` for a fresh request."""

    request: RunRequest
    key: str
    repeat_of: Optional[int]


#: Qubits of the dense brickwork core of every serve circuit, and its depth.
SERVE_CORE = 5
SERVE_LAYERS = 7


def serve_circuit(width: int, rng: random.Random, name: str) -> Circuit:
    """A brickwork Clifford+T core on the first ``SERVE_CORE`` qubits,
    then a lightly entangled chain over the rest: one H, one random phase
    and a CX from the previous qubit with probability 1/2.  The core
    saturates, so cost and DD size hardly depend on the draw while the
    width still varies (warm entries are keyed by width)."""
    core = random_clifford_t(min(width, SERVE_CORE), SERVE_LAYERS, rng, name)
    circuit = Circuit(width, name=name)
    circuit.operations.extend(core.operations)
    for qubit in range(core.num_qubits, width):
        circuit.h(qubit)
        (circuit.t, circuit.tdg, circuit.s)[rng.randrange(3)](qubit)
        if rng.random() < 0.5:
            circuit.cx(qubit - 1, qubit)
    return circuit


def serve_stream(seed: int, length: int) -> List[StreamItem]:
    """Seeded request stream: fresh random Clifford+T circuits over
    4-10 qubits (:func:`serve_circuit`; width and config cycled, content
    random) on
    ``algebraic-gcd`` and ``numeric(eps=1e-12)``, interleaved with
    repeats of earlier fresh requests drawn Zipf-like by first
    appearance (the earliest requests are the hottest), except that the
    first repeat of each block asks again for one of the latest fresh
    requests (a read of a just-written cache entry).  Repeats sit at seeded
    positions, a fixed number per block, so every stretch of the stream
    has the same repeat share."""
    rng = stream_rng(seed, "serve_mixed")
    items: List[StreamItem] = []
    fresh: List[int] = []
    weights: List[float] = []
    repeats: List[int] = []
    for position in range(length):
        if position % SERVE_BLOCK == 0:
            repeats = sorted(position + offset for offset in rng.sample(range(1, SERVE_BLOCK), SERVE_REPEATS))
        if position in repeats:
            if position == repeats[0]:
                rank = len(fresh) - 1 - rng.randrange(min(SERVE_RECENT, len(fresh)))
            else:
                rank = rng.choices(range(len(fresh)), weights=weights)[0]
            source = items[fresh[rank]]
            items.append(StreamItem(source.request, source.key, fresh[rank]))
            continue
        ordinal = len(fresh)
        width = SERVE_WIDTHS[ordinal % len(SERVE_WIDTHS)]
        config = SERVE_CONFIGS[(ordinal // len(SERVE_WIDTHS)) % len(SERVE_CONFIGS)]
        circuit = serve_circuit(width, rng, f"serve_{width}q_{ordinal}")
        request = RunRequest(circuit, config)
        items.append(StreamItem(request, canonical_hash(circuit, config), None))
        fresh.append(position)
        weights.append(1.0 / (ordinal + 1) ** SERVE_ZIPF_S)
    return items


def serve_quality_set(items: Sequence[StreamItem], small: bool = False) -> List[int]:
    """Stream positions whose outputs are checked against direct runs
    and give the quality axes: the first three fresh requests of every
    (width, config) pair, so each seed checks the same mix."""
    fresh = [index for index, item in enumerate(items) if item.repeat_of is None]
    return fresh[: 4 if small else 3 * len(SERVE_WIDTHS) * len(SERVE_CONFIGS)]


def repeat_share(items: Sequence[StreamItem]) -> float:
    return sum(item.repeat_of is not None for item in items) / max(1, len(items))


def fingerprint(requests: Sequence[RunRequest]) -> Tuple[str, ...]:
    """Canonical hashes of (circuit, config) in order; seed determinism."""
    return tuple(canonical_hash(request.circuit, request.config) for request in requests)
