r"""Measurement sampling from a state-vector decision diagram.

Sampling walks the DD from the root, choosing each qubit's outcome with
probability proportional to ``|edge weight|^2`` times the squared norm
of the sub-DD below -- an ``O(n)``-per-shot procedure that never touches
the exponential amplitude vector.  Probabilities are computed from the
active number system's weights (exactly, for the algebraic systems, up
to the final float conversion).
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.dd.edge import Edge
from repro.dd.manager import DDManager
from repro.errors import SimulationError

__all__ = ["measure_probabilities", "sample_counts", "measure_and_collapse"]


def _subtree_norms(manager: DDManager, state: Edge) -> Dict[int, float]:
    """Squared norms of every node's sub-vector (memoised, bottom-up)."""
    norms: Dict[int, float] = {}
    _subtree_norm(manager, state, norms)
    return norms


# The recursive walks of this module are module-level functions taking
# their memo as an argument: a nested closure that calls itself holds
# itself (and the manager it captured) in a reference cycle.


def _subtree_norm(manager: DDManager, edge: Edge, norms: Dict[int, float]) -> float:
    if manager.is_zero_edge(edge):
        return 0.0
    weight_sq = abs(manager.system.to_complex(edge.weight)) ** 2
    if edge.is_terminal:
        return weight_sq
    total = norms.get(edge.node.uid)
    if total is None:
        total = sum(_subtree_norm(manager, child, norms) for child in edge.node.edges)
        norms[edge.node.uid] = total
    return weight_sq * total


def _edge_mass(manager: DDManager, edge: Edge, norms: Dict[int, float]) -> float:
    """Squared norm of the sub-vector ``edge`` denotes, weight included."""
    if manager.is_zero_edge(edge):
        return 0.0
    weight_sq = abs(manager.system.to_complex(edge.weight)) ** 2
    if edge.is_terminal:
        return weight_sq
    return weight_sq * norms[edge.node.uid]


def _mass_one(
    manager: DDManager, edge: Edge, target_level: int, norms: Dict[int, float]
) -> float:
    """Probability mass with the target qubit == 1 inside this sub-DD."""
    if manager.is_zero_edge(edge) or edge.is_terminal:
        return 0.0
    weight_sq = abs(manager.system.to_complex(edge.weight)) ** 2
    if edge.node.level == target_level:
        return weight_sq * _edge_mass(manager, edge.node.edges[1], norms)
    return weight_sq * sum(
        _mass_one(manager, child, target_level, norms) for child in edge.node.edges
    )


def measure_probabilities(manager: DDManager, state: Edge, qubit: int) -> float:
    """Probability of measuring ``1`` on ``qubit`` (no collapse)."""
    if manager.is_zero_edge(state):
        raise SimulationError("cannot measure the all-zero pseudo-state")
    target_level = manager.level_of_qubit(qubit)
    norms = _subtree_norms(manager, state)
    total = _edge_mass(manager, state, norms)
    if total <= 0.0:
        raise SimulationError("state has zero norm")
    return _mass_one(manager, state, target_level, norms) / total


def measure_and_collapse(
    manager: DDManager,
    state: Edge,
    qubit: int,
    outcome: Optional[int] = None,
    seed: Optional[int] = None,
    renormalize: Optional[bool] = None,
):
    """Measure one qubit and collapse the state.

    Returns ``(outcome, probability, collapsed_state)``.

    ``outcome`` forces a post-selection (raises on probability 0);
    otherwise the outcome is sampled with ``seed``.

    Renormalisation divides the collapsed state by ``sqrt(p)`` -- a
    value that generally lies *outside* ``Q[omega]`` (e.g. ``sqrt(1/2)``
    is fine but ``sqrt(3/8)`` is not), so by default (``renormalize =
    None``) the numeric system renormalises and the algebraic systems
    return the exact *unnormalised* projection together with the exact
    probability; downstream consumers divide amplitudes by ``sqrt(p)``
    only at read-out time.  This mirrors how exact DD packages handle
    measurement.
    """
    if manager.is_zero_edge(state):
        raise SimulationError("cannot measure the all-zero pseudo-state")
    probability_one = measure_probabilities(manager, state, qubit)
    if outcome is None:
        rng = random.Random(seed)
        outcome = 1 if rng.random() < probability_one else 0
    if outcome not in (0, 1):
        raise SimulationError("measurement outcome must be 0 or 1")
    probability = probability_one if outcome == 1 else 1.0 - probability_one
    if probability <= 1e-15:
        raise SimulationError(
            f"cannot post-select outcome {outcome} with probability ~0"
        )
    collapsed = _project(manager, state, manager.level_of_qubit(qubit), outcome, {})
    if renormalize is None:
        renormalize = manager.system.supports_arbitrary_complex
    if renormalize:
        if not manager.system.supports_arbitrary_complex:
            raise SimulationError(
                "exact renormalisation by 1/sqrt(p) leaves the algebraic "
                "ring; use renormalize=False (the default for algebraic "
                "managers) and track the returned probability instead"
            )
        import math as _math

        factor = manager.system.from_complex(complex(1.0 / _math.sqrt(probability), 0.0))
        collapsed = manager.scale(collapsed, factor)
    return (outcome, probability, collapsed)


def _project(
    manager: DDManager,
    edge: Edge,
    target_level: int,
    bit: int,
    cache: Dict[int, Edge],
) -> Edge:
    """Zero out the opposite branch of ``target_level`` everywhere."""
    if manager.is_zero_edge(edge) or edge.is_terminal:
        return edge
    node = edge.node
    cached = cache.get(node.uid)
    if cached is None:
        if node.level == target_level:
            children = [manager.zero_edge(), manager.zero_edge()]
            children[bit] = node.edges[bit]
        else:
            children = [
                _project(manager, child, target_level, bit, cache)
                for child in node.edges
            ]
        if all(manager.is_zero_edge(child) for child in children):
            cached = manager.zero_edge()
        else:
            cached = manager.make_node(node.level, children)
        cache[node.uid] = cached
    return manager.scale(cached, edge.weight)


def sample_counts(
    manager: DDManager,
    state: Edge,
    shots: int,
    seed: Optional[int] = None,
) -> Dict[int, int]:
    """Sample ``shots`` full computational-basis measurements.

    Returns a histogram mapping basis index to count.  The state is not
    modified (each shot is an independent measurement of a fresh copy).
    """
    if shots < 0:
        raise SimulationError("shots must be non-negative")
    if manager.is_zero_edge(state):
        raise SimulationError("cannot sample from the all-zero pseudo-state")
    rng = random.Random(seed)
    norms = _subtree_norms(manager, state)
    histogram: Dict[int, int] = {}
    for _ in range(shots):
        index = 0
        edge = state
        while not edge.is_terminal:
            node = edge.node
            mass_zero = _edge_mass(manager, node.edges[0], norms)
            mass_one = _edge_mass(manager, node.edges[1], norms)
            total = mass_zero + mass_one
            bit = 1 if rng.random() * total >= mass_zero else 0
            if bit:
                index |= 1 << (node.level - 1)
            edge = node.edges[bit]
        histogram[index] = histogram.get(index, 0) + 1
    return histogram
