r"""Nodes and weighted edges of a QMDD.

A QMDD (paper Section II-B) represents a :math:`2^n \times 2^n` matrix
(or a :math:`2^n` state vector) as a directed acyclic graph:

* every non-terminal :class:`Node` sits at a *level* ``1..n`` (level
  ``n`` is the root / most significant qubit, level ``0`` the terminal)
  and has 4 outgoing edges for matrices (the four quadrants, in the
  order top-left, top-right, bottom-left, bottom-right) or 2 for vectors
  (upper and lower half);
* every :class:`Edge` carries a multiplicative *weight*; the value of a
  matrix entry / amplitude is the product of the edge weights along the
  corresponding root-to-terminal path (paper Example 3);
* the single :data:`TERMINAL` node represents the number one.

Weights are opaque objects owned by a
:class:`~repro.dd.number_system.NumberSystem`: interned ``complex``
entries for the numerical representation, exact
:class:`~repro.rings.qomega.QOmega` / :class:`~repro.rings.domega.DOmega`
values for the algebraic ones.

Nodes are *hash-consed* by :class:`~repro.dd.unique_table.UniqueTable`
and must never be constructed directly by client code -- only through
``DDManager.make_node`` which also applies edge-weight normalisation so
that structurally equal sub-matrices share one node (canonicity).
"""

from __future__ import annotations

from typing import Any, Iterator, Tuple

__all__ = [
    "Edge",
    "Node",
    "REF_SATURATION",
    "TERMINAL",
    "VECTOR_ARITY",
    "MATRIX_ARITY",
]

VECTOR_ARITY = 2
MATRIX_ARITY = 4

#: Reference counts saturate at this value and are never decremented
#: past it again: a node shared this widely (the terminal, and the
#: terminal-adjacent "unit" nodes of deep circuits) is effectively
#: immortal, and pinning it is cheaper and safer than tracking exact
#: in-degrees that would overflow a small counter.  Saturated nodes can
#: still be reclaimed by the mark-and-sweep collector, which derives
#: liveness from root reachability rather than from the counts.
REF_SATURATION = 0xFFFF


class Node:
    """A hash-consed QMDD node.

    Attributes
    ----------
    uid:
        Stable integer identity assigned by the unique table; used in
        compute-table keys (deterministic, unlike ``id()``).
    level:
        ``1..n`` for inner nodes; the terminal has level ``0``.
    edges:
        Outgoing :class:`Edge` tuple of length 2 (vector) or 4 (matrix).
    ref:
        Structural in-degree maintained by the unique table (one count
        per parent edge slot) plus one count per externally registered
        root (see :class:`repro.dd.mem.MemoryManager`).  Saturates at
        :data:`REF_SATURATION`.
    """

    __slots__ = ("uid", "level", "edges", "ref")

    def __init__(self, uid: int, level: int, edges: Tuple["Edge", ...]) -> None:
        self.uid = uid
        self.level = level
        self.edges = edges
        self.ref = 0

    @property
    def is_terminal(self) -> bool:
        return self.level == 0

    @property
    def arity(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        if self.is_terminal:
            return "Node(<terminal>)"
        return f"Node(uid={self.uid}, level={self.level}, arity={self.arity})"


#: The unique terminal node (represents the scalar 1; weights on the
#: incoming edges supply the actual values).  Its refcount is born
#: saturated: the terminal is shared by every DD and never reclaimed.
TERMINAL = Node(uid=0, level=0, edges=())
TERMINAL.ref = REF_SATURATION


class Edge:
    """A weighted edge: target node plus multiplicative weight.

    The pair ``(node, weight)`` fully determines a (sub-)matrix or
    (sub-)vector.  Because nodes are hash-consed and weights canonical
    within their number system, two edges represent the same object iff
    their ``node`` is identical and their weight keys are equal -- the
    O(1) equivalence check highlighted in Section V-B of the paper.
    """

    __slots__ = ("node", "weight")

    def __init__(self, node: Node, weight: Any) -> None:
        self.node = node
        self.weight = weight

    @property
    def is_terminal(self) -> bool:
        return self.node.is_terminal

    def __repr__(self) -> str:
        return f"Edge({self.node!r}, weight={self.weight!r})"


def iter_nodes(edge: Edge) -> Iterator[Node]:
    """Yield every distinct non-terminal node reachable from ``edge``
    (depth first, each node's children visited last-to-first)."""
    seen = set()
    stack = [edge.node] if edge.node.level else []
    pop = stack.pop
    push = stack.append
    while stack:
        node = pop()
        if node in seen:
            continue
        seen.add(node)
        yield node
        for child in node.edges:
            # Terminal and already-visited children would be skipped on
            # pop anyway; filtering them here keeps the visiting order.
            target = child.node
            if target.level and target not in seen:
                push(target)
