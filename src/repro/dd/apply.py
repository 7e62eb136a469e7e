r"""Direct gate application on vector DDs (the simulation hot path).

The generic simulation step builds an ``n``-level *matrix* DD for every
gate (:mod:`repro.dd.gatebuild`) and multiplies it against the state
with :meth:`~repro.dd.manager.DDManager.mat_vec` -- a recursion that
visits every level, including all the qubits the gate does not touch.
For the paper's workload of "hundreds or even thousands of
matrix-vector multiplications" most of that work is identity
bookkeeping.

:func:`apply_gate` instead recurses the *vector* DD directly:

* levels **above** the highest involved qubit and *uninvolved levels
  in between* recurse plainly into both children (no 2x2 block
  expansion, no matrix nodes);
* an **unsatisfied control** branch returns the child edge unchanged --
  the whole gate is the identity on that subspace, an ``O(1)``
  short-circuit where ``mat_vec`` walks an identity matrix DD through
  the entire subtree;
* at the **target** level the two children are combined as
  ``(u00 v0 + u01 v1, u10 v0 + u11 v1)``; levels *below* the target are
  never visited at all unless a control lives there, in which case the
  satisfied/unsatisfied projections are built by two small memoised
  recursions (they partition the paths, so no subtraction is needed);
* results are memoised in the manager's ``apply`` compute table keyed
  on ``(gate_signature, node_uid)`` -- the signature interning lives in
  :meth:`~repro.dd.manager.DDManager.gate_signature`.

Because the QMDD is canonical, the result is the *same* edge (pointer
equality of nodes, equal weight keys) as the ``build_gate_dd`` +
``mat_vec`` path; the property tests in
``tests/dd/test_apply_kernel.py`` pin that equivalence.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence

from repro.dd.edge import Edge, Node, TERMINAL
from repro.dd.gatebuild import build_gate_dd
from repro.dd.manager import DDManager
from repro.errors import CircuitError, LevelMismatchError

__all__ = ["apply_gate", "prepare_gate"]

#: Per-level roles precomputed by the kernel.
_FREE, _CONTROL_POS, _CONTROL_NEG = 0, 1, 2

#: Compute-table tags distinguishing the four recursions sharing the
#: manager's apply table.
_TAG_APPLY, _TAG_SAT, _TAG_UNSAT, _TAG_PAIR = 0, 1, 2, 3


def apply_gate(
    manager: DDManager,
    state: Edge,
    entries: Sequence[Any],
    target: int,
    controls: Iterable[int] = (),
    negative_controls: Iterable[int] = (),
) -> Edge:
    """Apply a (multi-)controlled single-qubit gate directly to a state.

    Parameters
    ----------
    manager:
        The owning :class:`~repro.dd.manager.DDManager`.
    state:
        A full-width vector DD of the manager.
    entries:
        The 2x2 base matrix as four weights of the manager's number
        system, row-major ``(u00, u01, u10, u11)``.
    target:
        Target qubit (0-based, qubit 0 = most significant / top level).
    controls, negative_controls:
        Qubits that must be in state 1 (resp. 0) for the gate to act.

    Returns the same canonical edge as ``mat_vec(build_gate_dd(...),
    state)``, typically much faster.
    """
    return prepare_gate(manager, entries, target, controls, negative_controls).apply(state)


def prepare_gate(
    manager: DDManager,
    entries: Sequence[Any],
    target: int,
    controls: Iterable[int] = (),
    negative_controls: Iterable[int] = (),
) -> "_ApplyKernel":
    """Validate a gate once and return a reusable apply kernel.

    The returned kernel's :meth:`~_ApplyKernel.apply` can be called with
    many states; callers applying the same gate repeatedly (e.g. the
    simulator) should cache the kernel to skip re-validation and
    signature interning.
    """
    entries = tuple(entries)
    if len(entries) != 4:
        raise CircuitError("gate entries must be a 2x2 matrix (4 weights)")
    controls = frozenset(controls)
    negative_controls = frozenset(negative_controls)
    if controls & negative_controls:
        raise CircuitError("a qubit cannot be both a positive and a negative control")
    if target in controls or target in negative_controls:
        raise CircuitError(f"target qubit {target} cannot also be a control")
    n = manager.num_qubits
    for qubit in controls | negative_controls | {target}:
        if not 0 <= qubit < n:
            raise CircuitError(f"qubit {qubit} out of range for {n} qubits")
    return _ApplyKernel(manager, entries, target, controls, negative_controls)


class _ApplyKernel:
    """One gate application: precomputed level roles + memoised recursion."""

    __slots__ = (
        "manager",
        "system",
        "entries",
        "eta",
        "roles",
        "target_level",
        "lowest_lower_control",
        "signature",
        "_cache",
        "_one",
        "_zero_edge",
        "_diagonal",
        "_antidiagonal",
        "_fused",
        "_matrix_spec",
        "_matrix_gate",
        "_key_apply",
        "_key_sat",
        "_key_unsat",
        "_key_pair",
    )

    def __init__(
        self,
        manager: DDManager,
        entries: Sequence[Any],
        target: int,
        controls: frozenset,
        negative_controls: frozenset,
    ) -> None:
        self.manager = manager
        system = manager.system
        if all(system.is_zero(entry) for entry in entries):
            raise CircuitError("gate matrix must have a non-zero entry")
        # Normalise the 2x2 block exactly like ``build_gate_dd`` would
        # (eta factored out, entries canonical).  The recursion then
        # works with the same canonical weights as the matrix-DD path --
        # for the numeric system this makes the two paths bit-identical
        # -- and the memoised results are shared between gates that
        # differ only by the scalar eta.
        self.eta, self.entries = system.normalize(tuple(entries))
        n = manager.num_qubits
        self.target_level = manager.level_of_qubit(target)
        roles: List[int] = [_FREE] * (n + 1)
        for qubit in controls:
            roles[n - qubit] = _CONTROL_POS
        for qubit in negative_controls:
            roles[n - qubit] = _CONTROL_NEG
        self.roles = roles
        control_levels_below = [
            level
            for level in range(1, self.target_level)
            if roles[level] != _FREE
        ]
        self.lowest_lower_control = min(control_levels_below) if control_levels_below else 0
        self.signature = manager.gate_signature(
            self.entries,
            target,
            tuple(sorted(controls)),
            tuple(sorted(negative_controls)),
        )
        self._cache = manager._apply_cache
        self.system = system
        self._one = system.one
        self._zero_edge = manager.zero_edge()
        u00, u01, u10, u11 = self.entries
        # Structure flags for the target-level combine: diagonal gates
        # (Z, S, T, phase) touch no amplitudes across branches and
        # antidiagonal gates (X, Y) only swap them, so both skip the
        # additions entirely.
        self._diagonal = system.is_zero(u01) and system.is_zero(u10)
        self._antidiagonal = system.is_zero(u00) and system.is_zero(u11)
        # Exact systems compute both rows of the 2x2 block in one fused
        # pair-walk (:meth:`_combine_pair`).  Ring arithmetic is exact,
        # so the re-association cannot change the canonical result; the
        # numeric system keeps the two-add path, whose float operation
        # order every numeric result (payloads, eps-sweep accuracy and
        # node counts) is pinned to.
        self._fused = not system.supports_arbitrary_complex
        # Float-order pin: with a control *below* the target the kernel
        # combines satisfied/unsatisfied projections, which re-associates
        # the additions relative to ``build_gate_dd`` + ``mat_vec``.
        # Exact rings are indifferent (the canonical result cannot
        # change) but float addition is not associative, so the numeric
        # system delegates these rare gates to that product wholesale
        # and keeps the float order its results were recorded with.
        if self.lowest_lower_control and not self._fused:
            self._matrix_spec = (
                tuple(entries),
                target,
                tuple(sorted(controls)),
                tuple(sorted(negative_controls)),
            )
        else:
            self._matrix_spec = None
        self._matrix_gate = None
        # The three recursions share the manager's apply table; pack the
        # (signature, tag) pair into one int so cache keys are 2-tuples.
        self._key_apply = self.signature << 2 | _TAG_APPLY
        self._key_sat = self.signature << 2 | _TAG_SAT
        self._key_unsat = self.signature << 2 | _TAG_UNSAT
        self._key_pair = self.signature << 2 | _TAG_PAIR

    # ------------------------------------------------------------------

    def apply(self, state: Edge) -> Edge:
        manager = self.manager
        if manager.is_zero_edge(state):
            return state
        if state.is_terminal or state.node.level != manager.num_qubits:
            raise LevelMismatchError(
                f"state must be a full {manager.num_qubits}-level vector DD, "
                f"got level {0 if state.is_terminal else state.node.level}"
            )
        if self._matrix_spec is not None:
            gate = self._matrix_gate
            if gate is None:
                entries, target, controls, negatives = self._matrix_spec
                gate = build_gate_dd(manager, entries, target, controls, negatives)
                # The kernel caches this gate DD across gate
                # applications; pin it so a GC pass between two uses
                # cannot sweep its nodes out of the unique table (the
                # cached edge would then resurrect as shadow nodes).
                manager.memory.pin(gate)
                self._matrix_gate = gate
            manager._apply_delegated.inc()
            return manager.mat_vec(gate, state)
        manager._apply_direct.inc()
        # Warm-path span (no-op when tracing is off), the direct-kernel
        # counterpart of the ``dd.mat_vec`` span on the delegated path.
        with manager.telemetry.tracer.span("dd.apply.direct"):
            weight = manager.system.mul(self.eta, state.weight)
            return self._scaled(self._apply_node(state.node), weight)

    # ------------------------------------------------------------------
    # Main recursion: levels from the root down to the target
    # ------------------------------------------------------------------

    def _apply_edge(self, edge: Edge, level: int) -> Edge:
        node = edge.node
        if node is TERMINAL:
            if self.manager.is_zero_edge(edge):
                return edge
            raise LevelMismatchError(
                f"expected vector node at level {level}, got a terminal edge"
            )
        if node.level != level:
            raise LevelMismatchError(
                f"expected vector node at level {level}, got {node.level}"
            )
        result = self._apply_node(node)
        if result.node is TERMINAL:
            return result  # zero stays zero under any scaling
        weight = edge.weight
        if weight is self._one:
            return result
        return Edge(result.node, self.system.mul(result.weight, weight))

    def _apply_node(self, node: Node) -> Edge:
        cache_key = (self._key_apply, node.uid)
        cached = self._cache.get(cache_key)
        if cached is not None:
            return cached
        manager = self.manager
        level = node.level
        v0, v1 = node.edges
        if level == self.target_level:
            result = self._apply_target(node, v0, v1, level)
        else:
            role = self.roles[level]
            if role == _CONTROL_POS:
                # Control unsatisfied on the 0-branch: the gate is the
                # identity there, so the child passes through untouched.
                c0, c1 = v0, self._apply_edge(v1, level - 1)
            elif role == _CONTROL_NEG:
                c0, c1 = self._apply_edge(v0, level - 1), v1
            else:
                c0 = self._apply_edge(v0, level - 1)
                c1 = self._apply_edge(v1, level - 1)
            # Unchanged-children shortcut: the node's own weight tuple is
            # already canonical, so rebuilding it would hand back the same
            # node with a unit eta -- skip the normalise + unique-table
            # round-trip.  Weights are interned, so identity comparison
            # suffices (a false negative merely falls through).
            if (
                c0.node is v0.node
                and c0.weight is v0.weight
                and c1.node is v1.node
                and c1.weight is v1.weight
            ):
                result = Edge(node, self._one)
            else:
                result = manager.make_node(level, [c0, c1])
        self._cache.put(cache_key, result)
        return result

    def _scaled(self, edge: Edge, factor: Any) -> Edge:
        """``manager.scale`` minus the redundant zero checks: ``edge`` is
        a canonical child edge (zero only as the shared zero-edge
        singleton, including nonzero *terminal* edges at level 1) and
        ``factor`` is a normalised non-zero gate entry."""
        if factor is self._one or edge is self._zero_edge:
            return edge
        return Edge(edge.node, self.system.mul(edge.weight, factor))

    def _apply_target(self, node: Any, v0: Edge, v1: Edge, level: int) -> Edge:
        manager = self.manager
        u00, u01, u10, u11 = self.entries
        if self.lowest_lower_control:
            below = level - 1
            s0 = self._sat_edge(v0, below)
            s1 = self._sat_edge(v1, below)
            r0 = manager.add(
                manager.add(manager.scale(s0, u00), manager.scale(s1, u01)),
                self._unsat_edge(v0, below),
            )
            r1 = manager.add(
                manager.add(manager.scale(s0, u10), manager.scale(s1, u11)),
                self._unsat_edge(v1, below),
            )
        elif self._diagonal:
            # Diagonal gate: each branch is only rescaled, no additions.
            r0 = self._scaled(v0, u00)
            r1 = self._scaled(v1, u11)
        elif self._antidiagonal:
            # Antidiagonal gate (X, Y): branches swap, no additions.
            r0 = self._scaled(v1, u01)
            r1 = self._scaled(v0, u10)
        elif self._fused:
            r0, r1 = self._combine_pair(v0, v1)
        else:
            # No controls below the target: everything underneath is the
            # identity and is never visited (the decisive short-circuit).
            r0 = manager.add(manager.scale(v0, u00), manager.scale(v1, u01))
            r1 = manager.add(manager.scale(v0, u10), manager.scale(v1, u11))
        if (
            r0.node is v0.node
            and r0.weight is v0.weight
            and r1.node is v1.node
            and r1.weight is v1.weight
        ):
            # The gate fixed this subtree (e.g. X on a symmetric node);
            # see the unchanged-children shortcut in ``_apply_node``.
            return Edge(node, self._one)
        return manager.make_node(level, [r0, r1])

    def _combine_pair(self, e0: Edge, e1: Edge) -> "tuple[Edge, Edge]":
        """Both rows ``(u00 e0 + u01 e1, u10 e0 + u11 e1)`` in one walk.

        The two additions of the unfused path traverse the same
        ``(node0, node1)`` pair lattice twice; this recursion visits each
        pair once, memoised under the weight-relative key
        ``(signature|PAIR, uid0, uid1, key(w1/w0))``.  Nodes that are
        *shared* between the branches (``node0 is node1``) collapse to
        four weight products with no traversal at all.  Only used for
        exact systems, where re-association cannot change the canonical
        result.
        """
        manager = self.manager
        u00, u01, u10, u11 = self.entries
        if manager.is_zero_edge(e0):
            return (manager.scale(e1, u01), manager.scale(e1, u11))
        if manager.is_zero_edge(e1):
            return (manager.scale(e0, u00), manager.scale(e0, u10))
        system = self.system
        node0 = e0.node
        node1 = e1.node
        w0 = e0.weight
        w1 = e1.weight
        if node0 is node1:
            row0 = system.add(system.mul(w0, u00), system.mul(w1, u01))
            row1 = system.add(system.mul(w0, u10), system.mul(w1, u11))
            return (
                self._zero_edge if system.is_zero(row0) else Edge(node0, row0),
                self._zero_edge if system.is_zero(row1) else Edge(node0, row1),
            )
        ratio = system.division_helper(w1, w0)
        if ratio is None:
            # No exact weight ratio (e.g. it leaves D[omega]): fuse on
            # the absolute weights instead.  The 5-element key cannot
            # collide with the 4-element ratio form below.
            cache_key = (
                self._key_pair,
                node0.uid,
                node1.uid,
                system.key(w0),
                system.key(w1),
            )
            cached = self._cache.get(cache_key)
            if cached is None:
                level = node0.level
                a0, a1 = node0.edges
                b0, b1 = node1.edges
                q0 = self._combine_pair(self._scaled(a0, w0), self._scaled(b0, w1))
                q1 = self._combine_pair(self._scaled(a1, w0), self._scaled(b1, w1))
                cached = (
                    manager.make_node(level, [q0[0], q1[0]]),
                    manager.make_node(level, [q0[1], q1[1]]),
                )
                self._cache.put(cache_key, cached)
            return cached
        cache_key = (self._key_pair, node0.uid, node1.uid, system.key(ratio))
        cached = self._cache.get(cache_key)
        if cached is None:
            level = node0.level
            a0, a1 = node0.edges
            b0, b1 = node1.edges
            q0 = self._combine_pair(a0, self._scaled(b0, ratio))
            q1 = self._combine_pair(a1, self._scaled(b1, ratio))
            cached = (
                manager.make_node(level, [q0[0], q1[0]]),
                manager.make_node(level, [q0[1], q1[1]]),
            )
            self._cache.put(cache_key, cached)
        return (self._scaled(cached[0], w0), self._scaled(cached[1], w0))

    # ------------------------------------------------------------------
    # Below-target control projections (rarely needed; memoised)
    # ------------------------------------------------------------------

    def _sat_edge(self, edge: Edge, level: int) -> Edge:
        """Project onto paths satisfying every control at levels <= level."""
        manager = self.manager
        if manager.is_zero_edge(edge):
            return edge
        if level < self.lowest_lower_control:
            return edge
        node = edge.node
        if node.level != level:
            raise LevelMismatchError(
                f"expected vector node at level {level}, got {node.level}"
            )
        cache_key = (self._key_sat, node.uid)
        cached = self._cache.get(cache_key)
        if cached is None:
            v0, v1 = node.edges
            role = self.roles[level]
            if role == _CONTROL_POS:
                children = [manager.zero_edge(), self._sat_edge(v1, level - 1)]
            elif role == _CONTROL_NEG:
                children = [self._sat_edge(v0, level - 1), manager.zero_edge()]
            else:
                children = [
                    self._sat_edge(v0, level - 1),
                    self._sat_edge(v1, level - 1),
                ]
            cached = manager.make_node(level, children)
            self._cache.put(cache_key, cached)
        return manager.scale(cached, edge.weight)

    def _unsat_edge(self, edge: Edge, level: int) -> Edge:
        """Project onto paths violating some control at levels <= level.

        Together with :meth:`_sat_edge` this partitions the paths, so
        ``sat + unsat == edge`` exactly and no subtraction is needed.
        """
        manager = self.manager
        if manager.is_zero_edge(edge):
            return edge
        if level < self.lowest_lower_control:
            return manager.zero_edge()
        node = edge.node
        if node.level != level:
            raise LevelMismatchError(
                f"expected vector node at level {level}, got {node.level}"
            )
        cache_key = (self._key_unsat, node.uid)
        cached = self._cache.get(cache_key)
        if cached is None:
            v0, v1 = node.edges
            role = self.roles[level]
            if role == _CONTROL_POS:
                children = [v0, self._unsat_edge(v1, level - 1)]
            elif role == _CONTROL_NEG:
                children = [self._unsat_edge(v0, level - 1), v1]
            else:
                children = [
                    self._unsat_edge(v0, level - 1),
                    self._unsat_edge(v1, level - 1),
                ]
            cached = manager.make_node(level, children)
            self._cache.put(cache_key, cached)
        return manager.scale(cached, edge.weight)
