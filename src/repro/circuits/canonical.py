r"""Canonical circuit+configuration hashing for caches and dedup.

Display names are presentation, not identity: ``T`` and ``p(pi/4)``
apply the same unitary (``diag(1, omega)``), the evalsuite drivers
label circuits by whatever the builder chose to call them, and two
sweeps of the same gate sequence under the same configuration should
share one cache entry.  :func:`canonical_hash` gives every
(circuit, config) pair a stable 256-bit identity built from what the
simulator actually consumes:

* **gate identity** -- the exact ``D[omega]`` entry keys
  (:meth:`repro.rings.domega.DOmega.key`) when the gate is
  Clifford+T-exact, so every spelling of the same exact gate hashes
  identically; numeric-only gates hash by the IEEE-754 bit patterns of
  their matrix entries (name-independent, and distinguishes angles the
  float grid distinguishes -- exactly the resolution the numeric
  simulator itself has);
* **operand normalisation** -- positive and negative control sets are
  order-insensitive in the gate model, so they are sorted before
  hashing;
* **configuration fingerprint** -- every semantic
  :class:`repro.api.SimulatorConfig` field except ``telemetry``
  (observability never changes simulation results; everything else --
  including the GC policy and memory budget, which can turn a success
  into a :class:`~repro.errors.MemoryBudgetExceeded` -- does or can).
  Floats enter as exact IEEE-754 bit patterns, never via ``repr``.

The circuit's display ``name`` and the gate's display name are
deliberately **excluded**.  The hash is used as the key of the
``repro.serve`` result cache and as the circuit identity recorded by
the evalsuite drivers (:class:`repro.evalsuite.tradeoff.TradeoffResult`).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Optional, Tuple

from repro.circuits.circuit import Circuit, Operation

__all__ = ["canonical_hash", "circuit_fingerprint", "config_fingerprint"]

#: Fingerprint format version -- bump on any change to the hashed
#: material so stale cross-process caches can never alias.
_VERSION = 2

#: The semantic configuration fields, in hash order.  ``telemetry`` is
#: deliberately absent (observability is invisible to results).
_CONFIG_FIELDS: Tuple[str, ...] = (
    "system",
    "eps",
    "normalization",
    "precision",
    "sanitize",
    "gc",
    "gc_min_yield",
    "max_nodes",
    "max_bytes",
    "record_bit_widths",
)


def _float_bits(value: float) -> bytes:
    """The exact IEEE-754 little-endian image of ``value``."""
    return struct.pack("<d", float(value))


def _gate_identity(operation: Operation) -> Tuple[Any, ...]:
    """Name-normalised identity of the base gate.

    Exact gates are identified by their ``D[omega]`` entry keys -- the
    canonical integer coordinates the algebraic managers intern -- so
    ``T`` and ``phase_gate(pi/4)`` (or ``SDG`` and
    ``phase_gate(-pi/2)``) collapse to one identity.  Numeric-only
    gates are identified by the bit patterns of their eight matrix
    components.
    """
    gate = operation.gate
    if gate.exact is not None:
        return ("exact", tuple(entry.key() for entry in gate.exact))
    parts = b"".join(
        _float_bits(component)
        for entry in gate.matrix
        for component in (complex(entry).real, complex(entry).imag)
    )
    return ("numeric", parts)


def circuit_fingerprint(circuit: Circuit) -> Tuple[Any, ...]:
    """The hashable canonical form of one circuit (no display names)."""
    return (
        _VERSION,
        circuit.num_qubits,
        tuple(
            (
                _gate_identity(operation),
                operation.target,
                tuple(sorted(operation.controls)),
                tuple(sorted(operation.negative_controls)),
            )
            for operation in circuit.operations
        ),
    )


def config_fingerprint(config: Optional[Any]) -> Tuple[Any, ...]:
    """The hashable canonical form of a simulator configuration.

    Duck-typed over the :class:`repro.api.SimulatorConfig` fields so
    this module needs no import from the facade (which imports this
    package).  ``None`` hashes as the distinct "no configuration"
    marker, not as the default configuration.
    """
    if config is None:
        return ("none",)
    values = []
    for name in _CONFIG_FIELDS:
        value = getattr(config, name)
        if isinstance(value, float):
            value = _float_bits(value)
        values.append((name, value))
    return tuple(values)


def canonical_hash(circuit: Circuit, config: Optional[Any] = None) -> str:
    """A stable sha256 hex identity for ``(circuit, config)``.

    Independent of display names, control ordering and process (no
    ``repr`` of floats, no interpreter ``hash`` randomisation); equal
    exactly when the simulator would be handed the same work.
    """
    digest = hashlib.sha256()
    digest.update(repr(circuit_fingerprint(circuit)).encode("utf-8"))
    digest.update(b"|")
    digest.update(repr(config_fingerprint(config)).encode("utf-8"))
    return digest.hexdigest()
