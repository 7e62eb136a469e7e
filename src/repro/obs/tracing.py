r"""Structured span tracing with a bounded ring buffer.

A :class:`Span` is one timed region of engine work -- a gate
application, a sanitizer pass, a normalisation -- with a name, wall
times relative to the tracer epoch, a nesting depth and free-form
attributes (gate name, level, node delta, ...).  Spans nest through the
ordinary ``with`` protocol::

    with tracer.span("sim.gate", gate="H(q0)") as span:
        state = kernel.apply(state)
        span.set(node_delta=12)

Completed spans land in a ring buffer (``collections.deque`` with
``maxlen``), so long simulations keep the most recent window instead of
growing without bound.  Exporters (:mod:`repro.obs.export`) turn the
buffer into JSONL or Chrome ``trace_event`` JSON.

When the tracer is disabled, :meth:`Tracer.span` returns a shared
:data:`NULL_SPAN` whose context protocol is a no-op -- the cost of a
disabled span site is one method call, no allocation.
"""

from __future__ import annotations

import time
from types import TracebackType
from typing import Any, Dict, List, Optional, Type, Union

__all__ = ["Span", "Tracer", "NULL_SPAN"]


class Span:
    """One timed, attributed region of work.

    ``pid``/``tid`` identify the export *track* the span belongs to.
    Locally recorded spans keep the default ``(0, 0)`` (the
    coordinator's own track); spans adopted from worker processes by
    :func:`repro.obs.propagate.reparent_spans` carry the worker's real
    process id so the Chrome exporter can lay every worker out on its
    own lane.

    ``tracer`` is the recording tracer while the span is open.  A
    completed span lands in the tracer's ring and drops the reference,
    so the ring and its spans never form a reference cycle.
    """

    __slots__ = ("tracer", "name", "attrs", "depth", "start", "end", "pid", "tid")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self.tracer: Optional[Tracer] = tracer
        self.name = name
        self.attrs = attrs
        self.depth = 0
        self.start = 0.0
        self.end = 0.0
        self.pid = 0
        self.tid = 0

    @property
    def seconds(self) -> float:
        """Wall-clock duration (0 while the span is still open)."""
        return max(0.0, self.end - self.start)

    def set(self, **attrs: Any) -> None:
        """Attach or overwrite attributes (usable before ``__exit__``)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        tracer = self.tracer
        assert tracer is not None, "a completed span cannot be re-entered"
        stack = tracer._stack
        self.depth = len(stack)
        stack.append(self)
        self.start = tracer._clock() - tracer.epoch
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        tracer = self.tracer
        assert tracer is not None
        self.end = tracer._clock() - tracer.epoch
        self.tracer = None
        stack = tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        ring = tracer._ring
        if len(ring) == tracer.capacity:
            tracer.dropped += 1
        ring.append(self)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "seconds": self.seconds,
            "depth": self.depth,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:
        return f"Span({self.name!r}, seconds={self.seconds:.6f}, attrs={self.attrs!r})"


class _NullSpan:
    """Shared do-nothing span for disabled tracers."""

    __slots__ = ()
    name = "null"
    depth = 0
    start = 0.0
    end = 0.0
    seconds = 0.0
    pid = 0
    tid = 0
    attrs: Dict[str, Any] = {}

    def set(self, **attrs: Any) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return None


NULL_SPAN = _NullSpan()

AnySpan = Union[Span, _NullSpan]


class Tracer:
    """Span factory plus the bounded completion ring.

    Parameters
    ----------
    enabled:
        Disabled tracers hand out :data:`NULL_SPAN` (near-zero cost).
    detail:
        Opt-in flag read by instrumented layers for *fine-grained* spans
        (per-normalisation, per-unique-table-lookup).  Gate-level spans
        ignore it.
    capacity:
        Ring size; the most recent ``capacity`` completed spans are
        kept.
    """

    def __init__(
        self,
        enabled: bool = False,
        detail: bool = False,
        capacity: int = 1 << 16,
    ) -> None:
        if capacity < 1:
            raise ValueError("trace ring capacity must be positive")
        from collections import deque

        self.enabled = enabled
        self.detail = detail and enabled
        self.capacity = capacity
        self._clock = time.perf_counter
        self.epoch = self._clock()
        # Wall-clock anchor of the monotonic epoch, captured at the same
        # instant.  Cross-process span alignment (repro.obs.propagate)
        # subtracts two tracers' anchors to translate between their
        # otherwise-incomparable perf_counter timelines.
        self.epoch_unix = time.time()
        self._ring: "deque[Span]" = deque(maxlen=capacity)
        self._stack: List[Span] = []
        self.dropped = 0  # completed spans pushed out of the ring

    def span(self, name: str, **attrs: Any) -> AnySpan:
        """A new span (enter it with ``with``); no-op when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def adopt(self, span: Span) -> None:
        """Append an externally built (already timed) span to the ring.

        Used by :func:`repro.obs.propagate.reparent_spans` to land
        worker-process spans -- with their times already translated into
        this tracer's timeline -- in the coordinator's ring, where the
        ordinary exporters pick them up.  Ring overflow counts into
        :attr:`dropped` exactly as for locally recorded spans.
        """
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(span)

    def spans(self) -> List[Span]:
        """Completed spans, oldest first (a copy; safe to mutate)."""
        return list(self._ring)

    def clear(self) -> None:
        self._ring.clear()
        self._stack.clear()

    def __len__(self) -> int:
        return len(self._ring)
