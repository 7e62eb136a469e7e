r"""Cross-process trace-context propagation and span re-parenting.

The batch engine (:mod:`repro.exec.batch`) fans jobs out over worker
processes; each worker records its own spans against its own
:class:`~repro.obs.tracing.Tracer` -- a private monotonic timeline that
means nothing to any other process.  This module is the bridge that
turns those per-worker rings into one coherent distributed trace:

* :class:`TraceContext` is the picklable context carried by each
  :class:`~repro.api.RunRequest`: the batch-wide trace id, the span id
  of the coordinator's ``exec.batch`` span (every worker span's
  ultimate parent), and the coordinator tracer's wall-clock epoch
  anchor used for clock alignment.
* :func:`export_worker_spans` runs inside the worker: it serializes
  the tracer ring into a plain-dict payload (picklable, JSON-safe)
  together with the worker's pid and its own epoch anchor.  It is
  called on the success, failure *and* timeout paths, so a timed-out
  job still ships every span it completed before the alarm fired.
* :func:`reparent_spans` runs in the coordinator: it translates each
  worker span's times into the coordinator tracer's timeline (the
  per-worker **monotonic-clock offset** is the difference of the two
  tracers' wall-clock epoch anchors), re-bases span depths under the
  ``exec.batch`` span, tags every span with the trace id (and the
  top-level spans with their parent span id), assigns the worker's pid
  as the span's export track, and lands the spans in the coordinator's
  ring via :meth:`~repro.obs.tracing.Tracer.adopt`.

The result: one tracer ring -- and therefore one JSONL / Chrome
``trace_event`` export -- containing the coordinator's ``exec.batch``
span plus every worker's ``exec.job``/``sim.gate``/``dd.apply.direct``
spans on distinct per-worker tracks, all on a single aligned timeline.

Trace ids never influence simulation; results stay byte-identical with
tracing on or off (asserted by ``tests/exec/test_trace_batch.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.obs.tracing import Span, Tracer

__all__ = [
    "TraceContext",
    "new_trace_id",
    "new_span_id",
    "export_worker_spans",
    "export_local_spans",
    "reparent_spans",
]


def new_trace_id() -> str:
    """A fresh 128-bit trace id (32 hex chars, W3C-traceparent sized)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id (16 hex chars)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """The trace context one job carries across the process boundary.

    ``trace_id``
        Batch-wide id; every span of every worker is tagged with it.
    ``parent_span_id``
        Span id of the coordinator's ``exec.batch`` span -- the parent
        every worker-side top-level span is re-attached to.
    ``epoch_unix``
        Wall-clock anchor (``time.time()``) of the coordinator
        tracer's monotonic epoch.  Workers ship their own anchor home
        and the coordinator aligns the two timelines by their
        difference.
    """

    trace_id: str
    parent_span_id: str
    epoch_unix: float

    @classmethod
    def for_tracer(cls, tracer: Tracer) -> "TraceContext":
        """A fresh context rooted at ``tracer``'s timeline."""
        return cls(
            trace_id=new_trace_id(),
            parent_span_id=new_span_id(),
            epoch_unix=tracer.epoch_unix,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "parent_span_id": self.parent_span_id,
            "epoch_unix": self.epoch_unix,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceContext":
        return cls(
            trace_id=str(payload["trace_id"]),
            parent_span_id=str(payload["parent_span_id"]),
            epoch_unix=float(payload["epoch_unix"]),
        )


def export_worker_spans(
    tracer: Tracer, context: Optional[TraceContext]
) -> Dict[str, Any]:
    """Serialize a worker tracer's ring into a picklable payload.

    Called inside the worker process on every outcome path (success,
    typed failure, timeout).  The payload carries everything the
    coordinator needs for re-parenting: the worker's pid, its epoch
    anchor, the number of spans that overflowed the worker ring, and
    the span records themselves (oldest first).
    """
    # Inlined Span.to_dict: this runs once per recorded span on every
    # job outcome, so the per-span cost is part of the traced-batch
    # overhead contract (benchmarks/bench_trace_overhead.py).
    records = []
    append = records.append
    for span in tracer._ring:
        start = span.start
        end = span.end
        append(
            {
                "name": span.name,
                "start": start,
                "seconds": end - start if end > start else 0.0,
                "depth": span.depth,
                "pid": span.pid,
                "tid": span.tid,
                "attrs": dict(span.attrs),
            }
        )
    return {
        "pid": os.getpid(),
        "epoch_unix": tracer.epoch_unix,
        "trace_id": context.trace_id if context is not None else None,
        "parent_span_id": (
            context.parent_span_id if context is not None else None
        ),
        "dropped": tracer.dropped,
        "spans": records,
    }


def export_local_spans(
    tracer: Tracer, context: Optional[TraceContext]
) -> Dict[str, Any]:
    """Zero-copy variant of :func:`export_worker_spans` for in-process jobs.

    The ``workers=1`` fallback of the batch engine runs jobs in the
    coordinator's own process, so there is no pickle boundary and the
    dict round-trip of :func:`export_worker_spans` is pure overhead.
    This exporter hands the live :class:`~repro.obs.tracing.Span`
    objects over under the ``span_objects`` key instead;
    :func:`reparent_spans` retags them in place.  The payload is NOT
    picklable or JSON-safe -- never send it across a process boundary.
    """
    return {
        "pid": os.getpid(),
        "epoch_unix": tracer.epoch_unix,
        "trace_id": context.trace_id if context is not None else None,
        "parent_span_id": (
            context.parent_span_id if context is not None else None
        ),
        "dropped": tracer.dropped,
        "span_objects": tracer.spans(),
    }


def reparent_spans(
    tracer: Tracer,
    payload: Dict[str, Any],
    parent_depth: int = 0,
    tid: int = 0,
) -> List[Span]:
    """Adopt one worker payload into the coordinator tracer's ring.

    Each worker span becomes a :class:`~repro.obs.tracing.Span` on the
    coordinator timeline:

    * ``start``/``end`` are shifted by the per-worker clock offset
      (``worker epoch anchor - coordinator epoch anchor``), so spans
      from different workers interleave correctly on one timeline;
    * ``depth`` is re-based to ``parent_depth + 1`` (the worker's own
      nesting is preserved below that), expressing the re-parenting
      under the coordinator's ``exec.batch`` span;
    * every span is tagged with the trace id and its worker pid;
      worker-side *top-level* spans (depth 0 in the worker) addition-
      ally carry ``parent_span_id`` -- their explicit link to the
      ``exec.batch`` span;
    * ``pid``/``tid`` become the span's export track, giving every
      worker its own lane in the Chrome trace.

    Returns the adopted spans (also landed in ``tracer``'s ring).
    """
    offset = float(payload["epoch_unix"]) - tracer.epoch_unix
    worker_pid = int(payload["pid"])
    trace_id = payload.get("trace_id")
    parent_span_id = payload.get("parent_span_id")
    rebase = parent_depth + 1

    objects = payload.get("span_objects")
    if objects is not None:
        # In-process fast path (export_local_spans): the spans already
        # exist in this process, so retag and reclock them in place --
        # no dict round-trip, no reconstruction.  Ring overflow is
        # settled in one bulk computation (equivalent to per-append
        # eviction counting) and the ring extended once.
        for span in objects:
            attrs = span.attrs
            attrs["worker_pid"] = worker_pid
            if trace_id is not None:
                attrs["trace_id"] = trace_id
            depth = span.depth
            if depth == 0 and parent_span_id is not None:
                attrs["parent_span_id"] = parent_span_id
            span.start += offset
            span.end += offset
            span.depth = rebase + depth
            span.pid = worker_pid
            span.tid = tid
        ring = tracer._ring
        overflow = len(ring) + len(objects) - tracer.capacity
        if overflow > 0:
            tracer.dropped += overflow
        ring.extend(objects)
        return list(objects)

    adopted: List[Span] = []
    append = adopted.append
    adopt = tracer.adopt
    new = Span.__new__
    # Hot loop: one iteration per worker span per job outcome (part of
    # the traced-batch overhead contract).  The coordinator owns the
    # payload once it arrives, so the record's attrs dict is tagged in
    # place instead of copied, and the Span is built by direct slot
    # stores rather than __init__.
    for record in payload.get("spans", ()):
        attrs = record["attrs"]
        attrs["worker_pid"] = worker_pid
        if trace_id is not None:
            attrs["trace_id"] = trace_id
        depth = record["depth"]
        if depth == 0 and parent_span_id is not None:
            attrs["parent_span_id"] = parent_span_id
        span = new(Span)
        span.tracer = None  # completed spans hold no tracer (no ring cycle)
        span.name = record["name"]
        span.attrs = attrs
        start = record["start"] + offset
        span.start = start
        span.end = start + record["seconds"]
        span.depth = rebase + depth
        span.pid = worker_pid
        span.tid = tid
        adopt(span)
        append(span)
    return adopted
