"""The three workloads: set-up, timed phase, output checks and metrics.

One :class:`Workload` lives in one fresh process (see ``run.py``).  Its
life is ``setup()`` -> ``measure()`` or ``trace()`` -> ``close()``.
The program is driven only through its public API: ``repro.api.run``
and ``run_batch``, ``SimulationService``, ``RunResult.metrics``,
``BatchResult.metrics`` and ``service.stats()``.

A timed phase is a fixed number of passes of equal work (the whole
seeded job list, or one equal-length segment of the serve stream).  The
pass count follows from ``--seconds`` and a nominal pass time measured
on a 2-core x86-64 VM, so a phase lasts about ``--seconds`` there and
every run of a workload measures the same work wherever it runs.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import RunRequest, RunResult, SimulatorConfig, run, run_batch
from repro.circuits.canonical import canonical_hash
from repro.circuits.circuit import Circuit
from repro.obs import Telemetry, merge_snapshots
from repro.serve import SimulationService
from repro.sim.statevector import StatevectorSimulator

from perfbench import inputs
from perfbench.layers import LayerTracker, attribute

#: Exact results must match the dense reference this closely.
EXACT_TOLERANCE = 1e-10
#: accuracy_digits is -log10(max amplitude error), capped here.
DIGITS_CAP = 16.0
#: Percentiles considered for latency_tail_ms, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0, 50.0)

#: Per-layer metric names, in report order.  Self times come from the
#: traced replay; counts from the program's own counters.
PER_LAYER = (
    "rings.self_ms", "rings.max_bit_width",
    "weights.self_ms", "weights.lookups", "weights.hit_share",
    "numeric.self_ms", "numeric.lookups", "numeric.merge_share",
    "dd.apply.self_ms", "dd.apply.calls", "dd.ct.apply.hit_share",
    "dd.ut.self_ms", "dd.ut.lookups", "dd.ut.hit_share", "dd.nodes.created",
    "gc.self_ms", "gc.collections", "gc.swept_nodes",
    "sim.self_ms", "sim.gates",
    "serialize.self_ms",
    "approx.synth_s", "circuits.hash.self_ms",
    "exec.self_ms", "exec.worker_busy_share",
    "serve.self_ms", "serve.queue_wait_ms", "serve.cache.hit_share",
    "serve.repeat_share", "serve.cache.evictions",
    "other.self_ms", "trace.overhead",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "peak_nodes": "count",
    "accuracy_digits": "digits",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "overhead")):
        return "ratio"
    if name.endswith("bit_width"):
        return "bits"
    return "count"


@dataclass
class Phase:
    """What one timed phase observed: per pass, its wall time and the
    latency of every job it completed, keyed by job index.  ``results``
    is index-aligned with the workload's job list (first completion)."""

    pass_seconds: List[float] = field(default_factory=list)
    pass_latencies: List[Dict[int, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    results: List[Optional[RunResult]] = field(default_factory=list)
    wrong: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def result(self, index: int) -> Optional[RunResult]:
        return self.results[index] if index < len(self.results) else None

    def record(self, index: int, result: RunResult) -> None:
        """Keep the first result of job ``index``; later passes must
        reproduce its payload byte for byte."""
        if len(self.results) <= index:
            self.results.extend([None] * (index + 1 - len(self.results)))
        first = self.results[index]
        if first is None:
            self.results[index] = result
        elif first.state_payload != result.state_payload:
            self.wrong.append(f"{result.label}: payload changed between passes")

    def fail(self, label: str, error: str) -> None:
        self.failed += 1
        self.errors.append(f"{label}: {error}")

    def rate(self, number: int) -> float:
        return len(self.pass_latencies[number]) / self.pass_seconds[number]

    @property
    def fastest(self) -> int:
        """The pass with the highest job rate: passes do equal work, and
        noise on a shared host only ever adds time."""
        return max(range(len(self.pass_seconds)), key=self.rate)

    def latencies(self) -> List[float]:
        """The latency of every job of every pass, as its caller saw it."""
        return [seconds for latencies in self.pass_latencies for seconds in latencies.values()]

    def total_rate(self) -> float:
        return sum(map(len, self.pass_latencies)) / sum(self.pass_seconds)


@dataclass
class Checked:
    """Outcome of the output checks of one run."""

    wrong: List[str] = field(default_factory=list)
    digits: List[float] = field(default_factory=list)
    peak_nodes: int = 0
    checked: int = 0


def tail_percentile(samples: int) -> float:
    """The highest ladder percentile with at least 10 samples beyond it
    (the maximum when there are too few samples for any)."""
    for percentile in TAIL_LADDER:
        if samples * (1.0 - percentile / 100.0) >= 10.0:
            return percentile
    return 100.0


def percentile(values: Sequence[float], p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), p))


def _live_children_hwm_kb() -> List[int]:
    """VmHWM (peak RSS, kB) of this process's live children."""
    me = str(os.getpid())
    peaks = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
            if stat[stat.rfind(")") + 2:].split()[1] != me:
                continue
            with open(f"/proc/{entry}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peaks.append(int(line.split()[1]))
        except OSError:
            continue
    return peaks


def peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest worker,
    live (service workers) or already reaped (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + max([reaped, *_live_children_hwm_kb()])) / 1024.0


def dense_reference(circuit: Circuit) -> np.ndarray:
    return StatevectorSimulator(circuit.num_qubits).run(circuit)


def state_vector(result: RunResult) -> np.ndarray:
    manager, edge = result.restore_state()
    return manager.to_statevector(edge)


def digits_of(error: float) -> float:
    return DIGITS_CAP if error <= 0.0 else min(DIGITS_CAP, -math.log10(error))


def layer_counts(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer work counts from one (merged) metrics snapshot."""

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def total(prefix: str, suffixes: Sequence[str]) -> float:
        return float(
            sum(
                value
                for name, value in snapshot.items()
                if name.startswith(prefix)
                and name.rsplit(".", 1)[-1] in suffixes
                and isinstance(value, (int, float))
            )
        )

    weight_hits = total("weights.weight_", ("hits",))
    weight_lookups = total("weights.weight_", ("hits", "misses"))
    apply_hits = float(snapshot.get("dd.ct.apply.hits", 0))
    apply_calls = apply_hits + float(snapshot.get("dd.ct.apply.misses", 0))
    ut_hits = total("dd.ut.", ("hits",))
    ut_lookups = total("dd.ut.", ("hits", "misses"))
    numeric_lookups = float(snapshot.get("numeric.eps.lookups", 0))
    bit_widths = [
        float(value)
        for name, value in snapshot.items()
        if name.startswith("rings.") and name.endswith(".bit_width")
    ]
    return {
        "rings.max_bit_width": max(bit_widths, default=0.0),
        "weights.lookups": weight_lookups,
        "weights.hit_share": ratio(weight_hits, weight_lookups),
        "numeric.lookups": numeric_lookups,
        "numeric.merge_share": ratio(
            float(snapshot.get("numeric.eps.identifications", 0)), numeric_lookups
        ),
        "dd.apply.calls": apply_calls,
        "dd.ct.apply.hit_share": ratio(apply_hits, apply_calls),
        "dd.ut.lookups": ut_lookups,
        "dd.ut.hit_share": ratio(ut_hits, ut_lookups),
        "dd.nodes.created": total("dd.ut.", ("inserts",)),
        "gc.collections": float(snapshot.get("dd.gc.collections", 0)),
        "gc.swept_nodes": float(snapshot.get("dd.gc.swept_nodes", 0)),
        "sim.gates": float(snapshot.get("sim.gates", 0)),
    }


def merged(results: Sequence[Optional[RunResult]]) -> Dict[str, Any]:
    return merge_snapshots([result.metrics for result in results if result is not None])


class Workload:
    """Base class: a seeded job list, timed in identical passes."""

    name = ""
    #: Seconds one pass takes on the reference machine.
    nominal_pass_s = 1.0
    #: Per-layer metrics that must be non-zero on this workload.
    live_layers: Tuple[str, ...] = ()

    def __init__(self, seed: int, seconds: float, quick: bool = False) -> None:
        self.seed = seed
        self.seconds = seconds
        self.quick = quick
        self.info: Dict[str, Any] = {}
        self.references: Dict[str, np.ndarray] = {}

    def passes(self) -> int:
        """Whole passes in a phase of about ``seconds``; at least three,
        so the fastest one is a pass the host left alone."""
        return max(3, round(self.seconds / self.nominal_pass_s))

    def reference_for(self, circuit: Circuit) -> np.ndarray:
        key = canonical_hash(circuit)
        if key not in self.references:
            self.references[key] = dense_reference(circuit)
        return self.references[key]

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, phase: Phase, number: int, **options: Any) -> None:
        raise NotImplementedError

    def checked_indices(self) -> Sequence[int]:
        """Jobs whose outputs are checked against the dense reference."""
        return range(len(self.requests))

    def trace(self) -> Tuple[Dict[str, float], Phase, LayerTracker]:
        """Per-layer metrics, the traced phase and its layer tracker."""
        raise NotImplementedError

    def close(self) -> None:
        return None

    def measure(self, passes: Optional[int] = None, **options: Any) -> Phase:
        phase = Phase()
        for number in range(passes if passes is not None else self.passes()):
            self.run_pass(phase, number, **options)
        return phase

    def closed_loop(self, phase: Phase, indices: Sequence[int], **run_options: Any) -> None:
        """One pass: one caller runs the jobs ``indices`` one after another
        through ``repro.api.run``, timing each."""
        latencies: Dict[int, float] = {}
        started = time.perf_counter()
        for index in indices:
            request = self.requests[index]
            phase.attempted += 1
            job_started = time.perf_counter()
            try:
                result = run(request, **run_options)
            except Exception as exc:  # noqa: BLE001 - a failed job is counted
                phase.fail(f"job {index} ({request.job_label})", f"{type(exc).__name__}: {exc}")
                continue
            latencies[index] = time.perf_counter() - job_started
            phase.record(index, result)
        phase.pass_seconds.append(time.perf_counter() - started)
        phase.pass_latencies.append(latencies)

    def check(self, phase: Phase) -> Checked:
        """Accuracy of every checked job against its dense reference;
        exact systems must agree within :data:`EXACT_TOLERANCE`."""
        checked = Checked(wrong=list(phase.wrong))
        for index in self.checked_indices():
            request, result = self.requests[index], phase.result(index)
            if result is None:
                continue
            reference = self.reference_for(request.circuit)
            state = state_vector(result)
            if state.shape != reference.shape:
                checked.wrong.append(
                    f"{result.label}: {state.size} amplitudes, reference has {reference.size}"
                )
                continue
            error = float(np.max(np.abs(state - reference)))
            checked.digits.append(digits_of(error))
            checked.checked += 1
            if request.config.system != "numeric" and not error <= EXACT_TOLERANCE:
                checked.wrong.append(f"{result.label}: error {error:.3g} vs dense reference")
            checked.peak_nodes += int(self.per_job_metrics(index, result)["sim.state.peak_nodes"])
        return checked

    def per_job_metrics(self, index: int, result: RunResult) -> Dict[str, Any]:
        return result.metrics

    def latency_metrics(self, phase: Phase) -> Dict[str, float]:
        """p50 and the tail percentile the sample count supports, over
        every job of every pass."""
        values = [seconds * 1e3 for seconds in phase.latencies()]
        tail = tail_percentile(len(values))
        metrics = {
            "latency_p50_ms": percentile(values, 50.0),
            "latency_tail_ms": percentile(values, tail),
        }
        self.info.update(
            latency_samples=len(values),
            latency_tail_percentile=tail,
            latency_tail_beyond=sum(value > metrics["latency_tail_ms"] for value in values),
            pass_seconds=[round(seconds, 3) for seconds in phase.pass_seconds],
        )
        return metrics


def overhead(untraced: Phase, traced: Phase) -> float:
    """Untraced over traced job rate of two phases of the same work."""
    return untraced.total_rate() / traced.total_rate()


# ---------------------------------------------------------------------------
# exact_direct
# ---------------------------------------------------------------------------


class ExactDirect(Workload):
    """Closed loop, one caller, ``repro.api.run`` in-process with a fresh
    manager per job, both exact systems."""

    name = "exact_direct"
    nominal_pass_s = 5.0
    live_layers = (
        "rings.self_ms", "rings.max_bit_width", "weights.self_ms",
        "weights.lookups", "weights.hit_share", "dd.apply.self_ms",
        "dd.apply.calls", "dd.ct.apply.hit_share", "dd.ut.self_ms",
        "dd.ut.lookups", "dd.ut.hit_share", "dd.nodes.created", "gc.self_ms",
        "gc.collections", "gc.swept_nodes", "sim.self_ms", "sim.gates",
        "serialize.self_ms", "approx.synth_s", "other.self_ms", "trace.overhead",
    )

    def setup(self) -> None:
        started = time.perf_counter()
        gse = inputs.gse_workload_circuit(small=self.quick)
        self.synth_s = time.perf_counter() - started
        self.requests = inputs.exact_direct_jobs(self.seed, gse, small=self.quick)
        for system in inputs.EXACT_SYSTEMS:  # warm-up: lazy imports and tables
            run(RunRequest(inputs.warm_up_circuit(0),
                           SimulatorConfig(system=system, gc=inputs.EXACT_GC_THRESHOLD)))

    def run_pass(self, phase: Phase, number: int, **options: Any) -> None:
        self.closed_loop(phase, range(len(self.requests)))

    def trace(self) -> Tuple[Dict[str, float], Phase, LayerTracker]:
        untraced = self.measure(passes=1)
        with attribute() as tracker:
            traced = self.measure(passes=1)
        metrics = layer_counts(merged(traced.results))
        metrics["approx.synth_s"] = self.synth_s
        metrics["trace.overhead"] = overhead(untraced, traced)
        return metrics, traced, tracker


# ---------------------------------------------------------------------------
# eps_sweep
# ---------------------------------------------------------------------------


class EpsSweep(Workload):
    """The accuracy/compactness sweep; one pass is one in-process
    ``run_batch`` call over the whole sweep.  The pool
    (``workers=POOL_WORKERS``) runs the same sweep in the traced run
    only: timed on a 2-vCPU VM, its makespan followed whichever vCPU the
    host slowed, and ten runs spread by 32 %."""

    name = "eps_sweep"
    nominal_pass_s = 6.0
    workers = 1
    pool_workers = 2
    live_layers = (
        "weights.self_ms", "numeric.self_ms", "numeric.lookups",
        "numeric.merge_share", "dd.apply.self_ms", "dd.apply.calls",
        "dd.ct.apply.hit_share", "dd.ut.self_ms", "dd.ut.lookups",
        "dd.ut.hit_share", "dd.nodes.created", "sim.self_ms", "sim.gates",
        "serialize.self_ms", "exec.self_ms", "exec.worker_busy_share",
        "other.self_ms", "trace.overhead",
    )

    def setup(self) -> None:
        self.requests = inputs.eps_sweep_jobs(self.seed, small=self.quick)
        run_batch([RunRequest(inputs.warm_up_circuit(0), SimulatorConfig(system="numeric"))])

    def run_pass(self, phase: Phase, number: int, **options: Any) -> None:
        options.setdefault("workers", self.workers)
        started = time.perf_counter()
        batch = run_batch(self.requests, **options)
        seconds = time.perf_counter() - started
        phase.attempted += len(self.requests)
        for failure in batch.failures:
            phase.fail(failure.label, f"{failure.error_type}: {failure.message}")
        for index, result in enumerate(batch.results):
            if result is not None:
                phase.record(index, result)
        phase.pass_seconds.append(seconds)
        # The caller of run_batch gets every result when the call returns,
        # so each job's latency is the latency of the whole call.
        phase.pass_latencies.append(
            {index: seconds for index, result in enumerate(batch.results) if result}
        )

    def check(self, phase: Phase) -> Checked:
        checked = super().check(phase)
        # A seeded sample must be byte-identical to a direct in-process run.
        rng = inputs.stream_rng(self.seed, "eps_sweep/check")
        sample = sorted(rng.sample(range(len(self.requests)), min(6, len(self.requests))))
        for index in sample:
            result = phase.result(index)
            if result is not None and run(self.requests[index]).state_payload != result.state_payload:
                checked.wrong.append(f"{result.label}: batch payload differs from direct run")
        self.info["payload_sample"] = len(sample)
        return checked

    def trace(self) -> Tuple[Dict[str, float], Phase, LayerTracker]:
        untraced = self.measure(passes=1)
        with attribute() as tracker:
            traced = self.measure(passes=1)
        metrics = layer_counts(merged(traced.results))
        metrics["trace.overhead"] = overhead(untraced, traced)
        # Process boundary: the pool, through the program's own
        # exec.batch / exec.job spans; its payloads must match the
        # in-process ones (Phase.record).
        telemetry = Telemetry.tracing()
        self.run_pass(traced, 1, telemetry=telemetry, workers=self.pool_workers)
        spans = telemetry.tracer.spans()
        batch_s = sum(span.seconds for span in spans if span.name == "exec.batch")
        job_s = sum(span.seconds for span in spans if span.name == "exec.job")
        metrics["exec.worker_busy_share"] = (
            job_s / (self.pool_workers * batch_s) if batch_s else 0.0
        )
        self.info["exec_jobs_traced"] = sum(span.name == "exec.job" for span in spans)
        return metrics, traced, tracker


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------


class ServeMixed(Workload):
    """One closed-loop client against one ``SimulationService(
    mode="process", workers=2)`` with the default cache and queue.  The
    seeded stream is cut into equal segments; one pass serves one
    segment, and the service with its cache lives across passes."""

    name = "serve_mixed"
    nominal_pass_s = 4.0
    #: Requests per segment: four full cycles of the stream's 7 widths x
    #: 2 configs (14 fresh requests and 6 repeats each), so segments are
    #: equal work.
    segment = 80
    workers = 2
    live_layers = (
        "rings.self_ms", "weights.self_ms", "numeric.self_ms",
        "numeric.lookups", "dd.apply.self_ms", "dd.ut.self_ms", "sim.self_ms",
        "serialize.self_ms", "circuits.hash.self_ms", "serve.self_ms",
        "serve.queue_wait_ms", "serve.cache.hit_share", "serve.repeat_share",
        "serve.cache.evictions", "other.self_ms", "trace.overhead",
    )

    def setup(self) -> None:
        if self.quick:
            self.segment = 20
        self.stream = inputs.serve_stream(self.seed, self.segment * self.passes())
        self.requests = [item.request for item in self.stream]
        self.quality = inputs.serve_quality_set(self.stream, small=self.quick)
        self.service = self.start_service("process")
        self.direct: Dict[int, RunResult] = {}

    def start_service(self, mode: str, telemetry: Optional[Telemetry] = None) -> SimulationService:
        service = SimulationService(workers=self.workers, mode=mode, telemetry=telemetry).start()
        # Warm-up on a width the stream never uses, so neither the cache
        # nor the stream's warm entries are touched.
        for config in inputs.SERVE_CONFIGS:
            for index in range(self.workers):
                run(RunRequest(inputs.warm_up_circuit(index), config), client=service)
        return service

    def run_pass(self, phase: Phase, number: int, **options: Any) -> None:
        """The client drains segment ``number`` of the stream."""
        first = number * self.segment
        indices = range(first, min(len(self.stream), first + self.segment))
        self.closed_loop(phase, indices, client=options.get("service", self.service))

    def measure(self, passes: Optional[int] = None, **options: Any) -> Phase:
        phase = super().measure(passes, **options)
        # A repeat must get exactly the payload its first occurrence got.
        for index, result in enumerate(phase.results):
            source = self.stream[index].repeat_of
            first = None if source is None else phase.result(source)
            if result is None or first is None:
                continue
            if first.state_payload != result.state_payload:
                phase.wrong.append(f"request {index}: payload differs from request {source}")
        return phase

    def direct_run(self, index: int) -> RunResult:
        if index not in self.direct:
            self.direct[index] = run(self.requests[index])
        return self.direct[index]

    def checked_indices(self) -> Sequence[int]:
        return self.quality

    def check(self, phase: Phase) -> Checked:
        checked = super().check(phase)
        # Every checked request must be byte-identical to a direct run.
        for index in self.quality:
            served = phase.result(index)
            if served is not None and served.state_payload != self.direct_run(index).state_payload:
                checked.wrong.append(f"request {index}: served payload differs from direct run")
        self.info["payload_sample"] = len(self.quality)
        return checked

    def per_job_metrics(self, index: int, result: RunResult) -> Dict[str, Any]:
        # Served results carry the warm worker's cumulative telemetry;
        # per-job figures come from the direct run of the same request.
        return self.direct_run(index).metrics

    def close(self) -> None:
        self.service.close()

    def trace(self) -> Tuple[Dict[str, float], Phase, LayerTracker]:
        # Simulation layers: the first segment replayed in-process, so
        # every request runs on this thread and frames nest.
        with self.start_service("inline") as inline:
            untraced = self.measure(passes=1, service=inline)
        with self.start_service("inline") as inline, attribute() as tracker:
            traced = self.measure(passes=1, service=inline)
        metrics: Dict[str, float] = {"trace.overhead": overhead(untraced, traced)}
        # Process boundary and the serve layer: the real shape, with the
        # program's own serve.request / exec.job spans.
        telemetry = Telemetry.tracing()
        with self.start_service("process", telemetry=telemetry) as service:
            boundary = self.measure(service=service)
            stats = service.stats()
        spans = telemetry.tracer.spans()
        job_s = {span.attrs.get("parent_span_id"): span.seconds
                 for span in spans if span.name == "exec.job"}
        waits = [span.seconds - job_s[span.attrs["span_id"]]
                 for span in spans
                 if span.name == "serve.request" and span.attrs.get("span_id") in job_s]
        hits = float(stats.get("serve.cache.hits", 0))
        lookups = hits + float(stats.get("serve.cache.misses", 0))
        metrics.update({
            "serve.queue_wait_ms": statistics.fmean(waits) * 1e3 if waits else 0.0,
            "serve.cache.hit_share": hits / lookups if lookups else 0.0,
            "serve.repeat_share": inputs.repeat_share(self.stream),
            "serve.cache.evictions": float(stats.get("serve.cache.evictions", 0)),
        })
        self.info["serve_simulated_traced"] = len(waits)
        metrics.update(layer_counts(merged([self.direct_run(index) for index in self.quality])))
        return metrics, boundary, tracker


WORKLOADS = {cls.name: cls for cls in (ExactDirect, EpsSweep, ServeMixed)}
