"""Warm-entry eviction frees the evicted stack's decision diagram.

A warm worker keeps at most ``max_warm`` simulator stacks.  The DD
engine holds no reference cycles, so evicting a stack frees its
manager -- unique, compute and weight tables included -- by reference
counting at once, without waiting for CPython's cyclic collector.
"""

import gc
import weakref

from repro.api import RunRequest, SimulatorConfig
from repro.circuits.library import ghz_circuit
from repro.serve.protocol import ServeRequest
from repro.serve.worker import WarmWorker, WorkerOptions

SYSTEMS = ("algebraic", "algebraic-gcd", "numeric")


def test_evicted_stack_is_freed_immediately():
    max_warm = 4
    worker = WarmWorker(0, WorkerOptions(max_warm=max_warm), serialize_spans=False)
    # More distinct (config, width) keys than warm slots, as in a mixed
    # service load: every request past the fourth evicts the oldest stack.
    requests = [
        RunRequest(ghz_circuit(width), SimulatorConfig(system=system, gc=gc_threshold))
        for width in (3, 4)
        for system in SYSTEMS
        for gc_threshold in (None, 16)
    ]
    assert len(requests) > max_warm
    live = []
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for seq, request in enumerate(requests):
            response = worker.execute(ServeRequest(seq=seq, request=request))
            assert response.ok and not response.warm
            (simulator, _scope) = worker._entries[worker._entry_key(request)]
            live.append(weakref.ref(simulator.manager))
            del simulator, _scope, response
            evicted = live[: max(0, len(live) - max_warm)]
            assert all(ref() is None for ref in evicted)
            assert all(ref() is not None for ref in live[len(evicted):])
        assert worker.warm_entries == max_warm
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
