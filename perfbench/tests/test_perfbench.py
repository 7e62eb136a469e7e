"""Self-tests of the benchmark.  Run from the repository root::

    python3 -m pytest perfbench/tests -q

They take well under a minute: every workload runs end to end in its
``--quick`` variant.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench, inputs, run  # noqa: E402

RUN = ROOT / "perfbench" / "run.py"
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT, timeout: float = 120) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


# -- seeded inputs ------------------------------------------------------------


def exact_jobs(seed: int):
    return inputs.exact_direct_jobs(seed, inputs.random_clifford_t(5, 2, inputs.stream_rng(0, "gse"), "g"))


@pytest.mark.parametrize(
    "make",
    [
        exact_jobs,
        lambda seed: inputs.exact_direct_jobs(seed, inputs.gse_workload_circuit(small=True), small=True),
        inputs.eps_sweep_jobs,
        lambda seed: [item.request for item in inputs.serve_stream(seed, 80)],
    ],
    ids=["exact_direct", "exact_direct_small", "eps_sweep", "serve_mixed"],
)
def test_seed_determines_inputs(make):
    first, again, other = make(1), make(1), make(2)
    assert inputs.fingerprint(first) == inputs.fingerprint(again)
    assert [request.circuit.name for request in first] == [request.circuit.name for request in again]
    assert inputs.fingerprint(first) != inputs.fingerprint(other)


def test_serve_stream_mixes_fresh_and_repeated_requests():
    stream = inputs.serve_stream(3, 400)
    share = inputs.repeat_share(stream)
    assert 0.2 < share < 0.4
    fresh = [item for item in stream if item.repeat_of is None]
    assert len({item.key for item in fresh}) == len(fresh) > 256  # past the cache capacity
    assert {item.request.circuit.num_qubits for item in fresh} == set(inputs.SERVE_WIDTHS)
    quality = inputs.serve_quality_set(stream)
    assert len(quality) == 3 * len(inputs.SERVE_WIDTHS) * len(inputs.SERVE_CONFIGS)


# -- metric names and the benchmark spec -------------------------------------------


def test_metric_names_are_well_formed():
    names = [*bench.END_TO_END_UNITS, *bench.PER_LAYER, *bench.WORKLOADS]
    names += [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(bench.PER_LAYER)) == len(bench.PER_LAYER)


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert [m["name"] for m in SPEC["per_layer"]] == list(bench.PER_LAYER)
    assert all(m["unit"] == bench.per_layer_unit(m["name"]) for m in SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_every_per_layer_metric_is_live_on_some_workload():
    live = {name for workload in bench.WORKLOADS.values() for name in workload.live_layers}
    assert live == set(bench.PER_LAYER)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench.tail_percentile(1000) == 99.0
    assert bench.tail_percentile(120) == 90.0
    assert bench.tail_percentile(45) == 75.0
    assert bench.tail_percentile(5) == 100.0


# -- the checks catch wrong outputs ------------------------------------------------


def test_check_flags_a_wrong_state():
    workload = bench.ExactDirect(seed=1, seconds=1, quick=True)
    workload.setup()
    phase = workload.measure(passes=1)
    assert not workload.check(phase).wrong
    phase.results[0], phase.results[1] = phase.results[1], phase.results[0]
    assert workload.check(phase).wrong


def test_changed_payload_between_passes_is_wrong():
    workload = bench.ExactDirect(seed=1, seconds=1, quick=True)
    workload.setup()
    phase = workload.measure(passes=1)
    phase.record(0, phase.results[1])
    assert phase.wrong


# -- the command end to end ---------------------------------------------------------


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_mode_runs_every_workload(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr + done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = bench.END_TO_END_UNITS if trace == "0" else {n: bench.per_layer_unit(n) for n in bench.PER_LAYER}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
    if trace == "0":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "exact_direct", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_time_limit_gives_a_clear_error():
    args = run.parse_args(["--workload", "serve_mixed", "--seed", "1", "--seconds", "20"])
    with pytest.raises(run.LimitExceeded, match="time limit"):
        run.spawn(args, "run", time.perf_counter() + 2.0)
