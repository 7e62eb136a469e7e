"""Benchmark command: one workload per call, result as the last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exact_direct --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a separate traced run and
writes a per-layer report to ``perfbench/out/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when an output is wrong, a job fails, a time limit is hit or a child
process outlives its run.

Process layout: this supervisor starts every workload process in a
fresh session, so a time limit or a stray worker can be dealt with by
killing the whole process group.  ``setup_s`` is the median over
``SETUP_SAMPLES`` fresh processes (the measured run's own set-up
included, the others started before and after it) of the time from
spawning the interpreter to the workload's ``READY`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("exact_direct", "eps_sweep", "serve_mixed")

#: Fresh processes whose set-up time is sampled for ``setup_s``.
SETUP_SAMPLES = 5
#: Hard wall-clock limit for everything one command does.
TIME_LIMIT_S = 170.0


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="seconds-long inputs for self-tests")
    parser.add_argument("--role", choices=("supervise", "setup", "run"),
                        default="supervise", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------


class LimitExceeded(Exception):
    pass


def _live_group_members(pgid: int) -> List[int]:
    """Processes (zombies excluded) still in process group ``pgid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry.name))
    return members


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(args: argparse.Namespace, role: str, deadline: float) -> Tuple[float, List[str]]:
    """Run one workload process to completion; returns the seconds from
    spawn to its READY line and its other output lines."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace), "--role", role,
    ]
    if args.quick:
        command.append("--quick")
    # A fixed hash seed fixes set and dict iteration order, so every run of
    # a seed allocates and collects the same way.
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    lines: "queue.Queue[Tuple[float, Optional[str]]]" = queue.Queue()

    def pump() -> None:
        assert process.stdout is not None
        for line in process.stdout:
            lines.put((time.perf_counter(), line.rstrip("\n")))
        lines.put((time.perf_counter(), None))

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    ready_s: Optional[float] = None
    output: List[str] = []
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise LimitExceeded
            try:
                stamp, line = lines.get(timeout=remaining)
            except queue.Empty:
                raise LimitExceeded from None
            if line is None:
                break
            if line == "READY" and ready_s is None:
                ready_s = stamp - started
            else:
                output.append(line)
        code = process.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except (LimitExceeded, subprocess.TimeoutExpired):
        _kill_group(process.pid)
        process.wait()
        raise LimitExceeded(
            f"{args.workload} ({role}) exceeded the time limit"
        ) from None
    finally:
        reader.join(timeout=5.0)
    stray = _live_group_members(process.pid)
    if stray:
        _kill_group(process.pid)
        raise RuntimeError(f"{args.workload} ({role}) left child processes {stray}")
    if code != 0:
        raise RuntimeError(f"{args.workload} ({role}) exited with code {code}")
    if ready_s is None:
        raise RuntimeError(f"{args.workload} ({role}) never reported READY")
    return ready_s, output


def supervise(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"error: no program sources at {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIME_LIMIT_S
    # Set-up-only samples go half before and half after the measured run,
    # so their median spans the run rather than one moment of the host.
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    try:
        setups = [spawn(args, "setup", deadline)[0] for _ in range(extra // 2)]
        ready_s, output = spawn(args, "run", deadline)
        setups.append(ready_s)
        setups.extend(spawn(args, "setup", deadline)[0] for _ in range(extra - extra // 2))
    except (LimitExceeded, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        result: Dict[str, Any] = json.loads(output[-1])
    except (IndexError, ValueError):
        print(f"error: {args.workload} printed no result line", file=sys.stderr)
        return 3
    for line in output[:-1]:
        print(line)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print(f"setup_s samples: {', '.join(f'{value:.3f}' for value in setups)}")
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


# ---------------------------------------------------------------------------
# Workload process
# ---------------------------------------------------------------------------


def workload_process(args: argparse.Namespace) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import END_TO_END_UNITS, PER_LAYER, WORKLOADS as CLASSES
    from perfbench.bench import peak_rss_mb, per_layer_unit

    workload = CLASSES[args.workload](args.seed, args.seconds, quick=args.quick)
    workload.setup()
    print("READY", flush=True)
    if args.role == "setup":
        workload.close()
        return 0
    try:
        if args.trace:
            layer_metrics, phase, tracker = workload.trace()
        else:
            phase = workload.measure()
            rss_mb = peak_rss_mb()  # before the checks, which are not the workload
        checked = workload.check(phase)
    finally:
        workload.close()

    wrong = checked.wrong
    if args.trace:
        rows = tracker.report()
        layer_metrics.update({f"{row['layer']}.self_ms": row["self_ms"] for row in rows})
        # Dead-signal guard; quick inputs are too small to evict or race.
        live = () if args.quick else workload.live_layers
        wrong.extend(
            f"dead signal: per-layer metric {name} is 0"
            for name in live if not layer_metrics.get(name)
        )
        if tracker.misnested:
            wrong.append(f"{tracker.misnested} traced frames closed out of order")
        metrics = {
            name: {"value": float(layer_metrics.get(name, 0.0)), "unit": per_layer_unit(name)}
            for name in PER_LAYER
        }
        write_report(args, tracker, rows, layer_metrics, workload.info)
    else:
        values = {
            "jobs_per_s": phase.rate(phase.fastest),
            **workload.latency_metrics(phase),
            "peak_rss_mb": rss_mb,
            "peak_nodes": float(checked.peak_nodes),
            "accuracy_digits": statistics.fmean(checked.digits) if checked.digits else 0.0,
        }
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()
        }
    for message in phase.errors:
        print(f"FAILED {message}")
    for message in wrong:
        print(f"WRONG {message}")
    workload.info.update(checked_outputs=checked.checked, wrong=len(wrong))
    print(f"info {json.dumps(workload.info, sort_keys=True)}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": metrics,
    }))
    return 0


def write_report(args: argparse.Namespace, tracker: Any, rows: List[Dict[str, Any]],
                 layer_metrics: Dict[str, float], info: Dict[str, Any]) -> None:
    """Per-layer table (self times plus ``other`` = traced wall time)."""
    total_ms = sum(row["self_ms"] for row in rows)
    print(f"traced wall {tracker.wall_s * 1e3:.1f} ms; layer self times:")
    for row in rows:
        print(f"  {row['layer']:<14} {row['self_ms']:>11.1f} ms  {row['share']:6.1%}"
              f"  calls {row['calls']}")
    print(f"  {'sum':<14} {total_ms:>11.1f} ms")
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace_{args.workload}_seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "traced_wall_ms": tracker.wall_s * 1e3, "rows": rows,
        "metrics": layer_metrics, "info": info,
    }, indent=2, sort_keys=True))
    print(f"report written to {path.relative_to(ROOT)}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.role == "supervise":
        return supervise(args)
    return workload_process(args)


if __name__ == "__main__":
    sys.exit(main())
