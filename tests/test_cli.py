"""Tests for the repro-qmdd command-line interface."""

import pytest

from repro.cli import main


class TestSimulate:
    def test_grover_algebraic(self, capsys):
        assert main(["simulate", "--algorithm", "grover", "--qubits", "4"]) == 0
        output = capsys.readouterr().out
        assert "grover_4q" in output
        assert "algebraic" in output
        assert "zero collapse: no" in output

    def test_grover_numeric(self, capsys):
        code = main(
            ["simulate", "--algorithm", "grover", "--qubits", "3",
             "--system", "numeric", "--eps", "1e-10"]
        )
        assert code == 0
        assert "numeric(eps=1e-10)" in capsys.readouterr().out

    def test_bwt(self, capsys):
        code = main(
            ["simulate", "--algorithm", "bwt", "--depth", "1", "--steps", "2"]
        )
        assert code == 0
        assert "bwt_d1_s2" in capsys.readouterr().out

    def test_gcd_system(self, capsys):
        code = main(
            ["simulate", "--algorithm", "grover", "--qubits", "3",
             "--system", "algebraic-gcd"]
        )
        assert code == 0


class TestBatch:
    def test_batch_sweep_with_report(self, tmp_path, capsys):
        import json

        report = tmp_path / "batch.json"
        code = main(
            ["batch", "--algorithm", "grover", "--qubits", "3",
             "--workers", "2", "--report", str(report)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "2 worker(s)" in output
        assert "fleet-merged telemetry" in output
        document = json.loads(report.read_text())
        assert document["failed"] == 0
        assert document["workers"] == 2
        assert document["metrics"]["exec.batch.jobs"] == document["jobs"]
        labels = [job["label"] for job in document["results"]]
        assert "algebraic" in labels and "eps=0" in labels
        for job in document["results"]:
            assert job["state_payload"]
            assert job["metrics"]

    def test_batch_custom_epsilons(self, capsys):
        code = main(
            ["batch", "--algorithm", "grover", "--qubits", "3",
             "--epsilons", "0,1e-8"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "eps=1e-08" in output

    def test_shared_flags_spelled_identically(self):
        # Satellite guarantee: the config flags parse on every
        # sweep-capable subcommand with the same spelling.
        from repro.cli import _config_parents

        _, config_parent = _config_parents()
        args = config_parent.parse_args([])
        assert args.system == "algebraic"
        assert args.eps == 0.0
        assert args.gc is None
        assert args.sanitize == "off"
        assert args.workers == 1


class TestTradeoff:
    def test_small_grover_sweep(self, capsys):
        # n = 6 gives ~200 gates -- enough for the eps = 1e-3 corruption
        # to accumulate so that every shape check passes.
        code = main(["tradeoff", "--algorithm", "grover", "--qubits", "6"])
        output = capsys.readouterr().out
        assert code == 0  # all shape checks pass
        assert "summary" in output
        assert "shape checks" in output
        assert "PASS" in output


class TestAblation:
    def test_ablation(self, capsys):
        assert main(["ablation", "--qubits", "4"]) == 0
        output = capsys.readouterr().out
        assert "algebraic-q (Alg.2)" in output
        assert "algebraic-gcd (Alg.3)" in output

    def test_ablation_skip_gcd(self, capsys):
        assert main(["ablation", "--qubits", "4", "--skip-gcd"]) == 0
        assert "Alg.3" not in capsys.readouterr().out


class TestProfile:
    def test_profile_grover(self, capsys):
        code = main(["profile", "--algorithm", "grover", "--qubits", "3"])
        assert code == 0
        output = capsys.readouterr().out
        assert "top spans by total time" in output
        assert "sim.gate" in output
        assert "dd.apply.direct" in output
        assert "engine table hit rates:" in output
        assert "dd.ct.apply" in output

    def test_profile_detail_spans(self, capsys):
        code = main(
            ["profile", "--algorithm", "grover", "--qubits", "3", "--detail"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "dd.ut.lookup" in output

    def test_profile_numeric(self, capsys):
        code = main(
            ["profile", "--algorithm", "grover", "--qubits", "3",
             "--system", "numeric", "--eps", "1e-10"]
        )
        assert code == 0
        assert "numeric(eps=1e-10)" in capsys.readouterr().out


class TestTrace:
    def test_trace_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "trace.json"
        code = main(
            ["trace", "--algorithm", "grover", "--qubits", "3",
             "--out", str(out)]
        )
        assert code == 0
        assert "perfetto" in capsys.readouterr().out
        document = json.loads(out.read_text())
        assert validate_chrome_trace(document) == []
        names = {event["name"] for event in document["traceEvents"]}
        assert "process_name" in names
        assert "sim.gate" in names

    def test_trace_jsonl_sidecar(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        jsonl = tmp_path / "spans.jsonl"
        code = main(
            ["trace", "--algorithm", "grover", "--qubits", "3",
             "--out", str(out), "--jsonl", str(jsonl)]
        )
        assert code == 0
        lines = jsonl.read_text().splitlines()
        assert lines
        record = json.loads(lines[0])
        assert {"name", "start", "seconds", "depth", "pid", "tid", "attrs"} == set(
            record
        )


class TestParsing:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig9"])

    def test_perf_subcommand_removed(self, capsys):
        # perfbench/ is the one performance harness.
        with pytest.raises(SystemExit) as excinfo:
            main(["perf"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestBatchTraceOut:
    def test_trace_out_writes_multiprocess_trace(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "batch_trace.json"
        code = main(
            ["batch", "--algorithm", "grover", "--qubits", "3",
             "--workers", "2", "--trace-out", str(out)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "trace id" in output
        document = json.loads(out.read_text())
        assert validate_chrome_trace(document) == []
        events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        names = {event["name"] for event in events}
        assert {"exec.batch", "exec.job", "sim.gate"} <= names
        worker_pids = {e["pid"] for e in events if e["name"] == "exec.job"}
        assert worker_pids and 0 not in worker_pids

