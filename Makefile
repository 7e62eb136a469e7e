# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test bench figures examples clean lint lint-baseline typecheck sanitize-smoke gc-smoke batch-smoke perf-smoke serve-smoke

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Project-specific static analysis (RL001-RL014; see
# docs/STATIC_ANALYSIS.md).  Incremental (.repro_lint_cache.json) and
# parallel; fails on any non-baselined finding.
lint:
	$(PYTHON) -m tools.repro_lint src tools --jobs auto

# Deliberately re-capture the accepted-findings baseline.  Never run
# implicitly: review the resulting .repro_lint_baseline.json diff like
# code (every entry carries a justification).
lint-baseline:
	$(PYTHON) -m tools.repro_lint src tools --jobs auto --write-baseline

# mypy --strict over the canonical core plus the observability and
# batch-execution layers (config in pyproject.toml).  Skips gracefully
# when mypy is not installed (it is not a runtime or test dependency);
# CI installs it for the typecheck job.
typecheck:
	@$(PYTHON) -c "import mypy" 2>/dev/null \
	    && MYPYPATH=src $(PYTHON) -m mypy -p repro.rings -p repro.dd \
	        -p repro.obs -p repro.exec \
	    || echo "mypy not installed; skipping (pip install mypy to run locally)"

# Fast end-to-end sanitizer run: simulate under check-every-op and fail
# on any invariant violation.  Both exact normalisations (Algorithm 2 on
# Q[omega], Algorithm 3 on D[omega]) and the numeric system are covered.
# An exact-system run must also replay memo entries: its kernel path
# memoises only weight arithmetic, so "0 memo entries" means the replay
# checked nothing and fails the target.
SANITIZE_EXACT_RUNS = \
	"--algorithm grover --qubits 5 --system algebraic" \
	"--algorithm grover --qubits 5 --system algebraic-gcd" \
	"--algorithm bwt --system algebraic-gcd"

sanitize-smoke:
	@for args in $(SANITIZE_EXACT_RUNS); do \
	    echo "repro.cli sanitize $$args --mode check-every-op"; \
	    out=$$(PYTHONPATH=src $(PYTHON) -m repro.cli sanitize $$args \
	        --mode check-every-op) || { echo "$$out"; exit 1; }; \
	    echo "$$out"; \
	    if echo "$$out" | grep -q ' 0 memo entries'; then \
	        echo "sanitize-smoke: no memo entry replayed ($$args)" >&2; exit 1; \
	    fi; \
	done
	PYTHONPATH=src $(PYTHON) -m repro.cli sanitize --algorithm grover \
	    --qubits 5 --system numeric --eps 1e-12 --mode check-every-op

# End-to-end garbage-collection run under a tight node budget, with
# the sanitizer's refcount audit on the final state.  Exits non-zero on
# a MemoryBudgetExceeded or any refcount/invariant violation.
gc-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli gc --algorithm grover \
	    --qubits 8 --system algebraic-gcd --threshold 256 \
	    --max-nodes 800 --audit
	PYTHONPATH=src $(PYTHON) -m repro.cli gc --algorithm grover \
	    --qubits 8 --system numeric --eps 1e-12 --threshold 512 \
	    --max-nodes 1200 --audit

# End-to-end parallel batch run: the eps-tradeoff sweep fanned out over
# 4 worker processes, plus the determinism suite (workers=4 must be
# byte-identical to workers=1).  Exits non-zero on any job failure.
batch-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli batch --algorithm grover \
	    --qubits 5 --include-gcd --workers 4 --retries 1
	PYTHONPATH=src $(PYTHON) -m pytest tests/exec/test_batch.py -q

# Performance smoke: the perfbench self-tests (a quick variant of every
# repo-benchmark workload, checks included; see perfbench/README.md)
# and a traced multi-process batch end-to-end.
perf-smoke:
	$(PYTHON) -m pytest perfbench/tests -q
	PYTHONPATH=src $(PYTHON) -m repro.cli batch --algorithm grover \
	    --qubits 5 --workers 2 \
	    --trace-out benchmarks/results/batch_trace.json

# End-to-end persistent-service run: the Grover workload through the
# warm-worker service twice per number system, with --verify comparing
# every payload against the direct run path, plus the serve test
# suite.  Exits non-zero on any mismatch, failure or rejected request.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli serve --workers 2 \
	    --qubits 5 --verify
	PYTHONPATH=src $(PYTHON) -m pytest tests/serve -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate every paper figure table into benchmarks/results/.
figures:
	$(PYTHON) -m pytest benchmarks/bench_fig2_gse_size.py \
	    benchmarks/bench_fig3_grover.py benchmarks/bench_fig4_bwt.py \
	    benchmarks/bench_fig5_gse.py --benchmark-only

examples:
	@for script in examples/*.py; do \
	    echo "== $$script"; $(PYTHON) $$script > /dev/null || exit 1; \
	done; echo "all examples ran"

clean:
	rm -rf .pytest_cache benchmarks/results .hypothesis
	rm -f .repro_lint_cache.json
	find . -name __pycache__ -type d -exec rm -rf {} +
