# Convenience targets for the Stellar reproduction.

PYTHON ?= python

.PHONY: install test lint simlint simlint-json simlint-sarif bench bench-smoke hybrid-smoke perf perf-smoke perfbench-smoke figures figures-smoke traces traces-smoke tour examples all clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m pytest tests/

# Ruff when available (CI installs it); syntax-only fallback otherwise so
# the target stays usable in the dependency-frozen container.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; running syntax-only fallback (pip install ruff for the full lint)"; \
		$(PYTHON) -m compileall -q src tests benchmarks examples; \
	fi

# Determinism & layering linter (README "Static analysis: simlint").
# Pure-stdlib ast, so unlike ruff it needs no fallback and always runs,
# even in the dependency-frozen container.  Whole-program since v2: the
# per-file rules plus call-graph taint propagation (D-taskpure-deep,
# D-sim-pure) and the export audit (L-api-drift), behind an incremental
# cache (.simlint_cache.json) so warm runs re-parse nothing.
simlint:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro.lint

simlint-json:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro.lint --format=json

# CI uploads this as a workflow artifact; any SARIF 2.1.0 consumer
# (GitHub code scanning, IDE viewers) can ingest it.
simlint-sarif:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro.lint --format=sarif \
		--output simlint.sarif

bench:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Fast seeded subset for CI: the 16-host fleet churn scenario plus the
# Fig. 6 and Fig. 11 benchmarks with REPRO_BENCH_SMOKE trimming the
# Fig. 11 measurement window (assertions unchanged).  The table mirror
# goes to a scratch file so a partial run never truncates the full
# benchmark_tables.txt artifact.
bench-smoke:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro fleet
	REPRO_BENCH_SMOKE=1 REPRO_TABLES_FILE=/tmp/repro_bench_smoke_tables.txt \
		PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/test_fig06_startup.py benchmarks/test_fig11_link_failure.py \
		--benchmark-only -s

# Hybrid-fidelity determinism cells (churn scenario priced by the
# fidelity controller): two seeds, repeat pairs, every pooled row diffed
# against a sequential re-run.  Promoted packet windows must reproduce
# digest-for-digest like fluid epochs do.
hybrid-smoke:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro run hybrid-smoke \
		--workers 2 --no-cache --check-sequential

# Tracked perf suite (repro.perf): full-size kernels, events/sec table,
# speedup column vs the newest same-mode entry in BENCH_perf.json.
# Append a run to the trajectory with:
#   make perf PERF_ARGS="--record --label my-change"
perf:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro.perf $(PERF_ARGS)

# CI-sized perf pass: trimmed kernels plus the >30% machine-normalized
# regression gate against the newest smoke-mode BENCH_perf.json entry.
perf-smoke:
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src:$(PYTHONPATH) \
		$(PYTHON) -m repro.perf --check $(PERF_ARGS)

# Lock on the benchmark's recorded outputs (BENCHMARK.json, perfbench/):
# the benchmark's own tests, then a 1 s untraced run of every workload at
# seeds 17 and 23 (atc_sweep is seedless: 17 only), whose per-op output
# digests must match perfbench/digests.json.  run.py exits 0 even when a
# check fails, so the JSON last line must read "correct": true and
# "failed": 0.
PERFBENCH_RUNS = atc_sweep:17 packet_spray:17 packet_spray:23 \
	fleet_fluid:17 fleet_fluid:23 fleet_hybrid:17 fleet_hybrid:23
PERFBENCH_CHECK = import json, sys; \
	r = json.loads(sys.stdin.read().splitlines()[-1]); \
	print("correct=%s failed=%d/%d" % (r["correct"], r["failed"], r["attempted"])); \
	sys.exit(r["correct"] is not True or r["failed"] != 0)

perfbench-smoke:
	$(PYTHON) -m pytest perfbench -q
	@for run in $(PERFBENCH_RUNS); do \
		workload=$${run%%:*}; seed=$${run##*:}; \
		echo "== perfbench $$workload seed $$seed"; \
		$(PYTHON) perfbench/run.py --workload $$workload --seed $$seed \
			--seconds 1 --trace 0 | $(PYTHON) -c '$(PERFBENCH_CHECK)' \
			|| exit 1; \
	done

# Full figure sweeps through the parallel runner (repro.runner): every
# sweep point is a cached TaskSpec, so re-running after a code change
# only recomputes what the change touched (cache under .repro_cache/).
# Extra flags via RUN_ARGS, e.g. make figures RUN_ARGS="--refresh".
figures:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro run figures $(RUN_ARGS)

# CI-sized pooled subset: 2 workers, cache off, and every pooled row
# diffed byte-for-byte against a sequential re-run (the determinism
# invariant the runner must preserve).
figures-smoke:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro run figures-smoke \
		--workers 2 --no-cache --check-sequential

# Trace-driven workloads (repro.traces): replay every bundled trace
# twice through the pooled runner (repeat pairs diffed by the suite
# check) plus one record→replay round trip.
traces:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro run --suite traces \
		$(RUN_ARGS)

# CI-sized trace pass: shape/DAG-validate the bundled library, then
# replay the smallest bundled trace pooled-vs-sequential (same
# determinism invariant as figures-smoke).
traces-smoke:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro trace validate
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro run --suite traces-smoke \
		--workers 2 --no-cache --check-sequential

tour:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro

examples:
	@for ex in examples/*.py; do echo "== $$ex =="; \
		PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) $$ex || exit 1; done

all: test bench

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
