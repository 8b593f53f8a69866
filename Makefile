# Development entry points for the repro package.
#
#   make test              - tier-1 test suite (lint gate, then tests/ +
#                            benchmarks/, fail fast)
#   make test-fast         - unit tests only (skips the benchmark harness)
#   make lint              - repro_lint invariant gate over src/ tools/
#                            examples/ tests/
#   make test-store        - result-store tier: store/queue semantics, crash/
#                            resume, concurrency, adaptive refinement, sharing gates
#   make bench-smoke       - quick benchmark pass: every claim/table/ablation once
#   make bench-impairments - front-end impairment grid smoke (CFO x word length x SNR)
#   make bench-store       - per-point store gates: zero-burst warm re-run +
#                            overlapping grids sharing their intersection
#   make bench-stream      - streaming downlink service: 1000 concurrent user
#                            streams, sustained frames/sec + latency percentiles
#   make bench-perf        - repository benchmark golden pins: perfbench smoke
#                            checks, then a 1 s seed-0 run of every workload
#   make docs-check        - fail if any public module lacks a module docstring
#                            and every required doc page is present + linked
#   make clean-cache       - drop the repro.sim result store

PYTHON ?= python
PYTHONPATH_PREFIX := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),)
LINTPATH_PREFIX := PYTHONPATH=src:tools/lint$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test test-fast test-store lint bench-smoke bench-impairments bench-store bench-stream bench-perf docs-check clean-cache

test: lint
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -x -q

lint:
	$(LINTPATH_PREFIX) $(PYTHON) -m repro_lint src tools examples tests

test-fast:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest tests -q

test-store:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest tests/test_sim_store.py tests/test_sim_queue.py tests/test_sim_resume.py tests/test_sim_adaptive.py benchmarks/test_sweep_store.py -q --benchmark-disable

bench-smoke:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest benchmarks -q --benchmark-disable

bench-impairments:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest benchmarks/test_impairment_sweep.py -q --benchmark-disable

bench-store:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest benchmarks/test_sweep_store.py -q --benchmark-disable -s

bench-stream:
	$(PYTHONPATH_PREFIX) REPRO_STREAM_USERS=1000 $(PYTHON) -m pytest benchmarks/test_streaming_service.py -q --benchmark-disable -s

PERF_WORKLOADS := sweep_ref sweep_gigabit sweep_wide stream_downlink

bench-perf:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest perfbench/smoke_checks.py -q
	@set -e; for workload in $(PERF_WORKLOADS); do \
		echo "perfbench: $$workload"; \
		$(PYTHONPATH_PREFIX) $(PYTHON) perfbench/run.py --workload $$workload --seconds 1 --seed 0; \
	done

docs-check:
	$(PYTHON) tools/docs_check.py

clean-cache:
	$(PYTHONPATH_PREFIX) $(PYTHON) -c "from repro.sim import ResultStore; print(ResultStore().clear(), 'point records removed')"
