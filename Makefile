# Development entry points for the repro package.
#
#   make test              - tier-1 test suite (lint gate, then tests/ +
#                            benchmarks/, fail fast)
#   make test-fast         - unit tests only (skips the benchmark harness)
#   make lint              - repro_lint invariant gate over src/ tools/
#                            examples/ tests/
#   make test-store        - result-store tier: store/queue semantics, crash/
#                            resume, concurrency, adaptive refinement, work-unit
#                            packing of the shared scheduler, sharing gates
#   make bench-smoke       - quick benchmark pass: every claim/table/ablation once
#   make tables            - print the paper's Tables 1-4 and its Section V
#                            hardware claims (512-point scaling, QRD latency,
#                            MIMO vs SISO) from the resource/latency models
#   make ablations         - print the ablation tables (QRD vs direct inversion,
#                            CORDIC iterations/word length, soft vs hard, CFO
#                            correction, MIMO vs SISO)
#   make bench-impairments - front-end impairment grid smoke (CFO x word length x SNR)
#   make bench-store       - per-point store gates: zero-burst warm re-run +
#                            overlapping grids sharing their intersection
#   make bench-stream      - streaming downlink service: 1000 concurrent user
#                            streams, sustained frames/sec + latency percentiles
#   make bench-perf        - repository benchmark golden pins: perfbench smoke
#                            checks, then a 1 s seed-0 run of every workload
#   make bench-json BENCH_N=<n>
#                          - BENCH_<n>.json ledger of this tree and
#                            BENCH_<n>.parent.json of BENCH_PARENT (default HEAD):
#                            every workload over alternating parent/change pairs,
#                            then one timed tier-1 run per side;
#                            compare with tools/bench_ledger.py --compare A B
#   make docs-check        - fail if any public module lacks a module docstring
#                            and every required doc page is present + linked
#   make corpus-pin        - pin the tier-1 golden corpus for the current
#                            ENGINE_VERSION (refuses if it is already pinned)
#   make clean-cache       - drop the repro.sim result store

PYTHON ?= python
PYTHONPATH_PREFIX := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),)
LINTPATH_PREFIX := PYTHONPATH=tools/lint$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test test-fast test-store lint tables ablations bench-smoke bench-impairments bench-store bench-stream bench-perf bench-json docs-check corpus-pin clean-cache

test: lint
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -x -q

lint:
	$(LINTPATH_PREFIX) $(PYTHON) -m repro_lint src tools examples tests

test-fast:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest tests -q

test-store:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest tests/test_sim_store.py tests/test_sim_queue.py tests/test_sim_resume.py tests/test_sim_adaptive.py tests/test_sim_work_unit.py benchmarks/test_sweep_store.py -q

bench-smoke:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest benchmarks -q

TABLE_BENCHMARKS := $(wildcard benchmarks/test_table[1-4]_*.py) \
	benchmarks/test_claim_512pt_scaling.py \
	benchmarks/test_claim_qrd_latency.py \
	benchmarks/test_ablation_mimo_vs_siso.py

tables:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest $(TABLE_BENCHMARKS) -q -s

ablations:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest $(wildcard benchmarks/test_ablation_*.py) -q -s

bench-impairments:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest benchmarks/test_impairment_sweep.py -q

bench-store:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest benchmarks/test_sweep_store.py -q -s

bench-stream:
	$(PYTHONPATH_PREFIX) REPRO_STREAM_USERS=1000 $(PYTHON) -m pytest benchmarks/test_streaming_service.py -q -s

PERF_WORKLOADS := sweep_ref sweep_gigabit sweep_wide stream_downlink

bench-perf:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest perfbench/smoke_checks.py -q
	@set -e; for workload in $(PERF_WORKLOADS); do \
		echo "perfbench: $$workload"; \
		$(PYTHONPATH_PREFIX) $(PYTHON) perfbench/run.py --workload $$workload --seconds 1 --seed 0; \
	done

BENCH_PARENT ?= HEAD

bench-json:
	$(if $(BENCH_N),,$(error set BENCH_N, e.g. make bench-json BENCH_N=28))
	$(PYTHON) tools/bench_ledger.py --number $(BENCH_N) --parent $(BENCH_PARENT)

docs-check:
	$(PYTHON) tools/docs_check.py

corpus-pin:
	$(PYTHONPATH_PREFIX) $(PYTHON) tools/pin_golden_corpus.py

clean-cache:
	$(PYTHONPATH_PREFIX) $(PYTHON) -c "from repro.sim import ResultStore; print(ResultStore().clear(), 'point records removed')"
