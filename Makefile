# Convenience targets for the NobLSM reproduction.

PYTHON ?= python

# Every repro invocation — tests, benches, gates — runs with the source
# tree on PYTHONPATH through this one variable. Targets must not spell
# PYTHONPATH out by hand; tests/test_makefile_pythonpath.py enforces it.
RUN = PYTHONPATH=src $(PYTHON)

.PHONY: install test test-fast bench bench-full figures refresh-baselines \
	perf-gate profile speed soak serve amplification slo artifacts clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(RUN) -m pytest tests/

test-fast:
	$(RUN) -m pytest tests/ -x -q --ignore=tests/property

bench:
	$(RUN) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_BENCH_FULL=1 $(RUN) -m pytest benchmarks/ --benchmark-only

figures:
	$(RUN) -m repro.bench all

# Gates. Every gated experiment is one entry of the gate table in
# src/repro/bench/gates.py: its CI-size arguments, the documents it
# writes, its named checks and its baseline. `make NAME-gate` runs the
# entry exactly as CI does — the target, every check, then a compare
# against benchmarks/baselines/ — with its documents in results/.
%-gate:
	rm -rf results/$@
	$(RUN) -m repro.bench.cli gate $* --json results/$@

# Re-record NAME's baseline after a deliberate behaviour change: the same
# gate run, written over benchmarks/baselines/. The simulation is
# deterministic, so baselines only move when the code does; commit the
# refreshed files together with the change that explains them.
refresh-%-baseline:
	$(RUN) -m repro.bench.cli gate $* --json benchmarks/baselines

# The virtual-time throughput gates and their baselines.
perf-gate: fillrandom-gate parallelism-gate
refresh-baselines: refresh-fillrandom-baseline refresh-parallelism-baseline

# Profile the hot paths: cProfile dumps of fillrandom (the write path)
# and of fig5b on noblsm (point gets beside writes and the parallel
# picker), each printed as its top frames by cumulative time. Start
# here before optimising. cProfile charges its overhead to every call,
# so it inflates frames made of many small calls; confirm a hot spot
# with a same-host before/after of the change before building it.
profile:
	mkdir -p results/profile
	$(RUN) -m cProfile -o results/profile/fillrandom.pstats \
		-m repro.bench.cli fillrandom --scale 2000
	$(RUN) -c "import pstats; \
		pstats.Stats('results/profile/fillrandom.pstats') \
		.sort_stats('cumulative').print_stats(30)"
	$(RUN) -m cProfile -o results/profile/fig5b.pstats \
		-m repro.bench fig5b --stores noblsm
	$(RUN) -c "import pstats; \
		pstats.Stats('results/profile/fig5b.pstats') \
		.sort_stats('cumulative').print_stats(30)"

# Wall-clock simulator throughput (ops/sec real time, median of repeats).
speed:
	$(RUN) -m repro.bench.cli speed

# Full-size runs of the stability, serving, amplification and
# flight-recorder pairs; documents land in results/.
soak serve amplification slo:
	$(RUN) -m repro.bench.cli $@ --json results

artifacts: test bench
	$(RUN) -m pytest tests/ 2>&1 | tee test_output.txt
	$(RUN) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf results/*.txt .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
