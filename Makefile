# Convenience targets for the reproduction workflow.

PY ?= python

# Every target imports the in-tree package; an outer PYTHONPATH is kept
# after it.
export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test loc bench bench-full bench-wallclock bench-million bench-sharded bench-drift profile-cluster repro examples serve-demo cluster-demo cascade-demo chaos-demo partition-demo million-demo sharded-demo drift-demo

install:
	pip install -e .

test:
	$(PY) -m pytest tests/

# Python line counts of src/ and tests/ (ROADMAP north star 2 tracks them).
loc:
	@for d in src tests; do echo "$$d $$(find $$d -name '*.py' | xargs cat | wc -l)"; done

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

# Nested CV over the complete 1344-point Table I grid (slow).
bench-full:
	REPRO_FULL_GRID=1 $(PY) -m pytest benchmarks/ --benchmark-only

# Wall-clock hot-path trajectory: regenerates BENCH_hotpaths.json at the
# repo root and enforces the perf floors (forest >=5x, warm sweep >=10x).
bench-wallclock:
	$(PY) benchmarks/wallclock/run.py --out BENCH_hotpaths.json
	$(PY) benchmarks/wallclock/check.py BENCH_hotpaths.json

# Million-request replay alone: the seeded production trace (MMPP +
# flash crowd + sessions) through serve_trace's batched dispatch, with the
# determinism digest and throughput floor enforced.
bench-million:
	$(PY) benchmarks/wallclock/run.py --only million \
		--out bench_million.json
	$(PY) benchmarks/wallclock/check.py bench_million.json \
		--sections million

# Sharded replay alone: the same million trace partitioned across 4
# worker processes under the conservative virtual-time protocol, with
# digest invariance across worker counts and the 2x throughput floor
# enforced.
bench-sharded:
	$(PY) benchmarks/wallclock/run.py --only sharded \
		--out bench_sharded.json
	$(PY) benchmarks/wallclock/check.py bench_sharded.json \
		--sections sharded

# Drift bench alone: the silent 16x dGPU throttle campaign run with the
# frozen predictor and the online refresh layer, with the goodput-ratio
# floor (>=1.15x) and the seeded-replay digest gate enforced.
bench-drift:
	$(PY) benchmarks/wallclock/run.py --only drift \
		--out bench_drift.json
	$(PY) benchmarks/wallclock/check.py bench_drift.json \
		--sections drift

# cProfile the cluster request path (the 4-node overload bench) and dump
# raw stats to cluster.prof for pstats/snakeviz.
profile-cluster:
	$(PY) benchmarks/wallclock/run.py --only cluster \
		--profile cluster.prof --out /dev/null

# Regenerate every artifact into results/ (one text file each + sweep CSVs).
repro:
	$(PY) -m repro.cli --all results

# Fail fast: a broken example must fail the target, not scroll past.
examples:
	for ex in examples/*.py; do echo "== $$ex =="; $(PY) $$ex || exit 1; done

# SLO-aware serving frontend demo: coalescing + admission under overload.
serve-demo:
	$(PY) examples/serving_frontend.py

# Cluster layer demo: fleet balancing policies, graceful drain, autoscaling.
cluster-demo:
	$(PY) examples/cluster_serving.py

# Cascade demo: adaptive early-exit serving beating single-model goodput
# under overload (CI runs it with --tiny).
cascade-demo:
	$(PY) examples/cascade_serving.py

# Chaos demo: seeded crash/dropout campaign with built-in exactly-once,
# breaker-walk and determinism assertions (CI runs it with --tiny).
chaos-demo:
	$(PY) examples/chaos_cluster.py

# Partition demo: MIG-style dGPU split isolating a latency tenant from a
# batch flood, plus the online repartitioner (CI runs it with --tiny).
partition-demo:
	$(PY) examples/partitioned_cluster.py

# Million demo: production-shaped trace replayed per request and batched,
# with a built-in digit-identity assertion (CI runs it with --tiny).
million-demo:
	$(PY) examples/million_replay.py --tiny

# Sharded demo: the trace partitioned across 1/2/4 worker processes with
# built-in digest-identity assertions (CI runs it with --tiny).
sharded-demo:
	$(PY) examples/sharded_replay.py --tiny

# Drift demo: silent dGPU throttle mid-flood; the online predictor must
# flag the drift, fall back, refit, recover, and beat the frozen
# predictor's goodput — all asserted in-script (CI runs it with --tiny).
drift-demo:
	$(PY) examples/online_drift.py --tiny
