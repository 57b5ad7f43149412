# Repo tooling: `make check` is the pre-merge gate.
#
# Targets:
#   check   - tier-1 pytest suite + doctests + conformance sweep +
#             fleet-serve smokes (serial + 2-worker + streaming +
#             instrumented) + headless examples smoke + bench guard
#   test    - tier-1 pytest suite only (parallelized via pytest-xdist
#             when installed)
#   doctest - public-API usage examples (core.api, service, sim.compile)
#   verify  - conformance sweep over every construction family
#   smoke   - quick fleet scenario (8 arrays, 2 concurrent verified rebuilds)
#   smoke-parallel - the same scenario on 2 worker processes; runs the
#             serial smoke first and fails unless the two reports are
#             byte-identical in canonical form and no /dev/shm/repro_wrt_*
#             segment outlives the 2-worker process
#   smoke-stream - large-horizon streaming smoke: a 10^7-request mixed
#             fleet served through compiled windows with a peak-RSS
#             ceiling (--max-rss-mb) — the constant-memory gate.
#             About 5 s of wall time on a 2-CPU host; skip on slow
#             hosts with STREAM_SMOKE=0
#   smoke-obs - instrumented serve smoke: metrics JSONL + Prometheus +
#             trace span files written on the serial and 2-worker runs
#             must be byte-identical; the trace summary must render
#   smoke-autoscale - autoscaling control-loop smoke: a scripted load
#             spike must fire a grow with zero lost requests, verified
#             cutovers, and a byte-identically replayable decision log
#   smoke-frontend - warm serving smoke: serve --listen with a 2-process
#             pool in a subprocess, submit the same stream twice, then
#             SIGKILL one pool worker and submit it a third time; every
#             report must be canonically identical to the batch run,
#             with a proven pool/cache hit, exactly one pool reboot,
#             clean shutdown, and zero leaked /dev/shm segments
#   examples-smoke - run every script under examples/ headless
#   docs-check     - link-check docs/ + README (local targets only)
#   bench-guard    - time each compiled engine against the event heap on
#             the same trace, map_batch against the scalar mapping
#             loop, and the warm runtime against its cold first serve;
#             fail when a ratio drops below its floor or a case lands
#             on the wrong engine
#   bench-all - the paper-table benches (benchmarks/bench_*.py, timed by
#             pytest-benchmark; PYTEST_ADDOPTS=--benchmark-disable runs
#             them once each as plain assertions)

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Cut CI wall time with pytest-xdist when it is available; fall back to
# the plain serial run otherwise (the container image does not ship it).
XDIST := $(shell $(PYTHON) -c "import pytest_xdist" 2>/dev/null && echo "-n auto")

.PHONY: check test doctest verify smoke smoke-parallel smoke-stream smoke-obs smoke-autoscale smoke-frontend examples-smoke docs-check bench-guard bench-all

check: test doctest verify smoke smoke-parallel smoke-stream smoke-obs smoke-autoscale smoke-frontend examples-smoke bench-guard

test:
	$(PYTHON) -m pytest -x -q $(XDIST)

doctest:
	$(PYTHON) -m pytest --doctest-modules -q \
		src/repro/core/api.py \
		src/repro/service/__init__.py \
		src/repro/sim/compile.py

verify:
	$(PYTHON) -m repro verify --all

smoke:
	$(PYTHON) -m repro serve --smoke --json BENCH_serve_smoke.json

smoke-parallel: smoke
	$(PYTHON) -m repro serve --smoke --workers 2 --json BENCH_serve_smoke_parallel.json
	$(PYTHON) -c "import json; from repro.service import canonical_payload as c; \
	a = json.load(open('BENCH_serve_smoke.json')); \
	b = json.load(open('BENCH_serve_smoke_parallel.json')); \
	assert json.dumps(c(a), sort_keys=True) == json.dumps(c(b), sort_keys=True), \
	'parallel smoke report differs from serial'; \
	print('parallel smoke report byte-identical to serial')"
	$(PYTHON) -c "from repro.service import leaked_segments; \
	leaked = leaked_segments(); \
	assert not leaked, 'shared-memory segments outlived serve: %s' % leaked; \
	print('parallel smoke left no shared-memory segments')"

# 10^7 requests over a 4-shard mixed fleet, streamed through 65536-
# request compiled windows: the run must finish under the RSS ceiling
# (a horizon-proportional buffer would blow through it by an order of
# magnitude) and its report "passed" gate must hold.  The JSON artifact
# rides the BENCH_*.json upload glob in CI.
smoke-stream:
ifeq ($(STREAM_SMOKE),0)
	@echo "smoke-stream: skipped (STREAM_SMOKE=0)"
else
	$(PYTHON) -m repro serve --shards 4 --duration 12500000 \
		--interarrival 1.25 --failures 0 --no-verify \
		--window 65536 --max-rss-mb 256 \
		--json BENCH_serve_stream_smoke.json
endif

# Instrumented serve smokes with metrics + traces on, serially and on 2
# workers; the observability files must be byte-identical across worker
# counts (cmp), and the trace summarizer must render them.  Two pairs: a
# 12-volume fleet growing 4 -> 6, whose reshape's move graph splits into
# two migration components and one idle array, so the --workers 2 side
# runs 3 shard groups on 2 workers (migration groups included); and a
# 4-shard windowed fleet whose default failure pair splits it into 4
# shard groups on 2 workers (--smoke fails on an unexpected serial
# fallback).  Both compare the grouped path against the serial one.
# The BENCH_obs_* artifacts ride the CI upload glob.
smoke-obs:
	$(PYTHON) -m repro serve --smoke --shards 4 --grow 4:6 --window 128 \
		--volumes 12 --seed 9 \
		--metrics-out BENCH_obs_metrics.jsonl \
		--metrics-prom BENCH_obs_metrics.prom \
		--trace-out BENCH_obs_trace.jsonl \
		--json BENCH_serve_obs_smoke.json
	$(PYTHON) -m repro serve --smoke --shards 4 --grow 4:6 --window 128 \
		--volumes 12 --seed 9 --workers 2 \
		--metrics-out BENCH_obs_metrics_parallel.jsonl \
		--metrics-prom BENCH_obs_metrics_parallel.prom \
		--trace-out BENCH_obs_trace_parallel.jsonl \
		--json BENCH_serve_obs_smoke_parallel.json
	cmp BENCH_obs_metrics.jsonl BENCH_obs_metrics_parallel.jsonl
	cmp BENCH_obs_metrics.prom BENCH_obs_metrics_parallel.prom
	cmp BENCH_obs_trace.jsonl BENCH_obs_trace_parallel.jsonl
	$(PYTHON) -m repro serve --smoke --shards 4 --window 128 \
		--metrics-out BENCH_obs_metrics_groups.jsonl \
		--metrics-prom BENCH_obs_metrics_groups.prom \
		--trace-out BENCH_obs_trace_groups.jsonl \
		--json BENCH_serve_obs_groups_smoke.json
	$(PYTHON) -m repro serve --smoke --shards 4 --window 128 --workers 2 \
		--metrics-out BENCH_obs_metrics_groups_parallel.jsonl \
		--metrics-prom BENCH_obs_metrics_groups_parallel.prom \
		--trace-out BENCH_obs_trace_groups_parallel.jsonl \
		--json BENCH_serve_obs_groups_smoke_parallel.json
	cmp BENCH_obs_metrics_groups.jsonl BENCH_obs_metrics_groups_parallel.jsonl
	cmp BENCH_obs_metrics_groups.prom BENCH_obs_metrics_groups_parallel.prom
	cmp BENCH_obs_trace_groups.jsonl BENCH_obs_trace_groups_parallel.jsonl
	@echo "smoke-obs: metrics + trace byte-identical across worker counts"
	$(PYTHON) -m repro trace BENCH_obs_trace.jsonl --metrics BENCH_obs_metrics.jsonl

# Autoscale smoke: a 2-shard fleet under load past the policy
# threshold — the control loop must fire a grow through the live
# migration path.  The report's "passed" gate (exit code) folds in
# zero lost requests, verified cutovers, and decision-log replay
# byte-identity; the greps pin that the grow actually fired rather
# than the loop idling below threshold.  The spike is served again in
# 64-request windows, whose canonical report must equal the default
# (materialized) one once the engine labels and the window echo are
# removed.  The decision log and report ride the CI artifact upload
# globs.
smoke-autoscale:
	$(PYTHON) -m repro serve --smoke --shards 2 --interarrival 1.0 \
		--autoscale tools/autoscale_smoke_policy.json \
		--decisions-out BENCH_autoscale_decisions.jsonl \
		--json BENCH_serve_autoscale_smoke.json
	grep -q '"action": "grow"' BENCH_autoscale_decisions.jsonl
	$(PYTHON) -c "import json; p = json.load(open('BENCH_serve_autoscale_smoke.json')); \
	a = p['autoscale']; \
	assert a['events'], 'autoscale smoke: no scaling event fired'; \
	assert a['ok'], 'autoscale smoke: replay/zero-lost/verify gate failed'; \
	print('autoscale smoke: %d tick(s), grow fired, replay identical, zero lost' % len(a['decisions']))"
	$(PYTHON) -m repro serve --smoke --shards 2 --interarrival 1.0 \
		--autoscale tools/autoscale_smoke_policy.json --window 64 \
		--json BENCH_serve_autoscale_smoke_windowed.json
	$(PYTHON) -c "import json; from repro.service import canonical_payload as c; \
	ps = [c(json.load(open(n))) for n in ('BENCH_serve_autoscale_smoke.json', 'BENCH_serve_autoscale_smoke_windowed.json')]; \
	[(p.pop('engine'), p.pop('engine_per_shard'), p['scenario'].pop('window_size')) for p in ps]; \
	assert json.dumps(ps[0], sort_keys=True) == json.dumps(ps[1], sort_keys=True), \
	'autoscale smoke: the --window 64 report differs from the default one'; \
	print('autoscale smoke: --window 64 report equals the default one')"

# Warm-runtime front-end smoke: the persistent pool + shm transport +
# artifact cache behind `serve --listen --workers 2`, exercised over a
# real socket from a real subprocess, including a pool worker killed
# between serves (the runtime must reboot the pool and rerun the
# serve).  The BENCH_frontend_smoke.json artifact rides the CI upload
# glob.
smoke-frontend:
	$(PYTHON) tools/frontend_smoke.py

examples-smoke:
	$(PYTHON) tools/run_examples.py

docs-check:
	$(PYTHON) tools/check_links.py README.md docs

bench-guard:
	$(PYTHON) tools/bench_guard.py

# pytest's default file pattern (test_*.py) matches no bench_*.py file,
# so the benches are named explicitly.
bench-all:
	$(PYTHON) -m pytest benchmarks/bench_*.py -q
