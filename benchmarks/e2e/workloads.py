"""The benchmark's workloads; each runs in a fresh interpreter.

``run.py`` starts ``python3 workloads.py '<spec JSON>'`` once per
workload and reads the JSON object this prints as its last line.  The
spec names the workload, the seed, the seconds to measure, whether to
trace, and (for the default seed) the committed output hash the
warm-up serve must reproduce.

Fleet workloads call the library in this process: one caller serves a
whole open-loop Poisson request stream per call, closed loop (the next
serve starts when the last returns).  Front-end workloads drive a real
``python -m repro serve --listen`` subprocess from one client on one
connection, closed loop.  Every timed operation is checked against a
reference report outside the timed region.
"""

from __future__ import annotations

import json
import socket
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from dataclasses import replace
from pathlib import Path

import repro
from repro import clear_registry, get_layout, get_mapper
from repro.obs import MetricsRecorder
from repro.service import (
    Fleet,
    FleetScenario,
    canonical_payload,
    check_fleet,
    default_failure_schedule,
    run_fleet_scenario,
    run_fleet_scenario_parallel,
)
from repro.sim import StreamWindows, WorkloadConfig, generate_request_stream

from measure import Tracer, self_times, sha256_json

SRC = Path(__file__).resolve().parents[2] / "src"

FLEET_WORKLOADS = ("fleet_mixed", "fleet_rebuild", "fleet_stream")
FRONTEND_WORKLOADS = ("frontend_socket",)

#: Worker processes of the parallel runner and of the front-end pool.
WORKERS = 2
#: Inputs a fleet run serves in turn, each from a seed of its own.
#: What a serve costs moves with its seed (which shards tie-abort,
#: which disks fail) by up to 20%, so one input per run would make
#: ``sim_rps`` follow the seed; four average it out.
FLEET_INPUTS = 4
#: Requests a front-end cycle submits, and requests per submit line
#: (1024 keeps every line well under the front-end's 64 KiB limit).
CYCLE_REQUESTS = 8192
SUBMIT_CHUNK = 1024
#: Distinct streams the miss cycles rotate through: more than the warm
#: runtime's 4-entry artifact cache, so every miss cycle misses.
MISS_STREAMS = 16
#: Fresh launches whose median is ``setup_s`` (a front-end launch also
#: serves one cold cycle, so it gets fewer).
SETUP_LAUNCHES = 9
FRONTEND_SETUP_LAUNCHES = 5
#: Timed rounds per run, at least (a round serves every input once).
MIN_ROUNDS = 2
#: Front-end cycles in a traced run.
TRACE_CYCLES = 20
#: Engines that are not the event-heap or calendar fallbacks.
FAST_ENGINES = frozenset({"eager", "solver", "windowed-eager", "windowed-solver"})


def scenario(name: str, seed: int) -> FleetScenario:
    """The fleet scenario a workload serves, all in the stable regime
    (makespan about equal to the horizon)."""
    if name == "fleet_mixed":
        return FleetScenario(
            shards=8, v=9, k=3, duration_ms=300_000.0, interarrival_ms=1.0,
            read_fraction=0.7, verify_data=False,
            workload_seed=seed, seed=seed,
        )
    if name == "fleet_rebuild":
        return FleetScenario(
            shards=8, v=31, k=6, duration_ms=120_000.0, interarrival_ms=1.0,
            failures=default_failure_schedule(8, 31, 2, 30_000.0),
            admission=2, verify_data=True,
            workload_seed=seed, seed=seed,
        )
    if name == "fleet_stream":
        return FleetScenario(
            shards=4, v=9, k=3, duration_ms=375_000.0, interarrival_ms=1.5,
            verify_data=False, window_size=65536,
            workload_seed=seed, seed=seed,
        )
    if name in FRONTEND_WORKLOADS:
        # Exactly what `serve` builds from frontend_args(seed).
        return FleetScenario(
            shards=4, v=9, k=3, duration_ms=1500.0, interarrival_ms=1.25,
            write_policy="write_through", verify_data=False,
            workload_seed=seed, seed=seed,
        )
    raise ValueError(f"unknown workload {name!r}")


def input_seeds(seed: int) -> list[int]:
    """Seeds of the inputs a fleet run serves; the first is ``seed``."""
    return [seed + 1000 * j for j in range(FLEET_INPUTS)]


def frontend_args(seed: int) -> list[str]:
    return [
        "--shards", "4", "--v", "9", "--k", "3",
        "--duration", "1500", "--interarrival", "1.25",
        "--write-policy", "write_through", "--failures", "0",
        "--no-verify", "--workers", str(WORKERS), "--seed", str(seed),
    ]


def routing_fleet(sc: FleetScenario) -> Fleet:
    """A fleet shaped like the scenario's, without data planes."""
    return Fleet(
        sc.shards, sc.v, sc.k, volumes=sc.volumes, dataplane=False,
        seed=sc.seed, placement=sc.placement, write_policy=sc.write_policy,
    )


def cycle_stream(seed: int, index: int, capacity: int):
    """The ``index``-th front-end cycle stream: the first
    :data:`CYCLE_REQUESTS` requests of a seeded Poisson stream."""
    cfg = WorkloadConfig(
        interarrival_ms=1.25, read_fraction=0.7, seed=seed * 1000 + index
    )
    times, is_read, lbas = generate_request_stream(
        cfg, CYCLE_REQUESTS * 1.25 * 1.5, capacity
    )
    if times.size < CYCLE_REQUESTS:
        raise RuntimeError(f"cycle stream {index} drew only {times.size} requests")
    n = CYCLE_REQUESTS
    return times[:n], is_read[:n], lbas[:n]


def submit_lines(stream) -> list[bytes]:
    """A stream as :data:`SUBMIT_CHUNK`-request ``submit`` lines.  The
    client encodes each stream once, outside the timed cycles, so a
    cycle times the service rather than the client's JSON encoder."""
    times, is_read, lbas = stream
    return [
        json.dumps({
            "op": "submit", "times": times[i:i + SUBMIT_CHUNK].tolist(),
            "is_read": is_read[i:i + SUBMIT_CHUNK].tolist(),
            "lbas": lbas[i:i + SUBMIT_CHUNK].tolist(),
        }).encode() + b"\n"
        for i in range(0, times.size, SUBMIT_CHUNK)
    ]


def report_hash(payload: dict) -> str:
    return sha256_json(canonical_payload(payload))


def peak_rss_mb(pid="self") -> float:
    """``VmHWM`` of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def fast_path_share(engines) -> float:
    engines = list(engines)
    return sum(e in FAST_ENGINES for e in engines) / len(engines)


def worker_utilization(payload: dict) -> float:
    """Worker-group wall time over ``workers x`` serve wall time; 0 for
    a serve without a process pool."""
    par = payload.get("parallel")
    if not par or par["serial_fallback"]:
        return 0.0
    busy = sum(g["wall_s"] for g in par["groups"])
    return busy / (par["workers"] * payload["wall_s"])


class Tally:
    """Checked operations and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class TimedWindows:
    """Re-iterable view of a :class:`StreamWindows` that records each
    window's generation as a ``sim.generate`` span and counts passes."""

    def __init__(self, windows: StreamWindows, tracer: Tracer) -> None:
        self.windows = windows
        self.tracer = tracer
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        it = iter(self.windows)
        while True:
            start = self.tracer.now()
            window = next(it, None)
            if window is None:
                return
            self.tracer.add("sim.generate", start, self.tracer.now(),
                            window_pass=self.passes)
            yield window


def duration(span: dict) -> float:
    return span["end"] - span["start"]


#: Values of the layers a workload does not reach.
UNREACHED_LAYERS = {
    "sim.window_passes": 0,
    "service.worker_utilization": 0.0,
    "runtime.compile_cache_hit_ratio": 0.0,
    "runtime.pool_warm_hits": 0,
    "runtime.shm_bytes": 0,
    "runtime.ipc_bytes_avoided_per_serve": 0,
}


def probe_layout(sc: FleetScenario, tracer: Tracer) -> dict:
    """Cold layout build and the conformance gate, each timed alone."""
    clear_registry()
    with tracer.span("core.layout_build") as build:
        layout = get_layout(sc.v, sc.k)
        mapper = get_mapper(layout)
    fleet = routing_fleet(sc)
    with tracer.span("verify.check_fleet") as gate:
        check_fleet(fleet)
    return {
        "core.layout_build_s": duration(build),
        "core.layout_size": layout.size,
        "core.layout_stripes": len(layout.stripes),
        "layouts.table_bytes": mapper.table_nbytes(),
        "verify.check_fleet_s": duration(gate),
    }


def probe_route(fleet: Fleet, windows, tracer: Tracer) -> dict:
    """``route_stream`` and then ``map_batch`` on each shard's routed
    addresses, per window of a stream."""
    route_s = map_s = 0.0
    with tracer.span("probe.route"):
        for window in windows:
            with tracer.span("service.route") as route:
                compiled, _ = fleet.route_stream(*window)
            with tracer.span("layouts.map_batch") as mapping:
                for ctrl, trace in zip(fleet.controllers, compiled):
                    ctrl.mapper.map_batch(trace.lbas, with_stripes=True)
            route_s += duration(route)
            map_s += duration(mapping)
    return {"service.route_s": route_s, "layouts.map_batch_s": map_s}


# ----------------------------------------------------------------------
# Fleet workloads
# ----------------------------------------------------------------------


def serve_fleet(name: str, sc: FleetScenario, recorder=None) -> dict:
    if name == "fleet_rebuild":
        run = run_fleet_scenario_parallel(sc, workers=WORKERS, recorder=recorder)
    else:
        run = run_fleet_scenario(sc, recorder=recorder)
    return run.to_dict()


def same_serve(served, ref: dict) -> bool:
    """Whether a :class:`FleetReport` served the same requests with the
    same simulated latencies as the reference report payload."""
    fleet = ref["fleet"]
    return (
        served.scheduled == fleet["scheduled"]
        and served.completed == fleet["completed"]
        and sha256_json(served.latency) == sha256_json(fleet["latency"])
    )


def mode_free(payload: dict) -> dict:
    """A canonical payload without what legitimately differs between a
    windowed and a materialized serve: engine labels and window size."""
    out = canonical_payload(payload)
    out.pop("engine")
    out.pop("engine_per_shard")
    out["scenario"] = dict(out["scenario"], window_size=None)
    return out


def fleet_setup(name: str, seed: int) -> int:
    """One set-up in a fresh interpreter: imports (done), layout build,
    conformance gate."""
    conformance = check_fleet(routing_fleet(scenario(name, seed)))
    return 0 if conformance.passed else 1


def trace_fleet(name: str, sc: FleetScenario, tracer: Tracer, tally: Tally,
                ref_hash: str, ref: dict) -> tuple[dict, dict]:
    """One serve, stage by stage, then the probes; returns (root span,
    layer values)."""
    layer = {}
    with tracer.span("serve", workload=name) as root:
        if name == "fleet_mixed":
            with tracer.span("service.fleet"):
                fleet = routing_fleet(sc)
            with tracer.span("sim.generate") as gen:
                stream = generate_request_stream(
                    sc.workload(), sc.duration_ms, fleet.capacity
                )
            with tracer.span("service.route"):
                compiled, _ = fleet.route_stream(*stream)
            with tracer.span("service.execute") as execute:
                payload = run_fleet_scenario(sc, precompiled=compiled).to_dict()
            tally.check(report_hash(payload) == ref_hash, "traced serve hash")
            engines = payload["engine_per_shard"]
            layer["sim.generate_s"] = duration(gen)
        elif name == "fleet_rebuild":
            with tracer.span("service.execute") as execute:
                payload = serve_fleet(name, sc)
            tally.check(report_hash(payload) == ref_hash, "traced serve hash")
            engines = payload["engine_per_shard"]
            layer["service.worker_utilization"] = worker_utilization(payload)
        else:
            with tracer.span("service.fleet"):
                fleet = routing_fleet(sc)
            with tracer.span("verify.check_fleet"):
                check_fleet(fleet)
            windows = TimedWindows(
                StreamWindows(sc.workload(), sc.duration_ms, fleet.capacity,
                              window_size=sc.window_size),
                tracer,
            )
            with tracer.span("service.execute") as execute:
                served = fleet.serve_windows(
                    windows, read_only_hint=sc.read_fraction >= 1.0
                )
            tally.check(same_serve(served, ref),
                        "traced windowed serve equals the timed serve")
            engines = served.engines
            layer["sim.window_passes"] = windows.passes
            layer["sim.generate_s"] = sum(
                duration(s) for s in tracer.spans
                if s["name"] == "sim.generate" and s["parent"] == execute["span_id"]
            )
    layer["service.execute_s"] = self_times(tracer.spans)[execute["span_id"]]
    layer["sim.fast_path_shards"] = fast_path_share(engines)
    root["attrs"]["engines"] = dict(Counter(engines))

    with tracer.span("probes", workload=name):
        # Instrumenting a serve slows its engines, so the counters come
        # from a serve of their own.
        rec = MetricsRecorder(sc.duration_ms / 20.0, shards=sc.shards)
        with tracer.span("sim.counted_serve"):
            counted = serve_fleet(name, sc, recorder=rec)
        tally.check(report_hash(counted) == ref_hash, "instrumented serve hash")
        layer["sim.tie_abort_replays"] = rec.counters().get("tie_abort_replays", 0)
        fleet = routing_fleet(sc)
        if name == "fleet_stream":
            windows = StreamWindows(sc.workload(), sc.duration_ms,
                                    fleet.capacity, window_size=sc.window_size)
        else:
            with tracer.span("sim.generate") as gen:
                windows = [generate_request_stream(
                    sc.workload(), sc.duration_ms, fleet.capacity
                )]
            layer.setdefault("sim.generate_s", duration(gen))
        layer.update(probe_route(fleet, windows, tracer))
        layer.update(probe_layout(sc, tracer))
    return root, layer


def run_fleet(spec: dict, tally: Tally) -> dict:
    name, seed = spec["workload"], spec["seed"]
    inputs = [scenario(name, s) for s in input_seeds(seed)]
    sc = inputs[0]
    setup = [] if spec["trace"] else [
        launch_setup(name, seed) for _ in range(SETUP_LAUNCHES)
    ]

    ref = serve_fleet(name, sc)  # untimed warm-up
    # A `serve` process imports, serves once and exits: its peak is
    # this one.  Later serves only add allocator and GC timing noise.
    rss = peak_rss_mb()
    ref_hash = report_hash(ref)
    tally.check(ref["passed"], "warm-up serve passes")

    # Each input's first serve is its reference (input 0's is the
    # warm-up); every other serve of it must reproduce it.
    refs = {0: ref_hash}
    walls = [[] for _ in inputs]
    requests = [0] * len(inputs)
    call_overhead, codec = [], []
    spent, i = 0.0, 0
    while spent < spec["seconds"] or i < MIN_ROUNDS * len(inputs):
        j = i % len(inputs)
        t0 = time.perf_counter()
        payload = serve_fleet(name, inputs[j])
        wall = time.perf_counter() - t0
        t1 = time.perf_counter()
        json.dumps(payload, indent=2)  # what `serve` prints
        codec.append(time.perf_counter() - t1)
        digest = report_hash(payload)
        tally.check(payload["passed"] and digest == refs.setdefault(j, digest),
                    f"serve {i} passes and matches input {j}'s reference")
        walls[j].append(wall)
        requests[j] = payload["fleet"]["scheduled"]
        call_overhead.append(wall - payload["wall_s"])
        spent += time.perf_counter() - t0
        i += 1
    output_sha256 = sha256_json([refs[j] for j in range(len(inputs))])
    if spec["expect"] is not None:
        tally.check(output_sha256 == spec["expect"],
                    "reports match the committed hash")

    if name == "fleet_rebuild":
        serial = run_fleet_scenario(sc).to_dict()
        tally.check(report_hash(serial) == ref_hash,
                    "parallel report equals the serial runner's")
    elif name == "fleet_stream":
        whole = run_fleet_scenario(replace(sc, window_size=None)).to_dict()
        tally.check(sha256_json(mode_free(whole)) == sha256_json(mode_free(ref)),
                    "windowed report equals the materialized one")

    result = {
        "output_sha256": output_sha256,
        "ops": {
            f"input{j}": {"requests": requests[j], "walls": walls[j]}
            for j in range(len(inputs))
        },
        "peak_rss_mb": rss,
        "setup_s": setup,
        "engines": dict(Counter(ref["engine_per_shard"])),
    }
    if spec["trace"]:
        tracer = Tracer(f"{name}-{seed}")
        root, layer = trace_fleet(name, sc, tracer, tally, ref_hash, ref)
        result["layer"] = finish_layer(
            layer, tracer, root,
            timed_op_s=statistics.median(walls[0]),
            transport_s=call_overhead, codec_s=codec,
        )
        result["spans"] = tracer.spans
    return result


def launch_setup(name: str, seed: int) -> float:
    """Wall time of one fresh-interpreter set-up (fleet workloads)."""
    spec = json.dumps({"mode": "setup", "workload": name, "seed": seed})
    t0 = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms and
    # quantizes the reading.  run.py's limit on this process still holds.
    subprocess.run([sys.executable, __file__, spec], check=True)
    return time.perf_counter() - t0


def finish_layer(layer: dict, tracer: Tracer, root: dict, *,
                 timed_op_s: float, transport_s, codec_s) -> dict:
    out = dict(UNREACHED_LAYERS, **layer)
    out["frontend.transport_ms_p50"] = statistics.median(transport_s) * 1e3
    out["frontend.codec_ms_p50"] = statistics.median(codec_s) * 1e3
    out["trace.overhead_ratio"] = duration(root) / timed_op_s
    root["attrs"]["stage_coverage"] = (
        1.0 - self_times(tracer.spans)[root["span_id"]] / duration(root)
    )
    return out


# ----------------------------------------------------------------------
# Front-end workloads
# ----------------------------------------------------------------------


class FrontendServer:
    """A ``python -m repro serve --listen`` subprocess with one client
    connection.  Use as a context manager: exit shuts it down and waits
    for the process to end."""

    def __init__(self, seed: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--listen", "127.0.0.1:0", *frontend_args(seed)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        self.sock = None
        self._drain = None
        try:
            line = self.proc.stderr.readline()
            if not line.startswith("serving on "):
                raise RuntimeError(f"front-end did not start: {line!r}")
            # Keep reading stderr so the server can never block on it.
            self._drain = threading.Thread(
                target=self.proc.stderr.read, daemon=True
            )
            self._drain.start()
            host, port = line.split()[-1].rsplit(":", 1)
            self.sock = socket.create_connection((host, int(port)), timeout=60)
            self.rfile = self.sock.makefile("rb")
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "FrontendServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(self, line: bytes) -> bytes:
        self.sock.sendall(line)
        reply = self.rfile.readline()
        if not reply:
            raise RuntimeError("front-end closed the connection")
        return reply

    def cycle(self, lines: list[bytes]) -> dict:
        """Send the ``submit`` lines, then ``serve``.  Returns the
        report, the server's own run time, the wall time and its
        client-side decoding share, per-submit round trips, and
        ``(name, start, end)`` marks in ``perf_counter`` time."""
        marks, submits, codec = [], [], 0.0
        ok = True
        t0 = time.perf_counter()
        for line in lines:
            b = time.perf_counter()
            raw = self.request(line)
            c = time.perf_counter()
            ok = json.loads(raw).get("ok") is True and ok
            d = time.perf_counter()
            marks += [("frontend.submit", b, c), ("frontend.decode", c, d)]
            submits.append(c - b)
            codec += d - c
        b = time.perf_counter()
        raw = self.request(b'{"op": "serve"}\n')
        c = time.perf_counter()
        reply = json.loads(raw)
        d = time.perf_counter()
        marks += [("frontend.serve", b, c), ("frontend.decode", c, d)]
        codec += d - c
        report = reply.get("report") or {}
        return {
            "ok": ok and reply.get("ok") is True, "report": report,
            "run_s": report.get("wall_s", 0.0),
            "wall": d - t0, "start": t0, "codec": codec,
            "submits": submits, "marks": marks,
        }

    def close(self) -> None:
        try:
            if self.sock is not None and self.proc.poll() is None:
                self.request(b'{"op": "shutdown"}\n')
        except OSError:
            pass
        finally:
            if self.sock is not None:
                self.sock.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            if self._drain is not None:
                self._drain.join(timeout=10)
            self.proc.stderr.close()


def frontend_setup(seed: int, lines: list[bytes]) -> float:
    """Launch → ``serving on`` → one cold cycle done."""
    t0 = time.perf_counter()
    with FrontendServer(seed) as server:
        server.cycle(lines)
        return time.perf_counter() - t0


def check_cycle(tally: Tally, cycle: dict, ref_hash: str | None, what: str) -> str:
    report = cycle["report"]
    digest = report_hash(report) if report else ""
    ok = cycle["ok"] and report.get("passed") is True
    if ref_hash is not None:
        ok = ok and digest == ref_hash
    tally.check(ok, what)
    return digest


def trace_cycle(tracer: Tracer, cycle: dict) -> dict:
    rel = tracer.t0
    root = tracer.add("cycle", cycle["start"] - rel,
                      cycle["start"] - rel + cycle["wall"])
    for name, a, b in cycle["marks"]:
        span = tracer.add(name, a - rel, b - rel)
        span["parent"] = root["span_id"]
        if name == "frontend.serve":
            span["attrs"]["server_run_s"] = cycle["run_s"]
    return root


def cycle_stream_index(i: int) -> int:
    """The stream cycle ``i`` submits.  Even cycles resubmit stream 0,
    which the warm runtime's artifact cache keeps (a hit); odd cycles
    rotate through :data:`MISS_STREAMS` others, more than it holds (a
    miss)."""
    return 0 if i % 2 == 0 else 1 + (i // 2) % MISS_STREAMS


def run_frontend(spec: dict, tally: Tally) -> dict:
    name, seed = spec["workload"], spec["seed"]
    sc = scenario(name, seed)
    fleet = routing_fleet(sc)
    streams = [cycle_stream(seed, i, fleet.capacity)
               for i in range(1 + MISS_STREAMS)]
    lines = [submit_lines(s) for s in streams]
    setup = [] if spec["trace"] else [
        frontend_setup(seed, lines[0]) for _ in range(FRONTEND_SETUP_LAUNCHES)
    ]

    walls = {"cycle_hit": [], "cycle_miss": []}
    transport, codec, submits = [], [], []
    traced = []
    with FrontendServer(seed) as server:
        # Untimed warm-up: each stream's first (cold) serve is its reference.
        refs = [
            check_cycle(tally, server.cycle(ls), None, f"warm-up cycle {i}")
            for i, ls in enumerate(lines)
        ]
        if spec["expect"] is not None:
            tally.check(sha256_json(refs) == spec["expect"],
                        "warm-up reports match the committed hash")
        spent = 0.0
        i = 0
        while spent < spec["seconds"] or i < MIN_ROUNDS * 2:
            t0 = time.perf_counter()
            s = cycle_stream_index(i)
            c = server.cycle(lines[s])
            check_cycle(tally, c, refs[s], f"cycle {i}")
            walls["cycle_miss" if s else "cycle_hit"].append(c["wall"])
            codec.append(c["codec"])
            transport.append(c["wall"] - c["run_s"] - c["codec"])
            submits += c["submits"]
            spent += time.perf_counter() - t0
            i += 1
        if spec["trace"]:
            tracer = Tracer(f"{name}-{seed}")
            for _ in range(TRACE_CYCLES):
                s = cycle_stream_index(i)
                c = server.cycle(lines[s])
                check_cycle(tally, c, refs[s], f"traced cycle {i}")
                traced.append((trace_cycle(tracer, c), c))
                i += 1
        runtime = c["report"].get("runtime")
        rss = peak_rss_mb(server.proc.pid)

    rec = MetricsRecorder(sc.duration_ms / 20.0, shards=sc.shards)
    local = run_fleet_scenario(sc, recorder=rec, stream=streams[0]).to_dict()
    tally.check(report_hash(local) == refs[0],
                "socket report equals the in-process run")

    result = {
        "output_sha256": sha256_json(refs),
        "ops": {
            kind: {"requests": CYCLE_REQUESTS, "walls": w}
            for kind, w in walls.items()
        },
        "peak_rss_mb": rss,
        "setup_s": setup,
        "engines": dict(Counter(local["engine_per_shard"])),
        "submit_walls": submits,
    }
    if spec["trace"]:
        lookups = runtime["compile_cache_hits"] + runtime["compile_cache_misses"]
        layer = {
            "service.execute_s": statistics.median(c["run_s"] for _, c in traced),
            "service.worker_utilization": statistics.median(
                worker_utilization(c["report"]) for _, c in traced
            ),
            "sim.tie_abort_replays": rec.counters().get("tie_abort_replays", 0),
            "sim.fast_path_shards": fast_path_share(local["engine_per_shard"]),
            "runtime.compile_cache_hit_ratio": runtime["compile_cache_hits"] / lookups,
            "runtime.pool_warm_hits": runtime["pool_warm_hits"],
            "runtime.shm_bytes": runtime["shm_bytes"],
            "runtime.ipc_bytes_avoided_per_serve":
                runtime["ipc_bytes_avoided"] / runtime["runs"],
        }
        with tracer.span("probes", workload=name):
            with tracer.span("sim.generate") as gen:
                stream = cycle_stream(seed, 0, fleet.capacity)
            layer["sim.generate_s"] = duration(gen)
            layer.update(probe_route(fleet, [stream], tracer))
            layer.update(probe_layout(sc, tracer))
        roots = [r for r, _ in traced]
        mid = sorted(roots, key=duration)[len(roots) // 2]
        result["layer"] = finish_layer(
            layer, tracer, mid,
            timed_op_s=statistics.median(walls["cycle_hit"] + walls["cycle_miss"]),
            transport_s=transport, codec_s=codec,
        )
        result["spans"] = tracer.spans
    return result


# ----------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if Path(repro.__file__).resolve().parents[1] != SRC:
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    spec = json.loads(argv[1])
    name = spec["workload"]
    if spec["mode"] == "setup":
        return fleet_setup(name, spec["seed"])
    tally = Tally()
    runner = run_frontend if name in FRONTEND_WORKLOADS else run_fleet
    try:
        result = runner(spec, tally)
    except Exception as e:
        # A serve, cycle or set-up launch that raises ends the workload:
        # it counts as one failed operation beside the ones checked so
        # far, and the workload reports no metrics.
        traceback.print_exc()
        tally.check(False, f"stopped: {e!r}")
        result = {}
    result.update(attempted=tally.attempted, failures=tally.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
