"""Warm front-end smoke (``make smoke-frontend``).

End-to-end gate on the serving path as users reach it: start
``python -m repro serve --listen`` with a 2-process worker pool in a
real subprocess, submit the same request stream twice (chunked, over
the socket), and require

* the first (cold) served report to be canonically identical to the
  same stream run through ``run_fleet_scenario`` in this process,
* the second (warm) served report to be canonically identical to the
  first — the pool reuse and compiled-artifact cache hit that the
  warm runtime exists for must not change a byte of the report,
* the front-end's ``ping`` stats to prove the warmth actually
  happened (``pool_warm_hits >= 1``, ``compile_cache_hits >= 1``),
* a third serve of the stream, after one of the server's pool workers
  is SIGKILLed, to reply ``ok`` with a report canonically identical to
  the first and ``pool_reboots == 1`` in the ping stats (the runtime
  reboots the broken pool and reruns the serve's group tasks),
* a clean shutdown: exit code 0, no leftover
  ``/dev/shm/repro_wrt_<pid>_*`` segments from the server process,
  and no ``resource_tracker`` warnings or tracebacks on its stderr.

The summary artifact (``BENCH_frontend_smoke.json``) rides the CI
``BENCH_*.json`` upload glob.

Exit codes: 0 = all gates hold, 1 = any gate failed.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Scenario shape — every value is passed explicitly both to the
#: server CLI and to the in-process batch run, so the two cannot
#: drift apart via argparse defaults.
SHARDS = 2
V = 9
K = 3
DURATION_MS = 300.0
INTERARRIVAL_MS = 2.0
SEED = 5
FAILURES = 2

STARTUP_TIMEOUT_S = 60.0
ARTIFACT = REPO_ROOT / "BENCH_frontend_smoke.json"


def _scenario():
    from repro.service import FleetScenario, default_failure_schedule

    return FleetScenario(
        shards=SHARDS,
        v=V,
        k=K,
        duration_ms=DURATION_MS,
        interarrival_ms=INTERARRIVAL_MS,
        workload_seed=SEED,
        failures=default_failure_schedule(
            SHARDS, V, FAILURES, DURATION_MS * 0.25
        ),
        seed=SEED,
    )


def _start_server() -> tuple[subprocess.Popen, str, int]:
    """Launch ``serve --listen`` and parse the bound address off its
    stderr ready line."""
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--smoke",
            "--shards",
            str(SHARDS),
            "--v",
            str(V),
            "--k",
            str(K),
            "--duration",
            str(DURATION_MS),
            "--interarrival",
            str(INTERARRIVAL_MS),
            "--failures",
            str(FAILURES),
            "--seed",
            str(SEED),
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "2",
        ],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    line = ""
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if line.startswith("serving on "):
            host, _, port = line.split()[-1].rpartition(":")
            return proc, host, int(port)
        if not line and proc.poll() is not None:
            break
    proc.kill()
    raise RuntimeError(
        f"server never became ready (last stderr line: {line!r})"
    )


class _Client:
    def __init__(self, host: str, port: int) -> None:
        self._sock = socket.create_connection((host, port), timeout=120)
        self._file = self._sock.makefile("rwb")

    def rpc(self, obj: dict) -> dict:
        self._file.write(json.dumps(obj).encode() + b"\n")
        self._file.flush()
        reply = json.loads(self._file.readline())
        if not reply.get("ok"):
            raise RuntimeError(f"rpc {obj.get('op')!r} failed: {reply}")
        return reply

    def close(self) -> None:
        self._file.close()
        self._sock.close()


def _pool_workers(pid: int) -> list[int]:
    """The server's worker-pool processes: its children, less the
    multiprocessing resource tracker (a child too, but not a worker)."""
    workers = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
            cmdline = (stat.parent / "cmdline").read_bytes()
        except (OSError, IndexError, ValueError):
            continue  # the process exited while being read
        if ppid == pid and b"resource_tracker" not in cmdline:
            workers.append(int(stat.parent.name))
    return sorted(workers)


def _kill_worker(server_pid: int) -> int | None:
    """SIGKILL one pool worker of the server and wait until the server
    has reaped it (its executor notices the death and marks the pool
    broken first).  Returns the killed pid, None if there was none."""
    workers = _pool_workers(server_pid)
    if not workers:
        return None
    victim = workers[0]
    os.kill(victim, signal.SIGKILL)
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while Path(f"/proc/{victim}").exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    return victim


def _submit_and_serve(client: _Client, times, is_read, lbas) -> dict:
    mid = len(times) // 2
    for lo, hi in ((0, mid), (mid, len(times))):
        client.rpc(
            {
                "op": "submit",
                "times": times[lo:hi].tolist(),
                "is_read": is_read[lo:hi].tolist(),
                "lbas": lbas[lo:hi].tolist(),
            }
        )
    return client.rpc({"op": "serve"})["report"]


def main() -> int:
    from repro.service import Fleet, canonical_payload, run_fleet_scenario
    from repro.sim import generate_request_stream

    scenario = _scenario()
    capacity = Fleet(SHARDS, V, K, seed=SEED).capacity
    times, is_read, lbas = generate_request_stream(
        scenario.workload(), DURATION_MS, capacity
    )
    batch = run_fleet_scenario(
        scenario, stream=(times, is_read, lbas)
    ).to_dict()

    def canon(payload: dict) -> str:
        return json.dumps(canonical_payload(payload), sort_keys=True)

    proc, host, port = _start_server()
    failures: list[str] = []
    stats: dict = {}
    killed: int | None = None
    try:
        client = _Client(host, port)
        cold = _submit_and_serve(client, times, is_read, lbas)
        warm = _submit_and_serve(client, times, is_read, lbas)
        killed = _kill_worker(proc.pid)
        rebooted = _submit_and_serve(client, times, is_read, lbas)
        stats = client.rpc({"op": "ping"})["runtime"]
        client.rpc({"op": "shutdown"})
        client.close()

        if canon(cold) != canon(batch):
            failures.append("cold served report differs from batch run")
        if canon(warm) != canon(cold):
            failures.append("warm served report differs from cold serve")
        if killed is None:
            failures.append("the server has no pool worker to kill")
        if canon(rebooted) != canon(cold):
            failures.append("report after a worker kill differs from cold")
        if stats.get("pool_warm_hits", 0) < 1:
            failures.append(f"no pool reuse across serves: {stats}")
        if stats.get("compile_cache_hits", 0) < 1:
            failures.append(f"no compiled-artifact cache hit: {stats}")
        if stats.get("pool_reboots") != 1:
            failures.append(f"killed worker did not reboot the pool: {stats}")
    finally:
        try:
            stderr = proc.communicate(timeout=60)[1] or ""
        except subprocess.TimeoutExpired:
            proc.kill()
            stderr = proc.communicate()[1] or ""
            failures.append("server did not exit after shutdown op")

    if proc.returncode != 0:
        failures.append(f"server exited {proc.returncode}")
    for marker in ("resource_tracker", "Traceback"):
        if marker in stderr:
            failures.append(f"server stderr mentions {marker}:\n{stderr}")
    leaked = sorted(
        p.name
        for p in Path("/dev/shm").glob(f"repro_wrt_{proc.pid:x}_*")
    )
    if leaked:
        failures.append(f"leaked shared-memory segments: {leaked}")

    summary = {
        "requests": int(times.size),
        "serves": 3,
        "workers": 2,
        "killed_worker": killed,
        "runtime": stats,
        "leaked_segments": leaked,
        "failures": failures,
        "passed": not failures,
    }
    ARTIFACT.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    for f in failures:
        print(f"smoke-frontend: FAIL: {f}")
    if not failures:
        print(
            "smoke-frontend: warm and post-kill reports identical to "
            f"cold and batch ({times.size} requests x 3 serves, "
            f"{stats.get('pool_warm_hits', 0)} pool warm hit(s), "
            f"{stats.get('compile_cache_hits', 0)} cache hit(s), "
            f"{stats.get('pool_reboots', 0)} pool reboot(s)), "
            "clean shutdown, no leaked segments"
        )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
