"""The warm runtime: persistent pool + shared-memory transport +
compiled-artifact cache must serve reports **canonically identical** to
the cold serial runner at every window size and worker count — and tear
down without leaking a single ``/dev/shm`` segment."""

import json
import os
import signal
import socket
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.obs import spans_from_payload, summarize_trace
from repro.service import (
    Fleet,
    FleetScenario,
    WarmRuntime,
    canonical_payload,
    default_failure_schedule,
    leaked_segments,
    run_fleet_scenario,
)
from repro.service import runtime as runtime_mod
from repro.sim import generate_request_stream

REPO_ROOT = Path(__file__).resolve().parents[2]


def _scenario(**overrides):
    base = dict(
        shards=2,
        v=9,
        k=3,
        duration_ms=200.0,
        interarrival_ms=2.0,
        seed=3,
    )
    base.update(overrides)
    return FleetScenario(**base)


def _stream_for(scenario):
    capacity = Fleet(
        scenario.shards, scenario.v, scenario.k, seed=scenario.seed
    ).capacity
    return generate_request_stream(
        scenario.workload(), scenario.duration_ms, capacity
    )


def _canonical(payload):
    return json.dumps(canonical_payload(payload), sort_keys=True)


def _assert_clean(runtime):
    """Post-close oracle: no resident bytes, no segments on disk."""
    runtime.close()
    assert runtime.stats.shm_bytes == 0
    assert leaked_segments(os.getpid()) == []


class TestByteIdentityMatrix:
    """Warm reports vs the cold serial runner, across the full
    window-size x worker-count grid (the tentpole contract)."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "window", [None, 1, 7, 64, 1_000_000], ids=lambda w: f"window={w}"
    )
    def test_warm_matches_cold_serial(self, workers, window):
        scenario = _scenario(window_size=window)
        cold = run_fleet_scenario(scenario).to_dict()
        with WarmRuntime(scenario, workers=workers) as runtime:
            first = runtime.run()
            second = runtime.run()
            assert _canonical(first) == _canonical(cold)
            assert _canonical(second) == _canonical(cold)
            _assert_clean(runtime)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_submitted_stream_matches_batch(self, workers):
        scenario = _scenario()
        stream = _stream_for(scenario)
        batch = run_fleet_scenario(scenario, stream=stream).to_dict()
        with WarmRuntime(scenario, workers=workers) as runtime:
            first = runtime.run(stream=stream)
            second = runtime.run(stream=stream)
            assert _canonical(first) == _canonical(batch)
            assert _canonical(second) == _canonical(batch)
            if workers == 1 or first["parallel"]["workers"] > 1:
                # The repeated submit is the cache's reason to exist.
                assert runtime.stats.compile_cache_hits >= 1
            _assert_clean(runtime)

    def test_windowed_submitted_stream_rides_shared_memory(self):
        """window + submitted stream + workers>1 packs the raw stream
        into a per-serve segment every group task views, released
        after the serve."""
        scenario = _scenario(window_size=64)
        stream = _stream_for(scenario)
        batch = run_fleet_scenario(scenario, stream=stream).to_dict()
        with WarmRuntime(scenario, workers=2) as runtime:
            for _ in range(2):
                payload = runtime.run(stream=stream)
                assert _canonical(payload) == _canonical(batch)
                # Per-serve stream segments never outlive the serve.
                assert runtime.stats.shm_bytes == 0
            _assert_clean(runtime)

    def test_failures_and_rebuilds_identical(self):
        scenario = _scenario(
            shards=3,
            failures=default_failure_schedule(3, 9, 2, 50.0),
            admission=1,
        )
        cold = run_fleet_scenario(scenario).to_dict()
        with WarmRuntime(scenario, workers=2) as runtime:
            for _ in range(2):
                assert _canonical(runtime.run()) == _canonical(cold)
            _assert_clean(runtime)

    def test_spawn_context_identical(self):
        scenario = _scenario()
        cold = run_fleet_scenario(scenario).to_dict()
        with WarmRuntime(scenario, workers=2, mp_context="spawn") as runtime:
            assert _canonical(runtime.run()) == _canonical(cold)
            assert _canonical(runtime.run()) == _canonical(cold)
            assert runtime.stats.pool_warm_hits == 1
            _assert_clean(runtime)


class TestWarmth:
    """The counters must prove the fast paths actually engaged."""

    def test_pool_and_cache_reuse_across_runs(self):
        with WarmRuntime(_scenario(), workers=2) as runtime:
            runtime.run()
            stats = runtime.stats
            assert stats.pool_cold_boots == 1
            assert stats.compile_cache_misses == 1
            assert stats.shm_bytes > 0
            runtime.run()
            assert stats.pool_warm_hits == 1
            assert stats.compile_cache_hits == 1
            assert stats.compile_cache_misses == 1  # no rebuild
            assert stats.ipc_bytes_avoided > 0
            _assert_clean(runtime)

    def test_artifact_cache_is_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(runtime_mod, "ARTIFACT_CACHE_SIZE", 1)
        scenario = _scenario()
        with WarmRuntime(scenario) as runtime:
            runtime.run()
            one = runtime.stats.shm_bytes
            assert one > 0
            # A different stream evicts the synthetic artifact: the
            # cache holds one artifact, so resident bytes stay bounded
            # and the evicted segment is unlinked immediately.
            runtime.run(stream=_stream_for(scenario))
            assert runtime.stats.compile_cache_misses == 2
            assert len(leaked_segments(os.getpid())) == 1
            _assert_clean(runtime)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_conformance_verdict_per_shape(self, monkeypatch, workers):
        """Warm serves of one shape, serial or grouped, run
        ``check_fleet`` once, with the cold runner's canonical payload
        every time; a shape change and ``invalidate()`` each drop the
        kept verdict."""
        from repro.service import scenario as scenario_mod

        calls = []
        check = runtime_mod.check_fleet

        def counting(fleet):
            calls.append(fleet.shards)
            return check(fleet)

        scenario = _scenario()
        cold = _canonical(run_fleet_scenario(scenario).to_dict())
        # The serial runner checks through its own module's name.
        monkeypatch.setattr(runtime_mod, "check_fleet", counting)
        monkeypatch.setattr(scenario_mod, "check_fleet", counting)
        with WarmRuntime(scenario, workers=workers) as runtime:
            for _ in range(3):
                assert _canonical(runtime.run()) == cold
            runtime.run(stream=_stream_for(scenario))
            assert calls == [2]
            runtime.update_scenario(_scenario(shards=4))
            runtime.run()
            runtime.run()
            assert calls == [2, 4]
            runtime.invalidate()
            runtime.run()
            assert calls == [2, 4, 4]
            _assert_clean(runtime)

    def test_report_carries_runtime_stats_and_canonical_strips_them(self):
        with WarmRuntime(_scenario(), workers=2) as runtime:
            payload = runtime.run()
            assert payload["runtime"]["runs"] == 1
            assert payload["runtime"]["pool_cold_boots"] == 1
            assert "runtime" not in canonical_payload(payload)
            summary = summarize_trace(
                spans_from_payload(payload), runtime=payload["runtime"]
            )
            assert "warm runtime: 1 run(s)" in summary
            _assert_clean(runtime)


def _kernel_cache_info() -> tuple:
    """In a pool worker: the kernel loader's cache counters."""
    from repro.sim import native

    return tuple(native.kernel.cache_info())


class TestLoadedWorkers:
    def test_forked_worker_inherits_the_loaded_kernel(self):
        """A fork pool boots with the kernel loaded in its parent: the
        worker's loader cache holds the library, and neither its
        initializer nor its first task loaded it again (no miss past
        the parent's)."""
        from repro.sim import native

        native.kernel.cache_clear()
        pool = runtime_mod.WorkerPool(1, mp_context="fork")
        try:
            assert pool.ensure((9, 3))
            parent = native.kernel.cache_info()
            assert parent.currsize == 1 and parent.misses == 1
            hits, misses, _max, size = pool._pool.submit(
                _kernel_cache_info
            ).result()
        finally:
            pool.close()
        assert (size, misses) == (1, 1)
        assert hits >= parent.hits + 1  # the initializer's call


class TestWorkerCrash:
    def test_killed_worker_reboots_the_pool(self):
        """A SIGKILLed pool worker breaks the executor.  The next serve
        reboots the pool, reruns its group tasks and reports the same
        bytes; the pool keeps serving after it.  The reboot counts as a
        reboot, not as a warm hit."""
        scenario = _scenario()
        cold = _canonical(run_fleet_scenario(scenario).to_dict())
        with WarmRuntime(scenario, workers=2) as runtime:
            assert _canonical(runtime.run()) == cold
            processes = runtime._pool._pool._processes
            victim = next(iter(processes.values()))
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=30)
            for _ in range(2):
                assert _canonical(runtime.run()) == cold
            assert runtime.stats.pool_reboots == 1
            assert runtime.stats.pool_cold_boots == 1
            assert runtime.stats.pool_warm_hits == 1
            _assert_clean(runtime)


class TestInvalidation:
    def test_update_scenario_shape_change_invalidates(self):
        small = _scenario()
        with WarmRuntime(small, workers=2) as runtime:
            baseline = runtime.run()
            assert runtime.stats.shm_bytes > 0
            grown = _scenario(shards=4)
            runtime.update_scenario(grown)
            assert runtime.stats.shm_bytes == 0  # stale slices unlinked
            cold = run_fleet_scenario(grown).to_dict()
            assert _canonical(runtime.run()) == _canonical(cold)
            assert _canonical(runtime.run()) != _canonical(baseline)
            _assert_clean(runtime)

    def test_reshape_run_invalidates_and_stays_identical(self):
        scenario = _scenario(
            duration_ms=400.0, reshape_to=4, reshape_at_ms=100.0
        )
        cold = run_fleet_scenario(scenario).to_dict()
        with WarmRuntime(scenario, workers=2) as runtime:
            for _ in range(2):
                assert _canonical(runtime.run()) == _canonical(cold)
                # Reshape runs must never leave cached slices behind.
                assert runtime.stats.shm_bytes == 0
            _assert_clean(runtime)

    def test_run_after_close_raises(self):
        runtime = WarmRuntime(_scenario())
        runtime.close()
        with pytest.raises(RuntimeError, match="closed"):
            runtime.run()
        runtime.close()  # idempotent


class TestTeardown:
    """No ``/dev/shm`` orphans and no ``resource_tracker`` warnings on
    any exit path (the satellite regression suite)."""

    def _assert_child_clean(self, pid, returncode, err):
        assert returncode == 0, err
        assert "resource_tracker" not in err, err
        assert "Traceback" not in err, err
        assert list(Path("/dev/shm").glob(f"repro_wrt_{pid:x}_*")) == []

    def test_interpreter_exit_without_close_sweeps_segments(self):
        """The atexit net: a runtime abandoned without close() must
        still unlink its segments at interpreter exit."""
        script = textwrap.dedent(
            """
            import os
            from repro.service import FleetScenario, WarmRuntime
            runtime = WarmRuntime(
                FleetScenario(
                    shards=2, v=9, k=3, duration_ms=200.0,
                    interarrival_ms=2.0, seed=3,
                ),
                workers=2,
            )
            runtime.run()
            assert runtime.stats.shm_bytes > 0
            print(f"segments resident in pid {os.getpid()}")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert "segments resident" in proc.stdout
        pid = int(proc.stdout.split()[-1])
        self._assert_child_clean(pid, proc.returncode, proc.stderr)

    @staticmethod
    def _start_frontend():
        """Launch ``serve --listen --workers 2``; returns the process,
        its ready line and its address."""
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--smoke",
                "--shards",
                "2",
                "--duration",
                "200",
                "--interarrival",
                "2.0",
                "--seed",
                "3",
                "--listen",
                "127.0.0.1:0",
                "--workers",
                "2",
            ],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        line = proc.stderr.readline()
        if not line.startswith("serving on "):
            proc.kill()
            raise AssertionError(line)
        host, _, port = line.split()[-1].rpartition(":")
        return proc, line, (host, int(port))

    @staticmethod
    def _rpc(f, op: str) -> dict:
        f.write(json.dumps({"op": op}).encode() + b"\n")
        f.flush()
        reply = json.loads(f.readline())
        assert reply["ok"], reply
        return reply

    def test_sigterm_tears_down_frontend_cleanly(self):
        proc, line, address = self._start_frontend()
        try:
            # One real serve so the pool boots and segments exist.
            with socket.create_connection(address, timeout=120) as sock:
                self._rpc(sock.makefile("rwb"), "run")
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        except BaseException:
            proc.kill()
            raise
        self._assert_child_clean(proc.pid, proc.returncode, line + err)

    def test_killed_worker_keeps_frontend_serving(self):
        """SIGKILL one pool worker of a live front-end.  The executor
        then SIGTERMs the surviving worker, which must end that worker,
        not reach the front-end's event loop through signal wiring
        inherited at fork.  The next serve reboots the pool."""
        proc, line, address = self._start_frontend()
        try:
            with socket.create_connection(address, timeout=120) as sock:
                f = sock.makefile("rwb")
                first = self._rpc(f, "run")["report"]
                workers = [
                    int(stat.parent.name)
                    for stat in Path("/proc").glob("[0-9]*/stat")
                    if _parent_pid(stat) == proc.pid
                    and b"resource_tracker"
                    not in (stat.parent / "cmdline").read_bytes()
                ]
                assert workers
                os.kill(workers[0], signal.SIGKILL)
                deadline = time.monotonic() + 60
                while Path(f"/proc/{workers[0]}").exists():
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                second = self._rpc(f, "run")["report"]
                stats = self._rpc(f, "ping")["runtime"]
            assert _canonical(second) == _canonical(first)
            assert stats["pool_reboots"] == 1
            assert proc.poll() is None
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        except BaseException:
            proc.kill()
            raise
        self._assert_child_clean(proc.pid, proc.returncode, line + err)


def _parent_pid(stat: Path) -> int | None:
    """The parent pid in a ``/proc/<pid>/stat`` file, None if the
    process exited while being read."""
    try:
        return int(stat.read_text().rsplit(")", 1)[1].split()[1])
    except (OSError, IndexError, ValueError):
        return None
