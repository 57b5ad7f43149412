"""The socket front-end: streams submitted over a local socket must
produce reports canonically identical to the equivalent batch run —
the front-end adds transport, never semantics."""

import asyncio
import json

import pytest

from repro.service import (
    AutoscalePolicy,
    Fleet,
    FleetScenario,
    ServiceFrontend,
    canonical_payload,
    run_fleet_scenario,
)
from repro.sim import generate_request_stream


def _scenario(**overrides):
    base = dict(
        shards=2,
        v=9,
        k=3,
        duration_ms=200.0,
        interarrival_ms=2.0,
        seed=3,
        window_size=64,
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


async def _client(frontend):
    host, port = frontend.address
    reader, writer = await asyncio.open_connection(host, port)

    async def rpc(obj):
        writer.write(json.dumps(obj).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())

    return rpc, writer


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=120))


class TestFrontend:
    def test_socket_stream_matches_batch_report(self):
        """The tentpole identity: a stream submitted in chunks over the
        socket serves canonically identical to the same stream run
        directly through the scenario runner."""
        scenario = _scenario()
        times, is_read, lbas = _stream_for(scenario)
        batch = run_fleet_scenario(
            scenario, stream=(times, is_read, lbas)
        ).to_dict()

        async def main():
            frontend = ServiceFrontend(scenario)
            await frontend.start()
            try:
                rpc, writer = await _client(frontend)
                mid = len(times) // 2
                for lo, hi in ((0, mid), (mid, len(times))):
                    reply = await rpc({
                        "op": "submit",
                        "times": times[lo:hi].tolist(),
                        "is_read": is_read[lo:hi].tolist(),
                        "lbas": lbas[lo:hi].tolist(),
                    })
                    assert reply["ok"], reply
                assert reply["buffered"] == len(times)
                served = await rpc({"op": "serve"})
                assert served["ok"], served
                writer.close()
                return served["report"]
            finally:
                await frontend.close()

        served = _run(main())
        assert _canonical(served) == _canonical(batch)

    def test_warm_resubmit_is_identical_and_provably_warm(self):
        """The warm-runtime identity over the socket: the same stream
        submitted twice through a 2-process pool serves two canonically
        identical reports (warm == cold == batch), and the ping stats
        prove the pool and the compiled-artifact cache were reused."""
        scenario = _scenario(window_size=None)
        times, is_read, lbas = _stream_for(scenario)
        batch = run_fleet_scenario(
            scenario, stream=(times, is_read, lbas)
        ).to_dict()

        async def main():
            frontend = ServiceFrontend(scenario, workers=2)
            await frontend.start()
            try:
                rpc, writer = await _client(frontend)
                reports = []
                for _ in range(2):
                    mid = len(times) // 2
                    for lo, hi in ((0, mid), (mid, len(times))):
                        reply = await rpc({
                            "op": "submit",
                            "times": times[lo:hi].tolist(),
                            "is_read": is_read[lo:hi].tolist(),
                            "lbas": lbas[lo:hi].tolist(),
                        })
                        assert reply["ok"], reply
                    served = await rpc({"op": "serve"})
                    assert served["ok"], served
                    reports.append(served["report"])
                ping = await rpc({"op": "ping"})
                writer.close()
                return reports, ping
            finally:
                await frontend.close()

        (cold, warm), ping = _run(main())
        assert _canonical(cold) == _canonical(batch)
        assert _canonical(warm) == _canonical(cold)
        assert ping["workers"] == 2
        assert ping["runtime"]["pool_warm_hits"] >= 1
        assert ping["runtime"]["compile_cache_hits"] >= 1

    def test_run_op_matches_run_fleet_scenario(self):
        """Regression pin: the ``run`` op (no submitted stream) returns
        the scenario's own report byte-identically — a disabled
        autoscaler and the socket hop change nothing."""
        scenario = _scenario()
        direct = run_fleet_scenario(scenario).to_dict()
        assert direct["autoscale"] is None

        async def main():
            frontend = ServiceFrontend(scenario)
            await frontend.start()
            try:
                rpc, writer = await _client(frontend)
                reply = await rpc({"op": "run"})
                assert reply["ok"], reply
                writer.close()
                return reply["report"]
            finally:
                await frontend.close()

        assert _canonical(_run(main())) == _canonical(direct)

    def test_autoscaled_scenario_serves_through_socket(self):
        scenario = _scenario(
            duration_ms=600.0,
            interarrival_ms=0.5,
            seed=7,
            window_size=None,
            autoscale=AutoscalePolicy(
                cadence_ms=50.0,
                high_rate=0.5,
                sustain_ticks=2,
                cooldown_ms=200.0,
                grow_step=2,
                max_shards=8,
            ),
        )
        direct = run_fleet_scenario(scenario).to_dict()

        async def main():
            frontend = ServiceFrontend(scenario)
            await frontend.start()
            try:
                rpc, writer = await _client(frontend)
                ping = await rpc({"op": "ping"})
                assert ping["scenario"]["autoscale"] is True
                reply = await rpc({"op": "run"})
                writer.close()
                return reply["report"]
            finally:
                await frontend.close()

        report = _run(main())
        assert report["autoscale"]["ok"] is True
        assert len(report["autoscale"]["events"]) == 1
        assert _canonical(report) == _canonical(direct)

    def test_protocol_errors_keep_connection_usable(self):
        scenario = _scenario()

        async def main():
            frontend = ServiceFrontend(scenario)
            await frontend.start()
            try:
                rpc, writer = await _client(frontend)
                checks = []
                checks.append(await rpc({"op": "nope"}))
                checks.append(await rpc({"op": "serve"}))  # nothing buffered
                checks.append(await rpc({
                    "op": "submit",
                    "times": [1.0, 2.0],
                    "is_read": [True],
                    "lbas": [0, 0],
                }))
                checks.append(await rpc({
                    "op": "submit",
                    "times": [2.0, 1.0],
                    "is_read": [True, True],
                    "lbas": [0, 0],
                }))
                # Out-of-order chunk: ends at 5.0, next starts at 1.0.
                first = await rpc({
                    "op": "submit",
                    "times": [1.0, 5.0],
                    "is_read": [True, True],
                    "lbas": [0, 0],
                })
                assert first["ok"]
                checks.append(await rpc({
                    "op": "submit",
                    "times": [1.0],
                    "is_read": [True],
                    "lbas": [0],
                }))
                assert all(not c["ok"] and c["error"] for c in checks)
                # The connection survived every error; reset + ping work.
                reset = await rpc({"op": "reset"})
                assert reset["ok"] and reset["buffered"] == 0
                ping = await rpc({"op": "ping"})
                assert ping["ok"] and ping["buffered"] == 0
                writer.close()
            finally:
                await frontend.close()

        _run(main())

    def test_shutdown_op_closes_the_listener(self):
        scenario = _scenario()

        async def main():
            frontend = ServiceFrontend(scenario)
            await frontend.start()
            rpc, writer = await _client(frontend)
            reply = await rpc({"op": "shutdown"})
            assert reply["ok"]
            writer.close()
            await asyncio.wait_for(frontend.wait_closed(), timeout=10)

        _run(main())

    def test_reset_drops_buffered_chunks(self):
        scenario = _scenario()

        async def main():
            frontend = ServiceFrontend(scenario)
            await frontend.start()
            try:
                rpc, writer = await _client(frontend)
                await rpc({
                    "op": "submit",
                    "times": [1.0],
                    "is_read": [True],
                    "lbas": [0],
                })
                await rpc({"op": "reset"})
                reply = await rpc({"op": "serve"})
                assert not reply["ok"]
                assert "no buffered requests" in reply["error"]
                writer.close()
            finally:
                await frontend.close()

        _run(main())


class TestFrontendHardening:
    """Every input is served or refused with an error reply — and no
    request can drop the connection or log a traceback."""

    def _rpc_session(self, scenario, body):
        async def main():
            frontend = ServiceFrontend(scenario)
            await frontend.start()
            try:
                rpc, writer = await _client(frontend)
                result = await body(frontend, rpc)
                writer.close()
                return result
            finally:
                await frontend.close()

        return _run(main())

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_submit_refuses_non_finite_times(self, bad):
        async def body(frontend, rpc):
            # json.dumps writes NaN/Infinity literals; json.loads reads them.
            reply = await rpc({
                "op": "submit",
                "times": [1.0, float(bad)],
                "is_read": [True, True],
                "lbas": [0, 0],
            })
            ping = await rpc({"op": "ping"})
            return reply, ping

        reply, ping = self._rpc_session(_scenario(), body)
        assert not reply["ok"] and "finite" in reply["error"]
        assert ping["ok"] and ping["buffered"] == 0

    def test_submit_refuses_negative_times(self):
        """A stream starting before the clock's origin is refused up
        front, with the buffer untouched — it would otherwise serve
        silently on the solver, or fail mid-serve on the event heap
        after the buffer was already cleared."""

        async def body(frontend, rpc):
            good = {
                "op": "submit",
                "times": [1.0],
                "is_read": [True],
                "lbas": [0],
            }
            accepted = await rpc(good)
            refused = await rpc({
                "op": "submit",
                "times": [-5.0, 1.0],
                "is_read": [True, False],
                "lbas": [0, 1],
            })
            ping = await rpc({"op": "ping"})
            return accepted, refused, ping

        accepted, refused, ping = self._rpc_session(_scenario(), body)
        assert accepted["ok"] and accepted["buffered"] == 1
        assert not refused["ok"]
        assert "arrival times must be >= 0" in refused["error"]
        assert ping["ok"] and ping["buffered"] == 1  # buffer untouched

    @pytest.mark.parametrize(
        "field,value,error",
        [
            ("is_read", ["no"], "is_read must be a flat JSON array of booleans"),
            ("is_read", [1], "is_read must be a flat JSON array of booleans"),
            ("lbas", [1.7], "lbas must be a flat JSON array of integers"),
            ("lbas", [True], "lbas must be a flat JSON array of integers"),
            ("times", ["5"], "times must be a flat JSON array of numbers"),
            ("times", [None], "times must be a flat JSON array of numbers"),
            ("times", [[1.0]], "times must be a flat JSON array of numbers"),
            ("times", 1.0, "times must be a flat JSON array of numbers"),
            ("lbas", [2**70], "LBAs must lie in [0, "),
        ],
        ids=[
            "string_flag",
            "int_flag",
            "float_lba",
            "bool_lba",
            "string_time",
            "null_time",
            "2d_times",
            "scalar_times",
            "huge_lba",
        ],
    )
    def test_submit_refuses_mistyped_columns(self, field, value, error):
        async def body(frontend, rpc):
            good = {
                "op": "submit",
                "times": [1.0],
                "is_read": [True],
                "lbas": [0],
            }
            accepted = await rpc(good)
            refused = await rpc({**good, "times": [2.0], field: value})
            ping = await rpc({"op": "ping"})
            return accepted, refused, ping

        accepted, refused, ping = self._rpc_session(_scenario(), body)
        assert accepted["ok"] and accepted["buffered"] == 1
        assert not refused["ok"] and refused["error"].startswith(error)
        assert ping["ok"] and ping["buffered"] == 1  # buffer untouched

    def test_submit_refuses_lbas_outside_capacity(self):
        scenario = _scenario()
        capacity = Fleet(
            scenario.shards, scenario.v, scenario.k, seed=scenario.seed
        ).capacity

        async def body(frontend, rpc):
            refused = [
                await rpc({
                    "op": "submit",
                    "times": [1.0],
                    "is_read": [True],
                    "lbas": [lba],
                })
                for lba in (-1, capacity, capacity + 10**6)
            ]
            accepted = await rpc({
                "op": "submit",
                "times": [1.0, 2.0],
                "is_read": [True, False],
                "lbas": [0, capacity - 1],
            })
            served = await rpc({"op": "serve"})
            return refused, accepted, served

        refused, accepted, served = self._rpc_session(scenario, body)
        for reply in refused:
            assert not reply["ok"]
            assert f"[0, {capacity})" in reply["error"]
        assert accepted["ok"] and accepted["buffered"] == 2
        assert served["ok"], served
        assert served["report"]["fleet"]["scheduled"] == 2

    def test_submit_refuses_past_the_buffer_limit(self, monkeypatch):
        """A submit that would take the buffered request count past
        ``BUFFER_LIMIT`` is refused, naming the limit, with the buffer
        untouched; filling it exactly to the limit is accepted."""
        from repro.service import frontend as frontend_mod

        monkeypatch.setattr(frontend_mod, "BUFFER_LIMIT", 3)

        def chunk(times):
            return {
                "op": "submit",
                "times": times,
                "is_read": [True] * len(times),
                "lbas": [0] * len(times),
            }

        async def body(frontend, rpc):
            first = await rpc(chunk([1.0, 2.0]))
            refused = await rpc(chunk([3.0, 4.0]))
            ping = await rpc({"op": "ping"})
            last = await rpc(chunk([3.0]))
            return first, refused, ping, last

        first, refused, ping, last = self._rpc_session(_scenario(), body)
        assert first["ok"] and first["buffered"] == 2
        assert not refused["ok"]
        assert "over the limit of 3" in refused["error"]
        assert ping["ok"] and ping["buffered"] == 2  # buffer untouched
        assert last["ok"] and last["buffered"] == 3

    def test_unexpected_errors_are_replied(self, monkeypatch):
        async def body(frontend, rpc):
            def broken(**kwargs):
                raise RuntimeError("pool went away")

            monkeypatch.setattr(frontend.runtime, "run", broken)
            failed_run = await rpc({"op": "run"})
            # Nesting past the recursion limit: json.loads raises
            # RecursionError, which is not a ValueError.
            host, port = frontend.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"[" * 50_000 + b"\n")
            await writer.drain()
            deep = json.loads(await reader.readline())
            writer.close()
            ping = await rpc({"op": "ping"})
            return failed_run, deep, ping

        failed_run, deep, ping = self._rpc_session(_scenario(), body)
        assert not failed_run["ok"]
        assert failed_run["error"] == "RuntimeError: pool went away"
        assert not deep["ok"] and deep["error"].startswith("RecursionError")
        assert ping["ok"]  # the connection survived

    @pytest.mark.parametrize("kib", [70, 1024])
    def test_oversized_line_is_refused_and_closes_cleanly(self, caplog, kib):
        from repro.service.frontend import LINE_LIMIT

        async def main():
            loop = asyncio.get_running_loop()
            reported = []
            loop.set_exception_handler(lambda _, ctx: reported.append(ctx))
            frontend = ServiceFrontend(_scenario())
            await frontend.start()
            try:
                host, port = frontend.address
                reader, writer = await asyncio.open_connection(host, port)
                line = json.dumps({"op": "ping", "pad": "x" * kib * 1024})
                writer.write(line.encode() + b"\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                tail = await reader.read()  # the server closed its end
                writer.close()
                # The listener still accepts and serves a new client.
                rpc, fresh = await _client(frontend)
                ping = await rpc({"op": "ping"})
                fresh.close()
                return reply, tail, ping, reported
            finally:
                await frontend.close()

        with caplog.at_level("DEBUG", logger="asyncio"):
            reply, tail, ping, reported = _run(main())
        assert not reply["ok"]
        assert str(LINE_LIMIT) in reply["error"]
        assert tail == b""
        assert ping["ok"]
        assert reported == []
        assert not [r for r in caplog.records if r.levelname == "ERROR"]
