"""Fast checks of the end-to-end benchmark's own machinery."""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

import measure
import run
import workloads
from repro.service import FleetScenario, run_fleet_scenario

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.mark.parametrize(
    "n, expected",
    [(1, 50.0), (19, 50.0), (20, 50.0), (100, 90.0), (300, 95.0),
     (999, 95.0), (1000, 99.0), (4800, 99.0), (10_000, 99.9)],
)
def test_percentile_rule(n, expected):
    assert measure.supported_percentile(n) == expected


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 95) == 95
    assert measure.percentile([3.0], 99) == 3.0


def test_sim_rps_takes_each_inputs_tenth_percentile():
    ops = {
        "few": {"requests": 100, "walls": [2.0, 1.0, 3.0]},  # fastest: 1.0
        "many": {"requests": 300, "walls": [float(s) for s in range(20, 0, -1)]},
    }
    assert run.sim_rps(ops) == pytest.approx(400 / (1.0 + 2.0))


def test_benchmark_json_is_valid():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert bench["paths"] == ["benchmarks/e2e"]
    assert 1 <= bench["run_seconds"] <= 60
    workloads_ = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = [m["name"] for m in bench["per_layer"]]
    assert 2 <= len(workloads_) <= 8
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layer) <= 128
    names = workloads_ + list(e2e) + layer
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0.05 <= m["bound"] <= 0.25
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    # Each layer metric names the end-to-end metric and the workloads
    # it should move.
    assert sorted(run.LAYER_TARGETS) == sorted(layer)
    for target, moved_on in run.LAYER_TARGETS.values():
        assert target in e2e
        assert moved_on and set(moved_on) <= set(workloads_)
    assert set(workloads_) == set(
        workloads.FLEET_WORKLOADS + workloads.FRONTEND_WORKLOADS
    )


def test_committed_hashes_cover_every_workload():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    hashes = run.expected_hashes()
    assert sorted(hashes) == sorted(w["name"] for w in bench["workloads"])
    assert all(re.fullmatch(r"[0-9a-f]{64}", h) for h in hashes.values())


def span(span_id, parent, start, end):
    return {"span_id": span_id, "parent": parent, "start": start, "end": end}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 1, 3.0, 6.0),   # overlaps span 2: counted once
        span(4, 1, 8.0, 12.0),  # runs past its parent: clipped
        span(5, 3, 3.5, 4.5),
    ]
    st = measure.self_times(spans)
    assert st[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert st[2] == pytest.approx(3.0)
    assert st[3] == pytest.approx(3.0 - 1.0)
    assert st[4] == pytest.approx(4.0)


def test_tracer_nests_spans():
    tracer = measure.Tracer("t")
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
        added = tracer.add("timed", inner["end"], tracer.now())
    assert inner["parent"] == outer["span_id"]
    assert added["parent"] == outer["span_id"]
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert [s["name"] for s in tracer.spans] == ["outer", "inner", "timed"]
    assert all(s["trace_id"] == "t" for s in tracer.spans)


def last_json_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def fake_workload(tmp_path, monkeypatch, body: str) -> None:
    script = tmp_path / "workload.py"
    script.write_text(body)
    monkeypatch.setattr(run, "WORKLOAD_SCRIPT", script)
    monkeypatch.setattr(run, "host_ref_s", lambda: 1.0)


def test_a_crashed_workload_is_one_failed_operation(tmp_path, monkeypatch, capsys):
    fake_workload(tmp_path, monkeypatch, "import sys\nsys.exit(3)\n")
    status = run.main(["--workload", "fleet_mixed", "--out", str(tmp_path)])
    assert status == 1
    assert last_json_line(capsys) == {
        "correct": False, "attempted": 1, "failed": 1, "metrics": {},
    }


def test_a_workload_out_of_time_is_stopped_with_its_children(
    tmp_path, monkeypatch, capsys
):
    pid_file = tmp_path / "grandchild.pid"
    fake_workload(tmp_path, monkeypatch, (
        "import subprocess, sys, time\n"
        "child = subprocess.Popen([sys.executable, '-c', "
        "'import time; time.sleep(60)'])\n"
        f"open({str(pid_file)!r}, 'w').write(str(child.pid))\n"
        "time.sleep(60)\n"
    ))
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 1)
    assert run.main(["--workload", "frontend_socket", "--out", str(tmp_path)]) == 1
    result = last_json_line(capsys)
    assert (result["attempted"], result["failed"]) == (1, 1)
    status = Path(f"/proc/{pid_file.read_text()}/status")
    for _ in range(50):  # the killed grandchild is reaped by init
        if not status.exists() or "State:\tZ" in status.read_text():
            break
        time.sleep(0.02)
    else:
        pytest.fail("the workload's child process outlived the run")


def test_a_workload_that_raises_reports_its_checks(monkeypatch, capsys):
    def broken(spec, tally):
        tally.check(True, "warm-up")
        raise RuntimeError("front-end closed the connection")

    monkeypatch.setattr(workloads, "run_fleet", broken)
    spec = {"mode": "run", "workload": "fleet_mixed", "seed": 1}
    assert workloads.main(["workloads.py", json.dumps(spec)]) == 0
    result = last_json_line(capsys)
    assert result["attempted"] == 2
    assert result["failures"] == [
        "stopped: RuntimeError('front-end closed the connection')"
    ]
    assert "ops" not in result


def tiny_hash(seed: int) -> str:
    sc = FleetScenario(shards=2, v=9, k=3, duration_ms=200.0,
                       interarrival_ms=2.0, verify_data=False,
                       workload_seed=seed, seed=seed)
    return workloads.report_hash(run_fleet_scenario(sc).to_dict())


def test_report_hash_follows_the_seed():
    assert tiny_hash(3) == tiny_hash(3)
    assert tiny_hash(3) != tiny_hash(4)
