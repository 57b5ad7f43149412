"""Scenario runner: the ``repro serve`` engine end to end."""

import dataclasses
import json

import pytest

from repro.service import (
    FailureEvent,
    FleetScenario,
    check_fleet,
    Fleet,
    default_failure_schedule,
    run_fleet_scenario,
)


def _small_scenario(**overrides):
    base = dict(
        shards=8,
        v=9,
        k=3,
        duration_ms=400.0,
        interarrival_ms=1.0,
        read_fraction=0.7,
        failures=default_failure_schedule(8, 9, 2, 100.0),
        admission=2,
        verify_data=True,
    )
    base.update(overrides)
    return FleetScenario(**base)


class TestScenario:
    def test_acceptance_scenario(self):
        """The PR acceptance bar: an 8-array fleet, 2 concurrent
        failures, everything rebuilt bit-for-bit, conformance-gated."""
        report = run_fleet_scenario(_small_scenario())
        assert report.scenario.shards == 8
        assert len(report.rebuilds) == 2
        assert report.max_concurrent_rebuilds == 2
        assert all(o.report.data_verified is True for o in report.rebuilds)
        assert report.all_rebuilt_verified
        assert report.conformance is not None and report.conformance.passed
        assert report.passed
        assert report.fleet.scheduled > 0

    def test_report_json_round_trip(self):
        report = run_fleet_scenario(_small_scenario(duration_ms=200.0))
        payload = report.to_dict()
        text = json.dumps(payload)
        back = json.loads(text)
        assert back["passed"] is True
        assert back["fleet"]["shards"] == 8
        assert len(back["rebuilds"]) == 2
        assert back["scenario"]["failures"][0]["array"] == 0
        # Armed failure timers force every shard onto the shared event
        # heap — the payload surfaces the engine actually used.
        assert back["engine"] == "heap"
        assert back["engine_per_shard"] == ["heap"] * 8

    def test_scenario_deterministic(self):
        a = run_fleet_scenario(_small_scenario()).to_dict()
        b = run_fleet_scenario(_small_scenario()).to_dict()
        for key in ("fleet", "rebuilds", "routing_fingerprint", "passed"):
            assert a[key] == b[key]

    def test_healthy_scenario_has_no_rebuilds(self):
        report = run_fleet_scenario(
            _small_scenario(failures=(), duration_ms=200.0)
        )
        assert report.rebuilds == ()
        assert report.all_rebuilt_verified  # vacuously
        assert report.passed
        # Idle clock: every shard picks a cheap per-shard engine.
        assert all(
            e in ("solver", "eager", "calendar")
            for e in report.engine_per_shard()
        )

    def test_unverified_mode_runs(self):
        report = run_fleet_scenario(_small_scenario(verify_data=False))
        assert len(report.rebuilds) == 2
        assert all(o.report.data_verified is None for o in report.rebuilds)
        assert report.passed

    def test_conformance_skippable(self):
        report = run_fleet_scenario(
            _small_scenario(check_conformance=False, duration_ms=200.0)
        )
        assert report.conformance is None
        assert report.passed

    @pytest.mark.parametrize(
        "reshape_to, array, lost", [(7, 4, 4), (6, 3, 35)]
    )
    def test_failure_losses_off_the_moves_are_not_migration_losses(
        self, reshape_to, array, lost
    ):
        """A failure on an array no move touches loses requests to the
        failure, not to the migration: a 6 -> 7 reshape completes every
        move, and a no-op reshape plans none, so both pass.  A loss on
        a move's own array still fails the verdict."""
        report = run_fleet_scenario(
            FleetScenario(
                shards=6,
                reshape_to=reshape_to,
                interarrival_ms=0.2,
                failures=(FailureEvent(375.0, array=array, disk=0),),
            )
        )
        assert report.fleet.lost == lost
        assert len(report.migrations) == report.planned_moves
        assert report.all_migrated_verified
        assert report.passed
        if report.migrations:
            dest = next(o.dest for o in report.migrations if o.units_copied)
            scheduled = list(report.fleet.per_shard_scheduled)
            scheduled[dest] += 1
            fleet = dataclasses.replace(
                report.fleet, per_shard_scheduled=scheduled
            )
            broken = dataclasses.replace(report, fleet=fleet)
            assert not broken.all_migrated_verified
            assert not broken.passed


class TestFleetConformance:
    def test_one_check_per_distinct_layout(self):
        fleet = Fleet(8, 9, 3, seed=0)
        conf = check_fleet(fleet)
        assert conf.shards_checked == 8
        assert len(conf.reports) == 1  # registry-shared layout
        assert conf.passed
        assert "PASS" in conf.summary()

    def test_stairway_plan_held_to_its_theorem_bound(self):
        """Theorems 10-12 cap a stairway plan's Condition 3 workload at
        ``(k-1)/(q-1)``, not the declustering ideal ``(k-1)/(v-1)``:
        (21,5) measures 0.40 against 4/20 = 0.20, and passes the gate as
        it passes ``verify --all``.  A bound its layout exceeds still
        fails it."""
        fleet = Fleet(2, 21, 5, seed=0)
        assert fleet.plan.method.startswith("stairway")
        assert check_fleet(fleet).passed
        assert run_fleet_scenario(
            FleetScenario(shards=2, v=21, k=5, duration_ms=50.0)
        ).passed
        plan = fleet.plan
        fleet.plan = dataclasses.replace(
            plan, detail={**plan.detail, "q": 2 * plan.detail["q"]}
        )
        conf = check_fleet(fleet)
        assert not conf.passed
        assert conf.to_dict()["layouts"][0]["violations"] == [
            "reconstruction balance"
        ]

    def test_to_dict_shape(self):
        conf = check_fleet(Fleet(2, 13, 4, seed=0))
        d = conf.to_dict()
        assert d["passed"] is True
        assert d["shards_checked"] == 2
        assert d["layouts"][0]["v"] == 13


#: Inputs ``serve`` must refuse up front, each paired with the field
#: its one ``error:`` line must name (exit 2, no traceback).  NaN slips
#: through ``x < 0`` range checks into a report that still passes, a
#: zero volume count would divide by zero, and a NaN or infinite
#: horizon never ends a stream.
BAD_SERVE_INPUTS = [
    (["--smoke", "--reshape-at", "nan", "--grow", "2:3"], "reshape time"),
    (["--smoke", "--failure-spec", "nan:0:1"], "failure time"),
    (["--smoke", "--zipf", "nan"], "zipf_theta"),
    (["--smoke", "--zipf", "inf"], "zipf_theta"),
    (["--smoke", "--interarrival", "nan"], "interarrival_ms"),
    (["--smoke", "--max-rss-mb", "nan"], "--max-rss-mb"),
    (["--smoke", "--failures", "-1"], "--failures"),
    (["--smoke", "--volumes", "0"], "volume"),
    (["--duration", "inf"], "duration_ms"),
    (["--duration", "nan"], "duration_ms"),
    (
        ["--smoke", "--metrics-interval", "nan", "--metrics-out", "{tmp}/m"],
        "metrics interval",
    ),
    (["--smoke", "--grow", "2:3", "--reshape-at", "1e300"], "reshape time"),
    (["--smoke", "--shrink", "3:2", "--reshape-at", "401"], "reshape time"),
    (
        ["--smoke", "--metrics-interval", "0.01", "--metrics-out", "{tmp}/m"],
        "metrics interval",
    ),
    (
        ["--smoke", "--metrics-interval", "1e-9", "--metrics-prom", "{tmp}/m"],
        "metrics interval",
    ),
]


class TestServeCLI:
    @pytest.mark.parametrize(
        "argv, field",
        BAD_SERVE_INPUTS,
        ids=[" ".join(argv) for argv, _ in BAD_SERVE_INPUTS],
    )
    def test_bad_input_refused(self, argv, field, tmp_path, capsys):
        from repro.__main__ import main

        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(["serve", *argv, "--json", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), -1.0])
    def test_scenario_horizon_validated(self, duration):
        with pytest.raises(ValueError, match="duration_ms"):
            FleetScenario(duration_ms=duration)

    def test_reshape_time_within_horizon(self):
        """A reshape may fire at the horizon, not past it (the
        migration would then run alone and stretch the makespan); a
        reshape time means nothing without a reshape."""
        with pytest.raises(ValueError, match="reshape time"):
            FleetScenario(duration_ms=100.0, reshape_to=9, reshape_at_ms=101.0)
        FleetScenario(duration_ms=100.0, reshape_to=9, reshape_at_ms=100.0)
        FleetScenario(duration_ms=100.0, reshape_at_ms=1e300)

    def test_smoke_exit_zero(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "serve.json"
        code = main(["serve", "--smoke", "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["fleet"]["shards"] == 8
        assert len(payload["rebuilds"]) == 2
        assert payload["all_rebuilt_verified"] is True

    def test_failure_spec_parsing(self, tmp_path):
        from repro.__main__ import main

        out = tmp_path / "serve.json"
        code = main(
            [
                "serve",
                "--smoke",
                "--failure-spec",
                "50:0:1,80:3:2",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        rebuilds = {r["array"]: r for r in payload["rebuilds"]}
        assert set(rebuilds) == {0, 3}
        assert rebuilds[3]["failed_disk"] == 2
