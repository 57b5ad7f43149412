"""The autoscaling control loop: pure decisions, replay byte-identity,
and end-to-end scaling events through the scenario runner."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.obs import MetricsRecorder, build_rows, render_metrics_jsonl
from repro.service import (
    AdmissionController,
    AutoscaleController,
    AutoscaleDecision,
    AutoscalePolicy,
    Fleet,
    FleetScenario,
    MetricSnapshot,
    PolicyState,
    canonical_payload,
    decide,
    parse_decision_jsonl,
    render_decision_jsonl,
    replay_decisions,
    run_fleet_scenario,
    run_fleet_scenario_parallel,
)
from repro.sim import WorkloadConfig
from repro.sim.compile import ArrayWindows, generate_request_stream
from repro.sim.stats import percentile_of_parts


def _policy(**overrides):
    base = dict(
        cadence_ms=100.0,
        high_rate=1.0,
        sustain_ticks=2,
        cooldown_ms=500.0,
        grow_step=2,
        max_shards=8,
    )
    base.update(overrides)
    return AutoscalePolicy(**base)


def _snapshot(seq, *, arrivals, shards=2, t_ms=None, window_ms=100.0,
              complete=None, lookback=1, admission_active=0,
              admission_queued=0, admission_slots=2,
              migration_active=False, failed_arrays=0):
    """A hand-built tick observation; ``arrivals`` is per active shard."""
    return MetricSnapshot(
        seq=seq,
        t_ms=t_ms if t_ms is not None else (seq + 1) * 100.0,
        shards=shards,
        active=tuple(range(shards)),
        arrivals=tuple(arrivals),
        window_ms=window_ms,
        complete_buckets=complete if complete is not None else seq + 1,
        lookback_buckets=lookback,
        admission_active=admission_active,
        admission_queued=admission_queued,
        admission_slots=admission_slots,
        migration_active=migration_active,
        failed_arrays=failed_arrays,
    )


def _fold(policy, snapshots):
    """Run the fold and return (decisions, final state)."""
    state = PolicyState()
    decisions = []
    for snap in snapshots:
        decision, state = decide(policy, state, snap)
        decisions.append(decision)
    return decisions, state


# Per-shard arrival counts over a 100 ms window: 200 = 2.0/ms (hot,
# 2x the default 1.0 threshold), 30 = 0.3/ms (quiet).
HOT = (200, 200)
QUIET = (30, 30)


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        AutoscalePolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(cadence_ms=0.0),
            dict(window_ms=-1.0),
            dict(high_rate=0.0),
            dict(low_rate=-0.1),
            dict(high_rate=1.0, low_rate=1.0),  # no hysteresis band
            dict(imbalance_ratio=1.0),
            dict(sustain_ticks=0),
            dict(cooldown_ms=-1.0),
            dict(grow_step=0),
            dict(shrink_step=0),
            dict(min_shards=0),
            dict(min_shards=4, max_shards=2),
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            AutoscalePolicy(**kwargs)

    def test_from_dict_round_trip(self):
        p = _policy(imbalance_ratio=2.0, low_rate=0.1)
        assert AutoscalePolicy.from_dict(p.to_dict()) == p

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown autoscale policy"):
            AutoscalePolicy.from_dict({"cadence_ms": 50.0, "burst": 2})

    def test_lookback_defaults_to_cadence(self):
        assert _policy(cadence_ms=80.0).lookback_ms == 80.0
        assert _policy(window_ms=320.0).lookback_ms == 320.0


class TestDecide:
    def test_warmup_refuses_and_zeroes_streaks(self):
        d, state = decide(
            _policy(window_ms=300.0),
            PolicyState(high_streak=5),
            _snapshot(0, arrivals=HOT, complete=1, lookback=3),
        )
        assert (d.action, d.reason) == ("none", "warmup")
        assert state.high_streak == 0

    def test_grow_needs_sustained_signal(self):
        decisions, _ = _fold(_policy(sustain_ticks=3), [
            _snapshot(i, arrivals=HOT) for i in range(4)
        ])
        assert [d.action for d in decisions] == [
            "none", "none", "grow", "none"
        ]
        assert decisions[0].reason == "sustaining"
        assert decisions[2].reason == "load-spike"
        assert decisions[2].to_shards == 4
        # Post-action tick: streaks were reset, cooldown holds.
        assert decisions[3].reason == "cooldown"

    def test_quiet_load_stays_steady(self):
        decisions, state = _fold(_policy(), [
            _snapshot(i, arrivals=QUIET) for i in range(5)
        ])
        assert all(d.action == "none" for d in decisions)
        assert all(d.reason == "steady" for d in decisions)
        assert state.high_streak == 0

    def test_oscillating_load_never_flaps(self):
        """Load alternating above/below threshold every tick never
        sustains, so the loop takes no action at all."""
        snaps = [
            _snapshot(i, arrivals=HOT if i % 2 == 0 else QUIET)
            for i in range(20)
        ]
        decisions, _ = _fold(_policy(sustain_ticks=2), snaps)
        assert all(d.action == "none" for d in decisions)

    def test_cooldown_blocks_back_to_back_actions(self):
        policy = _policy(sustain_ticks=1, cooldown_ms=500.0)
        snaps = [_snapshot(i, arrivals=HOT) for i in range(8)]
        decisions, _ = _fold(policy, snaps)
        actions = [(d.seq, d.action) for d in decisions if d.action != "none"]
        # Fires at t=100, then cooldown holds until t >= 600 (seq 5).
        assert actions == [(0, "grow"), (5, "grow")]
        assert {d.reason for d in decisions[1:5]} == {"cooldown"}

    def test_grow_refused_when_admission_exhausted(self):
        policy = _policy(sustain_ticks=1)
        d, state = decide(policy, PolicyState(), _snapshot(
            0, arrivals=HOT, admission_active=2, admission_slots=2
        ))
        assert (d.action, d.reason) == ("none", "admission-exhausted")
        # The streak survives the refusal: the action fires on the next
        # tick once the budget frees, with no extra sustain wait.
        d2, _ = decide(policy, state, _snapshot(1, arrivals=HOT))
        assert d2.action == "grow"

    def test_migration_active_refuses(self):
        d, _ = decide(_policy(sustain_ticks=1), PolicyState(), _snapshot(
            0, arrivals=HOT, migration_active=True
        ))
        assert (d.action, d.reason) == ("none", "migration-active")

    def test_degraded_arrays_refuse(self):
        d, _ = decide(_policy(sustain_ticks=1), PolicyState(), _snapshot(
            0, arrivals=HOT, failed_arrays=1
        ))
        assert (d.action, d.reason) == ("none", "degraded-arrays")

    def test_at_max_shards_refuses(self):
        d, _ = decide(
            _policy(sustain_ticks=1, max_shards=2),
            PolicyState(),
            _snapshot(0, arrivals=HOT),
        )
        assert (d.action, d.reason) == ("none", "at-max-shards")

    def test_grow_step_clamps_to_max(self):
        d, _ = decide(
            _policy(sustain_ticks=1, grow_step=4, max_shards=3),
            PolicyState(),
            _snapshot(0, arrivals=HOT),
        )
        assert (d.action, d.to_shards) == ("grow", 3)

    def test_imbalance_signal_grows(self):
        # Total rate is quiet, but one shard takes nearly everything
        # (max/mean caps just below 2 with two shards, so the ratio
        # threshold sits under that).
        policy = _policy(sustain_ticks=1, imbalance_ratio=1.8)
        d, _ = decide(policy, PolicyState(), _snapshot(
            0, arrivals=(100, 4), shards=2
        ))
        assert (d.action, d.reason) == ("grow", "imbalance")

    def test_combined_reason_names_both_signals(self):
        policy = _policy(sustain_ticks=1, imbalance_ratio=1.8)
        d, _ = decide(policy, PolicyState(), _snapshot(
            0, arrivals=(400, 4), shards=2
        ))
        assert (d.action, d.reason) == ("grow", "load-spike+imbalance")

    def test_shrink_on_sustained_low_load(self):
        policy = _policy(low_rate=0.5, sustain_ticks=2, shrink_step=1,
                         min_shards=1)
        decisions, _ = _fold(policy, [
            _snapshot(i, arrivals=QUIET, shards=4) for i in range(3)
        ])
        assert [d.action for d in decisions] == ["none", "shrink", "none"]
        assert decisions[1].reason == "low-load"
        assert decisions[1].to_shards == 3
        assert decisions[2].reason == "cooldown"

    def test_shrink_refused_at_min_shards(self):
        policy = _policy(low_rate=0.5, sustain_ticks=1, min_shards=2)
        d, _ = decide(policy, PolicyState(), _snapshot(0, arrivals=QUIET))
        assert (d.action, d.reason) == ("none", "at-min-shards")

    def test_hysteresis_band_holds_steady(self):
        # Rate 0.6/ms sits between low (0.3) and high (1.0): no streaks.
        policy = _policy(low_rate=0.3)
        decisions, state = _fold(policy, [
            _snapshot(i, arrivals=(60, 60)) for i in range(4)
        ])
        assert all(d.reason == "steady" for d in decisions)
        assert (state.high_streak, state.low_streak) == (0, 0)

    def test_decide_is_pure(self):
        policy = _policy()
        state = PolicyState(high_streak=1)
        snap = _snapshot(3, arrivals=HOT)
        first = decide(policy, state, snap)
        second = decide(policy, state, snap)
        assert first == second
        assert state == PolicyState(high_streak=1)  # untouched


class TestReplay:
    def _mixed_log(self):
        policy = _policy(sustain_ticks=2, cooldown_ms=300.0)
        snaps = [
            _snapshot(0, arrivals=QUIET, complete=0, lookback=1),  # warmup
            _snapshot(1, arrivals=HOT),
            _snapshot(2, arrivals=HOT),       # grow fires
            _snapshot(3, arrivals=HOT, shards=4, migration_active=True),
            _snapshot(4, arrivals=QUIET, shards=4),
            _snapshot(5, arrivals=HOT, shards=4, admission_active=2),
            _snapshot(6, arrivals=QUIET, shards=4),
        ]
        return policy, snaps

    def test_replay_is_byte_identical(self):
        policy, snaps = self._mixed_log()
        live, _ = _fold(policy, snaps)
        replayed = replay_decisions(policy, snaps)
        assert render_decision_jsonl(replayed) == render_decision_jsonl(live)

    def test_jsonl_round_trip(self):
        policy, snaps = self._mixed_log()
        live = replay_decisions(policy, snaps)
        text = render_decision_jsonl(live)
        parsed = parse_decision_jsonl(text)
        assert parsed == live
        assert render_decision_jsonl(parsed) == text

    def test_replaying_parsed_log_reproduces_it(self):
        """The full harness loop: parse a decision log, replay its
        embedded snapshots, get the same bytes back."""
        policy, snaps = self._mixed_log()
        text = render_decision_jsonl(replay_decisions(policy, snaps))
        parsed = parse_decision_jsonl(text)
        again = replay_decisions(policy, [d.snapshot for d in parsed])
        assert render_decision_jsonl(again) == text

    def test_parse_rejects_bad_json(self):
        policy, snaps = self._mixed_log()
        good_line = render_decision_jsonl(
            replay_decisions(policy, snaps[:1])
        )
        with pytest.raises(ValueError, match="line 2"):
            parse_decision_jsonl(good_line + "{trunca")

    def test_parse_rejects_non_decision_rows(self):
        with pytest.raises(ValueError, match="not a decision object"):
            parse_decision_jsonl('{"span": "scenario"}\n')

    def test_parse_rejects_malformed_decision(self):
        with pytest.raises(ValueError, match="line 1 is not a valid"):
            parse_decision_jsonl('{"snapshot": {}}\n')


def _autoscaled_scenario(**overrides):
    base = dict(
        shards=2,
        v=9,
        k=3,
        duration_ms=600.0,
        interarrival_ms=0.5,
        seed=7,
        autoscale=AutoscalePolicy(
            cadence_ms=50.0,
            high_rate=0.5,
            sustain_ticks=2,
            cooldown_ms=200.0,
            grow_step=2,
            max_shards=8,
        ),
    )
    base.update(overrides)
    return FleetScenario(**base)


def _canonical(payload):
    return json.dumps(canonical_payload(payload), sort_keys=True)


class TestAutoscaledScenario:
    def test_grow_event_end_to_end(self):
        report = run_fleet_scenario(_autoscaled_scenario())
        summary = report.autoscale
        assert summary is not None
        assert summary.actions == 1
        event = summary.events[0]
        assert event["action"] == "grow"
        assert event["from_shards"] == 2 and event["to_shards"] == 4
        assert event["completed_moves"] == event["planned_moves"] > 0
        assert event["all_verified"] is True
        assert summary.final_shards == 4
        assert summary.zero_lost is True
        assert summary.replay_identical is True
        assert summary.ok is True
        assert report.passed
        # The serve is materialized; the autoscale ticks name no shard,
        # so both starting shards run a heap pump that hands requests
        # off by volume.  The arrays the grow bore run no pump (no
        # engine label) but serve what the migration dispatches there.
        assert report.fleet.executors == ["event-heap"] * 2 + [None] * 2
        assert report.engine_per_shard() == ["heap"] * 2 + [None] * 2
        assert all(n > 0 for n in report.fleet.per_shard_scheduled)

    def test_payload_carries_autoscale_section(self):
        payload = run_fleet_scenario(_autoscaled_scenario()).to_dict()
        section = payload["autoscale"]
        assert section["ok"] is True
        assert section["policy"]["high_rate"] == 0.5
        assert len(section["decisions"]) > 0
        assert section["decisions"][0]["snapshot"]["shards"] == 2
        assert payload["scenario"]["autoscale"]["cadence_ms"] == 50.0
        json.dumps(payload)  # JSON-serializable throughout

    def test_repeat_runs_byte_identical(self):
        a = run_fleet_scenario(_autoscaled_scenario()).to_dict()
        b = run_fleet_scenario(_autoscaled_scenario()).to_dict()
        assert _canonical(a) == _canonical(b)

    def test_serial_vs_two_workers_canonical_equal(self):
        scenario = _autoscaled_scenario()
        serial = run_fleet_scenario(scenario).to_dict()
        run = run_fleet_scenario_parallel(scenario, workers=2)
        assert run.execution.serial_fallback is True
        assert "autoscale" in run.execution.fallback_reason
        assert _canonical(serial) == _canonical(run.to_dict())

    def test_quiet_fleet_never_scales(self):
        report = run_fleet_scenario(
            _autoscaled_scenario(interarrival_ms=4.0)
        )
        summary = report.autoscale
        assert summary.actions == 0
        assert summary.final_shards == 2
        assert all(d.action == "none" for d in summary.decisions)
        assert summary.ok and report.passed

    def test_autoscale_excludes_static_reshape(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_fleet_scenario(_autoscaled_scenario(reshape_to=4))

    def test_disabled_autoscaler_leaves_report_shape(self):
        """Regression pin: no policy -> no autoscale section, and the
        report is unchanged against a scenario built before the field
        existed (identical canonical bytes)."""
        plain = dict(
            shards=2, v=9, k=3, duration_ms=300.0, interarrival_ms=1.0,
            seed=7, failures=(),
        )
        a = run_fleet_scenario(FleetScenario(**plain)).to_dict()
        b = run_fleet_scenario(
            FleetScenario(**plain, autoscale=None)
        ).to_dict()
        assert a["autoscale"] is None
        assert a["scenario"]["autoscale"] is None
        assert _canonical(a) == _canonical(b)


#: The spike case: quiet load until SPIKE_AT_MS, then a spike, over a
#: SPIKE_HORIZON_MS stream; p99 of the completions inside the scaling
#: event must stay under SPIKE_P99_BAR_MS.
SPIKE_AT_MS = 500.0
SPIKE_HORIZON_MS = 2_000.0
SPIKE_P99_BAR_MS = 4_000.0


#: The policy ``make smoke-autoscale`` serves.
SMOKE_POLICY = Path(__file__).resolve().parents[2] / "tools" / "autoscale_smoke_policy.json"


class TestWindowInvariance:
    """An autoscaled serve is one serve at every window size: its pumps
    record each shard's arrivals before they arrive and hand requests
    to the migration at their arrival, so the ticks decide alike and
    the grow routes alike — also when one window covers the stream,
    where the arrays the grow bears must still serve what the
    migration dispatches to them."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_report_and_metrics_at_every_window(self, seed):
        policy = AutoscalePolicy.from_dict(json.loads(SMOKE_POLICY.read_text()))
        outputs = set()
        for window in (None, 16, 1024):
            recorder = MetricsRecorder(policy.cadence_ms, shards=2)
            report = run_fleet_scenario(
                FleetScenario(
                    shards=2,
                    v=9,
                    k=3,
                    duration_ms=400.0,
                    interarrival_ms=1.0,
                    read_fraction=0.7,
                    seed=seed,
                    workload_seed=seed,
                    window_size=window,
                    autoscale=policy,
                ),
                recorder=recorder,
            )
            assert report.autoscale.actions >= 1 and report.passed
            assert all(n > 0 for n in report.fleet.per_shard_scheduled)
            payload = canonical_payload(report.to_dict())
            # Engine labels name the execution mode ("heap" or
            # "windowed-pump"), and the scenario echoes its window.
            for key in ("engine", "engine_per_shard"):
                payload.pop(key)
            payload["scenario"].pop("window_size")
            rows = build_rows(recorder)
            rows[-1].pop("engine")
            outputs.add(
                (json.dumps(payload, sort_keys=True), render_metrics_jsonl(rows))
            )
        assert len(outputs) == 1


class TestSpikeSlo:
    def test_spike_grows_within_slo(self):
        """A 2-shard fleet (data planes, weighted placement) under quiet
        traffic (2 ms aggregate interarrival) is hit at 500 ms with a
        spike (0.7 ms, about 1,400 req/s, past the ~1,250 req/s two
        shards sustain).  The loop must grow the fleet through the
        live-migration path with nothing lost and every cutover
        verified, and its decision log must replay identically.  p99
        of the completions in the buckets an event window (decision
        tick to convergence) overlaps must stay under 4 s: the spike
        saturates the two shards and copies contend with serving, so
        the tail is seconds (about 2.1 s), and a cutover-hold or drain
        regression pushes it past 4 s long before anything is lost.  A
        fresh uniform stream over the grown fleet must then hold the
        1.3x balance bar (about 1.03)."""
        policy = AutoscalePolicy(
            cadence_ms=100.0,
            high_rate=0.6,
            sustain_ticks=2,
            cooldown_ms=500.0,
            grow_step=2,
            max_shards=8,
        )
        fleet = Fleet(2, 9, 3, seed=0, dataplane=True, placement="weighted")
        recorder = MetricsRecorder(policy.cadence_ms, shards=fleet.shards)
        fleet.attach_recorder(recorder)
        controller = AutoscaleController(
            fleet,
            policy,
            recorder,
            admission=AdmissionController(2),
            horizon_ms=SPIKE_HORIZON_MS,
        )
        controller.arm()
        quiet = generate_request_stream(
            WorkloadConfig(interarrival_ms=2.0, read_fraction=0.9, seed=7),
            SPIKE_AT_MS,
            fleet.capacity,
        )
        hot = generate_request_stream(
            WorkloadConfig(interarrival_ms=0.7, read_fraction=0.9, seed=8),
            SPIKE_HORIZON_MS - SPIKE_AT_MS,
            fleet.capacity,
        )
        during = fleet.serve_windows(
            ArrayWindows(
                np.concatenate([quiet[0], hot[0] + SPIKE_AT_MS]),
                np.concatenate([quiet[1], hot[1]]),
                np.concatenate([quiet[2], hot[2]]),
                256,
            )
        )
        fleet.sim.run()  # drain any copies still trailing the stream
        summary = controller.summary(verify_data=True, lost=during.lost)
        events = summary.events
        assert any(e["action"] == "grow" for e in events)
        assert during.lost == 0
        assert all(e["all_verified"] for e in events)
        assert summary.replay_identical

        iv = recorder.interval_ms
        windows = [(e["t_ms"], e["converged_at_ms"]) for e in events]
        parts = [
            digest
            for s in range(fleet.shards)
            for by_bucket in recorder.latency_buckets(s).values()
            for b, digest in by_bucket.items()
            if any(b * iv < hi and (b + 1) * iv > lo for lo, hi in windows)
        ]
        assert percentile_of_parts(parts, 99.0) <= SPIKE_P99_BAR_MS

        post = fleet.serve_stream(
            *generate_request_stream(
                WorkloadConfig(interarrival_ms=0.2, read_fraction=1.0, seed=8),
                8000.0,
                fleet.capacity,
            )
        )
        assert post.shard_balance <= 1.3


class TestServeCli:
    def _policy_file(self, tmp_path, **overrides):
        spec = dict(
            cadence_ms=50.0,
            high_rate=0.5,
            sustain_ticks=2,
            cooldown_ms=200.0,
            grow_step=2,
            max_shards=8,
        )
        spec.update(overrides)
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(spec))
        return path

    def test_serve_autoscale_writes_replayable_decision_log(
        self, tmp_path, capsys
    ):
        from repro.__main__ import main

        policy_file = self._policy_file(tmp_path)
        out = tmp_path / "report.json"
        decisions_out = tmp_path / "decisions.jsonl"
        code = main([
            "serve", "--shards", "2", "--duration", "600",
            "--interarrival", "0.5", "--seed", "7",
            "--autoscale", str(policy_file),
            "--decisions-out", str(decisions_out),
            "--json", str(out),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "autoscale grow at" in err
        assert "replay identical: True" in err
        payload = json.loads(out.read_text())
        assert payload["autoscale"]["ok"] is True
        # The written log replays byte-identically from its own
        # embedded snapshots.
        text = decisions_out.read_text()
        parsed = parse_decision_jsonl(text)
        policy = AutoscalePolicy.from_dict(
            payload["autoscale"]["policy"]
        )
        replayed = replay_decisions(policy, [d.snapshot for d in parsed])
        assert render_decision_jsonl(replayed) == text

    def test_metrics_out_does_not_change_autoscale_behavior(
        self, tmp_path, capsys
    ):
        """Regression pin: the recorder is the control loop's input,
        so requesting metrics files must not move the decision grid —
        the canonical report is identical with and without
        --metrics-out."""
        from repro.__main__ import main

        policy_file = self._policy_file(tmp_path)
        flags = [
            "serve", "--shards", "2", "--duration", "600",
            "--interarrival", "0.5", "--seed", "7",
            "--autoscale", str(policy_file),
        ]
        plain = tmp_path / "plain.json"
        instrumented = tmp_path / "instrumented.json"
        assert main(flags + ["--json", str(plain)]) == 0
        assert main(flags + [
            "--json", str(instrumented),
            "--metrics-out", str(tmp_path / "metrics.jsonl"),
        ]) == 0
        capsys.readouterr()
        a = canonical_payload(json.loads(plain.read_text()))
        b = canonical_payload(json.loads(instrumented.read_text()))
        assert json.dumps(a, sort_keys=True) == json.dumps(
            b, sort_keys=True
        )

    def test_autoscale_conflicts_with_grow(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main([
            "serve", "--grow", "2:4",
            "--autoscale", str(self._policy_file(tmp_path)),
        ])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_decisions_out_needs_autoscale(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main([
            "serve", "--decisions-out", str(tmp_path / "d.jsonl"),
        ])
        assert code == 2
        assert "--decisions-out needs --autoscale" in capsys.readouterr().err

    def test_bad_policy_file_is_a_clear_error(self, tmp_path, capsys):
        from repro.__main__ import main

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["serve", "--autoscale", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err
        assert main(["serve", "--autoscale", str(tmp_path / "nope")]) == 2
        assert "cannot read" in capsys.readouterr().err
