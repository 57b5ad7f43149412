"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``plan V K``       — show every applicable construction, best first.
* ``build V K``      — build the best layout, print metrics (and the
                       layout table for small arrays).
* ``design V K``     — build the smallest BIBD, print its parameters.
* ``census VMAX``    — feasibility census over v <= VMAX (paper headline).
* ``rebuild V K``    — simulate a disk failure + rebuild.
* ``verify [V K]``   — conformance-check constructions against the
                       paper's Conditions 1-4 (``--all``: the full
                       construction-family sweep).
* ``serve``          — run a sharded fleet scenario (workload mix +
                       failure schedule + admission-controlled
                       concurrent rebuilds + live ``--grow``/
                       ``--shrink`` volume migration) and emit a JSON
                       report (see ``docs/SCENARIOS.md``).
* ``trace FILE``     — summarize a ``serve --trace-out`` span file.
"""

from __future__ import annotations

import argparse
import math
import sys

from .core import census, enumerate_plans, plan_layout
from .designs import best_design
from .layouts import evaluate_layout
from .sim import simulate_rebuild


def _cmd_plan(args: argparse.Namespace) -> int:
    plans = enumerate_plans(args.v, args.k)
    print(f"{'method':<18} {'size':>8} {'balanced':>9}  detail")
    for p in plans:
        print(f"{p.method:<18} {p.predicted_size:>8} {str(p.balanced):>9}  {p.detail}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    plan = plan_layout(args.v, args.k, max_size=args.max_size)
    layout = plan.build()
    layout.validate()
    m = evaluate_layout(layout)
    print(f"method: {plan.method}  {plan.detail}")
    print(m.summary())
    if layout.size <= 40 and layout.v <= 16:
        print(layout.render())
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    d = best_design(args.v, args.k)
    d.verify()
    print(f"{d.name}: {d.parameter_string()}")
    if args.blocks:
        for blk in d.blocks:
            print(" ", blk)
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    result = census(
        list(range(5, args.vmax + 1)),
        list(range(2, args.kmax + 1)),
        limit=args.max_size,
    )
    print(result.table())
    return 0


def _cmd_rebuild(args: argparse.Namespace) -> int:
    plan = plan_layout(args.v, args.k, max_size=args.max_size)
    layout = plan.build()
    rep = simulate_rebuild(
        layout, failed_disk=args.failed, parallelism=args.parallelism,
        verify_data=args.verify,
    )
    fracs = rep.read_fractions(layout.size)
    survivors = [f for d, f in enumerate(fracs) if d != args.failed]
    print(f"layout: {plan.method} (size {layout.size})")
    print(f"rebuilt {rep.stripes_rebuilt} stripes in {rep.duration_ms:.0f} ms")
    print(f"survivor read fraction: max {max(survivors):.3f} "
          f"(analytic (k-1)/(v-1) = {(args.k - 1) / (args.v - 1):.3f})")
    if args.verify:
        print(f"data verified bit-for-bit: {rep.data_verified}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import default_scenarios, run_conformance_sweep, scenarios_for_pair

    if args.v is not None and args.k is not None:
        scenarios = scenarios_for_pair(args.v, args.k, max_size=args.max_size)
        if not scenarios:
            print(
                f"error: no construction for v={args.v}, k={args.k} fits "
                f"size {args.max_size}",
                file=sys.stderr,
            )
            return 2
    elif args.all:
        scenarios = default_scenarios(max_size=args.max_size)
    else:
        print("error: give V K or --all", file=sys.stderr)
        return 2

    results = run_conformance_sweep(scenarios)
    failures = 0
    for sc, rep in results:
        if rep.passed and not args.verbose:
            print(
                f"PASS {sc.family:<14} {sc.name:<24} v={rep.v} size={rep.size} b={rep.b}"
            )
        else:
            if not rep.passed:
                failures += 1
            print(("PASS " if rep.passed else "FAIL ") + f"{sc.family:<14} {sc.name}")
            print(rep.summary())
    print(
        f"{len(results)} scenarios checked, {failures} with violations "
        f"(Conditions 1-4)"
    )
    return 0 if failures == 0 else 1


def _parse_failure_spec(spec: str) -> tuple["FailureEvent", ...]:
    """Parse ``time:array:disk[,time:array:disk...]`` failure specs."""
    from .service import FailureEvent

    events = []
    for part in spec.split(","):
        fields = part.split(":")
        if len(fields) != 3:
            raise ValueError(
                f"bad failure spec {part!r} (want time:array:disk)"
            )
        events.append(
            FailureEvent(
                time_ms=float(fields[0]),
                array=int(fields[1]),
                disk=int(fields[2]),
            )
        )
    return tuple(events)


def _parse_reshape_spec(spec: str, flag: str, grow: bool) -> tuple[int, int]:
    """Parse a ``FROM:TO`` reshape spec and sanity-check direction."""
    fields = spec.split(":")
    if len(fields) != 2:
        raise ValueError(f"bad {flag} spec {spec!r} (want FROM:TO)")
    start, target = int(fields[0]), int(fields[1])
    if grow and target <= start:
        raise ValueError(f"{flag} {spec!r} must increase the shard count")
    if not grow and target >= start:
        raise ValueError(f"{flag} {spec!r} must decrease the shard count")
    return start, target


def _vm_hwm_mb(status_path: str = "/proc/self/status") -> float | None:
    """Peak RSS from procfs ``VmHWM`` in MiB, or None when the file is
    unreadable or carries no high-water-mark line (non-Linux)."""
    try:
        with open(status_path) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _rusage_mb(ru_maxrss: int, platform: str) -> float:
    """Normalize a ``getrusage`` peak to MiB: the BSD interface leaves
    the unit to the platform — KiB everywhere that matters except
    macOS, which reports bytes."""
    if platform == "darwin":
        ru_maxrss //= 1024
    return ru_maxrss / 1024.0


def peak_rss_mb() -> float | None:
    """Peak RSS of this process in MiB, or None when unavailable (the
    ``serve --max-rss-mb`` gate's reading).

    Prefers ``/proc/self/status`` ``VmHWM`` (per-mm, so it resets
    across ``exec`` — ``ru_maxrss`` is inherited by subprocesses on
    Linux, which would make a child's reading reflect the parent's
    high-water mark); falls back to ``getrusage`` elsewhere.
    """
    hwm = _vm_hwm_mb()
    if hwm is not None:
        return hwm
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    return _rusage_mb(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, sys.platform
    )


def _load_autoscale_policy(path: str) -> "AutoscalePolicy":
    """Load and validate an ``--autoscale`` policy JSON file."""
    import json
    from pathlib import Path

    from .service import AutoscalePolicy

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(
            f"cannot read --autoscale policy {path}: "
            f"{exc.strerror or exc}"
        ) from exc
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"--autoscale policy {path} is not valid JSON "
            f"({exc.msg}, line {exc.lineno})"
        ) from exc
    if not isinstance(spec, dict):
        raise ValueError(
            f"--autoscale policy {path} must be a JSON object"
        )
    return AutoscalePolicy.from_dict(spec)


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from .service import (
        FleetScenario,
        default_failure_schedule,
        run_fleet_scenario,
    )

    if args.failures is not None and args.failures < 0:
        raise ValueError(f"--failures must be >= 0, got {args.failures}")
    if args.max_rss_mb is not None and not (
        math.isfinite(args.max_rss_mb) and args.max_rss_mb > 0
    ):
        raise ValueError(
            f"--max-rss-mb must be finite and > 0, got {args.max_rss_mb:g}"
        )
    if args.smoke:
        # The CI/make-check quick mode: still a real fleet with a real
        # concurrent failure pair, just a short horizon.
        args.duration = min(args.duration, 400.0)
        args.interarrival = max(args.interarrival, 1.0)

    reshape_to = None
    if args.grow:
        args.shards, reshape_to = _parse_reshape_spec(
            args.grow, "--grow", grow=True
        )
    elif args.shrink:
        args.shards, reshape_to = _parse_reshape_spec(
            args.shrink, "--shrink", grow=False
        )

    policy = None
    if args.autoscale:
        if reshape_to is not None:
            raise ValueError(
                "--autoscale plans reshapes itself — it is mutually "
                "exclusive with --grow/--shrink"
            )
        policy = _load_autoscale_policy(args.autoscale)
    elif args.decisions_out:
        raise ValueError("--decisions-out needs --autoscale")

    if args.failure_spec:
        failures = _parse_failure_spec(args.failure_spec)
    else:
        # A reshape copies volumes between most arrays, and failures
        # must stay off the arrays a migration touches — so the default
        # failure pair applies only to pure failure scenarios.
        count = args.failures
        if count is None:
            count = 0 if (reshape_to is not None or policy is not None) else 2
        failures = default_failure_schedule(
            args.shards,
            args.v,
            count,
            args.duration * 0.25,
        )

    scenario = FleetScenario(
        shards=args.shards,
        v=args.v,
        k=args.k,
        duration_ms=args.duration,
        interarrival_ms=args.interarrival,
        read_fraction=args.read_fraction,
        zipf_theta=args.zipf,
        workload_seed=args.seed,
        failures=failures,
        admission=args.admission,
        rebuild_parallelism=args.rebuild_parallelism,
        verify_data=not args.no_verify,
        check_conformance=not args.no_conformance,
        volumes=args.volumes,
        placement=args.placement,
        reshape_to=reshape_to,
        reshape_at_ms=args.reshape_at,
        write_policy=args.write_policy,
        window_size=args.window,
        seed=args.seed,
        autoscale=policy,
    )
    recorder = None
    if args.metrics_out or args.metrics_prom:
        from .obs import MetricsRecorder
        from .obs.snapshot import check_snapshot_grid

        interval = args.metrics_interval
        if interval is None:
            # Default grid: 20 snapshot buckets across the horizon.
            # With an autoscale policy the recorder is the control
            # loop's input, so the default pins the grid to the
            # policy cadence — requesting metrics files must not
            # change what the autoscaler sees (an explicit
            # --metrics-interval changes the decision inputs, and is
            # validated against the policy lookback).
            if policy is not None:
                interval = policy.cadence_ms
            else:
                interval = args.duration / 20.0
        recorder = MetricsRecorder(interval, shards=args.shards)
        check_snapshot_grid(args.duration / interval, interval)
    if args.listen:
        from .service import run_frontend

        host, sep, port_text = args.listen.rpartition(":")
        if not sep or not port_text.isdigit():
            raise ValueError(
                f"bad --listen address {args.listen!r} (want HOST:PORT)"
            )
        if args.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {args.workers}")

        def ready(addr: tuple) -> None:
            print(f"serving on {addr[0]}:{addr[1]}", file=sys.stderr)

        return run_frontend(
            scenario,
            host=host or "127.0.0.1",
            port=int(port_text),
            ready=ready,
            workers=args.workers,
        )
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    unexpected_fallback = False
    if args.workers == 1:
        # The default stays the plain single-process path, untouched.
        payload = run_fleet_scenario(scenario, recorder=recorder).to_dict()
    else:
        from .service import run_fleet_scenario_parallel

        run = run_fleet_scenario_parallel(
            scenario, workers=args.workers, recorder=recorder
        )
        payload = run.to_dict()
        ex = run.execution
        if ex.serial_fallback:
            print(
                f"parallel: serial fallback ({ex.fallback_reason})",
                file=sys.stderr,
            )
            # A reshape legitimately collapses to serial; anything else
            # downgrading under --smoke is a regression the CI gate
            # must catch, not a note buried in stderr.
            if args.smoke and reshape_to is None:
                unexpected_fallback = True
                print(
                    "serve --smoke: unexpected serial fallback with "
                    f"--workers {args.workers}",
                    file=sys.stderr,
                )
        else:
            print(
                f"parallel: {len(ex.groups)} shard groups on "
                f"{ex.workers} workers ({ex.mp_context}, "
                f"{ex.cpu_count} CPUs available)",
                file=sys.stderr,
            )

    fleet = payload["fleet"]
    lost = (
        f", {fleet['lost_to_failures']} lost to failures"
        if fleet["lost_to_failures"]
        else ""
    )
    print(
        f"fleet: {fleet['shards']} arrays of v={args.v} k={args.k}, "
        f"{fleet['completed']}/{fleet['scheduled']} requests in "
        f"{fleet['duration_ms']:.0f} ms "
        f"({fleet['throughput_rps']:,.0f} req/s{lost})",
        file=sys.stderr,
    )
    if payload["conformance"] is not None:
        print(
            f"conformance: {'PASS' if payload['conformance']['passed'] else 'FAIL'} "
            f"(Conditions 1-4, {payload['conformance']['shards_checked']} shards)",
            file=sys.stderr,
        )
    for r in payload["rebuilds"]:
        verified = {True: "verified", False: "MISMATCH", None: "unverified"}[
            r["data_verified"]
        ]
        print(
            f"rebuild array {r['array']} disk {r['failed_disk']}: "
            f"waited {r['admission_delay_ms']:.0f} ms, took "
            f"{r['duration_ms']:.0f} ms, {r['stripes_rebuilt']} stripes, "
            f"{verified}",
            file=sys.stderr,
        )
    if payload["rebuilds"]:
        verdict = (
            f"all verified: {payload['all_rebuilt_verified']}"
            if not args.no_verify
            else "verification skipped (--no-verify)"
        )
        print(
            f"concurrent rebuilds observed: {payload['max_concurrent_rebuilds']} "
            f"(admission cap {args.admission}); {verdict}",
            file=sys.stderr,
        )
    mig = payload.get("migration")
    if mig is not None:
        verified = (
            f"all verified: {mig['all_verified']}"
            if not args.no_verify
            else "verification skipped (--no-verify)"
        )
        print(
            f"migration: {args.shards} -> {mig['target_shards']} shards, "
            f"{mig['completed_moves']}/{mig['planned_moves']} volumes moved "
            f"({mig['units_copied']} units copied, "
            f"{mig['held_requests']} requests held at cutover, "
            f"{mig['forwarded_writes']} writes mirrored); "
            f"zero lost: {mig['zero_lost']}; {verified}",
            file=sys.stderr,
        )
    asum = payload.get("autoscale")
    if asum is not None:
        for ev in asum["events"]:
            print(
                f"autoscale {ev['action']} at {ev['t_ms']:.0f} ms "
                f"({ev['reason']}): {ev['from_shards']} -> "
                f"{ev['to_shards']} shards, "
                f"{ev['completed_moves']}/{ev['planned_moves']} volumes "
                f"moved, converged at {ev['converged_at_ms']:.0f} ms "
                f"(verified={ev['all_verified']})",
                file=sys.stderr,
            )
        print(
            f"autoscale: {len(asum['decisions'])} ticks, "
            f"{len(asum['events'])} actions, final "
            f"{asum['final_shards']} shards; replay identical: "
            f"{asum['replay_identical']}; zero lost: {asum['zero_lost']}",
            file=sys.stderr,
        )
        if args.decisions_out:
            from pathlib import Path

            log_text = "".join(
                json.dumps(d, sort_keys=True) + "\n"
                for d in asum["decisions"]
            )
            Path(args.decisions_out).write_text(log_text)
            print(
                f"wrote {args.decisions_out} "
                f"({len(asum['decisions'])} decisions)",
                file=sys.stderr,
            )
    rss_exceeded = False
    peak_mb = peak_rss_mb()
    if peak_mb is not None:
        print(f"peak rss: {peak_mb:.1f} MiB", file=sys.stderr)
        if args.max_rss_mb is not None and peak_mb > args.max_rss_mb:
            rss_exceeded = True
            print(
                f"serve: peak RSS {peak_mb:.1f} MiB exceeds "
                f"--max-rss-mb {args.max_rss_mb:g}",
                file=sys.stderr,
            )
    elif args.max_rss_mb is not None:
        print(
            "serve: --max-rss-mb ignored (resource module unavailable)",
            file=sys.stderr,
        )

    if recorder is not None or args.trace_out:
        from pathlib import Path

        if args.metrics_out:
            from .obs import build_rows, render_metrics_jsonl

            rows = build_rows(recorder, payload)
            Path(args.metrics_out).write_text(render_metrics_jsonl(rows))
            print(
                f"wrote {args.metrics_out} ({len(rows)} rows)",
                file=sys.stderr,
            )
        if args.metrics_prom:
            from .obs import prometheus_text

            Path(args.metrics_prom).write_text(
                prometheus_text(recorder, payload)
            )
            print(f"wrote {args.metrics_prom}", file=sys.stderr)
        if args.trace_out:
            from .obs import render_trace_jsonl, spans_from_payload

            spans = spans_from_payload(payload)
            Path(args.trace_out).write_text(render_trace_jsonl(spans))
            print(
                f"wrote {args.trace_out} ({len(spans)} spans)",
                file=sys.stderr,
            )

    text = json.dumps(payload, indent=2)
    if args.json:
        from pathlib import Path

        Path(args.json).write_text(text + "\n")
        print(f"wrote {args.json}", file=sys.stderr)
    else:
        print(text)
    ok = payload["passed"] and not unexpected_fallback and not rss_exceeded
    return 0 if ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .obs import parse_trace_jsonl, summarize_trace

    try:
        text = Path(args.trace).read_text()
    except OSError as exc:
        raise ValueError(
            f"cannot read trace file {args.trace}: {exc.strerror or exc}"
        ) from exc
    try:
        spans = parse_trace_jsonl(text)
    except ValueError as exc:
        raise ValueError(f"{args.trace}: {exc}") from exc
    if not spans:
        raise ValueError(
            f"{args.trace} contains no spans — empty trace file "
            "(was it written by serve --trace-out?)"
        )
    metrics_rows = None
    if args.metrics:
        try:
            metrics_text = Path(args.metrics).read_text()
        except OSError as exc:
            raise ValueError(
                f"cannot read metrics file {args.metrics}: "
                f"{exc.strerror or exc}"
            ) from exc
        metrics_rows = []
        for i, line in enumerate(metrics_text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                metrics_rows.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{args.metrics}: line {i} is not valid JSON "
                    f"({exc.msg}) — truncated or corrupt metrics file?"
                ) from exc
    runtime = None
    if args.report:
        try:
            report_text = Path(args.report).read_text()
        except OSError as exc:
            raise ValueError(
                f"cannot read report file {args.report}: "
                f"{exc.strerror or exc}"
            ) from exc
        try:
            report = json.loads(report_text)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{args.report}: not valid JSON ({exc.msg})"
            ) from exc
        if not isinstance(report, dict):
            raise ValueError(f"{args.report}: expected a report object")
        runtime = report.get("runtime")
    print(summarize_trace(spans, metrics_rows, runtime=runtime))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Parity-declustered layout toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="enumerate constructions for (v, k)")
    p.add_argument("v", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("build", help="build the best layout for (v, k)")
    p.add_argument("v", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--max-size", type=int, default=10_000)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("design", help="build the smallest BIBD for (v, k)")
    p.add_argument("v", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--blocks", action="store_true", help="print all blocks")
    p.set_defaults(fn=_cmd_design)

    p = sub.add_parser("census", help="feasibility census (paper headline)")
    p.add_argument("vmax", type=int)
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--max-size", type=int, default=10_000)
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("rebuild", help="simulate failure + rebuild")
    p.add_argument("v", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--failed", type=int, default=0)
    p.add_argument("--parallelism", type=int, default=4)
    p.add_argument("--max-size", type=int, default=10_000)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=_cmd_rebuild)

    p = sub.add_parser(
        "verify", help="conformance-check constructions (Conditions 1-4)"
    )
    p.add_argument("v", nargs="?", type=int, default=None)
    p.add_argument("k", nargs="?", type=int, default=None)
    p.add_argument(
        "--all", action="store_true", help="sweep every construction family"
    )
    p.add_argument("--max-size", type=int, default=10_000)
    p.add_argument(
        "--verbose", action="store_true", help="full per-condition rows"
    )
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "serve",
        help="run a sharded fleet scenario (failures + rebuilds), emit JSON",
    )
    p.add_argument("--shards", type=int, default=8, help="arrays in the fleet")
    p.add_argument("--v", type=int, default=9, help="disks per array")
    p.add_argument("--k", type=int, default=3, help="stripe size")
    p.add_argument(
        "--duration", type=float, default=1500.0, help="workload horizon (ms)"
    )
    p.add_argument(
        "--interarrival",
        type=float,
        default=0.5,
        help="aggregate fleet mean interarrival (ms)",
    )
    p.add_argument("--read-fraction", type=float, default=0.7)
    p.add_argument("--zipf", type=float, default=0.0, help="address skew theta")
    p.add_argument(
        "--failures",
        type=int,
        default=None,
        help="simultaneous single-disk failures on distinct arrays "
        "(default: 2, or 0 when --grow/--shrink is given)",
    )
    p.add_argument(
        "--failure-spec",
        default=None,
        help="explicit schedule time:array:disk[,...] (overrides --failures)",
    )
    reshape = p.add_mutually_exclusive_group()
    reshape.add_argument(
        "--grow",
        default=None,
        metavar="FROM:TO",
        help="start with FROM arrays and live-migrate to TO mid-run "
        "(volume copies verified bit-for-bit, zero lost requests)",
    )
    reshape.add_argument(
        "--shrink",
        default=None,
        metavar="FROM:TO",
        help="start with FROM arrays and drain down to TO mid-run",
    )
    p.add_argument(
        "--reshape-at",
        type=float,
        default=None,
        help="when the grow/shrink fires (ms, at most --duration; "
        "default: duration/4)",
    )
    p.add_argument(
        "--autoscale",
        default=None,
        metavar="POLICY.json",
        help="run the autoscaling control loop with this policy (JSON, "
        "see docs/SCENARIOS.md): poll live metrics on a sim-clock "
        "cadence and grow/shrink the fleet through the migration path; "
        "mutually exclusive with --grow/--shrink",
    )
    p.add_argument(
        "--decisions-out",
        default=None,
        metavar="FILE",
        help="write the autoscale decision log as JSONL (replayable "
        "byte-identically from the recorded snapshots; needs "
        "--autoscale)",
    )
    p.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="run as a long-lived front-end: accept request streams "
        "over a local socket (line-delimited JSON ops) and serve each "
        "through this scenario's warm runtime until a shutdown op "
        "(combine with --workers N for a persistent worker pool; "
        "repeated serves reuse the pool and the compiled-artifact "
        "cache, reports stay canonically identical to batch)",
    )
    p.add_argument(
        "--volumes",
        type=int,
        default=None,
        metavar="N",
        help="logical volumes in the fleet (default: 16 per shard); a "
        "small count can split a reshape's move graph into independent "
        "components that --workers runs in parallel",
    )
    p.add_argument(
        "--placement",
        choices=("ring", "p2c", "weighted"),
        default="ring",
        help="volume placement policy (p2c/weighted tighten request "
        "balance from ~2x to <=1.3x max/min)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for independent shard groups (default 1 "
        "= single-process; reports are byte-identical across worker "
        "counts, see docs/SCENARIOS.md)",
    )
    p.add_argument(
        "--admission",
        type=int,
        default=2,
        help="max rebuilds running concurrently fleet-wide",
    )
    p.add_argument("--rebuild-parallelism", type=int, default=4)
    p.add_argument(
        "--write-policy",
        choices=("rmw", "write_through"),
        default="rmw",
        help="write handling: rmw = read-modify-write parity update "
        "(two chained phases), write_through = single-phase full-stripe "
        "writes (analytically solvable)",
    )
    p.add_argument(
        "--no-verify",
        action="store_true",
        help="skip data planes / bit-for-bit rebuild verification",
    )
    p.add_argument(
        "--no-conformance",
        action="store_true",
        help="skip the Conditions 1-4 gate",
    )
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="N",
        help="stream the workload in windows of N requests instead of "
        "materializing it (constant peak memory at any horizon; the "
        "report is byte-identical to the materialized run)",
    )
    p.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        metavar="MB",
        help="fail (exit 1) if peak RSS exceeds this many MiB; peak is "
        "printed to stderr either way",
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="quick mode for CI: short horizon, light load",
    )
    p.add_argument(
        "--json", default=None, help="write the report here instead of stdout"
    )
    p.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="record sim-clock metrics and write periodic snapshot rows "
        "as JSONL (byte-identical across --window sizes and --workers "
        "counts; see docs/OBSERVABILITY.md)",
    )
    p.add_argument(
        "--metrics-interval",
        type=float,
        default=None,
        metavar="MS",
        help="snapshot grid width in simulated ms (default: duration/20; "
        "at most 10,000 snapshots over the horizon)",
    )
    p.add_argument(
        "--metrics-prom",
        default=None,
        metavar="FILE",
        help="also write a Prometheus text exposition of the end state",
    )
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write scenario/shard/rebuild/migration spans as JSONL "
        "(summarize with `python -m repro trace FILE`)",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "trace",
        help="summarize a --trace-out span file (phases, timelines)",
    )
    p.add_argument("trace", help="span JSONL file from serve --trace-out")
    p.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="matching report JSON (serve --json): adds the warm "
        "runtime's pool/cache/shm counters to the summary",
    )
    p.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="matching --metrics-out file: adds balance-over-time and "
        "the worst-balance snapshot to the summary",
    )
    p.set_defaults(fn=_cmd_trace)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
