"""End-to-end benchmark of the fleet service: how fast ``serve`` and the
socket front-end turn a request stream into a verified report.

Usage, from the root of the repository::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                  [--seconds S] [--trace 0|1] [--out DIR]

With ``--workload`` it runs that workload once: with ``--trace 0`` it
measures the end-to-end metrics, with ``--trace 1`` a timed loop plus
one traced operation for the per-layer metrics.  Without
``--workload`` it runs every workload both ways.  ``--seconds``
defaults to ``run_seconds`` in ``BENCHMARK.json``.  Each workload runs
in a fresh interpreter (``workloads.py``).  Every metric is printed as
``workload metric value unit (n=samples)``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A workload that crashes or runs out of time counts
as one failed operation and reports no metrics.  The exit status is 1
when an output check fails and 2, with no result line, when the
program to measure is missing.

``README.md`` beside this file explains the workloads, the metrics, and
how the bounds in ``BENCHMARK.json`` were set.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from measure import host_fingerprint, host_ref_s, percentile, supported_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: The script that runs one workload in a fresh interpreter.
WORKLOAD_SCRIPT = HERE / "workloads.py"
DEFAULT_SEED = 7
#: Host-drift threshold between the calibration readings around a workload.
DRIFT = 0.10
#: Wall-clock limit on one workload process.
CHILD_TIMEOUT_S = 150
#: Percentile of an input's operation wall times that ``sim_rps`` is
#: computed from.  The host runs at two speeds about 1.5x apart, in
#: stretches of seconds: a run's median follows the share of it spent
#: slow, its 10th percentile (the fastest operation when there are
#: fewer than ten) does not.
OP_PERCENTILE = 10

#: For each per-layer metric: the end-to-end metric it should move and
#: the workloads on which it should move it.
LAYER_TARGETS = {
    "core.layout_build_s": ("setup_s", ["fleet_mixed", "fleet_rebuild", "fleet_stream"]),
    "core.layout_size": ("setup_s", ["fleet_rebuild"]),
    "core.layout_stripes": ("setup_s", ["fleet_rebuild"]),
    "layouts.table_bytes": ("sim_rps", ["frontend_socket"]),
    "verify.check_fleet_s": ("setup_s", ["fleet_mixed", "fleet_rebuild", "fleet_stream"]),
    "sim.generate_s": ("sim_rps", ["fleet_mixed", "fleet_stream"]),
    "service.route_s": ("sim_rps", ["frontend_socket", "fleet_mixed"]),
    "layouts.map_batch_s": ("sim_rps", ["frontend_socket", "fleet_mixed"]),
    "service.execute_s": ("sim_rps", ["fleet_mixed", "fleet_stream", "frontend_socket"]),
    "service.worker_utilization": ("sim_rps", ["fleet_rebuild"]),
    "sim.tie_abort_replays": ("sim_rps", ["fleet_mixed", "fleet_stream"]),
    "sim.fast_path_shards": ("sim_rps", ["fleet_mixed", "fleet_stream"]),
    "sim.window_passes": ("sim_rps", ["fleet_stream"]),
    "frontend.transport_ms_p50": ("sim_rps", ["frontend_socket"]),
    "frontend.codec_ms_p50": ("sim_rps", ["frontend_socket"]),
    "runtime.compile_cache_hit_ratio": ("sim_rps", ["frontend_socket"]),
    "runtime.pool_warm_hits": ("sim_rps", ["frontend_socket"]),
    "runtime.shm_bytes": ("peak_rss_mb", ["frontend_socket"]),
    "runtime.ipc_bytes_avoided_per_serve": ("sim_rps", ["frontend_socket"]),
    "trace.overhead_ratio": ("sim_rps", ["fleet_mixed", "fleet_rebuild", "fleet_stream",
                                         "frontend_socket"]),
}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def expected_hashes() -> dict:
    """Committed output hashes of each workload at the default seed."""
    return json.loads((HERE / "baseline.json").read_text())["sha256"]


def run_child(spec: dict) -> dict:
    """Run one workload in a fresh interpreter and return its result.

    The child leads a process group of its own.  Whatever is left of
    that group when the call returns or raises (a front-end server,
    pool workers) is killed, so no process outlives the call."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    with subprocess.Popen(
        [sys.executable, str(WORKLOAD_SCRIPT), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True,
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"ran over {CHILD_TIMEOUT_S} s") from None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"exited with {proc.returncode}")
    return json.loads(lines[-1])


def sim_rps(ops: dict) -> float:
    """Requests per second over all inputs of a run, each input taking
    its :data:`OP_PERCENTILE` wall time per operation."""
    requests = sum(op["requests"] for op in ops.values())
    seconds = sum(percentile(op["walls"], OP_PERCENTILE) for op in ops.values())
    return requests / seconds


def end_to_end(res: dict) -> dict:
    """End-to-end values with their sample counts."""
    ops = sum(len(op["walls"]) for op in res["ops"].values())
    return {
        "setup_s": (statistics.median(res["setup_s"]), len(res["setup_s"])),
        "sim_rps": (sim_rps(res["ops"]), ops),
        "peak_rss_mb": (res["peak_rss_mb"], 1),
    }


def latency_lines(name: str, label: str, seconds: list[float]) -> list[str]:
    """Median and the highest supported percentile of a timing, in ms."""
    n = len(seconds)
    tail = supported_percentile(n)
    lines = [f"{name} {label}_p50 {statistics.median(seconds) * 1e3:.6g} ms (n={n})"]
    if tail > 50:
        lines.append(
            f"{name} {label}_p{tail:g} {percentile(seconds, tail) * 1e3:.6g} ms (n={n})"
        )
    return lines


def print_info(name: str, res: dict) -> None:
    print(f"{name} info output_sha256 {res['output_sha256']}")
    print(f"{name} info engines {json.dumps(res['engines'], sort_keys=True)}")
    for kind, op in res["ops"].items():
        print(f"{name} info {kind}_requests {op['requests']}")
        for line in latency_lines(name, f"{kind}_ms", op["walls"]):
            print(line)
    if "submit_walls" in res:
        for line in latency_lines(name, "submit_ms", res["submit_walls"]):
            print(line)


def layer_metrics(name: str, res: dict, out: Path, failures: list[str]) -> dict:
    """Per-layer values of a traced run; appends its spans to
    ``out/trace.jsonl``.  A missing value is a failure."""
    layer = res["layer"]
    missing = sorted(set(LAYER_TARGETS) - set(layer))
    if missing:
        failures.append(f"no value for {missing}")
        return {}
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trace.jsonl", "a") as f:
        f.writelines(json.dumps(s, sort_keys=True) + "\n" for s in res["spans"])
    coverage = [s["attrs"]["stage_coverage"] for s in res["spans"]
                if "stage_coverage" in s["attrs"]]
    print(f"{name} info trace.stage_coverage {coverage[0]:.4f}")
    return {k: (layer[k], 1) for k in LAYER_TARGETS}


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 out: Path, bench: dict) -> tuple[dict, int, list[str]]:
    """Run one workload; print its metrics; return (metrics, attempted,
    failures).  A workload process that crashes or runs out of time is
    one failed operation with no metrics."""
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    spec = {
        "mode": "run", "workload": name, "seed": seed, "seconds": seconds,
        "trace": trace,
        "expect": expected_hashes().get(name) if seed == DEFAULT_SEED else None,
    }
    before = host_ref_s()
    try:
        res = run_child(spec)
    except (OSError, RuntimeError, ValueError) as e:
        res = {"attempted": 1, "failures": [f"workload process: {e}"]}
    after = host_ref_s()

    print(f"{name} info host_ref_s before={before:.6f} after={after:.6f}"
          + (" host_unstable" if abs(after - before) > DRIFT * min(before, after) else ""))
    failures = list(res["failures"])
    metrics = {}
    if "ops" in res:  # the timed loop finished
        print_info(name, res)
        metrics = layer_metrics(name, res, out, failures) if trace else end_to_end(res)
    for metric, (value, n) in metrics.items():
        print(f"{name} {metric} {value:.6g} {units[metric]} (n={n})")
    for failure in failures:
        print(f"{name} FAILED {failure}")
    values = {m: {"value": v, "unit": units[m]} for m, (v, _) in metrics.items()}
    # A missing layer value is one more checked operation.
    attempted = res["attempted"] + len(failures) - len(res["failures"])
    return values, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    out = args.out if args.out.is_absolute() else ROOT / args.out
    if args.workload is None or args.trace:
        (out / "trace.jsonl").unlink(missing_ok=True)
    print(f"host {json.dumps(host_fingerprint(), sort_keys=True)}")

    if args.workload is not None:
        runs = [(args.workload, bool(args.trace))]
    else:
        runs = [(name, trace) for name in names for trace in (False, True)]
    attempted, failed, summary = 0, 0, {}
    for name, trace in runs:
        values, n, failures = run_workload(
            name, args.seed, seconds, trace, out, bench
        )
        attempted += n
        failed += len(failures)
        summary.setdefault(name, {}).update(values)

    metrics = summary[args.workload] if args.workload is not None else summary
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
