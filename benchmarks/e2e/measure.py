"""Measurement helpers shared by ``run.py`` and its workloads.

Nothing here imports ``repro``: ``run.py`` uses these helpers before it
has checked that the program is present, and the harness tests run them
without a fleet.

* :func:`supported_percentile` / :func:`percentile` — the reporting
  rule: a timing is given as its median plus the highest percentile
  that has at least ten samples beyond it.
* :class:`Tracer` / :func:`self_times` — in-memory spans (``run.py``
  writes them out as JSONL when a traced run ends) and the self-time
  arithmetic that turns them into per-layer numbers.
* :func:`host_fingerprint` / :func:`host_ref_s` — what the host was and
  a fixed calibration loop that flags host drift around a workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import time
from contextlib import contextmanager
from importlib import metadata

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10


def supported_percentile(n: int) -> float:
    """The highest ladder percentile with at least :data:`TAIL_SAMPLES`
    of ``n`` samples beyond it; the median when none qualifies (20
    samples give p50, 300 give p95, 4,800 give p99)."""
    best = PERCENTILE_LADDER[0]
    for p in PERCENTILE_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_SAMPLES - 1e-9:  # float slack
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def sha256_json(obj) -> str:
    """Digest of ``obj`` as sorted-key JSON (the canonical report hash)."""
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class Tracer:
    """Spans kept in memory for one traced run.

    A span is ``{"trace_id", "span_id", "parent", "name", "start",
    "end", "attrs"}`` with times in seconds since the tracer started.
    :meth:`span` nests by call structure; :meth:`add` records an
    interval timed elsewhere (e.g. inside a generator) under the span
    currently open.
    """

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self.t0 = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self.t0

    def _new(self, name: str, start: float, attrs: dict) -> dict:
        span = {
            "trace_id": self.trace_id,
            "span_id": len(self.spans) + 1,
            "parent": self._open[-1]["span_id"] if self._open else None,
            "name": name,
            "start": start,
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        span = self._new(name, self.now(), attrs)
        self._open.append(span)
        try:
            yield span
        finally:
            span["end"] = self.now()
            self._open.pop()

    def add(self, name: str, start: float, end: float, **attrs) -> dict:
        span = self._new(name, start, attrs)
        span["end"] = end
        return span


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its
    children cover (overlapping children count once)."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        pieces = sorted(
            (max(c["start"], lo), min(c["end"], hi))
            for c in children.get(s["span_id"], ())
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in pieces:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["span_id"]] = (hi - lo) - covered
    return out


# ----------------------------------------------------------------------
# Host
# ----------------------------------------------------------------------


def host_fingerprint() -> dict:
    """Usable CPUs, Python and NumPy versions."""
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def host_ref_s(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a reading of how fast
    the host runs this interpreter right now."""

    def loop() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc += i * i % 7
        return time.perf_counter() - t0

    return statistics.median(loop() for _ in range(reps))
