"""Synthetic workload generation.

Open-loop Poisson arrivals over the logical data address space, with a
configurable read fraction and either uniform or Zipf-skewed addresses
(the paper's motivating OLTP workloads are small, random, and skewed).
Everything is seeded for reproducibility.

Generation and execution are decoupled: the stream is drawn as vectors
by :func:`repro.sim.compile.generate_request_stream`, pre-mapped with
one ``map_batch`` call, and then pumped through the compiled executor
(:func:`repro.sim.compile.schedule_compiled_scalar` replays the same
stream request by request through the controller's scalar path — the
equivalence oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

from .compile import StreamWindows, compile_workload, schedule_compiled
from .controller import ArrayController

__all__ = ["WorkloadConfig", "StreamWindows", "drive_workload"]


@dataclass(frozen=True)
class WorkloadConfig:
    """Synthetic workload parameters.

    Attributes:
        interarrival_ms: mean of the exponential interarrival time.
        read_fraction: probability a request is a read.
        zipf_theta: 0.0 = uniform addresses; higher skews toward hot
            units (probability ∝ 1/(rank+1)^theta).
        seed: RNG seed.
    """

    interarrival_ms: float = 5.0
    read_fraction: float = 0.7
    zipf_theta: float = 0.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.interarrival_ms <= 0:
            raise ValueError("interarrival_ms must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be within [0, 1]")
        if self.zipf_theta < 0:
            raise ValueError("zipf_theta must be >= 0")


def drive_workload(
    controller: ArrayController,
    config: WorkloadConfig,
    duration_ms: float,
) -> int:
    """Schedule Poisson arrivals on the controller's simulator.

    Arrivals are all pre-scheduled (open loop: request issue does not
    wait for completions, so queueing shows up as latency), relative to
    the current simulated time — a workload can start mid-simulation
    (e.g. during a rebuild).  The whole stream is compiled (generated
    and address-translated as vectors) up front and scheduled on the
    compiled executor.  Returns the number of requests scheduled; run
    ``controller.sim.run()`` to execute them.
    """
    return schedule_compiled(
        controller, compile_workload(controller.mapper, config, duration_ms)
    )
