"""Configuration of one process-runtime run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.runtime.resilience.scaling import ScaleDirective
from repro.runtime.resilience.supervisor import KillDirective

__all__ = ["RuntimeConfig", "calibrated_service_time_us"]


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of the process runtime.

    Attributes
    ----------
    parallelism:
        Unused: every stage takes its parallelism from its partitioner.
        Still accepted (and validated positive) because ``perf/`` passes it;
        to be removed with the next benchmark revision.
    batch_size:
        Tuples per dispatched micro-batch: the size of the source's batches,
        the most a router routes in one chunk, and therefore also the most
        tuples of waiting ingress batches a stage's router merges into one
        dispatch (a stage never sends a worker more than this per message).
    queue_capacity:
        Bound of each worker's inbound queue and of every inter-stage egress
        queue, in batches; a full queue blocks the producer (backpressure).
    service_time_us:
        Emulated service time per cost unit (pacing); 0 disables pacing and
        the workers run as fast as the host CPU allows.
    offered_rate:
        Open-loop source rate in tuples/second; ``None`` (default) is the
        closed-loop drain.
    calibrate_pacing:
        Adaptive pacing: run the first interval unpaced, measure each
        stage's drain speed on *this* host, then install
        ``service_time_us = headroom × elapsed × parallelism / cost``
        (:data:`CALIBRATION_HEADROOM`) so the bench stays saturated across
        machines of different speed (the configured ``service_time_us`` is
        ignored).
    collect_final_state:
        Ask workers to report their final windowed per-key payloads
        (correctness tests; expensive for large state).
    sanitize:
        Enable the runtime protocol sanitizer
        (:mod:`repro.runtime.sanitizer`): invariant checks on every
        coordinator→worker send, interval close, and pause/resume, plus
        end-of-run tuple conservation; violations are recorded into the
        result's ``sanitizer`` report instead of raised.
    join_timeout_seconds:
        How long to wait for replies/workers before declaring the run wedged.
    checkpoint_dir:
        Run-scoped checkpoint root; setting it turns the resilience
        subsystem on — periodic per-task ``KeyedState`` snapshots at
        interval boundaries and supervised recovery (respawn + restore +
        replay) instead of abort when a worker process dies.
    checkpoint_every:
        Snapshot cadence in intervals (1 = every boundary).
    kill_worker:
        Fault injection: the named stage's coordinator SIGKILLs that worker
        when it first sees traffic of the directive's interval.
    scale_at:
        Elasticity: grow/shrink the named stage's process group by the
        directive's ``delta`` workers when its interval closes,
        live-migrating the keys whose assignment changes.
    """

    parallelism: int = 4
    batch_size: int = 256
    queue_capacity: int = 8
    service_time_us: float = 50.0
    offered_rate: Optional[float] = None
    calibrate_pacing: bool = False
    collect_final_state: bool = False
    sanitize: bool = False
    join_timeout_seconds: float = 120.0
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 1
    kill_worker: Optional[KillDirective] = None
    scale_at: Optional[ScaleDirective] = None

    def __post_init__(self) -> None:
        if self.parallelism <= 0:
            raise ValueError("parallelism must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.queue_capacity <= 0:
            raise ValueError("queue_capacity must be positive")
        if self.service_time_us < 0:
            raise ValueError("service_time_us must be non-negative")
        if self.offered_rate is not None and self.offered_rate <= 0:
            raise ValueError("offered_rate must be positive (or None)")
        if self.join_timeout_seconds <= 0:
            raise ValueError("join_timeout_seconds must be positive")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


#: Target mean per-worker utilisation of the calibrated pacing, relative to
#: the unpaced drain rate; > 1 makes service capacity the bottleneck so
#: imbalance costs measurable throughput.
CALIBRATION_HEADROOM = 2.0


def calibrated_service_time_us(
    cost: float,
    elapsed_seconds: float,
    parallelism: int,
    headroom: float = CALIBRATION_HEADROOM,
) -> float:
    """Pacing that saturates ``parallelism`` workers at a measured drain rate.

    The unpaced first interval delivered ``cost`` cost units in
    ``elapsed_seconds``; pacing each unit at the returned service time makes
    the *mean* per-worker utilisation ``headroom`` at that offered rate — so
    with ``headroom > 1`` the service capacity (not the host CPU or the
    router) is the bottleneck, on any machine.
    """
    if cost <= 0 or elapsed_seconds <= 0 or parallelism <= 0:
        return 0.0
    return headroom * elapsed_seconds * parallelism / cost * 1e6
