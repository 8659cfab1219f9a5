"""Seeded inputs of the four workloads.

Everything a workload feeds the program — per-interval key-frequency
snapshots, per-interval tuple lists, the tuples the probes replay — is built
here from the seed alone and handed over as plain data; the program never
sees the seed.  Each input set carries a SHA-256 digest of its keys so two
runs can be shown to have measured the same input.

Generators are the repo's public ones (:class:`repro.workloads.ZipfWorkload`,
the ``build_stream`` of :data:`repro.runtime.BENCH_TOPOLOGY_WORKLOADS`); the
snapshot → tuple-list expansion is done here, so it can be timed on its own
(``workloads.generate_s`` vs ``workloads.expand_s``).
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.experiments.config import ExperimentScale
from repro.runtime import BENCH_TOPOLOGY_WORKLOADS
from repro.workloads import ZipfWorkload

__all__ = [
    "Inputs",
    "bench_stream_inputs",
    "expand",
    "planner_inputs",
    "sample_tuples",
    "snapshots_of",
    "zipf_stream_inputs",
]

Key = Hashable
Snapshot = Dict[Key, float]
Stream = List[List[Tuple[Key, Any]]]


@dataclass
class Inputs:
    """One workload's generated inputs.

    ``stream`` is what a runtime workload hands to ``TopologyRuntime.run``;
    ``snapshots`` is what the planner workload (and the planner probes)
    consume.  A runtime workload built through a bench ``build_stream`` has no
    snapshots until :func:`snapshots_of` derives them (traced runs only).
    ``probe_keys`` / ``probe_values`` are the tuples the per-layer probes
    replay: a prefix of the workload's own stream.
    """

    stream: Stream
    snapshots: List[Snapshot]
    digest: str
    generate_s: float
    expand_s: float
    probe_keys: List[Key] = field(default_factory=list)
    probe_values: List[Any] = field(default_factory=list)


def _stream_digest(stream: Stream) -> str:
    """SHA-256 over the stream's keys in order (interval boundaries included)."""
    sha = hashlib.sha256()
    for interval in stream:
        keys = [key for key, _ in interval]
        try:
            sha.update(np.asarray(keys, dtype=np.int64).tobytes())
        except (TypeError, ValueError):
            sha.update(repr(keys).encode("utf-8"))
        sha.update(b"|")
    return sha.hexdigest()


def _zipf_snapshots(seed: int, intervals: int, **shape: Any) -> Tuple[List[Snapshot], float]:
    """``intervals`` drifting Zipf snapshots and the seconds they took."""
    started = time.perf_counter()
    snapshots = ZipfWorkload(intervals=intervals, seed=seed, **shape).take(intervals)
    return snapshots, time.perf_counter() - started


def expand(
    snapshots: Sequence[Mapping[Key, float]],
    rng: np.random.Generator,
    value: Any = None,
) -> Stream:
    """Expand ``{key: count}`` snapshots into shuffled per-interval tuple lists."""
    stream: Stream = []
    for snapshot in snapshots:
        keys = np.fromiter(snapshot.keys(), dtype=np.int64, count=len(snapshot))
        counts = np.fromiter(snapshot.values(), dtype=np.int64, count=len(snapshot))
        expanded = np.repeat(keys, counts)
        rng.shuffle(expanded)
        stream.append([(key, value) for key in expanded.tolist()])
    return stream


def sample_tuples(
    snapshot: Mapping[Key, float], rng: np.random.Generator, count: int
) -> List[Key]:
    """``count`` keys drawn with the snapshot's frequencies (a stream prefix
    without materialising the whole interval)."""
    keys = np.fromiter(snapshot.keys(), dtype=np.int64, count=len(snapshot))
    weights = np.fromiter(snapshot.values(), dtype=np.float64, count=len(snapshot))
    return rng.choice(keys, size=count, p=weights / weights.sum()).tolist()


def snapshots_of(stream: Stream) -> List[Snapshot]:
    """Per-interval ``{key: count}`` of a tuple stream (what a router counts)."""
    return [
        {key: float(count) for key, count in Counter(k for k, _ in interval).items()}
        for interval in stream
    ]


def _with_probe_prefix(inputs: Inputs, probe_tuples: int) -> Inputs:
    for interval in inputs.stream:
        room = probe_tuples - len(inputs.probe_keys)
        if room <= 0:
            break
        inputs.probe_keys.extend(key for key, _ in interval[:room])
        inputs.probe_values.extend(value for _, value in interval[:room])
    return inputs


def zipf_stream_inputs(
    seed: int,
    *,
    num_keys: int,
    skew: float,
    fluctuation: float,
    tuples_per_interval: int,
    intervals: int,
    num_tasks: int,
    probe_tuples: int,
) -> Inputs:
    """Zipf snapshots with drift, expanded to valueless (word-count) tuples."""
    snapshots, generate_s = _zipf_snapshots(
        seed,
        intervals,
        num_keys=num_keys,
        skew=skew,
        tuples_per_interval=tuples_per_interval,
        fluctuation=fluctuation,
        num_tasks=num_tasks,
    )
    started = time.perf_counter()
    stream = expand(snapshots, np.random.default_rng(seed + 1))
    expand_s = time.perf_counter() - started
    return _with_probe_prefix(
        Inputs(
            stream=stream,
            snapshots=snapshots,
            digest=_stream_digest(stream),
            generate_s=generate_s,
            expand_s=expand_s,
        ),
        probe_tuples,
    )


def bench_stream_inputs(
    seed: int, bench_workload: str, scale: ExperimentScale, probe_tuples: int
) -> Inputs:
    """The stream of a ``BENCH_TOPOLOGY_WORKLOADS`` entry at ``scale``.

    The bench builders fuse generation and expansion, so all of it counts as
    ``generate_s``; ``expand_s`` is filled in when a traced run derives the
    snapshots back from the stream.
    """
    started = time.perf_counter()
    stream = BENCH_TOPOLOGY_WORKLOADS[bench_workload].build_stream(scale, seed)
    generated = time.perf_counter()
    return _with_probe_prefix(
        Inputs(
            stream=stream,
            snapshots=[],
            digest=_stream_digest(stream),
            generate_s=generated - started,
            expand_s=0.0,
        ),
        probe_tuples,
    )


def planner_inputs(
    seed: int,
    *,
    num_keys: int,
    skew: float,
    fluctuation: float,
    tuples_per_interval: int,
    intervals: int,
    num_tasks: int,
    probe_tuples: int,
) -> Inputs:
    """Snapshots only (the planner workload runs no tuple stream); the probe
    tuples are sampled from the first snapshot.

    Expected counts, not multinomial draws: the generator re-draws each
    interval from the previous interval's *drawn* counts, so a key drawn zero
    times never returns and the domain shrinks (100 000 -> ~18 000 keys in 50
    intervals) — every cost would fall with the interval number and no
    statistic over the run would repeat.  With expected counts every interval
    carries all ``num_keys`` keys and only the fluctuation moves load."""
    snapshots, generate_s = _zipf_snapshots(
        seed,
        intervals,
        num_keys=num_keys,
        skew=skew,
        tuples_per_interval=tuples_per_interval,
        fluctuation=fluctuation,
        num_tasks=num_tasks,
        sampled=False,
    )
    started = time.perf_counter()
    probe_keys = sample_tuples(
        snapshots[0], np.random.default_rng(seed + 1), probe_tuples
    )
    expand_s = time.perf_counter() - started
    sha = hashlib.sha256()
    for snapshot in snapshots:
        sha.update(np.fromiter(snapshot.keys(), dtype=np.int64).tobytes())
        sha.update(np.fromiter(snapshot.values(), dtype=np.float64).tobytes())
    return Inputs(
        stream=[],
        snapshots=snapshots,
        digest=sha.hexdigest(),
        generate_s=generate_s,
        expand_s=expand_s,
        probe_keys=probe_keys,
        probe_values=[None] * len(probe_keys),
    )
