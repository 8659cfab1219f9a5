"""Atomic per-task ``KeyedState`` checkpoints with a run-scoped manifest.

A :class:`CheckpointStore` owns one stage's checkpoint directory inside the
run-scoped checkpoint root.  Each checkpoint is one pickled blob per task —
the state entries exactly as a :class:`~repro.runtime.messages.StateShipment`
carries them, plus the worker's lifetime counters — written **atomically**:
the bytes go to a temporary file in the same directory and are moved into
place with :func:`os.replace`, so a crash mid-write can never leave a
half-written checkpoint that a later recovery would restore.  The stage's
``manifest.json`` (also written atomically) records, per task, the interval
watermark the checkpoint covers, its SHA-256 content digest and its size;
:meth:`CheckpointStore.latest` verifies the digest before handing the
snapshot to the supervisor.

Every write in this repository that targets a checkpoint path must go
through :func:`atomic_write_bytes` / :func:`atomic_write_json` — the RPL006
lint rule flags bare ``open(..., "w")`` on checkpoint-named paths outside
this module.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

__all__ = [
    "CheckpointCorrupt",
    "CheckpointRecord",
    "CheckpointStore",
    "LoadedCheckpoint",
    "atomic_write_bytes",
    "atomic_write_json",
]

Key = Hashable


class CheckpointCorrupt(RuntimeError):
    """A checkpoint file does not match its manifest digest."""


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tmp file + ``os.replace``).

    The temporary file lives in the target's directory so the final rename
    stays within one filesystem; readers either see the old content or the
    complete new content, never a torn write.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def atomic_write_json(path: str, payload: Any) -> None:
    """Atomically serialise ``payload`` as JSON to ``path``."""
    atomic_write_bytes(
        path, json.dumps(payload, indent=1, sort_keys=True).encode("utf-8")
    )


@dataclass(frozen=True)
class CheckpointRecord:
    """Bookkeeping of one persisted checkpoint (write side)."""

    task: int
    interval: int
    digest: str
    bytes_written: int
    write_seconds: float
    path: str


@dataclass
class LoadedCheckpoint:
    """One task's latest checkpoint, verified and deserialised."""

    task: int
    interval: int
    digest: str
    entries: List[Tuple[Key, Any]]
    counters: Dict[str, float] = field(default_factory=dict)


class CheckpointStore:
    """Per-stage checkpoint directory + manifest inside the run-scoped root."""

    def __init__(self, root: str, stage: str) -> None:
        self.stage = stage
        self.root = os.path.join(root, stage.replace(os.sep, "_"))
        os.makedirs(self.root, exist_ok=True)
        self.records: List[CheckpointRecord] = []
        self._manifest_path = os.path.join(self.root, "manifest.json")
        self._manifest: Dict[str, Any] = {"stage": stage, "tasks": {}}

    # -- write side ---------------------------------------------------------------

    def save(
        self,
        task: int,
        interval: int,
        entries: List[Tuple[Key, Any]],
        counters: Dict[str, float],
    ) -> CheckpointRecord:
        """Persist one task's snapshot; durable once this returns.

        Write order makes the sequence crash-safe: the new blob lands
        atomically under a fresh name, then the manifest atomically points
        at it, and only then is the previous blob removed — at every instant
        the manifest references a complete file.
        """
        started = time.monotonic()
        blob = pickle.dumps(
            {"entries": entries, "counters": dict(counters)},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        digest = hashlib.sha256(blob).hexdigest()
        filename = f"task-{task:04d}-interval-{interval:06d}.ckpt"
        path = os.path.join(self.root, filename)
        atomic_write_bytes(path, blob)
        previous = self._manifest["tasks"].get(str(task))
        self._manifest["tasks"][str(task)] = {
            "interval": int(interval),
            "digest": digest,
            "bytes": len(blob),
            "file": filename,
        }
        atomic_write_json(self._manifest_path, self._manifest)
        if previous is not None and previous["file"] != filename:
            try:
                os.remove(os.path.join(self.root, previous["file"]))
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        record = CheckpointRecord(
            task=task,
            interval=interval,
            digest=digest,
            bytes_written=len(blob),
            write_seconds=time.monotonic() - started,
            path=path,
        )
        self.records.append(record)
        return record

    # -- read side ----------------------------------------------------------------

    def latest(self, task: int) -> Optional[LoadedCheckpoint]:
        """The most recent durable checkpoint of ``task`` (digest-verified)."""
        entry = self._manifest["tasks"].get(str(task))
        if entry is None:
            return None
        path = os.path.join(self.root, entry["file"])
        with open(path, "rb") as handle:
            blob = handle.read()
        digest = hashlib.sha256(blob).hexdigest()
        if digest != entry["digest"]:
            raise CheckpointCorrupt(
                f"checkpoint {entry['file']} of stage {self.stage!r} does not "
                f"match its manifest digest"
            )
        payload = pickle.loads(blob)
        return LoadedCheckpoint(
            task=task,
            interval=int(entry["interval"]),
            digest=digest,
            entries=payload["entries"],
            counters=payload["counters"],
        )

    # -- aggregates ---------------------------------------------------------------

    @property
    def bytes_written(self) -> int:
        return sum(record.bytes_written for record in self.records)

    @property
    def write_seconds(self) -> float:
        return sum(record.write_seconds for record in self.records)

    def stats(self) -> Dict[str, float]:
        """Headline write-side numbers for the bench report."""
        return {
            "count": float(len(self.records)),
            "bytes_written": float(self.bytes_written),
            "write_seconds": self.write_seconds,
        }
