"""Resilience subsystem: checkpointing, supervised recovery, elastic scaling.

Three cooperating parts, all riding the existing runtime wire protocol:

* :mod:`~repro.runtime.resilience.checkpoint` — periodic per-task
  ``KeyedState`` snapshots (the ``ExtractKeys(copy=True)`` /
  ``StateShipment`` path) written atomically to a run-scoped directory with
  a digest-verified manifest;
* :mod:`~repro.runtime.resilience.supervisor` — dead-worker detection,
  respawn on a fresh queue, checkpoint restore and retention-log replay,
  measured wall-clock per incident;
* :mod:`~repro.runtime.resilience.scaling` — grow/shrink a stage's process
  group at an interval boundary, reusing live key migration for the state
  hand-off.
"""
