"""The repo benchmark: four workloads, end-to-end metrics, per-layer probes.

Run it with ``python3 perf/run.py --workload NAME --seed N``; see
``perf/README.md`` for the metric glossary and how to read a traced run.
"""
