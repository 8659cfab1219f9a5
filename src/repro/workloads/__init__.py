"""Workload generators.

The evaluation uses four workloads; since the original datasets (a 5-day
microblog crawl, 3 days of stock-exchange records and TPC-H's dbgen output) are
not redistributable, each is replaced by a synthetic generator that reproduces
the characteristics the paper relies on:

* :mod:`repro.workloads.zipf` — the synthetic generator of Section V: tuples
  drawn from a Zipf distribution with skew ``z`` over a key domain of size
  ``K``, with per-interval distribution fluctuation controlled by ``f``
  (implemented, as in the paper, by swapping key frequencies between task
  assignments until the workload change reaches ``f``).
* :mod:`repro.workloads.social` — Social-feed surrogate: heavy-tailed word
  popularity with slow topic drift (the paper: "word frequency … changes
  slowly").
* :mod:`repro.workloads.stock` — Stock-exchange surrogate: a small key domain
  (1,036 stock ids) with abrupt regime-switching bursts on individual keys.
* :mod:`repro.workloads.tpch` — DBGen-like generator of the TPC-H tables with
  Zipf-skewed foreign keys, plus the order→customer→nation mappings the
  continuous Q5 topology needs.
"""

from repro.workloads.fluctuation import apply_fluctuation
from repro.workloads.social import SocialFeedWorkload
from repro.workloads.stock import StockExchangeWorkload
from repro.workloads.tpch import TPCHDataset, TPCHStreamWorkload, generate_tpch
from repro.workloads.zipf import ZipfWorkload, zipf_frequencies

__all__ = [
    "SocialFeedWorkload",
    "StockExchangeWorkload",
    "TPCHDataset",
    "TPCHStreamWorkload",
    "ZipfWorkload",
    "apply_fluctuation",
    "generate_tpch",
    "zipf_frequencies",
]
