"""Two-tier cache of per-factor estimates (the PARTCACHE feature, persisted).

Algorithm 2 stores the estimate computed for each independent factor (the
projection of a path condition onto one block of the variable partition) and
reuses it whenever the same factor reappears — either in another path
condition or in the same one after simplification.

The cache has two tiers:

* **L1** — the in-memory, in-run map of the paper: canonical text of the
  simplified factor (:meth:`EstimateCache.key_for`, computed once per factor
  occurrence while the analyzer plans) → finished :class:`Estimate`.  Dies
  with the analyzer.
* **L2** — an optional persistent :class:`~repro.store.backends.EstimateStore`
  shared across runs and processes.  L2 keys are stronger than L1 keys
  (alpha-renamed text plus a profile/estimator fingerprint, see
  :mod:`repro.store.keys`) and L2 values are raw mergeable counts rather
  than finished estimates, so a re-run can *continue* sampling where a
  previous run stopped and independent runs pool their budgets.

The cache is thread-safe: lookups, inserts, and the counters are guarded by
one reentrant lock, so a :class:`~repro.core.qcoral.QCoralAnalyzer` (or
several) may share an instance under the thread executor backend without
corrupting entries or statistics.  L2 handles carry their own lock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.estimate import Estimate
from repro.lang import ast
from repro.lang.simplify import simplify_path_condition
from repro.obs import Observability, ensure_observability
from repro.store.backends import EstimateStore
from repro.store.entry import StoreEntry
from repro.store.keys import FactorKey, StoreContext


@dataclass
class CacheStatistics:
    """Hit/miss counters of both tiers, exposed in analysis reports.

    ``hits``/``misses`` count L1 lookups exactly as before the store existed;
    the ``store_*`` counters record this run's traffic against the persistent
    tier (they stay zero when no store is configured).
    """

    hits: int = 0
    misses: int = 0
    store_hits: int = 0
    store_misses: int = 0
    warm_starts: int = 0
    store_publishes: int = 0
    store_merges: int = 0

    @property
    def lookups(self) -> int:
        """Total number of L1 lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of L1 lookups served from the cache (0 when never used)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    @property
    def store_lookups(self) -> int:
        """Total number of persistent-store lookups."""
        return self.store_hits + self.store_misses

    @property
    def reused_factors(self) -> int:
        """Factors this run did not have to sample from scratch."""
        return self.hits + self.store_hits


class EstimateCache:
    """Maps canonical factor text to a previously computed :class:`Estimate`.

    Built without a store, this is exactly the paper's in-run cache.  With a
    store and a :class:`~repro.store.keys.StoreContext` it becomes the L1 of
    a two-tier hierarchy: :meth:`fetch_entry` consults the persistent tier on
    an L1 miss, and :meth:`publish` folds a run's freshly drawn counts back
    with merge-on-write semantics.
    """

    def __init__(
        self,
        store: Optional[EstimateStore] = None,
        context: Optional[StoreContext] = None,
        observability: Optional[Observability] = None,
    ) -> None:
        if (store is None) != (context is None):
            raise ValueError("a store and its key context must be provided together")
        self._entries: Dict[str, Estimate] = {}
        self._statistics = CacheStatistics()
        self._store = store
        self._context = context
        self._obs = ensure_observability(observability)
        self._lock = threading.Lock()

    @property
    def statistics(self) -> CacheStatistics:
        """Hit/miss counters accumulated so far."""
        return self._statistics

    @property
    def store(self) -> Optional[EstimateStore]:
        """The persistent tier, when one is attached."""
        return self._store

    @property
    def has_store(self) -> bool:
        """True when a persistent tier is attached."""
        return self._store is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def key_for(factor: ast.PathCondition) -> str:
        """Canonical L1 cache key of a factor (order-insensitive, simplified).

        The analyzer computes it once per factor occurrence while planning and
        passes the string to :meth:`get` and :meth:`put`.
        """
        return simplify_path_condition(factor).canonical()

    # ------------------------------------------------------------------ #
    # L1: the in-run tier
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[Estimate]:
        """Cached estimate under ``key`` (from :meth:`key_for`) or None, updating the counters."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._statistics.misses += 1
            else:
                self._statistics.hits += 1
            return entry

    def put(self, key: str, estimate: Estimate) -> None:
        """Store ``estimate`` under ``key`` (from :meth:`key_for`)."""
        with self._lock:
            self._entries[key] = estimate

    def record_shared_hit(self) -> None:
        """Count a reuse that bypassed the cache (an in-run shared factor).

        The incremental analyzer deduplicates factors before sampling starts,
        so a factor shared by several path conditions is looked up only once;
        this keeps the hit/miss statistics equivalent to per-occurrence
        lookups.
        """
        with self._lock:
            self._statistics.hits += 1

    def record_warm_start(self) -> None:
        """Count a factor that resumed sampling from stored counts."""
        with self._lock:
            self._statistics.warm_starts += 1
        self._obs.count("store_warm_starts_total")

    # ------------------------------------------------------------------ #
    # L2: the persistent tier
    # ------------------------------------------------------------------ #
    def store_key(self, factor: ast.PathCondition) -> Optional[FactorKey]:
        """Canonical persistent-store key of ``factor`` (None without a store)."""
        if self._context is None:
            return None
        return self._context.key_for(factor)

    def fetch_entry(self, key: FactorKey) -> Optional[StoreEntry]:
        """Stored raw counts for ``key``, updating the store counters."""
        if self._store is None:
            return None
        if self._obs.enabled:
            started = time.perf_counter()
            entry = self._store.get(key.digest)
            self._obs.observe("store_get_seconds", time.perf_counter() - started)
            self._obs.count("store_gets_total")
            if entry is not None:
                self._obs.count("store_hits_total")
        else:
            entry = self._store.get(key.digest)
        with self._lock:
            if entry is None:
                self._statistics.store_misses += 1
            else:
                self._statistics.store_hits += 1
        return entry

    def publish(self, key: FactorKey, delta: StoreEntry, merged_into_prior: bool = False) -> None:
        """Fold one run's delta counts for ``key`` into the persistent tier.

        ``delta`` must contain only the samples this run drew itself — never
        counts loaded from the store — so concurrent and sequential runs pool
        correctly.  ``merged_into_prior`` marks publishes that extend an entry
        this run loaded (warm starts), which the statistics report as merges.
        """
        if self._store is None:
            return
        if self._obs.enabled:
            started = time.perf_counter()
            self._store.merge(key.digest, delta.described(key.pc_text, key.fingerprint))
            self._obs.observe("store_merge_seconds", time.perf_counter() - started)
            self._obs.count("store_publishes_total")
        else:
            self._store.merge(key.digest, delta.described(key.pc_text, key.fingerprint))
        if self._store.readonly:
            # The backend skipped the write (counted in its own statistics);
            # reporting it as published here would misstate what persisted.
            return
        with self._lock:
            self._statistics.store_publishes += 1
            if merged_into_prior:
                self._statistics.store_merges += 1

    def clear(self) -> None:
        """Drop all L1 entries and reset the counters (the store is untouched)."""
        with self._lock:
            self._entries.clear()
            self._statistics = CacheStatistics()
