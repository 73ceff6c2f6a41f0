"""Two-tier response cache of the serve subsystem.

The server caches **serialized envelope bytes**, not result objects:
a cache hit replays the exact bytes the miss produced, so cached and
computed responses are byte-identical by construction (the same
:func:`~repro.envelope.canonical_text` rendering the CLI's
``--format json`` uses).

Keys come from :func:`repro.core.store.store_key`: the request's
envelope, the code version and the content of every input file the
request names, so neither an upgrade nor an edited topology or
population file can replay stale bytes.  Requests with filesystem side
effects (``topology`` with ``output``, ``simulate`` with
``trace_out``) are never cached: replaying bytes must never skip a
write the client asked for.

The cache has two tiers:

- a per-worker in-memory LRU front (:class:`~repro.core.caching.
  BoundedCache`), and
- an optional :class:`~repro.core.store.Store` behind it that every
  worker of the pre-fork supervisor shares, so a result computed by
  any worker process is a warm hit for all of them.

A *disk hit* is the cross-process event: a worker that computed a
result holds it in its own memory tier, so serving from disk means
some **other** worker (or a previous incarnation after a crash)
computed it.  ``/stats`` surfaces the tiered counters per worker and
merged across workers.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.caching import BoundedCache
from repro.core.store import Store

__all__ = ["ResultCache", "merge_cache_stats"]


class ResultCache:
    """Store key → response bytes: a memory LRU over a shared store.

    ``lookup`` consults the per-process LRU first, then the disk store
    (promoting disk hits into memory so repeat traffic stays off the
    filesystem); ``store`` publishes to both tiers.  Without a disk
    store the behavior is exactly the pre-supervisor single-process
    cache.
    """

    def __init__(
        self, max_entries: int | None, *, store: Store | None = None
    ) -> None:
        self._cache = BoundedCache(max_entries)
        self._store = store
        self._disk_hits = 0
        self._disk_misses = 0
        self._store_writes = 0

    def lookup(self, key: str) -> bytes | None:
        """The cached body for ``key`` (counts a hit or a miss per tier)."""
        body = self._cache.get(key)
        if body is not None or self._store is None:
            return body
        body = self._store.get(key)
        if body is None:
            self._disk_misses += 1
            return None
        self._disk_hits += 1
        self._cache.put(key, body)
        return body

    def store(self, key: str, body: bytes) -> None:
        """Cache ``body`` under ``key`` (memory LRU + shared disk store)."""
        self._cache.put(key, body)
        if self._store is not None:
            self._store.put(key, body)
            self._store_writes += 1

    def stats(self) -> dict[str, int | None]:
        """Tiered counters for ``/stats``.

        The memory-tier keys (``size``/``max_entries``/``hits``/
        ``misses``/``evictions``) keep their pre-supervisor meaning;
        ``disk_hits``/``disk_misses``/``store_writes`` count shared-store
        traffic (``disk_hits >= 1`` on a worker proves it served bytes
        computed by a different process).
        """
        merged: dict[str, int | None] = dict(self._cache.stats())
        merged["disk_hits"] = self._disk_hits
        merged["disk_misses"] = self._disk_misses
        merged["store_writes"] = self._store_writes
        return merged


def merge_cache_stats(
    snapshots: Iterable[Mapping[str, int | None]],
) -> dict[str, int | None]:
    """Sum per-worker cache counters into one merged ``/stats`` view.

    Counters add across workers; ``max_entries`` is a per-worker bound,
    not a total, so the merged view reports the common bound (they are
    all configured identically) rather than a sum.
    """
    merged: dict[str, int | None] = {
        "size": 0,
        "max_entries": None,
        "hits": 0,
        "misses": 0,
        "evictions": 0,
        "disk_hits": 0,
        "disk_misses": 0,
        "store_writes": 0,
    }
    for snapshot in snapshots:
        for key, value in snapshot.items():
            if key == "max_entries":
                merged["max_entries"] = value
            elif value is not None:
                merged[key] = int(merged.get(key) or 0) + int(value)
    return merged
