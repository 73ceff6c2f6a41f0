"""Result cache: the memory tier's byte replay, bound and counters.

The keys and the shared disk tier are the store's, tested in
``tests/core/test_store.py``.
"""

from repro.serve.cache import ResultCache


class TestResultCache:
    def test_lookup_miss_then_hit_replays_exact_bytes(self):
        cache = ResultCache(4)
        assert cache.lookup("k") is None
        cache.store("k", b"body-bytes\n")
        assert cache.lookup("k") == b"body-bytes\n"
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_lru_bound_and_eviction_counter(self):
        cache = ResultCache(2)
        cache.store("a", b"1")
        cache.store("b", b"2")
        cache.lookup("a")  # "b" becomes the LRU tail
        cache.store("c", b"3")
        assert cache.lookup("b") is None
        assert cache.lookup("a") == b"1"
        assert cache.stats()["evictions"] == 1

    def test_zero_entries_disables_caching(self):
        cache = ResultCache(0)
        cache.store("a", b"1")
        assert cache.lookup("a") is None
        assert cache.stats()["size"] == 0
