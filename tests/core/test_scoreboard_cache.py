"""Static-scoreboard LRU cache: eviction order, stats, and hit exactness."""

import numpy as np
import pytest

from repro.core import TransitiveGemmEngine
from repro.errors import SimulationError


def _weight(seed, n=12, k=12, bits=4):
    rng = np.random.default_rng(seed)
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return rng.integers(lo, hi + 1, size=(n, k), dtype=np.int64)


def _activation(seed, k=12, m=3):
    return np.random.default_rng(seed).integers(-64, 64, size=(k, m), dtype=np.int64)


class TestCacheStats:
    def test_hit_miss_counts_and_hit_rate(self):
        engine = TransitiveGemmEngine(transrow_bits=4, scoreboard_cache_entries=4)
        weight = _weight(0)
        engine.multiply(weight, _activation(0), 4)
        engine.multiply(weight, _activation(1), 4)
        engine.multiply(weight, _activation(2), 4)
        info = engine.scoreboard_cache_info()
        assert (info.hits, info.misses, info.entries) == (2, 1, 1)

    def test_distinct_parameters_are_distinct_entries(self):
        # Same weight bytes but different scoreboard parameters must miss.
        engine = TransitiveGemmEngine(transrow_bits=4, scoreboard_cache_entries=4)
        weight = _weight(1, bits=3)  # fits both 3- and 4-bit slicing
        engine.multiply(weight, _activation(0), 4)
        engine.multiply(weight, _activation(0), 3)  # different weight_bits
        info = engine.scoreboard_cache_info()
        assert info.misses == 2
        assert info.entries == 2

    def test_disabled_cache_never_hits(self):
        engine = TransitiveGemmEngine(transrow_bits=4, scoreboard_cache_entries=0)
        weight = _weight(2)
        engine.multiply(weight, _activation(0), 4)
        engine.multiply(weight, _activation(1), 4)
        info = engine.scoreboard_cache_info()
        assert (info.hits, info.misses, info.entries, info.max_entries) == (0, 0, 0, 0)
        with pytest.raises(SimulationError):
            TransitiveGemmEngine(scoreboard_cache_entries=-1)


class TestEvictionOrder:
    def test_lru_eviction_at_capacity(self):
        engine = TransitiveGemmEngine(transrow_bits=4, scoreboard_cache_entries=2)
        w1, w2, w3 = _weight(10), _weight(11), _weight(12)
        act = _activation(0)
        engine.multiply(w1, act, 4)  # cache: [w1]
        engine.multiply(w2, act, 4)  # cache: [w1, w2]
        engine.multiply(w3, act, 4)  # cache: [w2, w3] — w1 evicted (LRU)
        info = engine.scoreboard_cache_info()
        assert info.entries == 2
        assert info.misses == 3 and info.hits == 0
        engine.multiply(w2, act, 4)  # hit: w2 survived
        assert engine.scoreboard_cache_info().hits == 1
        engine.multiply(w1, act, 4)  # miss: w1 was the eviction victim
        assert engine.scoreboard_cache_info().misses == 4

    def test_get_refreshes_recency(self):
        engine = TransitiveGemmEngine(transrow_bits=4, scoreboard_cache_entries=2)
        w1, w2, w3 = _weight(20), _weight(21), _weight(22)
        act = _activation(0)
        engine.multiply(w1, act, 4)  # cache: [w1]
        engine.multiply(w2, act, 4)  # cache: [w1, w2]
        engine.multiply(w1, act, 4)  # hit refreshes w1 -> cache: [w2, w1]
        engine.multiply(w3, act, 4)  # evicts w2, the true LRU
        engine.multiply(w1, act, 4)  # still cached
        info = engine.scoreboard_cache_info()
        assert info.hits == 2
        engine.multiply(w2, act, 4)  # miss: w2 was evicted
        assert engine.scoreboard_cache_info().misses == 4


class TestHitExactness:
    def test_cache_hit_is_bit_identical_to_cold_run(self):
        weight = _weight(30, n=20, k=17, bits=6)
        act_a, act_b = _activation(1, k=17, m=5), _activation(2, k=17, m=2)

        cached = TransitiveGemmEngine(transrow_bits=8, scoreboard_cache_entries=2)
        warm_first = cached.multiply(weight, act_a, 6)
        warm_second = cached.multiply(weight, act_b, 6)  # served from the cache
        assert cached.scoreboard_cache_info().hits == 1

        cold = TransitiveGemmEngine(transrow_bits=8, scoreboard_cache_entries=0)
        cold_first = cold.multiply(weight, act_a, 6)
        cold_second = cold.multiply(weight, act_b, 6)

        assert np.array_equal(warm_first.output, cold_first.output)
        assert np.array_equal(warm_second.output, cold_second.output)
        assert np.array_equal(warm_second.output, weight @ act_b)
        assert warm_first.op_counts == cold_first.op_counts
        assert warm_second.op_counts == cold_second.op_counts
