"""Tests for SI tables and the sorter."""

import numpy as np
import pytest

from repro.errors import ScoreboardError
from repro.scoreboard import (
    ScoreboardInfo,
    bitonic_stage_count,
    run_scoreboard,
    sorter_cycles,
)


class TestScoreboardInfo:
    def test_lookup_hit_and_miss(self):
        result = run_scoreboard([3, 11, 2], width=4)
        info = ScoreboardInfo.from_result(result)
        assert info.lookup(11).prefix == 3
        assert info.lookup(13) is None
        with pytest.raises(ScoreboardError):
            info.lookup(16)

    def test_prefix_chain_descends_to_zero(self):
        rng = np.random.default_rng(0)
        result = run_scoreboard(rng.integers(0, 256, size=200).tolist(), width=8)
        info = ScoreboardInfo.from_result(result)
        for value in list(result.nodes)[:50]:
            # Each SI hop drops at least one set bit, so the walk ends at 0 or
            # at a prefix the SI does not hold.
            current, entry = value, info.lookup(value)
            while current != 0 and entry is not None:
                assert bin(entry.prefix).count("1") < bin(current).count("1")
                current = entry.prefix
                entry = info.lookup(current) if current else None
            assert current == 0 or info.lookup(current) is None


class TestSorter:
    def test_stage_count_formula(self):
        assert bitonic_stage_count(1) == 0
        assert bitonic_stage_count(2) == 1
        assert bitonic_stage_count(256) == 36  # 8 * 9 / 2

    def test_sorter_cycles_monotone(self):
        assert sorter_cycles(16) <= sorter_cycles(256)
        assert sorter_cycles(256, pipelined=False) >= sorter_cycles(256)

    def test_invalid_size_rejected(self):
        with pytest.raises(ScoreboardError):
            bitonic_stage_count(0)
