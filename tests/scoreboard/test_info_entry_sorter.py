"""Tests for SI tables and the sorter."""

import numpy as np
import pytest

from repro.errors import ScoreboardError
from repro.scoreboard import (
    ScoreboardInfo,
    bitonic_stage_count,
    run_scoreboard,
    sort_by_popcount,
    sorter_cycles,
)


class TestScoreboardInfo:
    def test_si_memory_budget_matches_paper(self):
        result = run_scoreboard([1, 2, 3], width=8)
        info = ScoreboardInfo.from_result(result)
        assert info.memory_bits == 2 * 8 * 256
        assert info.memory_bytes == 512  # the paper's "only 512 Bytes" for T = 8

    def test_lookup_hit_and_miss(self):
        result = run_scoreboard([3, 11, 2], width=4)
        info = ScoreboardInfo.from_result(result)
        assert info.lookup(11).prefix == 3
        assert info.lookup(11).transparsity == 8
        assert info.lookup(13) is None
        with pytest.raises(ScoreboardError):
            info.lookup(16)

    def test_prefix_chain_descends_to_zero(self):
        rng = np.random.default_rng(0)
        result = run_scoreboard(rng.integers(0, 256, size=200).tolist(), width=8)
        info = ScoreboardInfo.from_result(result)
        for value in list(result.nodes)[:50]:
            chain = info.prefix_chain(value)
            assert chain[-1] == 0 or info.lookup(chain[-1]) is None

    def test_lanes_grouped_in_hamming_order(self):
        result = run_scoreboard([14, 2, 5, 1, 15, 7, 2], width=4)
        lanes = ScoreboardInfo.from_result(result).lanes()
        for entries in lanes.values():
            popcounts = [bin(e.transrow).count("1") for e in entries]
            assert popcounts == sorted(popcounts)


class TestSorter:
    def test_sort_is_stable_within_level(self):
        values = [3, 5, 1, 6, 2, 15]
        ordered = sort_by_popcount(values)
        assert [bin(v).count("1") for v in ordered] == sorted(bin(v).count("1") for v in values)
        assert [v for v in ordered if bin(v).count("1") == 2] == [3, 5, 6]

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
