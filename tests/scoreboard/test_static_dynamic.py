"""Tests for the static and dynamic scoreboard front-ends (Fig. 13 machinery)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import op_counts_from_result, op_counts_from_static_outcome
from repro.errors import ScoreboardError
from repro.scoreboard import DynamicScoreboard, StaticScoreboard, run_scoreboard


class TestDynamicScoreboard:
    def test_process_returns_si_and_cycles(self):
        scoreboard = DynamicScoreboard(width=8)
        values = list(range(0, 256, 3))
        outcome = scoreboard.process(values)
        assert outcome.cycles > 0
        assert len(outcome.info.entries) == len(outcome.result.nodes)

    def test_cycles_bounded_by_distinct_nodes(self):
        from repro.scoreboard import sorter_cycles

        scoreboard = DynamicScoreboard(width=4)
        # 1000 TransRows but only 16 possible nodes: the table-update component
        # is capped at ceil(min(n, 2^T) / T) = 4 cycles regardless of n.
        assert scoreboard.cycles(1000) - sorter_cycles(1000) == 4
        assert scoreboard.cycles(16) - sorter_cycles(16) == 4
        assert scoreboard.cycles(0) == 0

    def test_scoreboarding_is_faster_than_compute(self):
        # Paper Sec. 4.6: min(n, 2^T)/T-way update keeps stage 1 off the
        # critical path relative to the ~n/T-cycle APE stage for large n.
        scoreboard = DynamicScoreboard(width=8)
        n = 2048
        assert scoreboard.cycles(n) < n

    def test_invalid_width_rejected(self):
        with pytest.raises(ScoreboardError):
            DynamicScoreboard(width=0)


class TestStaticScoreboard:
    def test_requires_fit_before_use(self):
        static = StaticScoreboard(width=8)
        with pytest.raises(ScoreboardError):
            static.apply([1, 2, 3])
        with pytest.raises(ScoreboardError):
            _ = static.info

    def test_full_tile_matches_dynamic_density(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 256, size=1024).tolist()
        static = StaticScoreboard(width=8)
        static.fit(values)
        outcome = static.apply(values)
        static_counts = op_counts_from_static_outcome(outcome, values)
        dynamic_counts = op_counts_from_result(run_scoreboard(values, width=8))
        # On the calibration population itself the shared SI is as good as the
        # per-tile SI (no misses are possible).
        assert outcome.si_misses == 0
        assert static_counts.density <= dynamic_counts.density * 1.3

    def test_small_tiles_pay_si_penalty(self):
        rng = np.random.default_rng(1)
        population = rng.integers(0, 256, size=2048).tolist()
        static = StaticScoreboard(width=8)
        static.fit(population)
        small_tile = population[:32]
        static_counts = op_counts_from_static_outcome(static.apply(small_tile), small_tile)
        dynamic_counts = op_counts_from_result(run_scoreboard(small_tile, width=8))
        assert static_counts.transitive_ops >= dynamic_counts.transitive_ops

    def test_unknown_value_is_an_si_miss(self):
        static = StaticScoreboard(width=4)
        static.fit([1, 3, 7])
        outcome = static.apply([1, 3, 7, 12])
        assert outcome.si_misses == 1
        assert outcome.outlier_adds == 2  # popcount of 12

    def test_zero_rows_are_free(self):
        static = StaticScoreboard(width=4)
        static.fit([0, 0, 5])
        outcome = static.apply([0, 0, 5])
        assert outcome.zero_rows == 2
        assert outcome.pr_nodes + outcome.fr_rows + outcome.tr_steps + outcome.outlier_adds >= 1

    def test_out_of_range_tile_value_rejected(self):
        static = StaticScoreboard(width=4)
        static.fit([1])
        with pytest.raises(ScoreboardError):
            static.apply([16])

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=4, max_size=200),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_static_never_beats_bit_sparsity_badly(self, population, split_seed):
        """Static density stays below dense and accounts for every TransRow."""
        static = StaticScoreboard(width=8)
        static.fit(population)
        rng = np.random.default_rng(split_seed)
        tile = [population[i] for i in rng.integers(0, len(population), size=min(64, len(population)))]
        outcome = static.apply(tile)
        counts = op_counts_from_static_outcome(outcome, tile)
        assert counts.total_transrows == len(tile)
        assert counts.transitive_ops <= counts.dense_ops
