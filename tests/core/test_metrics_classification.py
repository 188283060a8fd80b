"""Tests for operation counting, density metrics and node classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import classification_percentages, classify_nodes, op_counts_from_result
from repro.scoreboard import run_scoreboard


class TestOpCounts:
    def test_paper_figure1_counts(self):
        # Fig. 1: rows 1011, 1111, 0011, 0010 -> 10 bit-sparsity ops vs 4 transitive ops.
        counts = op_counts_from_result(run_scoreboard([11, 15, 3, 2], width=4))
        assert counts.bit_sparsity_ops == 10
        assert counts.transitive_ops == 4
        assert counts.dense_ops == 16
        assert counts.speedup_over_dense() == pytest.approx(4.0)
        assert counts.speedup_over_bit_sparsity() == pytest.approx(2.5)

    def test_density_floor_for_full_8bit_population(self):
        counts = op_counts_from_result(run_scoreboard(list(range(256)), width=8))
        assert counts.density == pytest.approx((255 + 0) / (256 * 8), abs=0.01)

    def test_zero_rows_counted_as_sparsity(self):
        counts = op_counts_from_result(run_scoreboard([0, 0, 0, 1], width=4))
        assert counts.zero_rows == 3
        assert counts.zr_fraction == pytest.approx(0.75)
        assert counts.transitive_ops == 1

    def test_merge_adds_componentwise(self):
        a = op_counts_from_result(run_scoreboard([1, 2, 3], width=4))
        b = op_counts_from_result(run_scoreboard([4, 8, 12], width=4))
        merged = a.merge(b)
        assert merged.total_transrows == 6
        assert merged.transitive_ops == a.transitive_ops + b.transitive_ops
        with pytest.raises(ValueError):
            a.merge(op_counts_from_result(run_scoreboard([1], width=8)))

    def test_component_densities_sum_to_total(self):
        rng = np.random.default_rng(0)
        counts = op_counts_from_result(
            run_scoreboard(rng.integers(0, 256, size=300).tolist(), width=8)
        )
        assert counts.density == pytest.approx(
            counts.tr_density + counts.fr_density + counts.pr_density
        )

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_ordering_invariant(self, values):
        """Transitive ops never exceed bit-sparsity ops, which never exceed dense."""
        counts = op_counts_from_result(run_scoreboard(values, width=8))
        assert counts.transitive_ops <= counts.bit_sparsity_ops <= counts.dense_ops
        assert 0.0 <= counts.density <= 1.0


class TestClassification:
    def test_paper_example_classes(self):
        result = run_scoreboard([14, 2, 5, 1, 15, 7, 2], width=4)
        classes = classify_nodes(result)
        assert classes.zr_rows == 0
        assert classes.pr_rows == 6       # distinct present nodes
        assert classes.fr_rows == 1       # the duplicate TransRow of value 2
        assert classes.tr_steps == 1      # relay node 6
        assert classes.outlier_rows == 0
        assert classes.total_transrows == 7

    def test_percentages_reference_transrow_count(self):
        result = run_scoreboard([0, 0, 3, 3], width=4)
        shares = classification_percentages(result)
        assert shares["ZR"] == pytest.approx(50.0)
        assert shares["FR"] == pytest.approx(25.0)
        assert shares["PR"] == pytest.approx(25.0)

    def test_outliers_reported_separately(self):
        result = run_scoreboard([255], width=8, max_distance=4)
        classes = classify_nodes(result)
        assert classes.outlier_rows == 1
        assert classes.pr_rows == 0
        assert classify_nodes(result).outlier_rows == 1

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_every_transrow_is_classified_once(self, values):
        result = run_scoreboard(values, width=8)
        classes = classify_nodes(result)
        accounted = classes.zr_rows + classes.fr_rows + classes.pr_rows + classes.outlier_rows
        assert accounted == len(values)
