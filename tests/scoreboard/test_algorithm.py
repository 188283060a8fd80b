"""Tests of the scoreboarding forward/backward passes and balanced forest."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScoreboardError
from repro.hasse import hasse_graph
from repro.scoreboard import run_scoreboard


def paper_example_values():
    """TransRows of Fig. 5: row indices 0..6 carry values 14, 2, 5, 1, 15, 7, 2."""
    return [14, 2, 5, 1, 15, 7, 2]


class TestPaperExample:
    """The worked 4-bit example of Fig. 5 steps 1-6."""

    def test_present_nodes_and_counts(self):
        result = run_scoreboard(paper_example_values(), width=4)
        assert result.counts[2] == 2
        assert sorted(v for v in result.counts if v) == [1, 2, 5, 7, 14, 15]

    def test_relay_node_6_is_recruited(self):
        # Node 14 is at distance 2 from node 2; the backward pass recruits the
        # absent node 6 (first prefix) as a Transitive-Reuse relay.
        result = run_scoreboard(paper_example_values(), width=4)
        assert 6 in result.nodes
        assert result.nodes[6].is_relay
        assert result.nodes[14].prefix == 6
        assert result.nodes[6].prefix == 2

    def test_node_10_is_not_executed(self):
        # Fig. 5 step 4: node 10 has no suffix requests, so it is pruned.
        result = run_scoreboard(paper_example_values(), width=4)
        assert 10 not in result.nodes

    def test_distance_one_chain_on_lane_of_node_1(self):
        result = run_scoreboard(paper_example_values(), width=4)
        assert result.nodes[1].prefix == 0
        assert result.nodes[5].prefix == 1
        assert result.nodes[7].prefix == 5

    def test_node_15_balances_onto_lane_of_node_7(self):
        # Node 15 may reuse either node 7 or node 14; node 2 carries two
        # TransRows so the lane of node 7 is lighter and wins (Fig. 5 step 5).
        result = run_scoreboard(paper_example_values(), width=4)
        assert result.nodes[15].prefix == 7
        assert result.nodes[15].lane == result.nodes[7].lane
        assert result.nodes[15].lane != result.nodes[14].lane

    def test_lane_workloads_are_balanced(self):
        result = run_scoreboard(paper_example_values(), width=4)
        loads = [load for load in result.forest.lane_workloads if load]
        assert loads == [4, 4]

    def test_no_outliers_or_zero_rows(self):
        result = run_scoreboard(paper_example_values(), width=4)
        assert result.outliers == []
        assert result.zero_rows == 0
        assert result.total_transrows == 7


class TestStructuralInvariants:
    def test_zero_rows_are_counted_not_executed(self):
        result = run_scoreboard([0, 0, 3, 0], width=4)
        assert result.zero_rows == 3
        assert 0 not in result.nodes
        assert result.nodes[3].count == 1

    def test_every_edge_is_a_single_bit_flip_or_relayed(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 256, size=200).tolist()
        result = run_scoreboard(values, width=8)
        graph = hasse_graph(8)
        for node in result.nodes.values():
            assert node.prefix & node.index == node.prefix != node.index
            assert graph.level(node.index) - graph.level(node.prefix) == 1

    def test_prefix_is_executed_before_suffix(self):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 256, size=150).tolist()
        result = run_scoreboard(values, width=8)
        for node in result.nodes.values():
            assert node.prefix == 0 or node.prefix in result.nodes

    def test_relays_have_zero_count(self):
        rng = np.random.default_rng(2)
        values = rng.integers(0, 256, size=64).tolist()
        result = run_scoreboard(values, width=8)
        for node in result.nodes.values():
            if node.is_relay:
                assert node.count == 0
                assert result.counts.get(node.index, 0) == 0

    def test_lane_consistency_with_prefix(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 256, size=128).tolist()
        result = run_scoreboard(values, width=8)
        for node in result.nodes.values():
            if node.prefix != 0:
                assert node.lane == result.nodes[node.prefix].lane

    def test_every_present_node_is_executed_or_outlier(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 256, size=96).tolist()
        result = run_scoreboard(values, width=8)
        outlier_indices = {o.index for o in result.outliers}
        for value in (v for v in result.counts if v):
            assert value in result.nodes or value in outlier_indices

    def test_value_out_of_range_rejected(self):
        with pytest.raises(ScoreboardError):
            run_scoreboard([16], width=4)

    def test_bad_width_rejected(self):
        with pytest.raises(ScoreboardError):
            run_scoreboard([1], width=0)

    def test_sparse_population_produces_outliers(self):
        # A single level-8 value with no ancestors within distance 4 cannot be
        # reached and must be dispatched as an outlier.
        result = run_scoreboard([255], width=8, max_distance=4)
        assert [o.index for o in result.outliers] == [255]
        assert 255 not in result.nodes

    def test_dense_population_has_no_outliers(self):
        values = list(range(256)) * 2
        result = run_scoreboard(values, width=8)
        assert result.outliers == []
        assert len(result.nodes) == 255

    @given(
        st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300),
        st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold_for_random_populations(self, values, max_distance):
        result = run_scoreboard(values, width=8, max_distance=max_distance)
        graph = hasse_graph(8)
        executed = set(result.nodes)
        outliers = {o.index for o in result.outliers}
        # Present values are either executed or outliers, never both.
        assert not (executed & outliers)
        for value in set(values) - {0}:
            assert value in executed or value in outliers
        # Edges descend exactly one level towards executed prefixes.
        for node in result.nodes.values():
            assert node.prefix == 0 or node.prefix in executed
            assert graph.level(node.index) == graph.level(node.prefix) + 1
        # TransRow conservation: counts of executed + outliers + zeros = input size.
        accounted = result.zero_rows
        accounted += sum(n.count for n in result.nodes.values())
        accounted += sum(o.count for o in result.outliers)
        assert accounted == len(values)
