"""Tests of the Hasse-lattice structure (paper Fig. 4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hasse import HasseGraph, hasse_graph


class TestStructure:
    def test_node_count(self):
        assert HasseGraph(4).num_nodes == 16
        assert HasseGraph(8).num_nodes == 256

    def test_levels_match_popcount(self):
        graph = HasseGraph(4)
        assert graph.level(0) == 0
        assert graph.level(11) == 3
        assert graph.level_nodes_array(1).tolist() == [1, 2, 4, 8]
        assert graph.level_nodes_array(2).tolist() == [3, 5, 6, 9, 10, 12]

    def test_invalid_width_rejected(self):
        with pytest.raises(ConfigurationError):
            HasseGraph(0)
        with pytest.raises(ConfigurationError):
            HasseGraph(17)

    def test_instances_are_cached(self):
        assert HasseGraph(6) is HasseGraph(6)
        assert hasse_graph(6) is HasseGraph(6)


class TestAdjacency:
    def test_prefixes_of_node_11(self):
        # Fig. 4: node 11 (1011) has direct prefixes 3, 9, 10.
        assert sorted(HasseGraph(4).direct_prefixes(11)) == [3, 9, 10]

    def test_suffixes_of_node_3(self):
        # Node 3 (0011) can only grow to 7 and 11.
        assert sorted(HasseGraph(4).direct_suffixes(3)) == [7, 11]

    def test_node_out_of_range(self):
        with pytest.raises(ConfigurationError):
            HasseGraph(4).level(16)


class TestTraversals:
    def test_hamming_order_matches_algorithm1(self):
        order = HasseGraph(4).hamming_order(include_top=False)
        assert order == [0, 1, 2, 4, 8, 3, 5, 6, 9, 10, 12, 7, 11, 13, 14]

    def test_reverse_hamming_order_matches_algorithm2(self):
        order = HasseGraph(4).reverse_hamming_order()
        assert order == [15, 14, 13, 11, 7, 12, 10, 9, 6, 5, 3, 8, 4, 2, 1]

    def test_hamming_order_without_zero(self):
        order = HasseGraph(4).hamming_order(include_zero=False)
        assert order[0] == 1 and 0 not in order

    @given(st.integers(min_value=1, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_hamming_order_is_monotone_in_level(self, width):
        graph = HasseGraph(width)
        order = graph.hamming_order()
        levels = [graph.level(node) for node in order]
        assert levels == sorted(levels)
        assert len(order) == graph.num_nodes

    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**10 - 1))
    @settings(max_examples=60, deadline=None)
    def test_suffix_prefix_duality(self, width, node):
        graph = HasseGraph(width)
        node %= graph.num_nodes
        for suffix in graph.direct_suffixes(node):
            assert node in graph.direct_prefixes(suffix)
        for prefix in graph.direct_prefixes(node):
            assert node in graph.direct_suffixes(prefix)
