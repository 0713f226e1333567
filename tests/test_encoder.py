"""Unit tests for the memoized local encoder used by SLUGGER's merging step."""

from __future__ import annotations

import pytest

from repro.core.encoder import (
    Panel,
    _dense_count_between,
    _dense_count_within,
    _dense_missing_pairs_between,
    _dense_missing_pairs_within,
    _dense_present_pairs_between,
    _dense_present_pairs_within,
    apply_cross_plan,
    apply_intra_plan,
    memo_table_sizes,
    plan_cross_encoding,
    plan_intra_encoding,
)
from repro.graphs import DenseAdjacency, Graph, complete_bipartite_graph, complete_graph
from repro.model import Hierarchy, HierarchicalSummary

# Every hierarchy below adds its leaves in ``graph.nodes()`` order, the
# order ``DenseAdjacency.from_graph`` assigns ids in, so dense node id ==
# leaf id as the encoder requires.


def _two_group_hierarchy(graph, left, right):
    """Build a hierarchy with two root supernodes over the given node sets."""
    hierarchy = Hierarchy()
    leaves = {node: hierarchy.add_leaf(node) for node in graph.nodes()}
    root_left = hierarchy.create_parent([leaves[node] for node in left]) if len(left) > 1 else leaves[left[0]]
    root_right = hierarchy.create_parent([leaves[node] for node in right]) if len(right) > 1 else leaves[right[0]]
    return hierarchy, root_left, root_right


class TestBlockCounting:
    def test_count_edges_between(self):
        graph = complete_bipartite_graph(2, 3)
        dense = DenseAdjacency.from_graph(graph)
        hierarchy, left, right = _two_group_hierarchy(graph, [0, 1], [2, 3, 4])
        assert _dense_count_between(dense, hierarchy, left, right) == 6
        assert len(_dense_present_pairs_between(dense, hierarchy, left, right)) == 6
        assert _dense_missing_pairs_between(dense, hierarchy, left, right) == []

    def test_count_edges_within(self):
        graph = complete_graph(4)
        graph.remove_edge(0, 1)
        dense = DenseAdjacency.from_graph(graph)
        hierarchy = Hierarchy()
        leaves = [hierarchy.add_leaf(node) for node in graph.nodes()]
        root = hierarchy.create_parent(leaves)
        assert _dense_count_within(dense, hierarchy, root) == 5
        assert len(_dense_present_pairs_within(dense, hierarchy, root)) == 5
        missing = _dense_missing_pairs_within(dense, hierarchy, root)
        assert [frozenset(pair) for pair in missing] == [frozenset({0, 1})]


class TestCrossPlans:
    def test_complete_bipartite_uses_single_blanket(self):
        graph = complete_bipartite_graph(3, 4)
        hierarchy, left, right = _two_group_hierarchy(graph, [0, 1, 2], [3, 4, 5, 6])
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_cross_encoding(dense, hierarchy, Panel(hierarchy, left), Panel(hierarchy, right))
        assert plan.cost == 1
        assert len(plan.superedges) == 1
        assert plan.superedges[0][2] == 1

    def test_empty_cross_costs_nothing(self):
        graph = Graph(nodes=[0, 1, 2, 3])
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        hierarchy, left, right = _two_group_hierarchy(graph, [0, 1], [2, 3])
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_cross_encoding(dense, hierarchy, Panel(hierarchy, left), Panel(hierarchy, right))
        assert plan.cost == 0
        assert plan.superedges == []

    def test_sparse_cross_uses_leaf_edges(self):
        graph = Graph(nodes=[0, 1, 2, 3])
        graph.add_edge(0, 2)
        hierarchy, left, right = _two_group_hierarchy(graph, [0, 1], [2, 3])
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_cross_encoding(dense, hierarchy, Panel(hierarchy, left), Panel(hierarchy, right))
        assert plan.cost == 1
        assert plan.superedges == []
        assert plan.positive_blocks  # The present pair is listed at leaf level.

    def test_plan_application_is_lossless(self):
        graph = complete_bipartite_graph(3, 3)
        graph.remove_edge(0, 5)
        hierarchy, left, right = _two_group_hierarchy(graph, [0, 1, 2], [3, 4, 5])
        panel_a, panel_b = Panel(hierarchy, left), Panel(hierarchy, right)
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_cross_encoding(dense, hierarchy, panel_a, panel_b)
        summary = HierarchicalSummary(hierarchy)
        apply_cross_plan(plan, dense, hierarchy, panel_a, panel_b, summary.add_edge)
        summary.validate(graph)
        assert summary.num_p_edges + summary.num_n_edges == plan.cost

    def test_memo_disabled_gives_same_cost(self):
        graph = complete_bipartite_graph(3, 4)
        graph.remove_edge(0, 4)
        hierarchy, left, right = _two_group_hierarchy(graph, [0, 1, 2], [3, 4, 5, 6])
        panel_a, panel_b = Panel(hierarchy, left), Panel(hierarchy, right)
        dense = DenseAdjacency.from_graph(graph)
        with_memo = plan_cross_encoding(dense, hierarchy, panel_a, panel_b, use_memo=True)
        without_memo = plan_cross_encoding(dense, hierarchy, panel_a, panel_b, use_memo=False)
        assert with_memo.cost == without_memo.cost

    def test_memo_statistics_exposed(self):
        statistics = memo_table_sizes()
        assert statistics["cross_entries"] >= 0
        assert "intra_entries" in statistics


class TestIntraPlans:
    def _merged_panel(self, graph, left, right):
        hierarchy = Hierarchy()
        leaves = {node: hierarchy.add_leaf(node) for node in graph.nodes()}
        root_left = hierarchy.create_parent([leaves[node] for node in left])
        root_right = hierarchy.create_parent([leaves[node] for node in right])
        merged = hierarchy.create_parent([root_left, root_right])
        return hierarchy, merged

    def test_clique_becomes_self_loop(self):
        graph = complete_graph(6)
        hierarchy, merged = self._merged_panel(graph, [0, 1, 2], [3, 4, 5])
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_intra_encoding(dense, hierarchy, merged, Panel(hierarchy, merged))
        assert plan.cost == 1
        assert plan.superedges == [(merged, merged, 1)]

    def test_near_clique_prefers_corrections(self):
        graph = complete_graph(6)
        graph.remove_edge(0, 3)
        hierarchy, merged = self._merged_panel(graph, [0, 1, 2], [3, 4, 5])
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_intra_encoding(dense, hierarchy, merged, Panel(hierarchy, merged))
        assert plan.cost == 2  # Self-loop plus one negative leaf correction.

    def test_intra_plan_application_is_lossless(self):
        graph = complete_graph(6)
        graph.remove_edge(1, 4)
        graph.remove_edge(2, 5)
        hierarchy, merged = self._merged_panel(graph, [0, 1, 2], [3, 4, 5])
        panel = Panel(hierarchy, merged)
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_intra_encoding(dense, hierarchy, merged, panel)
        summary = HierarchicalSummary(hierarchy)
        apply_intra_plan(plan, dense, hierarchy, panel, summary.add_edge)
        summary.validate(graph)
        assert summary.num_p_edges + summary.num_n_edges == plan.cost

    def test_bipartite_inside_merged_node(self):
        # Two halves with all edges across and none within: the best intra
        # encoding is a single blanket between the two child parts.
        graph = complete_bipartite_graph(3, 3)
        hierarchy, merged = self._merged_panel(graph, [0, 1, 2], [3, 4, 5])
        dense = DenseAdjacency.from_graph(graph)
        plan = plan_intra_encoding(dense, hierarchy, merged, Panel(hierarchy, merged))
        assert plan.cost == 1
        assert len(plan.superedges) == 1
        x, y, sign = plan.superedges[0]
        assert sign == 1
        assert x != y

    def test_memo_disabled_matches(self):
        graph = complete_graph(6)
        graph.remove_edge(0, 3)
        hierarchy, merged = self._merged_panel(graph, [0, 1, 2], [3, 4, 5])
        panel = Panel(hierarchy, merged)
        dense = DenseAdjacency.from_graph(graph)
        assert (
            plan_intra_encoding(dense, hierarchy, merged, panel, use_memo=True).cost
            == plan_intra_encoding(dense, hierarchy, merged, panel, use_memo=False).cost
        )


class TestPanel:
    def test_leaf_panel_shape(self):
        hierarchy = Hierarchy()
        leaf = hierarchy.add_leaf("x")
        panel = Panel(hierarchy, leaf)
        assert panel.parts == [leaf]
        assert panel.has_distinct_top is False
        assert panel.endpoints() == [leaf]
        assert panel.endpoint_coverage() == [(0,)]

    def test_internal_panel_shape(self):
        hierarchy = Hierarchy()
        a, b = hierarchy.add_leaf("a"), hierarchy.add_leaf("b")
        top = hierarchy.create_parent([a, b])
        panel = Panel(hierarchy, top)
        assert panel.shape == (2, True)
        assert panel.endpoints()[0] == top
        assert panel.endpoint_coverage()[0] == (0, 1)
