import numpy as np
import pytest

from oracles import neighbors_of, random_bipartite

from gigmine.errors import GigmineError, UnknownNodeError
from gigmine.graph import BipartiteGraph, EdgeInfo, build_graph


class TestConstruction:
    def test_rejects_overlapping_id_sets(self):
        """Artist and venue ids share a namespace; overlap corrupts set formulas."""
        with pytest.raises(GigmineError, match="overlap"):
            BipartiteGraph({"x"}, {"x"}, {})

    def test_rejects_edge_with_unknown_endpoint(self):
        with pytest.raises(GigmineError, match="endpoint"):
            BipartiteGraph({"a"}, {"v"}, {("a", "w"): EdgeInfo(1, 2010)})

    def test_rejects_nonpositive_edge_count(self):
        with pytest.raises(GigmineError, match="count"):
            BipartiteGraph({"a"}, {"v"}, {("a", "v"): EdgeInfo(0, 2010)})

    def test_isolated_nodes_are_allowed(self):
        g = BipartiteGraph({"a", "b"}, {"v"}, {("a", "v"): EdgeInfo(1, 2010)})
        assert g.neighbors("b") == frozenset()
        assert g.degree("b") == 0

    def test_equality_is_structural(self, toy_graph):
        twin = BipartiteGraph(
            {"a1", "a2"},
            {"v1", "v2"},
            {
                ("a1", "v1"): EdgeInfo(1, 2010),
                ("a1", "v2"): EdgeInfo(1, 2011),
                ("a2", "v1"): EdgeInfo(1, 2012),
            },
        )
        assert toy_graph == twin


class TestNeighborhoods:
    def test_neighbors_toy(self, toy_graph):
        assert toy_graph.neighbors("a1") == {"v1", "v2"}
        assert toy_graph.neighbors("v2") == {"a1"}

    def test_unknown_node_raises(self, toy_graph):
        with pytest.raises(UnknownNodeError):
            toy_graph.neighbors("nope")
        with pytest.raises(UnknownNodeError):
            toy_graph.degree("nope")
        with pytest.raises(UnknownNodeError):
            toy_graph.event_count("nope")

    def test_neighbors_match_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            g = random_bipartite(
                rng,
                int(rng.integers(2, 15)),
                int(rng.integers(2, 15)),
                float(rng.uniform(0.1, 0.4)),
            )
            pairs = list(g.edges)
            for node in list(g.artists) + list(g.venues):
                assert g.neighbors(node) == neighbors_of(pairs, node)


class TestCountsAndOrders:
    def test_degree_counts_distinct_neighbors_not_events(self):
        g = BipartiteGraph(
            {"a"}, {"v", "w"},
            {("a", "v"): EdgeInfo(5, 2010), ("a", "w"): EdgeInfo(1, 2010)},
        )
        assert g.degree("a") == 2
        assert g.event_count("a") == 6
        assert g.event_count("v") == 5

    def test_total_events_and_n_edges(self, toy_graph):
        assert toy_graph.n_edges == 3
        assert toy_graph.total_events == 3

    def test_orders_are_sorted_and_stable(self, toy_graph):
        assert toy_graph.artist_order == ("a1", "a2")
        assert toy_graph.venue_order == ("v1", "v2")

    def test_edge_arrays_are_csr_ordered_and_read_only(self, toy_graph):
        assert toy_graph.row.tolist() == [0, 0, 1]
        assert toy_graph.col.tolist() == [0, 1, 0]
        assert toy_graph.indptr.tolist() == [0, 2, 3]
        assert toy_graph.csc_indptr.tolist() == [0, 2, 3]
        assert toy_graph.csc_indices.tolist() == [0, 1, 0]
        assert toy_graph.csc_edges.tolist() == [0, 2, 1]  # CSR positions in CSC order
        with pytest.raises(ValueError):
            toy_graph.count[0] = 5

    def test_biadjacency_values(self, toy_graph):
        b = toy_graph.biadjacency("binary").toarray()
        assert b.tolist() == [[1, 1], [1, 0]]
        g = BipartiteGraph({"a"}, {"v"}, {("a", "v"): EdgeInfo(3, 2010)})
        assert g.biadjacency("count").toarray().tolist() == [[3.0]]
        assert g.biadjacency(np.array([0.5])).toarray().tolist() == [[0.5]]
        with pytest.raises(ValueError):
            g.biadjacency("nope")


class TestBuildGraph:
    def test_from_triples_aggregates_count_and_first_year(self):
        g = build_graph([("a", "v", 2012), ("a", "v", 2009), ("b", "v", 2010)])
        edges = g.edges
        assert edges[("a", "v")].count == 2
        assert edges[("a", "v")].first_year == 2009
        assert edges[("b", "v")].count == 1

    def test_missing_ids_rejected_with_position(self):
        with pytest.raises(GigmineError, match="#1"):
            build_graph([("a", "v", 2010), ("", "v", 2010)])

    def test_empty_event_list_gives_empty_graph(self):
        g = build_graph([])
        assert g.n_edges == 0 and not g.artists and not g.venues
