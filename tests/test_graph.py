import tracemalloc

import numpy as np
import pytest

from conftest import edges_of, make_corpus, make_graph, triples_corpus
from oracles import assert_neighborhoods_match, random_bipartite

from gigmine.errors import GigmineError
from gigmine.graph import BipartiteGraph, build_graph
from gigmine.ingest import parse_corpus
from gigmine.synth import GenSpec, generate


def arrays(rows):
    """row, col, count and first_year columns of (row, col, count, first_year) rows."""
    return np.array(rows, dtype=np.int64).reshape(-1, 4).T


class TestConstruction:
    def test_rejects_edge_with_unknown_endpoint(self):
        for row, col in [(1, 0), (0, 1), (-1, 0), (0, -1)]:
            with pytest.raises(GigmineError, match="index outside"):
                BipartiteGraph(("a",), ("v",), *arrays([(row, col, 1, 2010)]))

    def test_rejects_nonpositive_edge_count(self):
        with pytest.raises(GigmineError, match="count"):
            BipartiteGraph(("a",), ("v",), *arrays([(0, 0, 0, 2010)]))

    @pytest.mark.parametrize("rows", [
        [(1, 0, 1, 2010), (0, 0, 1, 2010)],  # artists descending
        [(0, 1, 1, 2010), (0, 0, 1, 2010)],  # venues descending within an artist
        [(0, 0, 1, 2010), (0, 0, 2, 2011)],  # one pair twice
    ])
    def test_rejects_edges_out_of_csr_order(self, rows):
        with pytest.raises(GigmineError, match="strictly ascending"):
            BipartiteGraph(("a", "b"), ("v", "w"), *arrays(rows))

    def test_rejects_edge_arrays_of_unequal_length(self):
        row, col, count, first_year = arrays([(0, 0, 1, 2010)])
        with pytest.raises(GigmineError, match="one length"):
            BipartiteGraph(("a",), ("v",), row, col, count, np.array([2010, 2011]))

    def test_isolated_nodes_are_allowed(self):
        g = make_graph([("a", "v", 1, 2010)], artists=["b"])
        b = g.artist_order.index("b")
        assert g.col[g.indptr[b]:g.indptr[b + 1]].size == 0
        assert np.diff(g.indptr)[b] == 0

    def test_equality_is_structural(self, toy_graph):
        twin = BipartiteGraph(
            ["a1", "a2"], ["v1", "v2"],
            [0, 0, 1], [0, 1, 0], [1, 1, 1], [2010, 2011, 2012],
        )
        assert toy_graph == twin
        assert toy_graph != make_graph([("a1", "v1", 1, 2010)], ["a2"], ["v2"])

    def test_graph_holds_only_int_arrays_and_id_tuples(self):
        g = random_bipartite(np.random.default_rng(3), 6, 5, 0.4)
        for sub in (g, g.subgraph(g.count > 1)):
            for name, value in vars(sub).items():
                assert not isinstance(value, (dict, set, frozenset)), name
                if isinstance(value, np.ndarray):
                    assert value.dtype == np.int64 and not value.flags.writeable, name
                else:
                    assert name in ("artist_order", "venue_order") and type(value) is tuple


class TestNeighborhoods:
    def test_neighbors_toy(self, toy_graph):
        g = toy_graph
        assert g.col[g.indptr[0]:g.indptr[1]].tolist() == [0, 1]  # a1: v1, v2
        assert g.csc_indices[g.csc_indptr[1]:g.csc_indptr[2]].tolist() == [0]  # v2: a1

    def test_neighbors_match_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            g = random_bipartite(
                rng,
                int(rng.integers(2, 15)),
                int(rng.integers(2, 15)),
                float(rng.uniform(0.1, 0.4)),
            )
            assert_neighborhoods_match(g)


class TestCountsAndOrders:
    def test_degree_counts_distinct_neighbors_not_events(self):
        g = make_graph([("a", "v", 5, 2010), ("a", "w", 1, 2010)])
        assert np.diff(g.indptr).tolist() == [2]
        assert np.bincount(g.row, weights=g.count).tolist() == [6]
        assert np.bincount(g.col, weights=g.count).tolist() == [5, 1]

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
        b = toy_graph.biadjacency().toarray()
        assert b.tolist() == [[1, 1], [1, 0]]
        # an edge of several events is still a 1
        assert make_graph([("a", "v", 3, 2010)]).biadjacency().toarray().tolist() == [[1.0]]


class TestSubgraph:
    def test_mask_drops_edges_and_keeps_nodes(self, toy_graph):
        sub = toy_graph.subgraph(np.array([True, False, True]))
        assert sub == make_graph([("a1", "v1", 1, 2010), ("a2", "v1", 1, 2012)], venues=["v2"])

    @pytest.mark.parametrize("masks, name", [
        ((np.array([1, 0, 1]),), "keep_edges"),  # 0/1 ints index rather than mask
        ((np.array([True, False]),), "keep_edges"),
    ])
    def test_rejects_masks_that_are_not_bool_arrays_of_their_length(self, toy_graph, masks, name):
        with pytest.raises(GigmineError, match=f"{name} must be a bool array of length"):
            toy_graph.subgraph(*masks)


class TestBuildGraph:
    def test_aggregates_count_and_first_year(self):
        g = build_graph(triples_corpus([("a", "v", 2012), ("a", "v", 2009), ("b", "v", 2010)]))
        assert edges_of(g) == {("a", "v"): (2, 2009), ("b", "v"): (1, 2010)}

    def test_empty_event_list_gives_empty_graph(self):
        g = build_graph(make_corpus([]))
        assert g.n_edges == 0 and not g.artist_order and not g.venue_order


def test_build_peak_bounded_by_the_graph(tmp_path):
    # the per-event pair codes, sort order and run starts are freed before
    # the graph builds its own arrays: with them alive the traced peak is
    # 2.74x the retained graph, without them 2.03x
    generate(GenSpec(n_artists=500, n_venues=300, seed=1), tmp_path)
    corpus = parse_corpus(*(tmp_path / f for f in ("events.csv", "releases.csv", "labels.csv")))
    corpus.year  # a cached column: computed before tracing
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        graph = build_graph(corpus)
        retained, peak = (size - start for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert graph.n_edges > 0
    assert peak <= 2.4 * retained
