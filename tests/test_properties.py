"""Property tests of the graph arrays and the batch link scores.

Random small graphs (isolated nodes included) are checked against the
brute-force references in ``oracles.py`` and against plain-dict and
random-order reference computations written out below.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cn_oracle, jaccard_oracle, neighbors_of, pa_oracle, two_hop_of

from gigmine import linkpred
from gigmine.graph import BipartiteGraph, EdgeInfo, build_graph
from gigmine.ingest import recursive_core_filter
from gigmine.linkpred import HEURISTICS, build_score_tables

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def graphs(draw, max_nodes=8):
    n_a = draw(st.integers(1, max_nodes))
    n_v = draw(st.integers(1, max_nodes))
    cells = draw(st.sets(st.tuples(st.integers(0, n_a - 1), st.integers(0, n_v - 1))))
    edges = {
        (f"a{i}", f"v{j}"): EdgeInfo(draw(st.integers(1, 4)), draw(st.integers(2008, 2017)))
        for i, j in sorted(cells)
    }
    return BipartiteGraph([f"a{i}" for i in range(n_a)], [f"v{j}" for j in range(n_v)], edges)


@PROPERTY
@given(graphs(), st.sampled_from([1, 7, 1 << 22]))
def test_batch_heuristics_match_oracles(g, chunk_cells):
    edge_pairs = list(g.edges)
    candidates = [
        (a, v) for a in g.artist_order for v in g.venue_order if not g.has_edge(a, v)
    ]
    if not candidates:
        return
    # small blocks split the artists over several products
    with mock.patch.object(linkpred, "_CHUNK_CELLS", chunk_cells):
        tables = build_score_tables(g, candidates, predictors=HEURISTICS)
    for a, v in candidates:
        assert tables["common_neighbors"][(a, v)] == cn_oracle(edge_pairs, a, v)
        assert tables["jaccard"][(a, v)] == jaccard_oracle(edge_pairs, a, v)
        assert tables["preferential_attachment"][(a, v)] == pa_oracle(edge_pairs, a, v)


@PROPERTY
@given(graphs())
def test_neighborhood_views_match_oracles(g):
    edge_pairs = list(g.edges)
    for node in g.artist_order + g.venue_order:
        assert g.neighbors(node) == neighbors_of(edge_pairs, node)
        assert g.two_hop_neighbors(node) == two_hop_of(edge_pairs, node)
        assert g.degree(node) == len(neighbors_of(edge_pairs, node))


# a small alphabet makes ids and pairs repeat; NUL, quote and space sort
# below the letters
ids = st.text(alphabet="ab\x00' ", max_size=3)
triples = st.lists(
    st.tuples(ids.map(lambda s: "a" + s), ids.map(lambda s: "v" + s), st.integers(1990, 2030)),
    max_size=40,
)


@PROPERTY
@given(triples)
def test_build_graph_matches_brute_force(events):
    want: dict = {}
    for a, v, year in events:
        count, first = want.get((a, v), (0, year))
        want[(a, v)] = (count + 1, min(first, year))
    g = build_graph(events)
    assert {p: (e.count, e.first_year) for p, e in g.edges.items()} == want
    assert g.artist_order == tuple(sorted({a for a, _ in want}, key=str))
    assert g.venue_order == tuple(sorted({v for _, v in want}, key=str))
    assert g == BipartiteGraph(g.artists, g.venues, g.edges)


def _peel(g, k, order):
    """Remove one node below k events at a time, scanning nodes in ``order``."""
    edges = dict(g.edges)
    alive = set(order)
    removed = True
    while removed:
        removed = False
        for node in order:
            if node not in alive:
                continue
            events = sum(e.count for pair, e in edges.items() if node in pair)
            if events < k:
                alive.discard(node)
                edges = {pair: e for pair, e in edges.items() if node not in pair}
                removed = True
    return alive, edges


@PROPERTY
@given(graphs(max_nodes=10), st.integers(0, 9), st.randoms(use_true_random=False))
def test_core_filter_matches_random_order_peel(g, k, rnd):
    order = list(g.artist_order + g.venue_order)
    rnd.shuffle(order)
    alive, edges = _peel(g, k, order)
    kept = recursive_core_filter(g, k=k)
    assert kept.artists | kept.venues == alive
    assert kept.edges == edges
