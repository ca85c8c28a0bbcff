"""Property tests of the graph arrays, the packed-key row ranking, the batch
link scores, the walk sampler, the ROC AUC and its midranks, the sorted code
sets, the link-prediction AUC, the BiRank fixed point, the min-activity
filter, route mining, the corpus file parse and the success labels.

Random small graphs (isolated nodes included), corpora, city sequences,
corpus files, raw lines among them, and label tables are checked against
the brute-force references in ``oracles.py`` and against plain-dict and
random-order reference computations written out below.
"""

import csv
import datetime as dt
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from conftest import (
    EVENT_HEADER, LABEL_HEADER, RELEASE_HEADER, edges_of, event_row, id_pairs, kept_ids,
    make_corpus, make_graph, sequences_of, triples_corpus, write_csv,
)
from oracles import (
    assert_neighborhoods_match,
    cn_oracle,
    dense_birank_oracle,
    jaccard_oracle,
    label_reference,
    major_closure as major_closure_reference,
    neighbors_of,
    pa_oracle,
    parse_events_reference,
    parse_labels_reference,
    parse_releases_reference,
    pairwise_auc,
    random_bipartite,
    raw_ngram_counts,
    temporal_split_reference,
)

from gigmine import graph, ingest, linkpred
from gigmine.birank import birank, seed_scores, temporal_weights
from gigmine.embeddings import _draw_noise, _noise_table, _scatter_rows, sample_walks
from gigmine.graph import build_graph, rank_rows
from gigmine.errors import CorpusFormatError, CycleError, GigmineError
from gigmine.ingest import (
    filter_min_activity, filter_post_2007, parse_corpus, recursive_core_filter,
)
from gigmine.labeling import NEVER, label_corpus, major_closure
from gigmine.linkpred import (
    HEURISTICS, build_score_tables, edge_codes, evaluate_linkpred, make_temporal_split,
)
from gigmine.metrics import _midranks, roc_auc
from gigmine.routes import CitySequence, mine_routes

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(st.data())
def test_scatter_rows_matches_add_at_bitwise(data):
    # repeated and untouched rows of w, repeated source rows, empty updates;
    # the source rows lie after the weights (the w_in update reads the
    # buffer's tail) or before them (the w_out update reads w_in)
    n_rows, n_src, d = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5)), 3
    m = data.draw(st.integers(0, 20))
    idx = np.array(data.draw(st.lists(st.integers(0, n_rows - 1), min_size=m, max_size=m)),
                   dtype=np.int64)
    src_row = np.array(data.draw(st.lists(st.integers(0, n_src - 1), min_size=m, max_size=m)),
                       dtype=np.int64)
    src_first = data.draw(st.booleans())
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n_rows, d)) * 10.0 ** rng.integers(-8, 8, (n_rows, 1))
    src = rng.standard_normal((n_src, d)) * 10.0 ** rng.integers(-8, 8, (n_src, 1))
    coef = rng.standard_normal(m) * 10.0 ** rng.integers(-8, 8, m)

    want = w.copy()
    np.add.at(want, idx, coef[:, None] * src[src_row])
    if src_first:
        buf, w_at, src_at = np.vstack([src, w]), n_src, 0
    else:
        buf, w_at, src_at = np.vstack([w, src]), 0, n_rows
    _scatter_rows(buf, w_at + idx, coef, src_at + src_row)
    assert np.array_equal(buf[w_at : w_at + n_rows], want)
    assert np.array_equal(buf[src_at : src_at + n_src], src)


@PROPERTY
@given(st.lists(st.integers(0, 5), min_size=1, max_size=40), st.lists(
    st.floats(0.0, 1.0, exclude_max=True), max_size=200))
@example(freq=[2], draws=[0.0])
@example(freq=[1, 0, 1, 1, 0, 1], draws=[0.25, 0.5, 0.75])  # CDF values on bucket edges
@example(freq=[0, 0, 3, 0, 0, 0, 1, 0], draws=[])
def test_noise_draw_matches_searchsorted_bitwise(freq, draws):
    # zero frequencies repeat a CDF value; every bucket edge, every CDF value
    # and the floats either side of each are drawn besides the free draws
    assume(sum(freq) > 0)
    noise = np.array(freq, dtype=float) ** 0.75
    cdf = np.cumsum(noise / noise.sum())
    cdf[-1] = 1.0  # as train_embeddings sets it
    table = _noise_table(cdf)
    m = table.size
    assert m & (m - 1) == 0 and m >= 8 * cdf.size
    u = np.concatenate([
        np.arange(m) / m, cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
        np.array(draws, dtype=float),
    ])
    u = u[(u >= 0.0) & (u < 1.0)]
    assert np.array_equal(_draw_noise(cdf, table, u), np.searchsorted(cdf, u))
    block = u[: u.size // 5 * 5].reshape(-1, 5)  # the (pairs, NEGATIVES) shape of a chunk
    assert np.array_equal(_draw_noise(cdf, table, block), np.searchsorted(cdf, block))


@st.composite
def walk_graphs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_bipartite(rng, draw(st.integers(1, 6)), draw(st.integers(1, 6)),
                         draw(st.sampled_from([0.0, 0.2, 0.5, 1.0])))
    # an isolated artist and venue besides any the draw leaves
    rows = [(a, v, *info) for (a, v), info in edges_of(g).items()]
    return make_graph(rows, [*g.artist_order, "lone"], [*g.venue_order, "empty"])


@PROPERTY
@given(walk_graphs(), st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_walks_step_along_edges_in_node_order(g, walks_per_node, length, seed):
    walks = sample_walks(g, walks_per_node=walks_per_node, length=length, seed=seed)
    nodes = [*g.artist_order, *g.venue_order]  # node n_a + j is venue j
    n_a, edge_pairs = len(g.artist_order), set(edges_of(g))
    assert [w[0] for w in walks] == [k for k in range(len(nodes)) for _ in range(walks_per_node)]
    assert walks.shape == (len(nodes) * walks_per_node, length + 1)
    for row in walks.tolist():
        walk = [x for x in row if x >= 0]
        isolated = not neighbors_of(edge_pairs, nodes[walk[0]])
        assert len(walk) == (1 if isolated else length + 1)
        assert row == walk + [-1] * (length + 1 - len(walk))  # -1 only pads the tail
        for x, y in zip(walk, walk[1:]):
            assert ((nodes[x], nodes[y]) if x < n_a else (nodes[y], nodes[x])) in edge_pairs
    again = sample_walks(g, walks_per_node=walks_per_node, length=length, seed=seed)
    assert np.array_equal(again, walks)


# signed zeros, the smallest subnormal, a mid-range subnormal, the smallest
# normal and magnitudes up to 1e300
EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e300, -1e300)


@PROPERTY
@given(
    pool=st.lists(
        st.one_of(st.sampled_from(EDGE_FLOATS),
                  st.floats(-1e300, 1e300, allow_nan=False)),
        min_size=1, max_size=500,
    ),
    cells=st.lists(st.tuples(st.integers(0, 499), st.booleans()), min_size=2, max_size=500),
)
@example(pool=[0.25], cells=[(0, True), (0, False), (0, True)])  # all equal
@example(pool=[-0.0, 0.0], cells=[(0, True), (1, False), (1, True), (0, False)])
@example(pool=list(EDGE_FLOATS), cells=[(i % 8, i % 3 == 0) for i in range(40)])
@example(pool=[1.0, 2.0, 1e300], cells=[(i % 3, i % 7 == 0) for i in range(500)])
def test_roc_auc_matches_rankdata_reference_bitwise(pool, cells):
    # each cell picks a score from the pool (few values: heavy ties) and a label
    s = np.array([pool[i % len(pool)] for i, _ in cells])
    y = np.array([label for _, label in cells])
    assume(y.any() and not y.all())
    ranks = rankdata(s, method="average")
    n_pos, n_neg = int(y.sum()), int((~y).sum())
    want = (ranks[y].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    assert np.array_equal(_midranks(s), ranks)
    assert roc_auc(s, y) == want


@st.composite
def graphs(draw, max_nodes=8):
    n_a = draw(st.integers(1, max_nodes))
    n_v = draw(st.integers(1, max_nodes))
    cells = draw(st.sets(st.tuples(st.integers(0, n_a - 1), st.integers(0, n_v - 1))))
    edges = [
        (f"a{i}", f"v{j}", draw(st.integers(1, 4)), draw(st.integers(2008, 2017)))
        for i, j in sorted(cells)
    ]
    return make_graph(edges, [f"a{i}" for i in range(n_a)], [f"v{j}" for j in range(n_v)])


@PROPERTY
@given(graphs(), st.sampled_from([1, 7, 1 << 22]))
def test_batch_heuristics_match_oracles(g, chunk_cells):
    edge_pairs = list(edges_of(g))
    candidates = np.setdiff1d(
        np.arange(len(g.artist_order) * len(g.venue_order)), edge_codes(g)
    )
    if not candidates.size:
        return
    # small blocks split the artists over several products
    with mock.patch.object(linkpred, "_CHUNK_CELLS", chunk_cells):
        tables, _ = build_score_tables(g, candidates, predictors=HEURISTICS)
    for k, (a, v) in enumerate(id_pairs(g, candidates)):
        assert tables["common_neighbors"][k] == cn_oracle(edge_pairs, a, v)
        assert tables["jaccard"][k] == jaccard_oracle(edge_pairs, a, v)
        assert tables["preferential_attachment"][k] == pa_oracle(edge_pairs, a, v)


@PROPERTY
@given(st.data())
def test_evaluate_linkpred_matches_pairwise_auc_in_any_order(data):
    # distinct codes, each a positive, a negative or scored but unlabeled;
    # three score values make ties the rule
    codes = data.draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=30, unique=True))
    n = len(codes)
    labels = data.draw(st.lists(st.sampled_from([True, False, None]), min_size=n, max_size=n))
    scores = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    assume(True in labels and False in labels)
    order = data.draw(st.permutations(range(n)))
    positives = [c for c, y in zip(codes, labels) if y is True]
    negatives = [c for c, y in zip(codes, labels) if y is False]
    want = pairwise_auc(
        [s for s, y in zip(scores, labels) if y is not None],
        [y for y in labels if y is not None],
    )
    got = evaluate_linkpred(
        {"score": np.array(scores, dtype=float)[order]}, np.array(codes)[order],
        positives, negatives,
    )
    assert got == {"score": want}


# few small codes, so repeats are common, and codes either side of 2**62
pair_code_lists = st.lists(st.one_of(st.integers(0, 5), st.integers(2**62 - 3, 2**62 + 3)),
                           max_size=30)


@PROPERTY
@given(pair_code_lists, pair_code_lists)
@example(codes=[], table=[])
@example(codes=[4, 4, 4], table=[4, 4])
@example(codes=[2**62 + 3, 2**62, 0], table=[2**62 + 1])
def test_sorted_code_sets_match_unique_and_isin(codes, table):
    codes, table = np.array(codes, dtype=np.int64), np.array(table, dtype=np.int64)
    got, want = linkpred._distinct(codes), np.unique(codes)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    for ascending in (np.sort(table), np.unique(table)):
        got, want = linkpred._in_sorted(codes, ascending), np.isin(codes, table)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@PROPERTY
@given(graphs())
def test_neighborhood_views_match_oracles(g):
    assert_neighborhoods_match(g)


@PROPERTY
@given(graphs(), st.data())
def test_birank_matches_dense_fixed_point(g, data):
    # isolated nodes keep only their damped seed; the log-degree seeds need
    # an edge
    assume(g.n_edges > 0)
    alpha, beta = data.draw(st.floats(0.0, 0.95)), data.draw(st.floats(0.0, 0.95))
    delta = data.draw(st.floats(0.05, 1.0))
    count_scaled = data.draw(st.booleans())
    u0, p0 = seed_scores(g)
    tw = temporal_weights(g, delta=delta, ref_year=2017)
    weights = {
        pair: w * count if count_scaled else w
        for pair, w, count in zip(g.id_pairs(g.row, g.col), tw.tolist(), g.count.tolist())
    }

    # each step contracts toward the fixed point by alpha * beta <= 0.9025, so
    # stopping at an L1 step below 1e-13 lands far inside the 1e-10 tolerance
    got = birank(g, delta=delta, ref_year=2017, alpha=alpha, beta=beta, tol=1e-13,
                 max_iter=2000, count_scaled=count_scaled)
    want_u, want_p = dense_birank_oracle(g, weights, u0, p0, alpha, beta)
    assert got.converged
    assert got.artist_scores.order == g.artist_order and got.venue_scores.order == g.venue_order
    assert np.allclose(got.artist_scores.array, want_u, rtol=0, atol=1e-10)
    assert np.allclose(got.venue_scores.array, want_p, rtol=0, atol=1e-10)


def scipy_birank(g, w, u0, p0, alpha, beta, tol, max_iter):
    """BiRank's iteration from the seeds: scipy.sparse diagonal scalings and CSR products."""
    W = scipy.sparse.csr_matrix((w, g.col, g.indptr), shape=(len(u0), len(p0)))
    du = np.asarray(W.sum(axis=1)).ravel()
    dp = np.asarray(W.sum(axis=0)).ravel()
    inv_sqrt_u = np.where(du > 0, du, 1.0) ** -0.5 * (du > 0)
    inv_sqrt_p = np.where(dp > 0, dp, 1.0) ** -0.5 * (dp > 0)
    S = scipy.sparse.diags(inv_sqrt_u) @ W @ scipy.sparse.diags(inv_sqrt_p)
    u, p = u0, p0
    for iterations in range(1, max_iter + 1):
        u_new = alpha * (S @ p) + (1.0 - alpha) * u0
        p_new = beta * (S.T @ u_new) + (1.0 - beta) * p0
        change = max(float(np.abs(u_new - u).sum()), float(np.abs(p_new - p).sum()))
        u, p = u_new, p_new
        if change < tol:
            break
    return u, p, iterations


@PROPERTY
@given(graphs(max_nodes=12), st.data())
def test_birank_matches_scipy_sparse_bitwise(g, data):
    # isolated nodes, capped and converged runs; the log-degree seeds need
    # an edge
    assume(g.n_edges > 0)
    alpha, beta = data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.0, 1.0))
    delta = data.draw(st.floats(0.05, 1.0))
    count_scaled = data.draw(st.booleans())
    max_iter = data.draw(st.integers(1, 40))
    tol = data.draw(st.sampled_from([0.0, 1e-12, 1e-6]))
    u0, p0 = seed_scores(g)
    tw = temporal_weights(g, delta=delta, ref_year=2017)
    w = tw * g.count if count_scaled else tw

    got = birank(g, delta=delta, ref_year=2017, alpha=alpha, beta=beta, tol=tol,
                 max_iter=max_iter, count_scaled=count_scaled)
    want_u, want_p, iterations = scipy_birank(g, w, u0, p0, alpha, beta, tol, max_iter)
    assert np.array_equal(got.artist_scores.array, want_u)
    assert np.array_equal(got.venue_scores.array, want_p)
    assert got.iterations == iterations


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
    g = build_graph(triples_corpus(events))
    assert edges_of(g) == want
    assert g.artist_order == tuple(sorted({a for a, _ in want}, key=str))
    assert g.venue_order == tuple(sorted({v for _, v in want}, key=str))
    assert g == make_graph([(a, v, *info) for (a, v), info in want.items()])


# (bound, pool of values) per kind of column: a small bound with heavy ties,
# bounds near 2**40 (two of them pass 2**63, so the partial key is re-ranked),
# a bound near 2**62 (past 2**63 even after such a re-rank, so the column is
# ranked too) and uint64 words, top bit set or not
KEY_COLUMNS = {
    "small": (3, [0, 1, 2]),
    "wide": (2**40 + 3, [0, 1, 2**39, 2**40 + 2]),
    "huge": (2**62 + 1, [0, 1, 2**61, 2**62]),
    "word": (2**64, [0, 1, 2**63 - 1, 2**63, 2**64 - 1]),
}


@st.composite
def key_tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(KEY_COLUMNS)), min_size=1, max_size=5))
    pools = [st.sampled_from(KEY_COLUMNS[kind][1]) for kind in kinds]
    rows = draw(st.lists(st.tuples(*pools).map(list), max_size=40))
    return kinds, rows


def _key_columns(kinds, rows):
    matrix = np.array(rows, dtype=np.uint64).reshape(len(rows), len(kinds))
    return matrix, [
        (matrix[:, j].astype(np.uint64 if kind == "word" else np.int64), KEY_COLUMNS[kind][0])
        for j, kind in enumerate(kinds)
    ]


@PROPERTY
@given(key_tables())
@example((["small", "word"], []))
@example((["wide"], [[2**40 + 2], [0], [2**40 + 2]]))
@example((["wide", "wide", "small"], [[1, 0, 2], [0, 2**39, 1], [1, 0, 2], [1, 0, 0]]))
@example((["word", "word"], [[2**64 - 1, 0], [2**63, 1], [2**64 - 1, 0], [0, 2**63]]))
@example((["small", "huge"], [[2, 2**62], [1, 2**61], [2, 0], [0, 1], [2, 2**62]]))
def test_rank_rows_matches_unique_rows(table):
    kinds, rows = table
    matrix, columns = _key_columns(kinds, rows)
    _, want = np.unique(matrix, axis=0, return_inverse=True)
    rank, order, first = rank_rows(iter(columns))
    assert rank.tolist() == want.ravel().tolist()
    assert sorted(order.tolist()) == list(range(len(rows)))
    ranked = rank[order].tolist()
    assert ranked == sorted(ranked)
    assert first.tolist() == [i == 0 or ranked[i] != ranked[i - 1] for i in range(len(rows))]


def test_rank_rows_reranks_a_partial_key_past_2_63():
    rows = [[1, 2**39, 0], [0, 2**40 + 2, 1], [1, 2**39, 0], [1, 0, 2**40 + 2]]
    _, columns = _key_columns(["wide"] * 3, rows)
    with mock.patch.object(graph, "_reranked", wraps=graph._reranked) as reranked:
        rank = rank_rows(columns)[0]
    assert reranked.call_count >= 1
    assert rank.tolist() == [2, 0, 2, 1]


def _peel(g, k, order):
    """Remove one node below k events at a time, scanning nodes in ``order``."""
    edges = edges_of(g)
    alive = set(order)
    removed = True
    while removed:
        removed = False
        for node in order:
            if node not in alive:
                continue
            events = sum(count for pair, (count, _) in edges.items() if node in pair)
            if events < k:
                alive.discard(node)
                edges = {pair: e for pair, e in edges.items() if node not in pair}
                removed = True
    return alive, edges


@PROPERTY
@given(graphs(max_nodes=10), graphs(max_nodes=10), st.integers(0, 9),
       st.randoms(use_true_random=False))
def test_core_filter_matches_random_order_peel(g, later, k, rnd):
    # the corpus holds g's events and, outside the mask, later's: nodes of
    # later alone have no masked event and are peeled at every k above 0
    corpus = triples_corpus(
        [(a, v, year) for (a, v), (count, year) in edges_of(g).items() for _ in range(count)]
        + [(a, v, 2020) for a, v in edges_of(later)]
    )
    counted = corpus.year < 2020
    order = list(corpus.artist_order + corpus.venue_order)
    rnd.shuffle(order)
    alive, edges = _peel(g, k, order)
    artists, venues = recursive_core_filter(corpus, counted, k=k)
    assert kept_ids(corpus.artist_order, artists) | kept_ids(corpus.venue_order, venues) == alive
    kept = build_graph(corpus.select(counted & artists[corpus.artist] & venues[corpus.venue]))
    assert edges_of(kept) == edges


@st.composite
def split_events(draw):
    """(artist, venue, year) events of a small corpus over 2012-2017.

    task2's split trains on 2015 and before and tests on 2016-2017. A dense
    block of one to three artists and venues holds 10-60 training events,
    enough to survive the core filter; the rest are spread unevenly (a
    Dirichlet draw of each node's share), so some nodes have few events and
    the filter cascades through them. The test-year events pick their nodes
    uniformly, so many are new pairs and many touch a dropped node.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_a, n_v, n_spread, n_block, n_test = (int(rng.integers(*span)) for span in
                                           ((4, 13), (4, 11), (20, 81), (10, 61), (0, 31)))
    b_a, b_v = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    artists = np.concatenate([rng.choice(n_a, n_spread, p=rng.dirichlet(np.ones(n_a))),
                              rng.integers(0, b_a, n_block), rng.integers(0, n_a, n_test)])
    venues = np.concatenate([rng.choice(n_v, n_spread, p=rng.dirichlet(np.ones(n_v))),
                             rng.integers(0, b_v, n_block), rng.integers(0, n_v, n_test)])
    years = np.concatenate([rng.integers(2012, 2016, n_spread + n_block),
                            rng.integers(2016, 2018, n_test)])
    return list(zip(artists.tolist(), venues.tolist(), years.tolist()))


# at core_k 5, a1 (4 training events) falls and v1 (3) with it; both have
# test-year events, and (a2, v2) is the one new pair. At 4, v1 falls first
# and takes a1 down to 1 event; at 9 the cascade empties the graph.
CASCADE = (
    [(0, 0, 2015)] * 5 + [(1, 0, 2015)] + [(1, 1, 2015)] * 3 + [(2, 0, 2015)] * 5
    + [(0, 2, 2015)] * 5 + [(1, 0, 2016), (0, 1, 2016), (0, 0, 2017), (2, 2, 2016)]
)


@settings(PROPERTY, max_examples=200)
@given(split_events(), st.integers(1, 9))
@example(CASCADE, 5)
@example(CASCADE, 4)
@example(CASCADE, 9)
def test_temporal_split_matches_the_peel_reference(events, core_k):
    corpus = triples_corpus([(f"a{a}", f"v{v}", year) for a, v, year in events])
    graph, pairs, stats = temporal_split_reference(corpus, 2015, (2016, 2017), core_k)
    if not graph.n_edges or not pairs.size:
        message = "training graph is empty" if not graph.n_edges else "no new"
        with pytest.raises(GigmineError, match=message):
            make_temporal_split(corpus, 2015, (2016, 2017), core_k=core_k)
        return
    split = make_temporal_split(corpus, 2015, (2016, 2017), core_k=core_k)
    assert split.train_graph == graph
    assert split.test_pairs.tolist() == pairs.tolist()
    assert split.stats == stats


DAY0 = dt.date(2010, 1, 1).toordinal()
corpus_events = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 4), st.integers(0, 30)), min_size=1, max_size=50
)
change_offsets = st.lists(st.one_of(st.none(), st.integers(0, 30)), min_size=6, max_size=6)


def _activity_peel(rows, change_points, threshold, order):
    """Drop one node below the threshold at a time, scanning nodes in ``order``."""
    alive = set(order)
    removed = True
    while removed:
        removed = False
        for node in order:
            if node not in alive:
                continue
            live = [r for r in rows if r[1] in alive and r[2] in alive]
            if node.startswith("a"):
                cp = change_points[node]
                n = sum(r[1] == node and (cp is None or r[3] < cp) for r in live)
            else:
                n = sum(r[2] == node for r in live)
            if n < threshold:
                alive.discard(node)
                removed = True
    return alive


@PROPERTY
@given(corpus_events, change_offsets, st.integers(0, 6), st.randoms(use_true_random=False))
def test_min_activity_filter_matches_random_order_peel(events, offsets, threshold, rnd):
    rows = [(f"e{k}", f"a{a}", f"v{v}", dt.date.fromordinal(DAY0 + d))
            for k, (a, v, d) in enumerate(events)]
    change_points = {
        f"a{i}": None if off is None else dt.date.fromordinal(DAY0 + off)
        for i, off in enumerate(offsets)
    }
    order = sorted({r[1] for r in rows} | {r[2] for r in rows})
    rnd.shuffle(order)
    alive = _activity_peel(rows, change_points, threshold, order)
    kept_rows = [r for r in rows if r[1] in alive and r[2] in alive]

    corpus = make_corpus(rows, [(a, day) for a, day in change_points.items() if day is not None])
    kept = filter_min_activity(corpus, threshold)
    assert sorted(kept.event_id.tolist()) == sorted(r[0] for r in kept_rows)
    assert kept.artist_order == tuple(sorted({r[1] for r in kept_rows}))
    assert kept.venue_order == tuple(sorted({r[2] for r in kept_rows}))
    assert [kept.artist_order[a] for a in kept.artist.tolist()] == [
        r[1] for r in sorted(kept_rows, key=lambda r: (r[1], r[3], r[0]))
    ]


cities = st.sampled_from([(name, "", "US") for name in ("a", "b", "c", "d")])
walks = st.lists(cities, max_size=9)


@PROPERTY
@given(st.lists(walks, max_size=6), st.lists(walks, max_size=3), st.integers(1, 5),
       st.one_of(st.none(), st.integers(1, 4)))
def test_mine_routes_matches_merged_raw_counts(plain, halves, n, top_k):
    # even and odd palindromes, and every walk reversed as well
    palindromes = [h + h[::-1] for h in halves] + [h + h[-2::-1] for h in halves]
    sequences = plain + palindromes + [w[::-1] for w in plain]
    mined = mine_routes(sequences_of(sequences), n_values=(n,), top_k=top_k)[n]
    assert [(rc.route, (rc.count, rc.bidirectional)) for rc in mined] == \
        _merged_ranking(sequences, n, top_k)


def _merged_ranking(sequences, n, top_k):
    """(route, (count, bidirectional)) from raw n-gram counts, ranked as ``mine_routes`` ranks."""
    raw = raw_ngram_counts(sequences, n)
    want = {}
    for gram in raw:
        route, rev = min(gram, gram[::-1]), max(gram, gram[::-1])
        if route == rev:
            want[route] = (raw[route], False)
        else:
            fwd, back = raw.get(route, 0), raw.get(rev, 0)
            want[route] = (fwd + back, fwd > 0 and back > 0)
    return sorted(want.items(), key=lambda item: (-item[1][0], item[0]))[:top_k]


@pytest.mark.parametrize("n_cities, n", [(10_000, 5), (40, 12)])
def test_mine_routes_matches_merged_raw_counts_past_an_int64_key(n_cities, n):
    # len(table) ** n n-grams do not fit one int64 key, so it is re-ranked
    assert n_cities**n >= 2**63
    table = tuple((f"c{i:05d}", "", "US") for i in range(n_cities))
    rng = np.random.default_rng(n)
    # few cities, among them the first and last codes, so that n-grams repeat
    pool = np.append(rng.choice(np.arange(1, n_cities - 1), size=4, replace=False),
                     [0, n_cities - 1])
    walks = [pool[rng.integers(0, pool.size, size=rng.integers(n, 3 * n))] for _ in range(40)]
    # repeats, reversed walks and even palindromes
    walks += walks[:5] + [w[::-1] for w in walks[:10]]
    walks += [np.append(w, w[::-1]) for w in walks[10:14]]
    sequences = [CitySequence(f"a{i}", w, table) for i, w in enumerate(walks)]
    cities = [[table[c] for c in w.tolist()] for w in walks]
    for top_k in (None, 3):
        mined = mine_routes(sequences, n_values=(n,), top_k=top_k)[n]
        assert [(rc.route, (rc.count, rc.bidirectional)) for rc in mined] == \
            _merged_ranking(cities, n, top_k)


# the characters of ids: "plain" ones need no quoting, the others (NUL,
# quote, CR, LF, comma) are quoted by csv.writer or, for NUL, sorted as bytes
ID_CHARS = {"plain": ["a", "b", "é", "😀", " ", "-"],
            "csv": ["a", "é", "\0", '"', "\r", "\n", ","]}
# (accepted, rejected) values of each checked field
DATES = (["2010", "2010-05", "2010-05-01", "2011-12-31", "1999-02-28"],
         ["", "2010-13-01", "20100101", "2010-02-30", "x", "２０１０"])
LATS = (["40.7", "-90", "90.0", "0", " 1.5", "1e1", "1_0"], ["95", "-90.5", "", "abc", "nan"])
LONS = (["-74.0", "180", "-180.0", "0.5"], ["181", "inf", "", "1,5", "--1"])
POPS = (["", "55.5", "0", " 3 ", "nan", "1e400"], ["bad", "5%", "1.2.3"])


@st.composite
def event_files(draw):
    """Rows of an events.csv, good ones mostly; its line end, whether it has a BOM and a final newline."""
    text = st.text(st.sampled_from(ID_CHARS[draw(st.sampled_from(sorted(ID_CHARS)))]),
                   max_size=3)
    ids = {"e": st.one_of(st.sampled_from(["e0", "e1", "e2"]), text.map("e".__add__)),
           "a": st.one_of(st.sampled_from(["a0", "a1"]), text.map("a".__add__)),
           "v": st.one_of(st.sampled_from(["v0", "v1"]), text.map("v".__add__))}
    # "a" and "a b" sort one way as tuples and the other way as "city,state,country" bytes
    places = st.sampled_from(["NYC", "LA", "", "Zürich", "a", "a b"])

    def field(pools):
        good, bad = pools
        return draw(st.sampled_from(bad if draw(st.integers(0, 29)) == 0 else good))

    rows = []
    for kind in draw(st.lists(st.sampled_from(["event"] * 12 + ["ragged", "blank"]),
                              min_size=1, max_size=25)):
        if kind == "blank":
            rows.append([])
        elif kind == "ragged":
            ragged = st.lists(text, min_size=1, max_size=12).filter(lambda r: len(r) != 10)
            rows.append(draw(ragged))
        else:
            e, a, v = (draw(ids[k]) if draw(st.integers(0, 29)) else "" for k in "eav")
            rows.append([e, a, v, field(DATES), draw(places), draw(places), draw(places),
                         field(LATS), field(LONS), field(POPS)])
    return rows, draw(st.sampled_from(["\n", "\r\n"])), draw(st.booleans()), draw(st.booleans())


def _write_events(path, rows, end, quoting, bom, final_newline):
    out = io.StringIO()
    csv.writer(out, lineterminator=end, quoting=quoting).writerows([EVENT_HEADER, *rows])
    text = out.getvalue() if final_newline else out.getvalue()[:-len(end)]
    path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode("utf-8"))


@PROPERTY
@given(event_files())
def test_parse_corpus_matches_the_row_by_row_reference(files):
    rows, end, bom, final_newline = files
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, header in (("releases", RELEASE_HEADER), ("labels", LABEL_HEADER)):
            (tmp / f"{name}.csv").write_text(",".join(header) + "\n", encoding="utf-8")
        paths = [tmp / "events.csv", tmp / "releases.csv", tmp / "labels.csv"]
        # minimal quoting leaves most fields bare, all-quoted none
        for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
            _write_events(paths[0], rows, end, quoting, bom, final_newline)
            events, total, diagnostics = parse_events_reference(paths[0])
            if total and len(diagnostics) / total > 0.10:
                with pytest.raises(CorpusFormatError, match="tolerance"):
                    parse_corpus(*paths)
            # past the tolerance too, the rows and diagnostics must match
            with mock.patch.object(ingest, "MALFORMED_TOLERANCE", 1.0):
                c = parse_corpus(*paths)
            assert c.load_report.to_dict() == {
                "events": {"total": total, "rejected": len(diagnostics)},
                "releases": {"total": 0, "rejected": 0, "undated_dropped": 0},
                "labels": {"total": 0, "rejected": 0, "dangling_parent": 0},
                "diagnostics": diagnostics,
            }
            artist, day, event_id, venue, city, _popularity = (
                map(list, zip(*events)) if events else ([],) * 6)
            assert c.artist_order == tuple(sorted(set(artist)))
            assert c.venue_order == tuple(sorted(set(venue)))
            assert c.cities == tuple(sorted(set(city)))
            assert [c.artist_order[i] for i in c.artist.tolist()] == artist
            assert [c.venue_order[i] for i in c.venue.tolist()] == venue
            assert [c.cities[i] for i in c.city.tolist()] == city
            assert c.day.tolist() == day and c.event_id.tolist() == event_id


# what a field's text becomes in a raw line: as it stands, quoted as
# csv.writer quotes, or one of the forms csv.writer never writes
RAW_FIELDS = {
    "bare": lambda t: t,
    "quoted": lambda t: '"' + t.replace('"', '""') + '"',
    "quote inside": lambda t: 'x"' + t,  # a,b"c,d keeps the quote
    "after the close": lambda t: '"x"' + t,  # a,"b"c,d reads bc
    "space before": lambda t: ' "' + t + '"',  # a, "b",c reads ' "b"'
}


@st.composite
def raw_event_files(draw):
    """The bytes of an events.csv written field by field, in forms csv.writer never writes too.

    Each field of rows drawn as ``event_files`` draws them is written in
    one of ``RAW_FIELDS``' forms; each line ends in an LF, a CRLF or a lone
    CR; the file may start with a BOM and may end inside a quote still open.
    """
    rows, _, bom, final_newline = draw(event_files())
    forms = st.sampled_from(["bare"] * 4 + sorted(RAW_FIELDS))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    lines = [",".join(EVENT_HEADER) + draw(ends)]
    lines += [",".join(RAW_FIELDS[draw(forms)](t) for t in row) + draw(ends) for row in rows]
    if draw(st.booleans()):
        lines.append('e9,"a1' + draw(st.sampled_from(["", "\n", ',v1\r\n"""'])))
    elif not final_newline:
        lines[-1] = lines[-1].rstrip("\r\n")
    return b"\xef\xbb\xbf" * bom + "".join(lines).encode("utf-8")


@PROPERTY
@given(raw_event_files())
def test_parse_corpus_matches_the_row_by_row_reference_on_raw_lines(data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, header in (("releases", RELEASE_HEADER), ("labels", LABEL_HEADER)):
            (tmp / f"{name}.csv").write_text(",".join(header) + "\n", encoding="utf-8")
        paths = [tmp / "events.csv", tmp / "releases.csv", tmp / "labels.csv"]
        paths[0].write_bytes(data)
        events, total, diagnostics = parse_events_reference(paths[0])
        if total and len(diagnostics) / total > 0.10:
            with pytest.raises(CorpusFormatError, match="tolerance"):
                parse_corpus(*paths)
        with mock.patch.object(ingest, "MALFORMED_TOLERANCE", 1.0):
            c = parse_corpus(*paths)
    assert c.load_report.to_dict()["events"] == {"total": total, "rejected": len(diagnostics)}
    assert c.load_report.diagnostics == diagnostics
    artist, day, event_id, venue, city, _popularity = (
        map(list, zip(*events)) if events else ([],) * 6)
    assert c.artist_order == tuple(sorted(set(artist)))
    assert c.venue_order == tuple(sorted(set(venue)))
    assert c.cities == tuple(sorted(set(city)))
    assert [c.artist_order[i] for i in c.artist.tolist()] == artist
    assert [c.venue_order[i] for i in c.venue.tolist()] == venue
    assert [c.cities[i] for i in c.city.tolist()] == city
    assert c.day.tolist() == day and c.event_id.tolist() == event_id


@st.composite
def release_and_label_rows(draw):
    """Rows of a releases.csv and of a labels.csv, good ones mostly, ids of any characters."""
    text = st.text(st.sampled_from(ID_CHARS["plain"] + ID_CHARS["csv"]), max_size=3)
    label_id = st.one_of(st.sampled_from(["maj", "ind"]), text.map("l".__add__))

    def rows(n_fields, good_row):
        out = []
        for kind in draw(st.lists(st.sampled_from(["good"] * 10 + ["ragged", "blank"]),
                                  max_size=12)):
            if kind == "blank":
                out.append([])
            elif kind == "ragged":
                out.append(draw(st.lists(text, min_size=1, max_size=6)
                                .filter(lambda r: len(r) != n_fields)))
            else:
                out.append(good_row())
        return out

    def pick(good, bad):
        return draw(st.sampled_from(bad if draw(st.integers(0, 14)) == 0 else good))

    labels = rows(4, lambda: [pick([draw(label_id)], [""]), draw(text),
                              pick(["", draw(label_id)], ["ghost"]),
                              pick(["0", "1"], ["2", " 1"])])
    releases = rows(3, lambda: [pick(["a0", "a1", "zz", draw(text.map("a".__add__))], [""]),
                                pick([draw(label_id)], [""]),
                                pick(["", *DATES[0]], DATES[1][1:])])
    return releases, labels


@PROPERTY
@given(release_and_label_rows())
def test_releases_and_labels_match_the_row_by_row_references(tables):
    releases, labels = tables
    styles = (("\n", csv.QUOTE_MINIMAL), ("\n", csv.QUOTE_ALL), ("\r\n", csv.QUOTE_MINIMAL),
              ("\r", csv.QUOTE_MINIMAL))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in ("events.csv", "releases.csv", "labels.csv")]
        write_csv(paths[0], EVENT_HEADER, [event_row(f"e{i}", a, "v0", "2010-01-01")
                                           for i, a in enumerate(["a0", "a1"])])
        for end, quoting in styles:
            for path, header, rows in ((paths[1], RELEASE_HEADER, releases),
                                       (paths[2], LABEL_HEADER, labels)):
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    csv.writer(fh, lineterminator=end, quoting=quoting).writerows([header, *rows])
            want_releases, releases_total, release_diagnostics = parse_releases_reference(paths[1])
            want_labels, labels_total, label_diagnostics = parse_labels_reference(paths[2])
            with mock.patch.object(ingest, "MALFORMED_TOLERANCE", 1.0):
                c = parse_corpus(*paths)
            report = c.load_report.to_dict()
            assert report["releases"] == {
                "total": releases_total, "rejected": len(release_diagnostics),
                "undated_dropped": sum(day is None for *_, day in want_releases)}
            assert report["labels"] == {
                "total": labels_total, "rejected": len(label_diagnostics),
                "dangling_parent": sum(1 for parent, _ in want_labels.values()
                                       if parent and parent not in want_labels)}
            assert report["diagnostics"] == release_diagnostics + label_diagnostics
            ids = tuple(want_labels)
            assert c.labels.ids == ids
            assert c.labels.parent.tolist() == [ids.index(p) if p in want_labels else -1
                                                for p, _ in want_labels.values()]
            assert c.labels.major_root.tolist() == [m for _, m in want_labels.values()]
            assert [c.artist_order[i] if i >= 0 else None for i in c.release_artist.tolist()] \
                == [a if a in c.artist_order else None for a, _, _ in want_releases]
            assert [ids[i] if i >= 0 else None for i in c.release_label.tolist()] \
                == [label if label in want_labels else None for _, label, _ in want_releases]
            assert c.release_day.tolist() == [NEVER if day is None else day
                                              for *_, day in want_releases]


@st.composite
def label_corpora(draw):
    """A labels.csv table, release triples, artists with events and the artists a select keeps.

    A label's parent is none, a label missing from the table or any label in
    it (itself included, so loops occur, and a major root may sit under a
    label that is not one); releases name artists without events (``zz``)
    and labels missing from the table, and about a third carry no date.
    """
    ids = draw(st.permutations([f"l{i}" for i in range(draw(st.integers(0, 7)))]))
    parent = st.one_of(st.just(""), st.just("ghost"), *([st.sampled_from(ids)] if ids else []))
    labels = [[i, i.upper(), draw(parent), draw(st.sampled_from("01"))] for i in ids]
    artists = ["a0", "a1", "a2", "a3"]
    dates = st.one_of(st.none(), st.dates(dt.date(2012, 1, 1), dt.date(2012, 1, 9)))
    releases = draw(st.lists(st.tuples(st.sampled_from(artists + ["zz"]),
                                       st.sampled_from(ids + ["unknown"]), dates), max_size=12))
    with_events = draw(st.lists(st.sampled_from(artists), min_size=1, unique=True))
    return labels, releases, with_events, draw(st.lists(st.sampled_from(with_events), unique=True))


@PROPERTY
@given(label_corpora())
def test_labeling_matches_the_id_by_id_reference(case):
    labels, releases, with_events, kept = case
    parents = {label_id: parent or None for label_id, _, parent, _ in labels}
    roots = {label_id for label_id, *_, flag in labels if flag == "1"}
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in ("events.csv", "releases.csv", "labels.csv")]
        write_csv(paths[0], EVENT_HEADER,
                  [event_row(f"e{i}", a, "v0", "2010-01-01") for i, a in enumerate(with_events)])
        write_csv(paths[1], RELEASE_HEADER,
                  [[a, l, d.isoformat() if d else ""] for a, l, d in releases])
        write_csv(paths[2], LABEL_HEADER, labels)
        c = parse_corpus(*paths)
    try:
        want = major_closure_reference(parents, roots)
    except CycleError as exc:
        # the same loop, reached from the same first label of the table
        for labeling in (lambda: major_closure(c.labels), lambda: label_corpus(c)):
            with pytest.raises(CycleError) as got:
                labeling()
            assert got.value.cycle == exc.cycle
        return
    assert {l for l, m in zip(c.labels.ids, major_closure(c.labels).tolist()) if m} == want
    keep = np.array([c.artist_order[i] in kept for i in c.artist.tolist()], dtype=bool)
    for corpus in (c, c.select(keep)):
        days, stats = label_reference(corpus.artist_order, releases, parents, roots)
        change_day, got = label_corpus(corpus)
        assert change_day.tolist() == [NEVER if d is None else d for d in days]
        assert got == stats


signing_artists = [f"a{i}" for i in range(6)]


@PROPERTY
@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 3 * 365)),
             min_size=20, max_size=60),
    st.lists(st.sampled_from([0, 3 * 365]), min_size=6, max_size=6),
    st.lists(st.tuples(st.sampled_from(signing_artists), st.sampled_from(["maj", "sub"]),
                       st.integers(0, 6 * 365)), min_size=1, max_size=8),
    st.lists(st.tuples(st.sampled_from(signing_artists + ["zz"]),
                       st.sampled_from(["maj", "sub", "ind", "unknown"]),
                       st.one_of(st.none(), st.integers(0, 6 * 365))), max_size=4),
    st.integers(0, 4), st.booleans(), st.data(),
)
def test_change_days_match_the_reference_and_outlast_the_filters(
    events, starts, signings, other_releases, threshold, recursive, data
):
    # artists start touring in 2005 or 2008, so the post-2007 filter drops
    # some; "sub" is a subsidiary of the major root "maj", "unknown" is
    # missing from the table, "zz" has no events, and undated releases sign
    # no one
    day0 = dt.date(2005, 1, 1).toordinal()
    releases = [(a, label, None if d is None else dt.date.fromordinal(day0 + d))
                for a, label, d in signings + other_releases]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in ("events.csv", "releases.csv", "labels.csv")]
        write_csv(paths[0], EVENT_HEADER, [
            event_row(f"e{k}", f"a{a}", f"v{v}", dt.date.fromordinal(day0 + starts[a] + d))
            for k, (a, v, d) in enumerate(events)])
        write_csv(paths[1], RELEASE_HEADER,
                  [[a, label, d.isoformat() if d else ""] for a, label, d in releases])
        write_csv(paths[2], LABEL_HEADER, [["maj", "Major", "", "1"], ["sub", "Sub", "maj", "0"],
                                           ["ind", "Indie", "", "0"]])
        c = parse_corpus(*paths)
    days, _ = label_reference(c.artist_order, releases, {"maj": None, "sub": "maj", "ind": None},
                              {"maj"})
    assert c.change_day.tolist() == [NEVER if d is None else d for d in days]
    assert not c.change_day.flags.writeable
    change_day = dict(zip(c.artist_order, c.change_day.tolist()))
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=c.n_events, max_size=c.n_events)),
                    dtype=bool)
    for kept in (c.select(keep), filter_post_2007(c), filter_min_activity(c, threshold, recursive)):
        assert kept.change_day.tolist() == [change_day[a] for a in kept.artist_order]
