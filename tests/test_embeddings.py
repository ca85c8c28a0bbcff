import tracemalloc
from unittest import mock

import numpy as np
import pytest
from scipy.special import expit

from gigmine import embeddings
from gigmine.embeddings import sample_walks, score_embedding, train_embeddings
from gigmine.errors import GigmineError, UnknownNodeError
from gigmine.graph import BipartiteGraph, EdgeInfo, build_graph


def clique(prefix_a, prefix_v, n, year=2010):
    return [(f"{prefix_a}{i}", f"{prefix_v}{j}", year) for i in range(n) for j in range(n)]


def padded(walks):
    """Ragged walks as one matrix, each row padded with -1 to the longest."""
    width = max(map(len, walks))
    return np.array([[*w, *[-1] * (width - len(w))] for w in walks], dtype=np.int64)


def loop_walk_pairs(walks, window):
    """Reference pairs: one Python step per (center, context) token pair; -1 is no node."""
    centers, contexts = [], []
    for walk in walks:
        for i, c in enumerate(walk):
            if c < 0:
                continue
            lo = max(0, i - window)
            for j in range(lo, min(len(walk), i + window + 1)):
                if j == i or walk[j] < 0:
                    continue
                centers.append(c)
                contexts.append(walk[j])
    return np.asarray(centers, dtype=np.int64), np.asarray(contexts, dtype=np.int64)


def add_at_sgns(walks, dim, window, epochs, seed, chunk_size):
    """Reference SGNS with the three np.add.at updates per chunk."""
    tokens = np.array([x for walk in walks for x in walk if x >= 0], dtype=np.int64)
    n_nodes = int(tokens.max()) + 1
    centers, contexts = loop_walk_pairs(walks, window)
    rng = np.random.default_rng(seed)
    w_in = (rng.random((n_nodes, dim)) - 0.5) / dim
    w_out = np.zeros((n_nodes, dim))
    freq = np.bincount(tokens, minlength=n_nodes).astype(float)
    noise = freq ** 0.75
    noise_cdf = np.cumsum(noise / noise.sum())
    noise_cdf[-1] = 1.0
    n_pairs = centers.size
    total_steps = max(1, epochs * n_pairs)
    done = 0
    chunk = max(1, min(chunk_size, n_nodes))
    lr0 = embeddings.LEARNING_RATE
    losses = []
    for _ in range(epochs):
        epoch_loss = 0.0
        for start in range(0, n_pairs, chunk):
            c = centers[start : start + chunk]
            o = contexts[start : start + chunk]
            neg = np.searchsorted(noise_cdf, rng.random((c.size, embeddings.NEGATIVES)))
            lr = max(lr0 * (1.0 - done / total_steps), lr0 * 1e-4)
            vc, vo, vn = w_in[c], w_out[o], w_out[neg]
            pos_score = np.einsum("bd,bd->b", vc, vo)
            neg_score = np.einsum("bd,bnd->bn", vc, vn)
            epoch_loss += float(
                np.sum(np.logaddexp(0.0, -pos_score)) + np.sum(np.logaddexp(0.0, neg_score))
            )
            g_pos = expit(pos_score) - 1.0
            neg_sig = expit(neg_score)
            grad_c = g_pos[:, None] * vo + np.einsum("bn,bnd->bd", neg_sig, vn)
            np.add.at(w_in, c, -lr * grad_c)
            np.add.at(w_out, o, -lr * g_pos[:, None] * vc)
            np.add.at(
                w_out, neg.ravel(), (-lr * neg_sig[:, :, None] * vc[:, None, :]).reshape(-1, dim)
            )
            done += c.size
        losses.append(epoch_loss / max(1, n_pairs))
    return w_in, losses


class TestWalks:
    def test_walks_alternate_sides_on_a_single_edge(self):
        g = build_graph([("a", "v", 2010)])
        walks = sample_walks(g, walks_per_node=2, length=6, seed=0)
        assert len(walks) == 4
        for walk in walks:
            assert len(walk) == 7
            for prev, cur in zip(walk, walk[1:]):
                assert {prev, cur} == {0, 1}  # artist a is node 0, venue v node 1

    def test_walk_count_and_length(self, toy_graph):
        walks = sample_walks(toy_graph, walks_per_node=40, length=10, seed=1)
        assert len(walks) == 40 * 4
        assert all(len(w) == 11 for w in walks)
        starts = [w[0] for w in walks]
        for node in range(4):  # a1, a2, v1, v2
            assert starts.count(node) == 40

    def test_dead_end_stops_early(self):
        g = BipartiteGraph({"a", "lone"}, {"v"}, {("a", "v"): EdgeInfo(1, 2010)})
        walks = sample_walks(g, walks_per_node=1, length=5, seed=0)
        lone = g.artist_order.index("lone")
        lone_walks = [w.tolist() for w in walks if w[0] == lone]
        assert lone_walks == [[lone, -1, -1, -1, -1, -1]]

    def test_seeded_determinism(self, toy_graph):
        a = sample_walks(toy_graph, walks_per_node=5, length=8, seed=3)
        b = sample_walks(toy_graph, walks_per_node=5, length=8, seed=3)
        c = sample_walks(toy_graph, walks_per_node=5, length=8, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_steps_are_uniform_over_neighbors(self):
        # star: artist hub with 4 venues; transition frequencies from the hub
        # must match the uniform law within 3 sigma
        g = build_graph([("hub", f"v{j}", 2010) for j in range(4)])
        walks = sample_walks(g, walks_per_node=25_000, length=1, seed=7)
        # the hub is node 0 and venue v{j} is node 1 + j
        from_hub = [w[1] for w in walks if w[0] == 0 and len(w) > 1]
        n = len(from_hub)
        assert n == 25_000
        p = 0.25
        sigma = (n * p * (1 - p)) ** 0.5
        for j in range(4):
            count = from_hub.count(1 + j)
            assert abs(count - n * p) <= 3 * sigma

    def test_empty_graph_rejected(self):
        with pytest.raises(GigmineError, match="empty"):
            sample_walks(BipartiteGraph((), (), {}), walks_per_node=1, length=1)

    @pytest.mark.parametrize("param", ["walks_per_node", "length"])
    def test_setting_below_one_rejected(self, toy_graph, param):
        settings = {"walks_per_node": 2, "length": 3, param: 0}
        with pytest.raises(GigmineError, match=f"{param} must be at least 1, got 0"):
            sample_walks(toy_graph, **settings)

    def test_pairs_match_token_loop_on_uneven_walks(self):
        # dead-end walks of length 1, walks shorter and longer than the window
        walks = [[3], [0, 4, 1, 4], [2], [5, 0, 5, 0, 5, 0, 5, 0], [1, 6], [6]]
        for window in (1, 2, 3, 10):
            got = embeddings._walk_pairs(padded(walks), window)
            want = loop_walk_pairs(walks, window)
            for g, w in zip(got, want):
                assert g.dtype == np.int64
                assert g.tolist() == w.tolist()
        centers, contexts = embeddings._walk_pairs(np.array([[7], [8]]), 2)
        assert centers.size == contexts.size == 0

    def test_walk_matrix_holds_no_more_than_its_cells(self):
        # 3,000 nodes, so most node indices lie above the small ints Python caches
        g = build_graph(clique("a", "v", 10)
                        + [(f"b{i}", f"w{i % 990}", 2010) for i in range(1990)])
        walks_per_node, length = 5, 10
        cells = (len(g.artist_order) + len(g.venue_order)) * walks_per_node * (length + 1)
        sample_walks(g, walks_per_node=1, length=1)  # the first call imports numpy modules
        tracemalloc.start()
        try:
            walks = sample_walks(g, walks_per_node=walks_per_node, length=length, seed=0)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1.25 * cells * 8
        assert walks.shape == (cells // (length + 1), length + 1)


class TestTraining:
    def test_vectors_finite_nonzero_and_right_shape(self, toy_graph):
        walks = sample_walks(toy_graph, walks_per_node=10, length=6, seed=0)
        emb, losses = train_embeddings(walks, dim=16, epochs=2, seed=0)
        assert emb.shape == (4, 16)  # one row per node
        assert len(losses) == 2
        for vec in emb:
            assert np.all(np.isfinite(vec))
            assert np.linalg.norm(vec) > 0

    def test_deterministic_given_seed(self, toy_graph):
        walks = sample_walks(toy_graph, walks_per_node=8, length=6, seed=0)
        e1, l1 = train_embeddings(walks, dim=8, epochs=2, seed=5)
        e2, l2 = train_embeddings(walks, dim=8, epochs=2, seed=5)
        assert np.array_equal(e1, e2)
        assert l1 == l2

    def test_loss_decreases_over_epochs(self):
        g = build_graph(clique("a", "v", 4) + clique("b", "w", 4))
        walks = sample_walks(g, walks_per_node=10, length=8, seed=0)
        _, history = train_embeddings(walks, dim=16, epochs=5, seed=0)
        assert len(history) == 5
        assert history[-1] < history[0]

    def test_two_cliques_separate(self):
        # nodes inside one complete block should look more alike than nodes
        # across blocks once trained
        g = build_graph(clique("a", "v", 5) + clique("b", "w", 5))
        walks = sample_walks(g, walks_per_node=20, length=8, seed=1)
        emb, _ = train_embeddings(walks, dim=32, epochs=5, seed=1)
        node = {n: k for k, n in enumerate(g.artist_order + g.venue_order)}
        within = score_embedding(emb, node["a0"], node["v1"])
        across = score_embedding(emb, node["a0"], node["w1"])
        assert within > across
        assert within > 0.5
        # the row-wise form scores index arrays at once
        both = score_embedding(emb, np.array([node["a0"]] * 2), np.array([node["v1"], node["w1"]]))
        assert both.tolist() == [within, across]

    def test_empty_walks_rejected(self):
        with pytest.raises(GigmineError, match="empty"):
            train_embeddings([])

    @pytest.mark.parametrize("walks, message", [
        ([[]], "empty walk set"),
        ([[-1, -1]], "holds no node"),
        ([[0, -2, 1]], "node index -2, below the -1 pad"),
        ([0, 1, 0], "2-D int matrix, got a 1-D int64"),
        ([[0.0, 1.0]], "2-D int matrix, got a 2-D float64"),
        (np.array([[0, 1]], dtype=np.uint8), "2-D int matrix, got a 2-D uint8"),
        ([[0, 1], [2]], "2-D int matrix; its rows differ in length"),
    ])
    def test_bad_walks_rejected(self, walks, message):
        with pytest.raises(GigmineError, match=message):
            train_embeddings(walks)

    @pytest.mark.parametrize("param, value", [("dim", 0), ("window", 0), ("window", -1),
                                              ("epochs", 0)])
    def test_setting_below_one_rejected(self, param, value):
        with pytest.raises(GigmineError, match=f"{param} must be at least 1, got {value}"):
            train_embeddings([[0, 1, 0]], **{param: value})

    def test_matches_add_at_reference_bitwise(self):
        # a small chunk size gives many chunks, each with repeated nodes, so
        # the order in which one row's updates land shows in the bits
        g = build_graph(clique("a", "v", 4) + clique("b", "w", 4))
        walks = sample_walks(g, walks_per_node=3, length=6, seed=2)
        want, want_losses = add_at_sgns(walks, dim=8, window=3, epochs=2, seed=4, chunk_size=7)
        with mock.patch.object(embeddings, "CHUNK_SIZE", 7):
            got, losses = train_embeddings(walks, dim=8, window=3, epochs=2, seed=4)
        assert np.array_equal(got, want)
        assert losses == want_losses

    @pytest.mark.parametrize("neg_block", [1, 2, 3])
    def test_noise_sub_blocks_match_add_at_reference_bitwise(self, neg_block):
        # a chunk of 7 pairs spans several sub-blocks of noise rows, the last
        # one short; scores, gradients and losses must not move a bit
        g = build_graph(clique("a", "v", 4) + clique("b", "w", 4))
        walks = sample_walks(g, walks_per_node=3, length=6, seed=2)
        want, want_losses = add_at_sgns(walks, dim=8, window=3, epochs=2, seed=4, chunk_size=7)
        with mock.patch.object(embeddings, "CHUNK_SIZE", 7), \
                mock.patch.object(embeddings, "_NEG_BLOCK", neg_block):
            got, losses = train_embeddings(walks, dim=8, window=3, epochs=2, seed=4)
        assert np.array_equal(got, want)
        assert losses == want_losses

    def test_the_highest_noise_draw_names_a_node(self, monkeypatch):
        # token counts whose noise CDF, summed in floating point, ends below
        # the largest draw; every draw is that draw, and each update must
        # land on a node, not in the buffer rows past the last one
        top = np.nextafter(1.0, 0.0)
        counts = np.random.default_rng(0).integers(1, 50, size=(200, 7))
        noise = counts ** 0.75
        low = np.cumsum(noise / noise.sum(axis=1, keepdims=True), axis=1)[:, -1] < top
        walks = [np.repeat(np.arange(7), counts[np.argmax(low)]).tolist()]
        assert low.any()

        class TopDraws:
            def random(self, shape):
                return np.full(shape, top)

        in_range = []

        def spy(buf, n, idx, coef, src_row):
            in_range.append(bool(idx.max() < n))
            real(buf, n, idx, coef, src_row)

        real = embeddings._scatter_rows
        monkeypatch.setattr(np.random, "default_rng", lambda seed: TopDraws())
        monkeypatch.setattr(embeddings, "_scatter_rows", spy)
        train_embeddings(walks, dim=4, window=2, epochs=1, seed=0)
        assert in_range and all(in_range)


class TestScoring:
    def test_identical_and_opposite_vectors(self):
        emb = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]])
        assert score_embedding(emb, 0, 1) == pytest.approx(1.0)
        assert score_embedding(emb, 0, 2) == pytest.approx(-1.0)

    def test_orthogonal_vectors(self):
        emb = np.array([[1.0, 0.0], [0.0, 3.0]])
        assert score_embedding(emb, 0, 1) == pytest.approx(0.0)

    def test_matches_cosine_formula_on_random_vectors(self):
        rng = np.random.default_rng(2)
        emb = rng.standard_normal((40, 8))
        rows, cols = np.arange(0, 40, 2), np.arange(1, 40, 2)
        batch = score_embedding(emb, rows, cols)
        for k, (i, j) in enumerate(zip(rows, cols)):
            x, y = emb[i], emb[j]
            want = float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y)))
            assert score_embedding(emb, i, j) == pytest.approx(want, rel=1e-12)
            assert score_embedding(emb, j, i) == pytest.approx(want, rel=1e-12)
            assert batch[k] == pytest.approx(want, rel=1e-12)
        # blocks of pairs do not change a score
        with mock.patch.object(embeddings, "_SCORE_BLOCK", 3):
            assert score_embedding(emb, rows, cols).tolist() == batch.tolist()

    def test_equals_the_per_pair_cosine_with_a_zero_row(self):
        rng = np.random.default_rng(5)
        emb = rng.standard_normal((30, 16)) * 10.0 ** rng.integers(-6, 6, (30, 1))
        emb[7] = 0.0
        rows, cols = rng.integers(0, 30, 500), rng.integers(0, 30, 500)
        want = []
        for i, j in zip(rows, cols):
            x, y = emb[[i]], emb[[j]]
            denom = (np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1))[0]
            want.append(float(np.einsum("kd,kd->k", x, y)[0] / denom) if denom > 0 else 0.0)
        assert 7 in rows or 7 in cols
        assert score_embedding(emb, rows, cols).tolist() == want

    def test_zero_vector_scores_zero(self):
        emb = np.array([np.zeros(4), np.ones(4)])
        assert score_embedding(emb, 0, 1) == 0.0
        assert score_embedding(emb, np.array([0, 1]), np.array([1, 1])).tolist() == [0.0, 1.0]

    def test_missing_node_raises(self):
        emb = np.ones((1, 4))
        with pytest.raises(UnknownNodeError):
            score_embedding(emb, 0, 1)

    @pytest.mark.parametrize("a, v", [(-1, 2), (0, -3), (np.array([0, -1]), np.array([1, 2])),
                                      (np.array([0, 1]), np.array([2, -2]))])
    def test_negative_node_raises_not_wraps(self, a, v):
        # -1 would otherwise score the last node, here node 2 against itself
        with pytest.raises(UnknownNodeError, match="unknown node: -"):
            score_embedding(np.eye(3), a, v)
