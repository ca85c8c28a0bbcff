import datetime as dt
import os
import sys
import threading
from unittest import mock

import numpy as np
import pytest

from conftest import edges_of, id_pairs, make_corpus, make_graph, pair_codes
from oracles import cn_oracle, jaccard_oracle, pa_oracle, random_bipartite

from gigmine import linkpred
from gigmine.errors import GigmineError
from gigmine.graph import BipartiteGraph
from gigmine.ingest import parse_corpus
from gigmine.linkpred import (
    HEURISTICS,
    build_score_tables,
    edge_codes,
    evaluate_linkpred,
    make_random_split,
    make_temporal_split,
    run_task2,
    sample_negative_pairs,
    score_svd,
)
from gigmine.synth import GenSpec, generate


def heuristics_of(g, a, v) -> tuple:
    """CN, Jaccard and PA of the id pair (a, v), through ``heuristic_scores``."""
    got = linkpred.heuristic_scores(g, [g.artist_order.index(a)], [g.venue_order.index(v)])
    return tuple(got[name].item() for name in HEURISTICS)


class TestHeuristics:
    def test_known_values_on_toy_graph(self, toy_graph):
        # a1 plays v1 and v2; a2 plays v1 only; candidate pair (a2, v2)
        assert heuristics_of(toy_graph, "a2", "v2") == (2, 0.5, 1 * 1)

    def test_disconnected_pair_scores_zero(self):
        g = make_graph([("a1", "v1", 1, 2010), ("a2", "v2", 1, 2010)])
        assert heuristics_of(g, "a1", "v2") == (0, 0.0, 1)

    def test_isolated_node_jaccard_is_zero_not_nan(self):
        g = make_graph([("a", "v", 1, 2010)], artists=["b"])
        assert heuristics_of(g, "b", "v") == (0, 0.0, 0)

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            g = random_bipartite(
                rng,
                int(rng.integers(3, 15)),
                int(rng.integers(3, 15)),
                float(rng.uniform(0.1, 0.4)),
            )
            edge_pairs = list(edges_of(g))
            rows = rng.integers(len(g.artist_order), size=10)
            cols = rng.integers(len(g.venue_order), size=10)
            got = linkpred.heuristic_scores(g, rows, cols)
            for k, (a, v) in enumerate(g.id_pairs(rows, cols)):
                assert got["common_neighbors"][k] == cn_oracle(edge_pairs, a, v)
                assert got["jaccard"][k] == jaccard_oracle(edge_pairs, a, v)
                assert got["preferential_attachment"][k] == pa_oracle(edge_pairs, a, v)

    # artists outnumber venues, venues outnumber artists, and a budget below
    # one row's width (a block is then a single artist)
    @pytest.mark.parametrize("n_a, n_v, cells", [(30, 8, 100), (8, 30, 100), (30, 8, 20)])
    def test_blocks_stay_within_budget_of_widest_product(self, n_a, n_v, cells):
        g = random_bipartite(np.random.default_rng(n_a * n_v + cells), n_a, n_v, 0.3)
        rows, cols = np.divmod(np.arange(n_a * n_v), n_v)
        want = linkpred.heuristic_scores(g, rows, cols)
        real, heights = linkpred._hop_block, {}

        def spy(S, ST, lo, hi):
            block = real(S, ST, lo, hi)
            heights.setdefault(S[0].size - 1, []).append(block.shape[0])
            return block

        with mock.patch.object(linkpred, "_CHUNK_CELLS", cells), \
                mock.patch.object(linkpred, "_hop_block", spy):
            got = linkpred.heuristic_scores(g, rows, cols)
        # blocks of A2 rows (n_a of them, n_a wide) and of V2 rows (n_v, n_v wide)
        assert sorted(heights) == sorted({n_a, n_v})
        for side, side_heights in heights.items():
            assert len(side_heights) > 1 and sum(side_heights) == side
            for height in side_heights:
                assert height * max(n_a, n_v) <= cells or height == 1
        for name in want:
            assert got[name].tolist() == want[name].tolist()

    def test_reads_the_graph_arrays_not_a_sparse_matrix(self, toy_graph):
        with mock.patch.object(BipartiteGraph, "biadjacency", side_effect=AssertionError):
            got = linkpred.heuristic_scores(toy_graph, [1], [1])  # (a2, v2)
        assert got["common_neighbors"].tolist() == [2.0]
        assert got["jaccard"].tolist() == [0.5]

    # a budget below one row's width (one row a block) and one of a few rows
    @pytest.mark.parametrize("cells", [5, 3 * 13])
    def test_blocked_counts_match_brute_force(self, cells):
        g = random_bipartite(np.random.default_rng(cells), 13, 9, 0.25)
        rows = [(a, v, *info) for (a, v), info in edges_of(g).items()]
        g = make_graph(rows, [*g.artist_order, "lone"], [*g.venue_order, "empty"])
        n_a, n_v = len(g.artist_order), len(g.venue_order)
        rows, cols = np.divmod(np.arange(n_a * n_v), n_v)
        real, blocks = linkpred._hop_block, []

        def spy(S, ST, lo, hi):
            blocks.append(S[0].size - 1)
            return real(S, ST, lo, hi)

        with mock.patch.object(linkpred, "_CHUNK_CELLS", cells), \
                mock.patch.object(linkpred, "_hop_block", spy):
            got = linkpred.heuristic_scores(g, rows, cols)
        assert blocks.count(n_a) > 2 and blocks.count(n_v) > 2
        edge_pairs = list(edges_of(g))
        pairs = g.id_pairs(rows, cols)
        assert got["common_neighbors"].tolist() == [cn_oracle(edge_pairs, a, v) for a, v in pairs]
        assert got["jaccard"].tolist() == [jaccard_oracle(edge_pairs, a, v) for a, v in pairs]
        assert got["preferential_attachment"].tolist() == [
            pa_oracle(edge_pairs, a, v) for a, v in pairs
        ]

    # one neighbor entry a gather (runs after a wider node come out empty)
    # and a few
    @pytest.mark.parametrize("gather", [1, 7])
    def test_gathers_split_by_degree_match_brute_force(self, gather):
        g = random_bipartite(np.random.default_rng(gather), 13, 9, 0.25)
        rows = [(a, v, *info) for (a, v), info in edges_of(g).items()]
        g = make_graph(rows, [*g.artist_order, "lone"], [*g.venue_order, "empty"])
        n_a, n_v = len(g.artist_order), len(g.venue_order)
        rows, cols = np.divmod(np.arange(n_a * n_v), n_v)
        real, bounded = linkpred._spans, []

        def spy(indptr, keys):
            at, lens = real(indptr, keys)
            # a run passes the budget by less than its first node's degree
            bounded.append(lens.size == 0 or lens.sum() < gather + lens[0])
            return at, lens

        with mock.patch.object(linkpred, "_GATHER", gather), \
                mock.patch.object(linkpred, "_spans", spy):
            got = linkpred.heuristic_scores(g, rows, cols)
        assert len(bounded) > 4 * n_a and all(bounded)
        edge_pairs = list(edges_of(g))
        pairs = g.id_pairs(rows, cols)
        assert got["common_neighbors"].tolist() == [cn_oracle(edge_pairs, a, v) for a, v in pairs]
        assert got["jaccard"].tolist() == [jaccard_oracle(edge_pairs, a, v) for a, v in pairs]
        assert got["preferential_attachment"].tolist() == [
            pa_oracle(edge_pairs, a, v) for a, v in pairs
        ]


class TestRandomSplit:
    def _graph(self, rng, n_a=12, n_v=10, density=0.4):
        return random_bipartite(rng, n_a, n_v, density)

    def test_partition_and_exact_count(self):
        rng = np.random.default_rng(3)
        g = self._graph(rng)
        train, hidden = make_random_split(g, hidden_fraction=0.25, seed=0)
        assert len(hidden) == round(0.25 * g.n_edges)
        # every node stays, so codes over train and over g agree
        hidden = set(id_pairs(g, hidden))
        assert set(edges_of(train)) | hidden == set(edges_of(g))
        assert set(edges_of(train)) & hidden == set()
        # nodes stay, including those left isolated
        assert train.artist_order == g.artist_order
        assert train.venue_order == g.venue_order

    def test_same_seed_same_split(self):
        rng = np.random.default_rng(4)
        g = self._graph(rng)
        first = make_random_split(g, 0.3, seed=9).hidden_pairs
        assert np.array_equal(make_random_split(g, 0.3, seed=9).hidden_pairs, first)
        assert not np.array_equal(make_random_split(g, 0.3, seed=10).hidden_pairs, first)

    def test_bad_fraction(self):
        g = self._graph(np.random.default_rng(5))
        for f in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(GigmineError, match=r"hidden_fraction must lie in \(0, 1\)"):
                make_random_split(g, hidden_fraction=f)

    def test_rejects_fraction_that_hides_no_edge(self):
        g = make_graph([("a1", "v1", 1, 2010), ("a2", "v2", 1, 2010)])
        with pytest.raises(GigmineError, match="hidden_fraction 0.2 of 2 edges"):
            make_random_split(g, hidden_fraction=0.2, seed=0)


class TestTemporalSplit:
    @pytest.fixture(scope="class")
    @staticmethod
    def synth_corpus(tmp_path_factory):
        out = tmp_path_factory.mktemp("t2corpus")
        manifest = generate(
            GenSpec(
                n_artists=120,
                n_venues=40,
                years=(2008, 2017),
                seed=21,
                min_events=8,
                future_edge_count=25,
            ),
            out,
        )
        corpus = parse_corpus(out / "events.csv", out / "releases.csv", out / "labels.csv")
        return corpus, manifest

    def test_planted_future_edges_are_exactly_the_test_set(self, synth_corpus):
        corpus, manifest = synth_corpus
        years = manifest["train_end_year"], manifest["test_years"]
        split = make_temporal_split(corpus, *years, core_k=5)
        planted = {tuple(p) for p in manifest["planted_future_edges"]}
        assert set(id_pairs(split.train_graph, split.test_pairs)) == planted
        assert np.array_equal(split.test_pairs, np.unique(split.test_pairs))
        assert split.stats["test_positives"] == len(planted)

    def test_training_graph_respects_cutoff_and_core(self, synth_corpus):
        corpus, manifest = synth_corpus
        years = manifest["train_end_year"], manifest["test_years"]
        split = make_temporal_split(corpus, *years, core_k=5)
        g = split.train_graph
        assert (g.first_year <= manifest["train_end_year"]).all()
        for side, order in ((g.row, g.artist_order), (g.col, g.venue_order)):
            assert (np.bincount(side, weights=g.count, minlength=len(order)) >= 5).all()

    def test_known_training_edges_never_test_pairs(self, synth_corpus):
        corpus, manifest = synth_corpus
        years = manifest["train_end_year"], manifest["test_years"]
        split = make_temporal_split(corpus, *years)
        for pair in id_pairs(split.train_graph, split.test_pairs):
            assert pair not in edges_of(split.train_graph)

    def test_empty_sides_raise(self, synth_corpus):
        corpus, _ = synth_corpus
        with pytest.raises(GigmineError, match="no events"):
            make_temporal_split(corpus, train_end_year=1990, test_years={1995})
        with pytest.raises(GigmineError, match="no new"):
            make_temporal_split(corpus, train_end_year=2017, test_years={2030})

    def test_train_year_must_precede_test_years(self, synth_corpus):
        corpus, _ = synth_corpus
        with pytest.raises(GigmineError, match=r"2016 must precede test years \[2016, 2017\]"):
            make_temporal_split(corpus, train_end_year=2016, test_years=[2017, 2016])
        with pytest.raises(GigmineError, match="test year"):
            make_temporal_split(corpus, test_years=())


class TestSvdScores:
    def test_planted_biclique_block_beats_background(self):
        rng = np.random.default_rng(8)
        artists = [f"a{i}" for i in range(20)]
        venues = [f"v{j}" for j in range(20)]
        edges = {}
        for i in range(10):
            for j in range(10):
                if (i, j) != (3, 4):  # hide one block edge
                    edges[(f"a{i}", f"v{j}")] = (1, 2010)
        for _ in range(20):  # sparse background noise outside the block
            i, j = rng.integers(10, 20, 2)
            edges[(f"a{i}", f"v{j}")] = (1, 2010)
        g = make_graph([(a, v, *info) for (a, v), info in edges.items()], artists, venues)
        pairs = [("a3", "v4"), ("a0", "v15"), ("a15", "v0")]
        (block, row_bg, col_bg), _ = score_svd(g, pair_codes(g, pairs), k=3, seed=0)
        assert block > row_bg
        assert block > col_bg
        assert block > 0.5  # block entry reconstructs near 1

    def test_full_rank_reconstruction_is_exact(self):
        g = make_graph(
            [("a1", "v1", 1, 2010), ("a1", "v2", 1, 2010), ("a2", "v1", 1, 2010),
             ("a3", "v3", 1, 2011)]
        )
        k = min(len(g.artist_order), len(g.venue_order))
        pairs = np.setdiff1d(np.arange(len(g.artist_order) * len(g.venue_order)), edge_codes(g))
        scores, solver = score_svd(g, pairs, k=k, seed=0)
        assert solver == "lapack"  # k is the full rank
        assert scores.shape == pairs.shape
        for s in scores:
            assert s == pytest.approx(0.0, abs=1e-9)

    def test_blocks_of_pairs_do_not_change_a_score(self):
        rng = np.random.default_rng(4)
        g = random_bipartite(rng, 12, 10, 0.3)
        pairs = rng.integers(0, len(g.artist_order) * len(g.venue_order), 50)
        scores, _ = score_svd(g, pairs, k=4, seed=0)
        with mock.patch.object(linkpred, "_SCORE_BLOCK", 3):
            assert score_svd(g, pairs, k=4, seed=0)[0].tolist() == scores.tolist()

    def test_unknown_node_rejected(self, toy_graph):
        # the toy graph is 2 x 2, so codes run from 0 to 3
        for code in (4, -1):
            with pytest.raises(GigmineError, match=f"pair code {code} lies outside"):
                score_svd(toy_graph, [3, code], k=1)

    def test_scores_invariant_under_id_relabeling(self):
        rng = np.random.default_rng(9)
        g = random_bipartite(rng, 8, 8, 0.35)
        non_edges = np.setdiff1d(
            np.arange(len(g.artist_order) * len(g.venue_order)), edge_codes(g)
        )[:5]
        t1, _ = score_svd(g, non_edges, k=3, seed=0)
        # relabel ids in a way that preserves sort order on both sides
        ren_a = {a: f"x{a}" for a in g.artist_order}
        ren_v = {v: f"y{v}" for v in g.venue_order}
        g2 = make_graph(
            [(ren_a[a], ren_v[v], *info) for (a, v), info in edges_of(g).items()],
            ren_a.values(),
            ren_v.values(),
        )
        # the orders are preserved, so the same codes name the relabeled pairs
        t2, _ = score_svd(g2, non_edges, k=3, seed=0)
        assert t2 == pytest.approx(t1, abs=1e-10)


class TestScoreTablesAndEvaluation:
    def test_score_table_rejects_non_finite(self):
        with pytest.raises(GigmineError, match="scores must be finite"):
            evaluate_linkpred({"svd": np.array([1.0, float("nan")])}, [5, 7], [5], [7])

    def test_build_tables_rejects_training_edges(self, toy_graph):
        with pytest.raises(GigmineError, match=r"\('a1', 'v1'\) is already a training edge"):
            build_score_tables(
                toy_graph, pair_codes(toy_graph, [("a1", "v1")]), predictors=("jaccard",)
            )

    def test_unknown_predictor(self, toy_graph):
        with pytest.raises(GigmineError, match="unknown predictor"):
            build_score_tables(
                toy_graph, pair_codes(toy_graph, [("a2", "v2")]), predictors=("adamic_adar",)
            )

    def test_heuristic_tables_cover_all_pairs(self, toy_graph):
        tables, fits = build_score_tables(
            toy_graph,
            pair_codes(toy_graph, [("a2", "v2")]),
            predictors=("common_neighbors", "jaccard", "preferential_attachment"),
        )
        assert set(tables) == {"common_neighbors", "jaccard", "preferential_attachment"}
        assert tables["common_neighbors"].tolist() == [2.0]
        assert fits == {}

    def test_model_fits_reported(self):
        rng = np.random.default_rng(14)
        g = random_bipartite(rng, 8, 8, 0.4)
        pairs = np.setdiff1d(np.arange(64), edge_codes(g))
        tables, fits = build_score_tables(
            g, pairs, predictors=("svd", "embedding"), svd_k=2,
            walks_per_node=2, walk_length=4, embed_dim=4, embed_epochs=3,
        )
        assert tables["svd"].shape == tables["embedding"].shape == pairs.shape
        assert fits["svd_solver"] == "arpack"  # 2k + 1 < 8
        assert len(fits["embedding_loss"]) == 3
        assert all(np.isfinite(fits["embedding_loss"]))

    def test_evaluate_perfect_and_reversed(self):
        scores, pairs = np.array([2.0, 1.0]), np.array([0, 3])
        tables = {"up": scores, "down": -scores}
        assert evaluate_linkpred(tables, pairs, [0], [3]) == {"up": 1.0, "down": 0.0}
        assert evaluate_linkpred(tables, pairs, [3], [0]) == {"up": 0.0, "down": 1.0}
        # candidate order does not matter
        assert evaluate_linkpred({"up": scores[::-1]}, pairs[::-1], [0], [3]) == {"up": 1.0}
        assert evaluate_linkpred({}, pairs, [0], [3]) == {}

    def test_evaluate_guards(self):
        tables, pairs = {"svd": np.array([1.0, 0.0])}, np.array([0, 1])
        with pytest.raises(GigmineError, match="overlap"):
            evaluate_linkpred(tables, pairs, [0], [0])
        with pytest.raises(GigmineError, match="at least one"):
            evaluate_linkpred(tables, pairs, [0], [])
        with pytest.raises(GigmineError, match="unscored"):
            evaluate_linkpred(tables, pairs, [0], [2])
        with pytest.raises(GigmineError, match="3 scores for 2 pairs"):
            evaluate_linkpred({**tables, "jaccard": np.zeros(3)}, pairs, [0], [1])


class TestNegativeSampling:
    def test_excludes_edges_and_extras(self):
        rng = np.random.default_rng(11)
        g = random_bipartite(rng, 10, 10, 0.3)
        edges = edges_of(g)
        extra = [0] if ("a0", "v0") not in edges else []
        negs = sample_negative_pairs(g, 20, exclude=extra, seed=0)
        assert len(negs) == 20
        assert len(set(negs.tolist())) == 20
        for p in id_pairs(g, negs):
            assert p not in edges
            assert p != ("a0", "v0")

    def test_seeded_determinism(self):
        rng = np.random.default_rng(12)
        g = random_bipartite(rng, 10, 10, 0.3)
        first = sample_negative_pairs(g, 15, seed=4)
        assert np.array_equal(sample_negative_pairs(g, 15, seed=4), first)
        assert not np.array_equal(sample_negative_pairs(g, 15, seed=5), first)

    def test_exhaustive_returns_every_non_edge(self, toy_graph):
        # asking for as many negatives as there are non-edges enumerates them
        negs = sample_negative_pairs(toy_graph, 1)
        assert id_pairs(toy_graph, negs) == [("a2", "v2")]
        g = random_bipartite(np.random.default_rng(3), 9, 7, 0.4)
        n_cells = len(g.artist_order) * len(g.venue_order)
        non_edges = np.setdiff1d(np.arange(n_cells), edge_codes(g))
        assert sample_negative_pairs(g, non_edges.size).tolist() == non_edges.tolist()

    def test_oversized_request_returns_all(self, toy_graph):
        assert id_pairs(toy_graph, sample_negative_pairs(toy_graph, 100)) == [("a2", "v2")]

    def test_complete_graph_has_no_candidates(self):
        g = make_graph([("a", "v", 1, 2010)])
        with pytest.raises(GigmineError, match="no candidate"):
            sample_negative_pairs(g, 5)

    def test_dense_request_path(self):
        # asking for more than half of what exists takes the enumerate+choice path
        rng = np.random.default_rng(13)
        g = random_bipartite(rng, 6, 6, 0.2)
        available = 36 - g.n_edges
        n = available - 1
        negs = sample_negative_pairs(g, n, seed=2)
        assert len(negs) == n
        assert len(set(negs.tolist())) == n
        assert not np.isin(negs, edge_codes(g)).any()


class TestRunTask2:
    def test_end_to_end_report(self, tmp_path):
        out = tmp_path / "corpus"
        manifest = generate(
            GenSpec(
                n_artists=120,
                n_venues=40,
                years=(2008, 2017),
                seed=33,
                min_events=8,
                future_edge_count=20,
            ),
            out,
        )
        corpus = parse_corpus(out / "events.csv", out / "releases.csv", out / "labels.csv")
        report = run_task2(
            corpus,
            predictors=("common_neighbors", "jaccard", "preferential_attachment"),
            train_end_year=manifest["train_end_year"],
            test_years=manifest["test_years"],
            n_random_splits=2,
            neg_floor=200,
            seed=0,
        )
        assert report["task"] == "linkpred"
        assert report["split"]["test_positives"] == len(manifest["planted_future_edges"])
        assert set(report["forecasting"]) == {
            "common_neighbors",
            "jaccard",
            "preferential_attachment",
        }
        for auc in report["forecasting"].values():
            assert 0.0 <= auc <= 1.0
        for block in report["prediction"].values():
            assert len(block["per_split"]) == 2
            assert block["mean"] == pytest.approx(float(np.mean(block["per_split"])))
        assert report["negative_sampling"]["forecasting_negatives"] == max(
            10 * report["split"]["test_positives"], 200
        )
        # no model predictor ran, so no fit reported anything
        assert report["fits"] == {"forecasting": {}, "prediction": [{}, {}]}

    def test_rejects_degenerate_embedding_settings(self, tmp_path):
        out = tmp_path / "corpus"
        manifest = generate(
            GenSpec(n_artists=120, n_venues=40, years=(2008, 2017), seed=33, min_events=8,
                    future_edge_count=20),
            out,
        )
        corpus = parse_corpus(out / "events.csv", out / "releases.csv", out / "labels.csv")
        years = {"train_end_year": manifest["train_end_year"],
                 "test_years": manifest["test_years"]}
        for key, param in [("embed_window", "window"), ("embed_epochs", "epochs"),
                           ("embed_dim", "dim"), ("walk_length", "length"),
                           ("walks_per_node", "walks_per_node")]:
            with pytest.raises(GigmineError, match=f"{param} must be at least 1, got 0"):
                run_task2(corpus, predictors=("embedding",), **years, **{key: 0})

    @pytest.mark.parametrize("params, error", [
        ({"predictors": []}, "predictors must name at least one predictor"),
        ({"predictors": ["common_neighbors", "bogus"]}, "unknown predictor: 'bogus'"),
        ({"predictors": ["svd", "svd"]}, "predictor 'svd' is listed twice"),
        ({"svd_k": 0}, "svd_k must be at least 1, got 0"),
        ({"walks_per_node": 0}, "walks_per_node must be at least 1, got 0"),
        ({"embed_dim": -1}, "embed_dim must be at least 1, got -1"),
    ])
    def test_rejects_bad_predictors_and_model_sizes_before_the_split(self, params, error):
        corpus = make_corpus([("e1", "a1", "v1", dt.date(2014, 5, 1))])
        split = mock.Mock(side_effect=AssertionError("split"))
        with mock.patch.object(linkpred, "make_temporal_split", split):
            with pytest.raises(GigmineError) as exc:
                run_task2(corpus, **params)
        assert str(exc.value) == error

    def test_a_misspelled_knob_fails_before_the_split(self):
        corpus = make_corpus([("e1", "a1", "v1", dt.date(2014, 5, 1))])
        split = mock.Mock(side_effect=AssertionError("split"))
        with mock.patch.object(linkpred, "make_temporal_split", split):
            with pytest.raises(TypeError, match="unexpected keyword argument 'embed_dimm'"):
                run_task2(corpus, embed_dimm=8)

    def test_rejects_fewer_than_one_random_split(self):
        corpus = make_corpus([("e1", "a1", "v1", dt.date(2014, 5, 1))])
        for n in (0, -1):
            with pytest.raises(GigmineError, match=f"n_random_splits must be at least 1, got {n}"):
                run_task2(corpus, n_random_splits=n)


class TestScoringPool:
    """run_task2 scores the forecasting pass and the random splits concurrently."""

    N_SPLITS = 3  # with the forecasting pass, four scoring passes

    @pytest.fixture(scope="class")
    def corpus_and_split(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("poolcorpus")
        manifest = generate(
            GenSpec(n_artists=120, n_venues=40, years=(2008, 2017), seed=33, min_events=8,
                    future_edge_count=20),
            out,
        )
        corpus = parse_corpus(out / "events.csv", out / "releases.csv", out / "labels.csv")
        years = {"train_end_year": manifest["train_end_year"],
                 "test_years": manifest["test_years"]}
        return corpus, years

    def run(self, corpus_and_split, workers, **params):
        corpus, years = corpus_and_split
        asked = []

        def forced(n_passes):
            asked.append(n_passes)
            return workers

        with mock.patch.object(linkpred, "_workers", forced):
            report = run_task2(
                corpus, **years, n_random_splits=self.N_SPLITS, seed=4,
                walks_per_node=2, walk_length=6, embed_dim=8, embed_epochs=2, svd_k=5,
                **{"neg_floor": 200, **params},
            )
        assert asked == [self.N_SPLITS + 1]
        return report

    def test_an_svd_k_past_the_training_graph_fails_before_any_pass(self, corpus_and_split):
        corpus, years = corpus_and_split
        train = linkpred.make_temporal_split(corpus, **years).train_graph
        n_a, n_v = len(train.artist_order), len(train.venue_order)
        score = mock.Mock(side_effect=AssertionError("a pass ran"))
        with mock.patch.object(linkpred, "build_score_tables", score):
            with pytest.raises(GigmineError) as exc:
                run_task2(corpus, **years, svd_k=min(n_a, n_v) + 1)
        assert str(exc.value) == (
            f"svd_k {min(n_a, n_v) + 1} exceeds the training graph's smaller side "
            f"({n_a} artists, {n_v} venues)")

    def test_report_independent_of_worker_count(self, corpus_and_split):
        serial = self.run(corpus_and_split, 1)
        # four threads switching often: state shared between passes would
        # show as a changed bit
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pooled = self.run(corpus_and_split, self.N_SPLITS + 1)
        finally:
            sys.setswitchinterval(interval)
        # every AUC and every SGNS epoch loss, compared exactly
        assert pooled == serial
        assert len(serial["fits"]["prediction"]) == self.N_SPLITS
        assert all("embedding_loss" in fit for fit in serial["fits"]["prediction"])

    def test_passes_run_at_the_same_time(self, corpus_and_split):
        # each pass waits at the barrier until all of them have started, so a
        # pool that ran them one after another would break it
        barrier = threading.Barrier(self.N_SPLITS + 1, timeout=60)
        real = linkpred.build_score_tables

        def meeting(*args, **kwargs):
            barrier.wait()
            return real(*args, **kwargs)

        with mock.patch.object(linkpred, "build_score_tables", meeting):
            self.run(corpus_and_split, self.N_SPLITS + 1, predictors=HEURISTICS)

    @pytest.mark.parametrize("workers", [1, N_SPLITS + 1])
    def test_error_in_a_pass_surfaces_unchanged(self, corpus_and_split, workers):
        no_edge = r"hidden_fraction 1e-09 of \d+ edges hides no edge"
        with pytest.raises(GigmineError, match=no_edge):
            self.run(corpus_and_split, workers, predictors=HEURISTICS, hidden_fraction=1e-9)

    @pytest.mark.parametrize("workers", [1, N_SPLITS + 1])
    def test_fraction_that_hides_no_edge_fails_before_any_pass(self, corpus_and_split, workers):
        def never(*args, **kwargs):
            raise AssertionError("a scoring pass ran")

        no_edge = r"hidden_fraction 1e-09 of \d+ edges hides no edge"
        with mock.patch.object(linkpred, "build_score_tables", never), \
                pytest.raises(GigmineError, match=no_edge):
            self.run(corpus_and_split, workers, hidden_fraction=1e-9)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.1])
    def test_fraction_outside_unit_interval_fails_before_any_pass(
        self, corpus_and_split, fraction
    ):
        def never(*args, **kwargs):
            raise AssertionError("a scoring pass ran")

        outside = rf"hidden_fraction must lie in \(0, 1\), got {fraction}"
        with mock.patch.object(linkpred, "build_score_tables", never), \
                pytest.raises(GigmineError, match=outside):
            self.run(corpus_and_split, self.N_SPLITS + 1, hidden_fraction=fraction)

    @pytest.mark.parametrize("knobs, message", [
        ({"neg_multiple": 0, "neg_floor": 0}, "got 0 and 0"),
        ({"neg_multiple": -1, "neg_floor": 200}, "got -1 and 200"),
        ({"neg_multiple": 10, "neg_floor": -5}, "got 10 and -5"),
    ])
    def test_negative_knobs_that_sample_nothing_fail_before_any_pass(
        self, corpus_and_split, knobs, message
    ):
        def never(*args, **kwargs):
            raise AssertionError("a scoring pass ran")

        want = "neg_multiple and neg_floor must be at least 0 and not both 0, " + message
        with mock.patch.object(linkpred, "build_score_tables", never), \
                pytest.raises(GigmineError, match=want):
            self.run(corpus_and_split, self.N_SPLITS + 1, **knobs)

    def test_workers_bounded_by_passes_and_cores(self):
        if hasattr(os, "sched_getaffinity"):
            cores = len(os.sched_getaffinity(0))
        else:
            cores = os.cpu_count()
        assert linkpred._workers(1) == 1
        assert linkpred._workers(10_000) == cores
        assert linkpred._workers(2) == min(2, cores)
