import datetime as dt
import functools
import gc
import logging
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from conftest import make_corpus
from oracles import dense_birank_oracle, random_bipartite

import gigmine.birank
from gigmine.birank import (
    BiRankResult,
    ScoreView,
    SeedScores,
    birank,
    dense_rank,
    score_histogram,
    seed_scores,
    temporal_weights,
    yearly_trajectories,
)
from gigmine.errors import GigmineError
from gigmine.graph import BipartiteGraph, EdgeInfo, build_graph
from gigmine.ingest import parse_corpus
from gigmine.synth import GenSpec, generate


class TestSeeds:
    def test_equal_degrees_split_evenly(self, toy_graph):
        seeds = seed_scores(toy_graph)
        # one artist with degree 2 and one with degree 1
        assert seeds.artist_seed["a1"] == pytest.approx(
            math.log(3) / (math.log(3) + math.log(2))
        )
        assert sum(seeds.artist_seed.values()) == pytest.approx(1.0, abs=1e-9)
        assert sum(seeds.venue_seed.values()) == pytest.approx(1.0, abs=1e-9)

    def test_degrees_one_and_three(self):
        g = build_graph(
            [("a1", "v1", 2010), ("a2", "v1", 2010), ("a2", "v2", 2010), ("a2", "v3", 2010)]
        )
        seeds = seed_scores(g)
        # ln(2) : ln(4) = 1 : 2
        assert seeds.artist_seed["a1"] == pytest.approx(1 / 3)
        assert seeds.artist_seed["a2"] == pytest.approx(2 / 3)

    def test_seed_ranking_base_invariant(self):
        rng = np.random.default_rng(0)
        g = random_bipartite(rng, 10, 8, 0.3)
        seeds = seed_scores(g)
        by_seed = sorted(g.artist_order, key=lambda a: -seeds.artist_seed[a])
        by_log2 = sorted(
            g.artist_order, key=lambda a: -math.log2(g.degree(a) + 1)
        )
        assert by_seed == by_log2

    def test_empty_side_rejected(self):
        with pytest.raises(GigmineError, match="at least one"):
            seed_scores(BipartiteGraph({"a"}, set(), {}))

    def test_all_isolated_side_rejected(self):
        g = BipartiteGraph({"a"}, {"v"}, {})
        with pytest.raises(GigmineError, match="degree 0"):
            seed_scores(g)

    def test_validation_of_handmade_seeds(self):
        with pytest.raises(GigmineError, match="sum"):
            SeedScores({"a": 0.7}, {"v": 1.0})
        with pytest.raises(GigmineError, match="negative"):
            SeedScores({"a": 1.5, "b": -0.5}, {"v": 1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_seed_rejected(self, bad):
        with pytest.raises(GigmineError, match="venue seeds contain a negative or non-finite"):
            SeedScores({"a": 1.0}, {"v": bad, "w": 1.0})

    def test_seed_missing_a_graph_node_rejected(self, toy_graph):
        seeds = SeedScores({"a1": 1.0}, {"v1": 0.5, "v2": 0.5})
        with pytest.raises(GigmineError, match="artist seeds must cover exactly the graph's"):
            birank(toy_graph, seeds=seeds)

    def test_seed_with_an_extra_id_rejected(self, toy_graph):
        seeds = SeedScores({"a1": 0.5, "a2": 0.5}, {"v1": 0.25, "v2": 0.25, "v9": 0.5})
        with pytest.raises(GigmineError, match="venue seeds must cover exactly the graph's"):
            birank(toy_graph, seeds=seeds)

    def test_default_seeds_are_log_degree_over_their_python_sum(self):
        g = random_bipartite(np.random.default_rng(7), 14, 9, 0.3)
        seeds = seed_scores(g)
        for side, order in ((seeds.artist_seed, g.artist_order), (seeds.venue_seed, g.venue_order)):
            raw = [math.log(g.degree(n) + 1) for n in order]
            total = sum(raw)
            assert side.order == order
            assert side.array.tolist() == [x / total for x in raw]
            assert not side.array.flags.writeable

    def test_default_seeds_take_no_per_id_lookup(self):
        g = random_bipartite(np.random.default_rng(8), 10, 8, 0.3)
        want = birank(g)
        with mock.patch.object(ScoreView, "position", side_effect=AssertionError("id lookup")):
            got = birank(g)
        assert np.array_equal(got.artist_scores.array, want.artist_scores.array)
        assert np.array_equal(got.venue_scores.array, want.venue_scores.array)

    def test_score_view_seeds_over_another_order(self, toy_graph):
        venues = ScoreView(toy_graph.venue_order, np.array([0.5, 0.5]))
        short = SeedScores(ScoreView(("a1",), np.array([1.0])), venues)
        with pytest.raises(GigmineError, match="artist seeds must cover exactly the graph's"):
            birank(toy_graph, seeds=short)
        # the same ids in another order are gathered id by id
        swapped = SeedScores(ScoreView(("a2", "a1"), np.array([0.25, 0.75])), venues)
        as_dict = SeedScores({"a1": 0.75, "a2": 0.25}, {"v1": 0.5, "v2": 0.5})
        got, want = birank(toy_graph, seeds=swapped), birank(toy_graph, seeds=as_dict)
        assert np.array_equal(got.artist_scores.array, want.artist_scores.array)


class TestTemporalWeights:
    def test_decay_values(self):
        g = build_graph(
            [("a", "v1", 2017), ("a", "v2", 2016), ("a", "v3", 2015)]
        )
        tw = temporal_weights(g, delta=0.85, ref_year=2017)
        assert tw.weights[("a", "v1")] == pytest.approx(1.0)
        assert tw.weights[("a", "v2")] == pytest.approx(0.85)
        assert tw.weights[("a", "v3")] == pytest.approx(0.7225)

    def test_delta_one_means_no_decay(self):
        g = build_graph([("a", "v1", 2010), ("a", "v2", 2017)])
        tw = temporal_weights(g, delta=1.0, ref_year=2017)
        assert set(tw.weights.values()) == {1.0}

    def test_future_edge_rejected(self):
        g = build_graph([("a", "v", 2018)])
        with pytest.raises(GigmineError, match="after ref_year"):
            temporal_weights(g, ref_year=2017)

    def test_delta_bounds(self):
        g = build_graph([("a", "v", 2010)])
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(GigmineError, match="delta"):
                temporal_weights(g, delta=bad)


class TestBiRank:
    def test_alpha_beta_zero_returns_seeds(self, toy_graph):
        seeds = seed_scores(toy_graph)
        result = birank(toy_graph, alpha=0.0, beta=0.0)
        for a, s in seeds.artist_seed.items():
            assert result.artist_scores[a] == pytest.approx(s, abs=1e-15)
        for v, s in seeds.venue_seed.items():
            assert result.venue_scores[v] == pytest.approx(s, abs=1e-15)
        assert result.converged

    def test_complete_graph_is_uniform(self):
        g = build_graph(
            [(f"a{i}", f"v{j}", 2017) for i in range(4) for j in range(4)]
        )
        result = birank(g, weights=temporal_weights(g, ref_year=2017))
        scores = list(result.artist_scores.values())
        assert max(scores) - min(scores) <= 1e-10
        venue_scores = list(result.venue_scores.values())
        assert max(venue_scores) - min(venue_scores) <= 1e-10

    def test_matches_dense_linear_solve(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = random_bipartite(
                rng, int(rng.integers(3, 12)), int(rng.integers(3, 12)), 0.4
            )
            if g.n_edges == 0:
                continue
            tw = temporal_weights(g, delta=0.9, ref_year=2017)
            seeds = seed_scores(g)
            u0 = np.array([seeds.artist_seed[a] for a in g.artist_order])
            p0 = np.array([seeds.venue_seed[v] for v in g.venue_order])
            want_u, want_p = dense_birank_oracle(g, tw.weights, u0, p0, 0.85, 0.85)
            got = birank(g, weights=tw, seeds=seeds, tol=1e-14)
            for i, a in enumerate(g.artist_order):
                assert got.artist_scores[a] == pytest.approx(want_u[i], abs=1e-10)
            for j, v in enumerate(g.venue_order):
                assert got.venue_scores[v] == pytest.approx(want_p[j], abs=1e-10)

    def test_fixed_point_independent_of_start(self):
        rng = np.random.default_rng(2)
        g = random_bipartite(rng, 15, 12, 0.25)
        a = birank(g, init="seeds", tol=1e-12)
        b = birank(g, init="uniform", tol=1e-12)
        for node in g.artist_order:
            assert abs(a.artist_scores[node] - b.artist_scores[node]) < 1e-6
        for node in g.venue_order:
            assert abs(a.venue_scores[node] - b.venue_scores[node]) < 1e-6

    def test_equivariant_under_relabeling(self):
        rng = np.random.default_rng(3)
        g = random_bipartite(rng, 8, 6, 0.4)
        res = birank(g)
        g2 = BipartiteGraph(
            {f"z_{a}" for a in g.artists},
            {f"q_{v}" for v in g.venues},
            {(f"z_{a}", f"q_{v}"): info for (a, v), info in g.edges.items()},
        )
        res2 = birank(g2)
        for a in g.artists:
            assert res2.artist_scores[f"z_{a}"] == pytest.approx(
                res.artist_scores[a], abs=1e-12
            )

    def test_no_decay_equal_counts_ignores_years(self):
        e1 = {("a1", "v1"): EdgeInfo(2, 2010), ("a2", "v1"): EdgeInfo(2, 2016)}
        e2 = {("a1", "v1"): EdgeInfo(2, 2016), ("a2", "v1"): EdgeInfo(2, 2010)}
        g1 = BipartiteGraph({"a1", "a2"}, {"v1"}, e1)
        g2 = BipartiteGraph({"a1", "a2"}, {"v1"}, e2)
        r1 = birank(g1, weights=temporal_weights(g1, delta=1.0, ref_year=2017))
        r2 = birank(g2, weights=temporal_weights(g2, delta=1.0, ref_year=2017))
        assert r1.artist_scores == pytest.approx(r2.artist_scores)

    def test_count_scaling_boosts_heavier_edge(self):
        edges = {
            ("busy", "v1"): EdgeInfo(9, 2017),
            ("quiet", "v1"): EdgeInfo(1, 2017),
            ("busy", "v2"): EdgeInfo(1, 2017),
            ("quiet", "v3"): EdgeInfo(1, 2017),
        }
        g = BipartiteGraph({"busy", "quiet"}, {"v1", "v2", "v3"}, edges)
        tw = temporal_weights(g, ref_year=2017)
        seeds = SeedScores({"busy": 0.5, "quiet": 0.5}, {"v1": 1 / 3, "v2": 1 / 3, "v3": 1 / 3})
        flat = birank(g, weights=tw, seeds=seeds, count_scaled=False)
        scaled = birank(g, weights=tw, seeds=seeds, count_scaled=True)
        # without count scaling the two artists are symmetric
        assert flat.artist_scores["busy"] == pytest.approx(flat.artist_scores["quiet"])
        assert scaled.artist_scores["busy"] != pytest.approx(scaled.artist_scores["quiet"])

    def test_iteration_budget_flag(self):
        rng = np.random.default_rng(4)
        g = random_bipartite(rng, 10, 10, 0.4)
        capped = birank(g, max_iter=1, tol=1e-16)
        assert not capped.converged
        assert capped.iterations == 1
        free = birank(g)
        assert free.converged
        assert free.iterations < 200

    def test_l1_changes_contract(self):
        # successive iterates approach the fixed point geometrically, so each
        # run's iteration count shrinks as tol loosens
        rng = np.random.default_rng(5)
        g = random_bipartite(rng, 12, 10, 0.3)
        tight = birank(g, tol=1e-12)
        loose = birank(g, tol=1e-4)
        assert loose.iterations < tight.iterations

    def test_weights_of_another_graph_rejected(self, toy_graph):
        other = build_graph([("a1", "v1", 2010), ("a2", "v2", 2011)])
        with pytest.raises(GigmineError, match="different graph"):
            birank(toy_graph, weights=temporal_weights(other, ref_year=2017))
        twin = build_graph([("a1", "v1", 2010), ("a1", "v2", 2011), ("a2", "v1", 2012)])
        assert birank(toy_graph, weights=temporal_weights(twin)).converged

    def test_parameter_validation(self, toy_graph):
        with pytest.raises(GigmineError, match="init"):
            birank(toy_graph, init="zeros")
        with pytest.raises(GigmineError, match="alpha"):
            birank(toy_graph, alpha=1.5)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_max_iter_below_one_rejected(self, toy_graph, max_iter):
        with pytest.raises(GigmineError, match=f"max_iter must be at least 1, got {max_iter}"):
            birank(toy_graph, max_iter=max_iter)

    @pytest.mark.parametrize("tol", [math.nan, -1e-9])
    def test_tol_nan_or_negative_rejected(self, toy_graph, tol):
        with pytest.raises(GigmineError, match=f"tol must be a number at least 0, got {tol}"):
            birank(toy_graph, tol=tol)

    def test_scores_are_read_only_views(self, toy_graph):
        result = birank(toy_graph)
        scores = result.artist_scores
        assert list(scores) == list(toy_graph.artist_order)
        assert [scores[a] for a in scores] == scores.array.tolist()
        assert "nobody" not in scores
        with pytest.raises(ValueError):
            scores.array[0] = 1.0
        with pytest.raises(TypeError):
            scores["a1"] = 1.0


class TestDenseRank:
    def test_ties_share_rank_without_gaps(self):
        ranks = dense_rank({"a": 3.0, "b": 2.0, "c": 2.0, "d": 1.0})
        assert ranks == {"a": 1, "b": 2, "c": 2, "d": 3}

    def test_single_node(self):
        assert dense_rank({"only": 0.7}) == {"only": 1}


def trajectory_corpus(events):
    """Corpus of (artist, venue, year) events, each dated June 1st."""
    return make_corpus([(f"{a}-{v}-{y}", a, v, dt.date(y, 6, 1)) for a, v, y in events])


class TestTrajectories:
    def _corpus(self):
        # everyone shares the hub venue so the windows stay connected; the
        # riser starts below the incumbents and outgrows them by venue variety
        events = []
        for year in range(2010, 2016):
            events.append(("big", "hub", year))
            for v in range(5):
                events.append(("big", f"b{v}", year))
            events.append(("mid", "hub", year))
            events.append(("mid", "m0", year))
        for j, year in enumerate(range(2013, 2016)):
            events.append(("riser", "hub", year))
            for v in range(4 * j):
                events.append(("riser", f"r{v}", year))
        return trajectory_corpus(events)

    def test_window_years_and_membership(self):
        traj = yearly_trajectories(self._corpus(), window_years=3)
        assert sorted(traj) == [2012, 2013, 2014, 2015]
        assert "riser" not in traj[2012]
        assert "riser" in traj[2013]
        for ranking in traj.values():
            for cell in ranking.values():
                assert set(cell) == {"rank", "score"}
                assert cell["rank"] >= 1

    def test_window_ranks_match_dense_rank(self):
        traj = yearly_trajectories(self._corpus(), window_years=3)
        for ranking in traj.values():
            want = dense_rank(dict(ranking.scores))
            assert {a: cell["rank"] for a, cell in ranking.items()} == want
            assert [a for a, _, _ in ranking.ranked()] == sorted(want, key=lambda a: (want[a], a))

    def test_riser_rank_improves(self):
        traj = yearly_trajectories(self._corpus(), window_years=3)
        assert traj[2015]["riser"]["rank"] < traj[2013]["riser"]["rank"]

    def test_single_artist_ranks_first(self):
        events = [("solo", "v1", y) for y in (2010, 2011, 2012)]
        traj = yearly_trajectories(trajectory_corpus(events), window_years=3)
        assert traj[2012]["solo"]["rank"] == 1

    def test_short_span_rejected(self):
        events = [("a", "v", 2010)]
        with pytest.raises(GigmineError, match="span"):
            yearly_trajectories(trajectory_corpus(events), window_years=3)

    @pytest.mark.parametrize("window_years", [0, -2])
    def test_window_years_below_one_rejected(self, window_years):
        want = f"window_years must be at least 1, got {window_years}"
        with pytest.raises(GigmineError, match=want):
            yearly_trajectories(self._corpus(), window_years=window_years)

    def test_empty_window_skipped_and_logged(self, caplog):
        events = [("a", "v", 2010), ("a", "v", 2015)]
        with caplog.at_level(logging.INFO, logger="gigmine.birank"):
            traj = yearly_trajectories(trajectory_corpus(events), window_years=1)
        # 2011-2014 have no events: skipped, not present
        assert sorted(traj) == [2010, 2015]
        assert any("skipped" in rec.getMessage() for rec in caplog.records)

    def test_window_convergence_kept_and_misses_warned(self, caplog, monkeypatch):
        full = yearly_trajectories(self._corpus(), window_years=3)
        assert all(w.converged and w.iterations >= 1 for w in full.values())
        slowest = max(w.iterations for w in full.values())
        want_missed = sorted(y for y, w in full.items() if w.iterations == slowest)
        assert len(want_missed) < len(full)  # a cap one below the slowest spares a window
        # yearly_trajectories looks up the module-level birank at each call
        monkeypatch.setattr(
            gigmine.birank, "birank", functools.partial(birank, max_iter=slowest - 1)
        )
        with caplog.at_level(logging.WARNING, logger="gigmine.birank"):
            capped = yearly_trajectories(self._corpus(), window_years=3)
        missed = sorted(y for y, w in capped.items() if not w.converged)
        assert missed == want_missed
        assert all(capped[y].iterations == slowest - 1 for y in missed)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == len(missed)
        assert all(f"ending {y}" in msg for y, msg in zip(missed, warnings))


def test_trajectories_retain_a_few_bytes_per_cell(tmp_path):
    # a window keeps its artist order, rank array and score array, not a
    # dict per artist
    generate(GenSpec(n_artists=400, n_venues=60, years=(2008, 2017), seed=9, min_events=6),
             tmp_path)
    corpus = parse_corpus(tmp_path / "events.csv", tmp_path / "releases.csv",
                          tmp_path / "labels.csv")
    yearly_trajectories(corpus, window_years=3)  # fills the corpus's cached columns
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = yearly_trajectories(corpus, window_years=3)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    cells = sum(len(ranking) for ranking in traj.values())
    assert len(traj) == 8 and cells > 2000
    assert retained < 40 * cells, f"{retained} bytes for {cells} cells"


class TestScoreHistogram:
    def _result(self, scores):
        return BiRankResult(
            artist_scores=scores, venue_scores={}, iterations=1, converged=True
        )

    def test_frequencies_sum_to_one(self):
        rng = np.random.default_rng(6)
        scores = {f"a{i}": float(rng.random()) for i in range(50)}
        labels = {f"a{i}": i % 3 == 0 for i in range(50)}
        hist = score_histogram(self._result(scores), labels, bins=10)
        assert sum(hist["signed"]) == pytest.approx(1.0)
        assert sum(hist["unsigned"]) == pytest.approx(1.0)
        assert len(hist["bin_edges"]) == 11
        assert hist["n_signed"] == 17
        assert hist["n_unsigned"] == 33

    def test_identical_score_multisets_match(self):
        scores = {"a1": 0.3, "a2": 0.7, "b1": 0.3, "b2": 0.7}
        labels = {"a1": True, "a2": True, "b1": False, "b2": False}
        hist = score_histogram(self._result(scores), labels, bins=4)
        assert hist["signed"] == hist["unsigned"]
        assert hist["signed_mean"] == hist["unsigned_mean"]
        assert hist["signed_median"] == hist["unsigned_median"]

    def test_empty_class_rejected(self):
        scores = {"a1": 0.5, "a2": 0.6}
        with pytest.raises(GigmineError, match="nonempty"):
            score_histogram(self._result(scores), {"a1": True, "a2": True})

    def test_missing_label_rejected(self):
        scores = {"a1": 0.5, "a2": 0.6}
        with pytest.raises(GigmineError, match="lack labels"):
            score_histogram(self._result(scores), {"a1": True})

    @pytest.mark.parametrize("bins", [0, -1])
    def test_bins_below_one_rejected(self, bins):
        scores = {"a1": 0.5, "a2": 0.6}
        with pytest.raises(GigmineError, match=f"bins must be at least 1, got {bins}"):
            score_histogram(self._result(scores), {"a1": True, "a2": False}, bins=bins)
