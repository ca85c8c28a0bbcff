import dataclasses
import datetime as dt
import functools
import gc
import logging
import math
import tracemalloc

import numpy as np
import pytest

from conftest import edges_of, make_corpus, make_graph
from oracles import dense_birank_oracle, random_bipartite

import gigmine.birank
from gigmine.birank import (
    BiRankResult,
    ScoreView,
    birank,
    dense_rank,
    score_histogram,
    seed_scores,
    temporal_weights,
    yearly_trajectories,
)
from gigmine.errors import GigmineError
from gigmine.graph import build_graph
from gigmine.ingest import parse_corpus
from gigmine.synth import GenSpec, generate


def by_id(order, values) -> dict:
    """id -> value of one array in an id order."""
    return dict(zip(order, np.asarray(values).tolist()))


def edge_weights(g, weights) -> dict:
    """(artist, venue) -> decay weight of ``g``'s edges, the oracle's input."""
    return dict(zip(g.id_pairs(g.row, g.col), weights.tolist()))


class TestSeeds:
    def test_equal_degrees_split_evenly(self, toy_graph):
        seeds = seed_scores(toy_graph)
        # one artist with degree 2 and one with degree 1
        assert by_id(toy_graph.artist_order, seeds.artist_seed)["a1"] == pytest.approx(
            math.log(3) / (math.log(3) + math.log(2))
        )
        assert sum(seeds.artist_seed.tolist()) == pytest.approx(1.0, abs=1e-9)
        assert sum(seeds.venue_seed.tolist()) == pytest.approx(1.0, abs=1e-9)

    def test_degrees_one_and_three(self):
        g = make_graph(
            [("a1", "v1", 1, 2010), ("a2", "v1", 1, 2010), ("a2", "v2", 1, 2010),
             ("a2", "v3", 1, 2010)]
        )
        seeds = by_id(g.artist_order, seed_scores(g).artist_seed)
        # ln(2) : ln(4) = 1 : 2
        assert seeds["a1"] == pytest.approx(1 / 3)
        assert seeds["a2"] == pytest.approx(2 / 3)

    def test_seed_ranking_base_invariant(self):
        rng = np.random.default_rng(0)
        g = random_bipartite(rng, 10, 8, 0.3)
        seeds = by_id(g.artist_order, seed_scores(g).artist_seed)
        by_seed = sorted(g.artist_order, key=lambda a: -seeds[a])
        degree = by_id(g.artist_order, np.diff(g.indptr))
        by_log2 = sorted(
            g.artist_order, key=lambda a: -math.log2(degree[a] + 1)
        )
        assert by_seed == by_log2

    def test_empty_side_rejected(self):
        with pytest.raises(GigmineError, match="at least one"):
            seed_scores(make_graph(artists=["a"]))

    def test_all_isolated_side_rejected(self):
        g = make_graph(artists=["a"], venues=["v"])
        with pytest.raises(GigmineError, match="degree 0"):
            seed_scores(g)

    def test_default_seeds_are_log_degree_over_their_python_sum(self):
        # the larger graph repeats each degree many times and has an
        # isolated artist, so one log per distinct degree is gathered back
        for seed, n_a, n_v, density in ((7, 14, 9, 0.3), (8, 400, 300, 0.02)):
            g = random_bipartite(np.random.default_rng(seed), n_a, n_v, density)
            seeds = seed_scores(g)
            for side, ptr in ((seeds.artist_seed, g.indptr), (seeds.venue_seed, g.csc_indptr)):
                raw = [math.log(d + 1) for d in np.diff(ptr).tolist()]
                total = sum(raw)
                assert side.tolist() == [x / total for x in raw]
                assert not side.flags.writeable


class TestTemporalWeights:
    def test_decay_values(self):
        g = make_graph([("a", "v1", 1, 2017), ("a", "v2", 1, 2016), ("a", "v3", 1, 2015)])
        decay = temporal_weights(g, delta=0.85, ref_year=2017)
        assert not decay.flags.writeable
        weights = edge_weights(g, decay)
        assert weights[("a", "v1")] == pytest.approx(1.0)
        assert weights[("a", "v2")] == pytest.approx(0.85)
        assert weights[("a", "v3")] == pytest.approx(0.7225)

    def test_delta_one_means_no_decay(self):
        g = make_graph([("a", "v1", 1, 2010), ("a", "v2", 1, 2017)])
        assert set(temporal_weights(g, delta=1.0, ref_year=2017).tolist()) == {1.0}

    def test_future_edge_rejected(self):
        g = make_graph([("a", "v", 1, 2018)])
        with pytest.raises(GigmineError, match="after ref_year"):
            temporal_weights(g, ref_year=2017)

    def test_delta_bounds(self):
        g = make_graph([("a", "v", 1, 2010)])
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(GigmineError, match="delta"):
                temporal_weights(g, delta=bad)


class TestBiRank:
    def test_alpha_beta_zero_returns_seeds(self, toy_graph):
        seeds = seed_scores(toy_graph)
        result = birank(toy_graph, alpha=0.0, beta=0.0)
        assert result.artist_scores.order == toy_graph.artist_order
        assert result.venue_scores.order == toy_graph.venue_order
        assert result.artist_scores.array == pytest.approx(seeds.artist_seed, abs=1e-15)
        assert result.venue_scores.array == pytest.approx(seeds.venue_seed, abs=1e-15)
        assert result.converged

    def test_complete_graph_is_uniform(self):
        g = make_graph([(f"a{i}", f"v{j}", 1, 2017) for i in range(4) for j in range(4)])
        result = birank(g, ref_year=2017)
        scores = result.artist_scores.array.tolist()
        assert max(scores) - min(scores) <= 1e-10
        venue_scores = result.venue_scores.array.tolist()
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
            want_u, want_p = dense_birank_oracle(
                g, edge_weights(g, tw), seeds.artist_seed, seeds.venue_seed, 0.85, 0.85
            )
            got = birank(g, delta=0.9, ref_year=2017, tol=1e-14)
            assert got.artist_scores.order == g.artist_order
            assert got.venue_scores.order == g.venue_order
            assert got.artist_scores.array == pytest.approx(want_u, abs=1e-10)
            assert got.venue_scores.array == pytest.approx(want_p, abs=1e-10)

    def test_count_scaled_matches_dense_linear_solve(self):
        rng = np.random.default_rng(6)
        g = random_bipartite(rng, 9, 7, 0.4)
        tw = temporal_weights(g, delta=0.8, ref_year=2017)
        seeds = seed_scores(g)
        want_u, want_p = dense_birank_oracle(
            g, edge_weights(g, tw * g.count), seeds.artist_seed, seeds.venue_seed, 0.7, 0.9
        )
        got = birank(g, delta=0.8, ref_year=2017, alpha=0.7, beta=0.9, tol=1e-14,
                     count_scaled=True)
        assert got.artist_scores.array == pytest.approx(want_u, abs=1e-10)
        assert got.venue_scores.array == pytest.approx(want_p, abs=1e-10)

    def test_fixed_point_independent_of_start(self):
        # birank starts from the seeds; plain iteration of the same updates
        # from a uniform start reaches the same scores
        rng = np.random.default_rng(2)
        g = random_bipartite(rng, 15, 12, 0.25)
        a = birank(g, tol=1e-12)
        w = np.zeros((len(g.artist_order), len(g.venue_order)))
        w[g.row, g.col] = temporal_weights(g)
        du, dp = w.sum(axis=1), w.sum(axis=0)
        s = (np.where(du > 0, du, 1.0) ** -0.5 * (du > 0))[:, None] * w
        s = s * (np.where(dp > 0, dp, 1.0) ** -0.5 * (dp > 0))
        u0, p0 = seed_scores(g)
        u, p = np.full(u0.size, 1 / u0.size), np.full(p0.size, 1 / p0.size)
        for _ in range(2000):
            u = 0.85 * (s @ p) + 0.15 * u0
            p = 0.85 * (s.T @ u) + 0.15 * p0
        assert np.abs(a.artist_scores.array - u).max() < 1e-6
        assert np.abs(a.venue_scores.array - p).max() < 1e-6

    def test_isolated_nodes_keep_only_their_damped_seed(self):
        g = make_graph([("a1", "v1", 1, 2015), ("a2", "v1", 3, 2016)],
                       artists=["lone"], venues=["empty"])
        seeds = seed_scores(g)
        result = birank(g, alpha=0.6, beta=0.7, count_scaled=True)
        lone, empty = g.artist_order.index("lone"), g.venue_order.index("empty")
        assert result.artist_scores.array[lone] == (1 - 0.6) * seeds.artist_seed[lone]
        assert result.venue_scores.array[empty] == (1 - 0.7) * seeds.venue_seed[empty]

    def test_equivariant_under_relabeling(self):
        rng = np.random.default_rng(3)
        g = random_bipartite(rng, 8, 6, 0.4)
        res = birank(g)
        g2 = make_graph(
            [(f"z_{a}", f"q_{v}", *info) for (a, v), info in edges_of(g).items()],
            [f"z_{a}" for a in g.artist_order],
            [f"q_{v}" for v in g.venue_order],
        )
        res2 = birank(g2)
        scores = by_id(res.artist_scores.order, res.artist_scores.array)
        scores2 = by_id(res2.artist_scores.order, res2.artist_scores.array)
        for a in g.artist_order:
            assert scores2[f"z_{a}"] == pytest.approx(scores[a], abs=1e-12)

    def test_no_decay_equal_counts_ignores_years(self):
        g1 = make_graph([("a1", "v1", 2, 2010), ("a2", "v1", 2, 2016)])
        g2 = make_graph([("a1", "v1", 2, 2016), ("a2", "v1", 2, 2010)])
        r1 = birank(g1, delta=1.0, ref_year=2017)
        r2 = birank(g2, delta=1.0, ref_year=2017)
        assert r1.artist_scores.order == r2.artist_scores.order
        assert r1.artist_scores.array == pytest.approx(r2.artist_scores.array)

    def test_count_scaling_boosts_heavier_edge(self):
        g = make_graph([
            ("busy", "v1", 9, 2017),
            ("quiet", "v1", 1, 2017),
            ("busy", "v2", 1, 2017),
            ("quiet", "v3", 1, 2017),
        ])
        flat = birank(g, ref_year=2017, count_scaled=False).artist_scores
        scaled = birank(g, ref_year=2017, count_scaled=True).artist_scores
        flat, scaled = by_id(flat.order, flat.array), by_id(scaled.order, scaled.array)
        # without count scaling the two artists are symmetric, seeds included
        assert flat["busy"] == pytest.approx(flat["quiet"])
        assert scaled["busy"] != pytest.approx(scaled["quiet"])

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

    def test_parameter_validation(self, toy_graph):
        with pytest.raises(GigmineError, match="alpha"):
            birank(toy_graph, alpha=1.5)
        # the weights are built from these two
        with pytest.raises(GigmineError, match="delta"):
            birank(toy_graph, delta=0.0)
        with pytest.raises(GigmineError, match="after ref_year 2011"):
            birank(toy_graph, ref_year=2011)

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
        assert scores.order == toy_graph.artist_order
        assert scores.array.shape == (len(toy_graph.artist_order),)
        with pytest.raises(ValueError):
            scores.array[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            scores.array = np.zeros(2)


class TestDenseRank:
    def test_ties_share_rank_without_gaps(self):
        assert dense_rank(np.array([3.0, 2.0, 2.0, 1.0])).tolist() == [1, 2, 2, 3]
        assert dense_rank(np.array([1.0, 3.0, 1.0])).tolist() == [2, 1, 2]

    def test_single_node(self):
        assert dense_rank(np.array([0.7])).tolist() == [1]


def rank_of(ranking, artist) -> int:
    return int(ranking.ranks[ranking.scores.order.index(artist)])


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
        assert "riser" not in traj[2012].scores.order
        assert "riser" in traj[2013].scores.order
        for ranking in traj.values():
            assert ranking.ranks.shape == ranking.scores.array.shape
            assert ranking.ranks.min() == 1

    def test_window_ranks_match_dense_rank(self):
        traj = yearly_trajectories(self._corpus(), window_years=3)
        for ranking in traj.values():
            scores = ranking.scores.array.tolist()
            # rank = 1 + the number of distinct higher scores
            want = [1 + len({t for t in scores if t > s}) for s in scores]
            assert ranking.ranks.tolist() == want

    def test_riser_rank_improves(self):
        traj = yearly_trajectories(self._corpus(), window_years=3)
        assert rank_of(traj[2015], "riser") < rank_of(traj[2013], "riser")

    def test_single_artist_ranks_first(self):
        events = [("solo", "v1", y) for y in (2010, 2011, 2012)]
        traj = yearly_trajectories(trajectory_corpus(events), window_years=3)
        assert rank_of(traj[2012], "solo") == 1

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

    @pytest.mark.parametrize("count_scaled", [False, True])
    def test_each_window_ranks_with_the_given_parameters(self, count_scaled):
        corpus = self._corpus()
        params = dict(delta=0.6, alpha=0.7, beta=0.9, count_scaled=count_scaled)
        traj = yearly_trajectories(corpus, window_years=3, **params)
        assert sorted(traj) == [2012, 2013, 2014, 2015]
        for year, ranking in traj.items():
            in_window = (corpus.year > year - 3) & (corpus.year <= year)
            want = birank(build_graph(corpus.select(in_window)), ref_year=year, **params)
            assert ranking.scores.order == want.artist_scores.order
            assert np.array_equal(ranking.scores.array, want.artist_scores.array)

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
    cells = sum(len(ranking.scores.order) for ranking in traj.values())
    assert len(traj) == 8 and cells > 2000
    assert retained < 40 * cells, f"{retained} bytes for {cells} cells"


def histogram_of(scores: dict, signed: dict, **kwargs) -> dict:
    """score_histogram over id-keyed scores and flags, as arrays in one order."""
    order = tuple(scores)
    result = BiRankResult(
        artist_scores=ScoreView(order, np.array([scores[a] for a in order])),
        venue_scores=ScoreView((), np.empty(0)), iterations=1, converged=True,
    )
    return score_histogram(result, np.array([signed[a] for a in order if a in signed]), **kwargs)


class TestScoreHistogram:
    def test_frequencies_sum_to_one(self):
        rng = np.random.default_rng(6)
        scores = {f"a{i}": float(rng.random()) for i in range(50)}
        labels = {f"a{i}": i % 3 == 0 for i in range(50)}
        hist = histogram_of(scores, labels, bins=10)
        assert sum(hist["signed"]) == pytest.approx(1.0)
        assert sum(hist["unsigned"]) == pytest.approx(1.0)
        assert len(hist["bin_edges"]) == 11
        assert hist["n_signed"] == 17
        assert hist["n_unsigned"] == 33

    def test_identical_score_multisets_match(self):
        scores = {"a1": 0.3, "a2": 0.7, "b1": 0.3, "b2": 0.7}
        labels = {"a1": True, "a2": True, "b1": False, "b2": False}
        hist = histogram_of(scores, labels, bins=4)
        assert hist["signed"] == hist["unsigned"]
        assert hist["signed_mean"] == hist["unsigned_mean"]
        assert hist["signed_median"] == hist["unsigned_median"]

    def test_empty_class_rejected(self):
        scores = {"a1": 0.5, "a2": 0.6}
        with pytest.raises(GigmineError, match="nonempty"):
            histogram_of(scores, {"a1": True, "a2": True})

    def test_missing_label_rejected(self):
        scores = {"a1": 0.5, "a2": 0.6}
        with pytest.raises(GigmineError, match="1 success flags for 2 scored artists"):
            histogram_of(scores, {"a1": True})

    @pytest.mark.parametrize("bins", [0, -1])
    def test_bins_below_one_rejected(self, bins):
        scores = {"a1": 0.5, "a2": 0.6}
        with pytest.raises(GigmineError, match=f"bins must be at least 1, got {bins}"):
            histogram_of(scores, {"a1": True, "a2": False}, bins=bins)
