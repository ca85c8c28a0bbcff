"""Shipping gate: every release criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines; each test fails loudly if its tolerance or runtime budget is missed.
The final criterion exercises the released real-world dataset and skips
unless GIGMINE_DATA_DIR points at a directory holding events.csv,
releases.csv, and labels.csv.
"""
import datetime as dt
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from gigmine.birank import birank, seed_scores, temporal_weights, yearly_trajectories
from gigmine.graph import build_graph
from gigmine.ingest import filter_min_activity, filter_post_2007, parse_corpus
from gigmine.labeling import label_corpus
from gigmine.linkpred import (
    build_score_tables,
    evaluate_linkpred,
    heuristic_scores,
    make_random_split,
    run_task2,
    sample_negative_pairs,
    score_svd,
)
from gigmine.metrics import roc_auc
from gigmine.success import SVDReducer, logreg_loss_grad, run_task1, train_logreg
from gigmine.synth import GenSpec, generate

from oracles import dense_birank_oracle, pairwise_auc, random_bipartite


def verdict(num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float):
    in_time = elapsed <= budget
    tag = "PASS" if (ok and in_time) else "FAIL"
    line = (
        f"[{tag}] criterion {num:>2} {name}: {detail}"
        f" ({elapsed:.1f}s, budget {budget:.0f}s)"
    )
    print(line)
    assert ok and in_time, line


def test_criterion_01_heuristic_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    graphs = pairs = mismatches = 0
    for _ in range(200):
        n_a, n_v = int(rng.integers(2, 51)), int(rng.integers(2, 51))
        g = random_bipartite(rng, n_a, n_v, float(rng.uniform(0.05, 0.3)))
        graphs += 1
        adj = defaultdict(set)
        for a, v in g.edges:
            adj[a].add(v)
            adj[v].add(a)
        nodes = list(g.artists) + list(g.venues)
        two = {
            n: set().union(*(adj[w] for w in adj[n])) if adj[n] else set()
            for n in nodes
        }
        # every (artist index, venue index) pair of the graph in one call
        n_cols = len(g.venue_order)
        rows, cols = np.divmod(np.arange(len(g.artist_order) * n_cols), n_cols)
        got = heuristic_scores(g, rows, cols)
        for k, (a, v) in enumerate(g.id_pairs(rows, cols)):
            pairs += 1
            cn = len(two[a] & adj[v]) + len(two[v] & adj[a])
            union = len(two[a] | adj[v]) + len(two[v] | adj[a])
            jac = cn / union if union else 0.0
            pa = len(adj[a]) * len(adj[v])
            if (
                got["common_neighbors"][k] != cn
                or got["jaccard"][k] != jac
                or got["preferential_attachment"][k] != pa
            ):
                mismatches += 1
    verdict(
        1,
        "heuristic oracle equivalence",
        graphs == 200 and pairs > 50_000 and mismatches == 0,
        f"{mismatches} mismatches over {pairs} pairs on {graphs} graphs",
        time.monotonic() - t0,
        30.0,
    )


def test_criterion_02_auc_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(100):
        n = 1000 if i < 5 else int(rng.integers(10, 401))
        if i % 2 == 0:
            # coarse integer scores guarantee heavy ties
            scores = rng.integers(0, max(2, n // 8), n).astype(float)
        else:
            scores = np.round(rng.standard_normal(n), 2)
        labels = rng.integers(0, 2, n).astype(bool)
        labels[0], labels[1] = True, False
        worst = max(worst, abs(roc_auc(scores, labels) - pairwise_auc(scores, labels)))
    verdict(
        2,
        "AUC oracle equivalence",
        worst <= 1e-12,
        f"max |roc_auc - pairwise| = {worst:.2e} over 100 vectors",
        time.monotonic() - t0,
        10.0,
    )


def test_criterion_03_logreg_gradient_check():
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    worst = 0.0
    eps = 1e-5
    for _ in range(20):
        n, d = int(rng.integers(8, 40)), int(rng.integers(2, 10))
        X = rng.standard_normal((n, d))
        y = rng.integers(0, 2, n).astype(float)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        C = float(rng.choice([0.1, 1.0, 10.0]))
        params = rng.standard_normal(d + 1)
        _, ana = logreg_loss_grad(params, X, y, C)
        num = np.empty_like(params)
        for j in range(params.size):
            hi, lo = params.copy(), params.copy()
            hi[j] += eps
            lo[j] -= eps
            num[j] = (logreg_loss_grad(hi, X, y, C)[0] - logreg_loss_grad(lo, X, y, C)[0]) / (
                2 * eps
            )
        dev = np.abs(num - ana) / np.maximum.reduce(
            [np.ones_like(num), np.abs(num), np.abs(ana)]
        )
        worst = max(worst, float(dev.max()))

    X = rng.standard_normal((80, 4))
    y = (X @ np.array([1.5, -2.0, 0.7, 0.0]) + 0.2 * rng.standard_normal(80) > 0).astype(
        float
    )
    hist = np.asarray(train_logreg(X, y, C=1.0).loss_history)
    monotone = len(hist) >= 2 and bool(np.all(np.diff(hist) <= 1e-12))
    verdict(
        3,
        "logreg gradient check",
        worst < 1e-5 and monotone,
        f"max relative deviation {worst:.2e}, loss history monotone={monotone}",
        time.monotonic() - t0,
        30.0,
    )


def test_criterion_04_svd_recovery():
    t0 = time.monotonic()
    rng = np.random.default_rng(404)
    worst_rel = 0.0
    for r, (n, m) in [(2, (120, 80)), (7, (300, 200)), (10, (500, 400))]:
        X = rng.standard_normal((n, r)) @ rng.standard_normal((r, m))
        red = SVDReducer(r, seed=0).fit(X)
        recon = red.transform(X) @ red.components_.T
        rel = float(np.linalg.norm(X - recon) / np.linalg.norm(X))
        worst_rel = max(worst_rel, rel)

    # three disjoint full bicliques give an exactly rank-3 biadjacency
    triples = []
    for b in range(3):
        for i in range(30):
            for j in range(20):
                triples.append((f"a{b}_{i}", f"v{b}_{j}", 2015))
    g = build_graph(triples)
    train, hidden = make_random_split(g, hidden_fraction=0.1, seed=0)
    negatives = sample_negative_pairs(train, 10 * len(hidden), exclude=hidden, seed=0)
    candidates = np.concatenate([hidden, negatives])
    scores, _ = score_svd(train, candidates, k=3, seed=0)
    auc = evaluate_linkpred({"svd": scores}, candidates, hidden, negatives)["svd"]
    verdict(
        4,
        "SVD recovery",
        worst_rel <= 1e-8 and auc >= 0.9,
        f"worst rank-r rel error {worst_rel:.2e}, biclique AUC {auc:.3f}",
        time.monotonic() - t0,
        60.0,
    )


def test_criterion_05_birank_fixed_point():
    t0 = time.monotonic()
    rng = np.random.default_rng(505)
    graphs = 0
    worst = 0.0
    while graphs < 50:
        g = random_bipartite(
            rng,
            int(rng.integers(2, 21)),
            int(rng.integers(2, 21)),
            float(rng.uniform(0.15, 0.5)),
        )
        if g.n_edges == 0:
            continue
        graphs += 1
        tw = temporal_weights(g, delta=0.9, ref_year=2017)
        seeds = seed_scores(g)
        weights = dict(zip(g.id_pairs(g.row, g.col), tw.values.tolist()))
        want_u, want_p = dense_birank_oracle(
            g, weights, seeds.artist_seed, seeds.venue_seed, 0.85, 0.85
        )
        got = birank(g, weights=tw, seeds=seeds, tol=1e-14)
        # both score arrays follow the graph's orders, as the oracle's do
        du = float(np.abs(got.artist_scores.array - want_u).max())
        dp = float(np.abs(got.venue_scores.array - want_p).max())
        worst = max(worst, du, dp)

    g = build_graph([("a1", "v1", 2017), ("a1", "v2", 2017), ("a2", "v1", 2017)])
    seeds = seed_scores(g)
    res0 = birank(g, alpha=0.0, beta=0.0)
    seeds_exact = np.array_equal(res0.artist_scores.array, seeds.artist_seed) and (
        np.array_equal(res0.venue_scores.array, seeds.venue_seed)
    )

    full = build_graph(
        [(f"a{i}", f"v{j}", 2017) for i in range(5) for j in range(5)]
    )
    res_full = birank(full, weights=temporal_weights(full, ref_year=2017))
    u_spread = float(np.ptp(res_full.artist_scores.array))
    p_spread = float(np.ptp(res_full.venue_scores.array))
    uniform = u_spread <= 1e-10 and p_spread <= 1e-10
    verdict(
        5,
        "birank fixed point",
        worst <= 1e-10 and seeds_exact and uniform,
        f"max |birank - dense solve| {worst:.2e} on {graphs} graphs, "
        f"alpha=beta=0 seeds exact={seeds_exact}, complete graph uniform={uniform}",
        time.monotonic() - t0,
        20.0,
    )


def test_criterion_06_seed_normalization():
    t0 = time.monotonic()
    rng = np.random.default_rng(606)
    worst_sum = 0.0
    graphs = 0
    while graphs < 50:
        g = random_bipartite(
            rng,
            int(rng.integers(2, 21)),
            int(rng.integers(2, 21)),
            float(rng.uniform(0.15, 0.5)),
        )
        if g.n_edges == 0:
            continue
        graphs += 1
        seeds = seed_scores(g)
        worst_sum = max(
            worst_sum,
            abs(sum(seeds.artist_seed.tolist()) - 1.0),
            abs(sum(seeds.venue_seed.tolist()) - 1.0),
        )

    g = build_graph(
        [
            ("a1", "v1", 2010),
            ("a2", "v1", 2010),
            ("a2", "v2", 2010),
            ("a2", "v3", 2010),
        ]
    )
    seeds = dict(zip(g.artist_order, seed_scores(g).artist_seed.tolist()))
    pair_ok = abs(seeds["a1"] - 1 / 3) <= 1e-12 and abs(seeds["a2"] - 2 / 3) <= 1e-12
    verdict(
        6,
        "seed normalization",
        worst_sum <= 1e-9 and pair_ok,
        f"worst per-side |sum - 1| = {worst_sum:.2e} on {graphs} graphs, "
        f"degree-(1,3) seeds (1/3, 2/3)={pair_ok}",
        time.monotonic() - t0,
        20.0,
    )


def test_criterion_07_planted_signal_forecasting(tmp_path):
    t0 = time.monotonic()
    lr_aucs, base_aucs = [], []
    for s in (0, 1, 2):
        out = tmp_path / f"c7-{s}"
        generate(
            GenSpec(n_artists=2000, n_venues=200, seed=s, success_venue_bias=3.0), out
        )
        corpus = parse_corpus(
            out / "events.csv", out / "releases.csv", out / "labels.csv"
        )
        change_day, _ = label_corpus(corpus)
        report = run_task1(
            corpus,
            change_day,
            n_splits=1,
            cv_folds=2,
            c_grid=(1.0,),
            k_grid=(16,),
            seed=s,
        )
        lr_aucs.append(report["models"]["logreg"]["mean"]["auc"])
        base_aucs.append(report["models"]["baseline"]["mean"]["auc"])
    lr, base = float(np.mean(lr_aucs)), float(np.mean(base_aucs))
    verdict(
        7,
        "planted-signal forecasting",
        lr >= base + 0.10,
        f"LR AUC {lr:.3f} vs baseline {base:.3f} over 3 seeds (need +0.10)",
        time.monotonic() - t0,
        300.0,
    )


def test_criterion_08_planted_link_prediction():
    t0 = time.monotonic()
    rng = np.random.default_rng(808)
    n_a, n_v, blocks = 1000, 800, 20
    prob = np.full((n_a, n_v), 0.0015)
    for b in range(blocks):
        prob[b * 50 : (b + 1) * 50, b * 40 : (b + 1) * 40] = 0.25
    mask = rng.random((n_a, n_v)) < prob
    g = build_graph(
        [(f"a{i}", f"v{j}", 2015) for i, j in np.argwhere(mask)]
    )
    aucs = defaultdict(list)
    for s in (0, 1):
        train, hidden = make_random_split(g, hidden_fraction=0.2, seed=s)
        negatives = sample_negative_pairs(
            train, 10 * len(hidden), exclude=hidden, seed=s
        )
        candidates = np.concatenate([hidden, negatives])
        tables, _ = build_score_tables(
            train,
            candidates,
            predictors=("common_neighbors", "jaccard", "preferential_attachment"),
        )
        for name, auc in evaluate_linkpred(tables, candidates, hidden, negatives).items():
            aucs[name].append(auc)
    cn = float(np.mean(aucs["common_neighbors"]))
    jac = float(np.mean(aucs["jaccard"]))
    pa = float(np.mean(aucs["preferential_attachment"]))
    verdict(
        8,
        "planted link prediction",
        cn >= 0.85 and jac >= 0.85 and pa < cn and pa < jac,
        f"CN {cn:.3f}, Jaccard {jac:.3f}, PA {pa:.3f} "
        f"(need CN/Jaccard >= 0.85 and PA weakest)",
        time.monotonic() - t0,
        300.0,
    )


def test_criterion_09_trajectory_capture(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "c9"
    manifest = generate(
        GenSpec(
            n_artists=400,
            n_venues=60,
            years=(2008, 2017),
            seed=9,
            min_events=6,
            trajectory_artists=1,
        ),
        out,
    )
    corpus = parse_corpus(out / "events.csv", out / "releases.csv", out / "labels.csv")
    traj = yearly_trajectories(corpus, window_years=3)
    artist = next(iter(manifest["trajectory_artists"]))
    years = sorted(y for y in traj if artist in traj[y].scores.order)[-6:]
    ranks = [int(traj[y].ranks[traj[y].scores.order.index(artist)]) for y in years]
    improving = sum(b < a for a, b in zip(ranks, ranks[1:]))
    verdict(
        9,
        "birank trajectory capture",
        len(ranks) == 6 and improving >= 4,
        f"ranks over final windows {ranks}: {improving}/5 strictly improving steps",
        time.monotonic() - t0,
        120.0,
    )


def preprocess_for_reproduction(root: Path):
    """Criterion 10's preprocessing: parse, post-2007, label, min-activity, relabel."""
    corpus = parse_corpus(
        root / "events.csv", root / "releases.csv", root / "labels.csv"
    )
    corpus = filter_post_2007(corpus)
    change_day, stats = label_corpus(corpus)
    corpus = filter_min_activity(corpus, change_day=change_day, threshold=10)
    change_day, stats = label_corpus(corpus)
    return corpus, change_day, stats


def test_reproduction_preprocessing_runs_on_synth(tmp_path):
    # criterion 10 skips without the released data, so run its preprocessing
    # here: starting in 2006 makes the post-2007 filter bite, and enough
    # positives make the change points matter to the activity filter
    generate(
        GenSpec(n_artists=300, n_venues=30, years=(2006, 2016), seed=5, positive_fraction=0.3),
        tmp_path,
    )
    corpus, change_day, stats = preprocess_for_reproduction(tmp_path)
    assert 0 < stats["successful"] < stats["artists"] == len(change_day)
    assert len(change_day) == len(corpus.artist_order)
    for i, cp in enumerate(change_day.tolist()):
        days = corpus.day[corpus.artist == i].tolist()
        assert dt.date.fromordinal(min(days)).year >= 2007
        assert sum(day < cp for day in days) >= 10
    assert np.bincount(corpus.venue, minlength=len(corpus.venue_order)).min() >= 10


def test_criterion_10_real_data_reproduction():
    data_dir = os.environ.get("GIGMINE_DATA_DIR")
    if not data_dir:
        print(
            "[SKIP] criterion 10 real-data reproduction: "
            "set GIGMINE_DATA_DIR to a directory with events.csv, releases.csv, "
            "labels.csv to run"
        )
        pytest.skip("released dataset not available in this environment")
    t0 = time.monotonic()
    corpus, change_day, stats = preprocess_for_reproduction(Path(data_dir))

    sizes = corpus.sizes()
    stats_ok = (
        sizes["events"] == 645_507
        and sizes["artists"] == 13_912
        and sizes["venues"] == 11_428
        and stats["major_labels"] == 286
    )

    t2 = run_task2(
        corpus,
        predictors=("common_neighbors", "jaccard", "preferential_attachment", "svd"),
        train_end_year=2015,
        test_years=(2016, 2017),
        seed=0,
    )
    expected_auc = {
        "common_neighbors": 0.87,
        "jaccard": 0.89,
        "preferential_attachment": 0.79,
        "svd": 0.81,
    }
    t2_ok = all(
        abs(t2["forecasting"][name] - want) <= 0.03
        for name, want in expected_auc.items()
    )

    t1 = run_task1(corpus, change_day, seed=0)
    expected_t1 = {
        "baseline": {"precision": 0.07, "recall": 0.26, "f1": 0.11, "auc": 0.60},
        "logreg": {"precision": 0.18, "recall": 0.29, "f1": 0.22, "auc": 0.74},
        "logreg_svd": {"precision": 0.18, "recall": 0.35, "f1": 0.23, "auc": 0.78},
    }
    t1_ok = all(
        abs(t1["models"][model]["mean"][metric] - want) <= 0.05
        for model, metrics in expected_t1.items()
        for metric, want in metrics.items()
    )
    verdict(
        10,
        "real-data reproduction",
        stats_ok and t2_ok and t1_ok,
        f"stats match={stats_ok}, task2 AUC within 0.03={t2_ok}, "
        f"task1 metrics within 0.05={t1_ok}",
        time.monotonic() - t0,
        3600.0,
    )
