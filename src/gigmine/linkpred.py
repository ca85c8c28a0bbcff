"""Artist-venue link prediction: splits, five predictors, AUC evaluation.

Two experimental configurations share one training graph. The forecasting
configuration trains on events up to a cutoff year (recursively 5-core
filtered) and tests on pairs that first appear in later years. The prediction
configuration hides a random fraction of that same training graph's edges and
recovers them, averaged over several seeded splits.

Predictors: common neighbors, Jaccard coefficient and preferential attachment
(over 1- and 2-hop neighborhoods, scored for all candidate pairs at once and
counted per pair from row blocks of the two-hop matrices), truncated-SVD matrix
reconstruction, and cosine similarity of random-walk embeddings. Links are
binarized throughout; candidate scores are compared by rank-based ROC AUC
against seeded uniform samples of non-edges.

Candidate pairs are int codes ``i * n_v + j``: artist index i and venue index
j in the training graph's ``artist_order`` and ``venue_order``, with n_v its
venue count. The splits, the negative sampler and the predictors take and
return code arrays, and a score table is one float array aligned to them.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from gigmine.embeddings import (
    DIM,
    EPOCHS,
    WALK_LENGTH,
    WALKS_PER_NODE,
    WINDOW,
    _SCORE_BLOCK,
    row_dots,
    sample_walks,
    score_embedding,
    train_embeddings,
)
from gigmine.errors import GigmineError
from gigmine.graph import BipartiteGraph, build_graph
from gigmine.ingest import recursive_core_filter
from gigmine.metrics import roc_auc
from gigmine.success import SVDReducer

SVD_RANK = 25
TRAIN_END_YEAR = 2015
TEST_YEARS = (2016, 2017)
CORE_K = 5
HIDDEN_FRACTION = 0.20
NEG_MULTIPLE = 10
NEG_FLOOR = 100_000
HEURISTICS = ("common_neighbors", "jaccard", "preferential_attachment")
ALL_PREDICTORS = HEURISTICS + ("svd", "embedding")


class TemporalSplit(NamedTuple):
    train_graph: BipartiteGraph
    test_pairs: np.ndarray  # ascending pair codes over train_graph
    stats: dict


class RandomSplit(NamedTuple):
    train_graph: BipartiteGraph
    hidden_pairs: np.ndarray  # ascending pair codes over train_graph


def edge_codes(g: BipartiteGraph) -> np.ndarray:
    """Pair codes of the edges of ``g``, ascending (CSR order is code order)."""
    return g.row * len(g.venue_order) + g.col


def _distinct(codes: np.ndarray) -> np.ndarray:
    """``np.unique(codes)``, the distinct codes ascending, from one sort.

    numpy 2.x answers a plain ``np.unique`` of int codes, and so
    ``np.union1d`` and ``np.isin``, from a hash table, an order of
    magnitude slower than a sort.
    """
    codes = np.sort(codes, axis=None)
    new = np.ones(codes.size, dtype=bool)
    new[1:] = codes[1:] != codes[:-1]
    return codes[new]


def _in_sorted(codes: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``np.isin(codes, table)``, binary searched in an ascending ``table``; codes may repeat."""
    if not table.size:
        return np.zeros(codes.shape, dtype=bool)
    return table[np.searchsorted(table, codes).clip(max=table.size - 1)] == codes


def _checked(g: BipartiteGraph, pairs) -> np.ndarray:
    """``pairs`` as an int64 code array; rejects a code outside g's artist x venue grid."""
    pairs = np.asarray(pairs, dtype=np.int64)
    n_a, n_v = len(g.artist_order), len(g.venue_order)
    outside = (pairs < 0) | (pairs >= n_a * n_v)
    if outside.any():
        raise GigmineError(
            f"pair code {pairs[outside][0]} lies outside the {n_a} x {n_v} graph"
        )
    return pairs


def _positions(order: tuple, ids: Sequence) -> np.ndarray:
    """Index of each of ``ids`` in the tuple ``order``, -1 for an id not in it."""
    index = dict(zip(order, range(len(order))))
    return np.array([index.get(x, -1) for x in ids], dtype=np.int64)


def make_temporal_split(
    corpus,
    train_end_year: int = TRAIN_END_YEAR,
    test_years: Iterable[int] = TEST_YEARS,
    core_k: int = CORE_K,
) -> TemporalSplit:
    """History graph up to the cutoff year versus pairs first seen later.

    The training graph is built from events dated <= train_end_year and
    recursively core-filtered. Test pairs come from events in test_years,
    deduplicated, restricted to nodes that survived the filter, minus pairs
    already present in training. Raises when there is no test year, a test
    year is not after train_end_year or either side ends up empty.
    """
    test_years = sorted(set(test_years))
    if not test_years:
        raise GigmineError("temporal split needs at least one test year")
    if train_end_year >= test_years[0]:
        raise GigmineError(
            f"train_end_year {train_end_year} must precede test years {test_years}"
        )
    train = corpus.year <= train_end_year
    if not train.any():
        raise GigmineError(f"no events in or before {train_end_year}")
    graph = recursive_core_filter(build_graph(corpus.select(train)), k=core_k)
    if graph.n_edges == 0:
        raise GigmineError(f"training graph is empty after the {core_k}-core filter")

    test = np.isin(corpus.year, test_years)
    n_v = len(corpus.venue_order)
    raw_pairs = _distinct(corpus.artist[test] * n_v + corpus.venue[test])
    rows = _positions(graph.artist_order, corpus.artist_order)[raw_pairs // n_v]
    cols = _positions(graph.venue_order, corpus.venue_order)[raw_pairs % n_v]
    seen = (rows >= 0) & (cols >= 0)
    surviving = rows[seen] * len(graph.venue_order) + cols[seen]
    new_pairs = np.sort(surviving[~_in_sorted(surviving, edge_codes(graph))])
    if not new_pairs.size:
        raise GigmineError(
            f"no new (artist, venue) pairs found in test years {test_years}"
        )
    stats = {
        "train_end_year": train_end_year,
        "test_years": test_years,
        "core_k": core_k,
        "train_artists": len(graph.artists),
        "train_venues": len(graph.venues),
        "train_events": graph.total_events,
        "train_edges": graph.n_edges,
        "test_events": int(test.sum()),
        "test_unique_pairs": raw_pairs.size,
        "test_excluded_unseen_node": raw_pairs.size - surviving.size,
        "test_excluded_known_edge": surviving.size - new_pairs.size,
        "test_positives": new_pairs.size,
    }
    return TemporalSplit(graph, new_pairs, stats)


def _hidden_count(hidden_fraction: float, n_edges: int) -> int:
    """round(n_edges * hidden_fraction), the edges a random split hides.

    Raises when hidden_fraction lies outside (0, 1) or hides no edge.
    """
    if not 0.0 < hidden_fraction < 1.0:
        raise GigmineError(f"hidden_fraction must lie in (0, 1), got {hidden_fraction}")
    n_hidden = int(round(hidden_fraction * n_edges))
    if n_hidden == 0:
        raise GigmineError(f"hidden_fraction {hidden_fraction} of {n_edges} edges hides no edge")
    return n_hidden


def make_random_split(
    graph: BipartiteGraph, hidden_fraction: float = HIDDEN_FRACTION, seed: int = 0
) -> RandomSplit:
    """Hide a uniformly random fraction of edges; nodes stay in place.

    Exactly round(|E| * hidden_fraction) edges are hidden, drawn over the
    edges in CSR order; raises when hidden_fraction is outside (0, 1) or
    that rounds to none. Train edges and hidden edges partition the
    original edge set, and the same seed always yields the same split.
    """
    n_hidden = _hidden_count(hidden_fraction, graph.n_edges)
    rng = np.random.default_rng(seed)
    keep = np.ones(graph.n_edges, dtype=bool)
    keep[rng.choice(graph.n_edges, size=n_hidden, replace=False)] = False
    return RandomSplit(graph.subgraph(keep), edge_codes(graph)[~keep])


# -- predictors ---------------------------------------------------------------


# cells per block of rows of A2 or V2 in heuristic_scores, counted over the
# wider of the two (n_a or n_v cells a row)
_CHUNK_CELLS = 1 << 20
# neighbor entries per ragged gather of heuristic_scores; each takes about
# 40 bytes of index and weight scratch
_GATHER = 1 << 18


def _spans(indptr, keys):
    """Positions of the entries of CSR rows ``keys``, row after row, and each row's length."""
    first = indptr[keys]
    lens = indptr[keys + 1] - first
    return np.arange(lens.sum()) + np.repeat(first - np.cumsum(lens) + lens, lens), lens


def _parts(sizes) -> list[slice]:
    """Runs of consecutive items whose ``sizes`` sum to about ``_GATHER`` each.

    A run exceeds ``_GATHER`` by less than its first item's size; a run
    after an item larger than that may be empty.
    """
    reach = np.cumsum(sizes)
    cuts = np.searchsorted(reach, np.arange(_GATHER, reach.max(initial=0), _GATHER),
                           side="right")
    bounds = [0, *cuts.tolist(), len(sizes)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _hop_block(S, ST, lo, hi) -> np.ndarray:
    """Rows lo:hi of 1[S S' > 0] as a dense boolean block.

    ``S`` and ``ST`` are the ``(indptr, indices)`` arrays of S and of S' in
    CSR. Set cell by cell along the two-step paths from each row, about
    ``_GATHER`` paths at a time, so no product is formed.
    """
    (ptr, idx), (t_ptr, t_idx) = S, ST
    row_ptr = ptr[lo:hi + 1]
    mid = idx[row_ptr[0]:row_ptr[-1]]
    block = np.zeros((row_ptr.size - 1, ptr.size - 1), dtype=bool)
    row_start = np.repeat(np.arange(0, block.size, block.shape[1]), np.diff(row_ptr))
    for part in _parts(np.diff(t_ptr)[mid]):
        at, lens = _spans(t_ptr, mid[part])
        block.ravel()[np.repeat(row_start[part], lens) + t_idx[at]] = True
    return block


def _side_counts(S, ST, keys, others, step):
    """Per pair k: Σ_{n ∈ N(others[k])} H[keys[k], n] and |N2(keys[k])|, H = 1[S S' > 0].

    ``S`` and ``ST`` are ``(indptr, indices)`` pairs as for ``_hop_block``;
    N(o) is row o of ``ST``. H is formed ``step`` rows at a time, only where
    pairs need it, and each block's sums are ragged gathers over the pairs'
    neighbor lists, about ``_GATHER`` entries at a time however many pairs
    the block has.
    """
    hits, n2 = np.zeros(keys.size), np.zeros(keys.size)
    (ptr, _), (t_ptr, t_idx) = S, ST
    order = np.argsort(keys, kind="stable")
    bounds = np.searchsorted(keys[order], np.arange(0, ptr.size - 1 + step, step))
    degree = np.diff(t_ptr)
    for lo, start, stop in zip(range(0, ptr.size - 1, step), bounds, bounds[1:]):
        if start == stop:
            continue
        block = _hop_block(S, ST, lo, lo + step)
        sel = order[start:stop]
        n2[sel] = np.count_nonzero(block, axis=1)[keys[sel] - lo]
        for part in (sel[run] for run in _parts(degree[others[sel]])):
            at, lens = _spans(t_ptr, others[part])
            cell = np.repeat((keys[part] - lo) * block.shape[1], lens) + t_idx[at]
            hits[part] = np.bincount(np.repeat(np.arange(part.size), lens),
                                     weights=block.ravel()[cell], minlength=part.size)
    return hits, n2


def heuristic_scores(g: BipartiteGraph, rows, cols) -> dict[str, np.ndarray]:
    """CN, Jaccard and PA of the index pairs (rows[k], cols[k]), all at once.

    For artist a and venue v, with N the neighbors and N2 the 2-hop
    neighbors (same side, a node itself once it has a neighbor), CN is
    |N2(a) ∩ N(v)| + |N2(v) ∩ N(a)|, Jaccard is CN over
    |N2(a) ∪ N(v)| + |N2(v) ∪ N(a)| (0 when that is 0) and PA is
    |N(a)| |N(v)| (Liben-Nowell & Kleinberg, JASIST 2007). With B the
    binary biadjacency, A2 = 1[B B' > 0] and V2 = 1[B' B > 0], B and B'
    read as the graph's CSR (``indptr``, ``col``) and CSC
    (``csc_indptr``, ``csc_indices``):
    CN = Σ_{a' ∈ N(v)} A2[a, a'] + Σ_{v' ∈ N(a)} V2[v', v], the Jaccard
    denominator is |N2(a)| + deg(v) + |N2(v)| + deg(a) - CN, and
    PA = deg(a) deg(v). Each sum is counted per candidate pair, from dense
    boolean blocks of A2 rows (artist side) and V2 rows (venue side) of at
    most ``_CHUNK_CELLS`` cells, which also give |N2|; no n_a x n_v matrix
    is formed, and every count is an exact small integer in float64.
    """
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    B, BT = (g.indptr, g.col), (g.csc_indptr, g.csc_indices)
    step = max(1, _CHUNK_CELLS // max(1, len(g.artist_order), len(g.venue_order)))
    cn_a, n2_a = _side_counts(B, BT, rows, cols, step)
    cn_v, n2_v = _side_counts(BT, B, cols, rows, step)  # V2 is symmetric
    cn = cn_a + cn_v
    deg_a, deg_v = np.diff(g.indptr), np.diff(g.csc_indptr)
    denom = n2_a + deg_v[cols] + n2_v + deg_a[rows] - cn
    jaccard = np.divide(cn, denom, out=np.zeros(rows.size), where=denom > 0)
    return {
        "common_neighbors": cn,
        "jaccard": jaccard,
        "preferential_attachment": (deg_a[rows] * deg_v[cols]).astype(float),
    }


def score_svd(
    g: BipartiteGraph,
    pairs,
    k: int = SVD_RANK,
    seed: int = 0,
) -> tuple[np.ndarray, str]:
    """Rank-k reconstruction of the binary biadjacency matrix as link scores.

    The score of pair code ``i * n_v + j`` is the (i, j) entry of
    U_k S_k V_k^T. Returns the scores, aligned to ``pairs``, and the solver
    that ran (``SVDReducer.solver_``). Raises when k exceeds the matrix
    dimensions or a code lies outside the graph. Rows are gathered a block
    of pairs at a time, so memory stays bounded however many pairs are
    scored.
    """
    rows, cols = np.divmod(_checked(g, pairs), len(g.venue_order))
    X = g.biadjacency(values="binary")
    reducer = SVDReducer(k, seed=seed).fit(X)
    left = reducer.transform(X)  # rows: U_k S_k in artist_order
    return row_dots(left, reducer.components_, rows, cols, _SCORE_BLOCK), reducer.solver_


def build_score_tables(
    g: BipartiteGraph,
    pairs,
    predictors: Sequence[str] = ALL_PREDICTORS,
    svd_k: int = SVD_RANK,
    seed: int = 0,
    walks_per_node: int = WALKS_PER_NODE,
    walk_length: int = WALK_LENGTH,
    embed_dim: int = DIM,
    embed_window: int = WINDOW,
    embed_epochs: int = EPOCHS,
) -> tuple[dict[str, np.ndarray], dict]:
    """Score the same candidate pair codes under each requested predictor.

    Returns the scores, one float array aligned to ``pairs`` per predictor,
    and what the model fits report: ``svd_solver`` for the svd predictor and
    ``embedding_loss`` (SGNS mean pair loss per epoch) for the embedding
    predictor. Model-based predictors are fitted once on ``g`` and reused
    across pairs. Candidate pairs must not be training edges.
    """
    pairs = _checked(g, pairs)
    rows, cols = np.divmod(pairs, len(g.venue_order))
    trained = _in_sorted(pairs, edge_codes(g))
    if trained.any():
        (pair,) = g.id_pairs(rows[trained][:1], cols[trained][:1])
        raise GigmineError(f"candidate pair {pair} is already a training edge")
    heuristic = (
        heuristic_scores(g, rows, cols) if set(predictors) & set(HEURISTICS) else {}
    )
    scores, fits = {}, {}
    for name in predictors:
        if name in heuristic:
            scores[name] = heuristic[name]
        elif name == "svd":
            scores[name], fits["svd_solver"] = score_svd(g, pairs, k=svd_k, seed=seed)
        elif name == "embedding":
            walks = sample_walks(
                g, walks_per_node=walks_per_node, length=walk_length, seed=seed
            )
            vectors, fits["embedding_loss"] = train_embeddings(
                walks,
                dim=embed_dim,
                window=embed_window,
                epochs=embed_epochs,
                seed=seed,
            )
            # node n_a + j of the walks is venue j
            scores[name] = score_embedding(vectors, rows, len(g.artist_order) + cols)
        else:
            raise GigmineError(f"unknown predictor: {name!r}")
    return scores, fits


def evaluate_linkpred(tables, pairs, positives, negatives) -> dict[str, float]:
    """Rank-based ROC AUC of each predictor on the labeled codes.

    ``tables`` maps each predictor to its scores, aligned to the candidate
    codes ``pairs``; candidate order does not matter. The labeled codes are
    located among the candidates once, for every predictor. Raises when
    positives and negatives overlap, a class is empty, a labeled code is
    not among ``pairs`` or a score array does not match ``pairs``.
    """
    positives = _distinct(np.asarray(positives, dtype=np.int64))
    negatives = _distinct(np.asarray(negatives, dtype=np.int64))
    overlap = positives[_in_sorted(positives, negatives)]
    if overlap.size:
        raise GigmineError(f"positives and negatives overlap: {overlap[:3].tolist()}")
    if not positives.size or not negatives.size:
        raise GigmineError("need at least one positive and one negative pair")
    pairs = np.asarray(pairs, dtype=np.int64)
    labeled = np.concatenate([positives, negatives])
    order = np.argsort(pairs, kind="stable")
    missing = labeled[~_in_sorted(labeled, pairs[order])]
    if missing.size:
        raise GigmineError(f"{missing.size} pairs unscored, e.g. code {missing[0]}")
    at = order[np.searchsorted(pairs, labeled, sorter=order)]
    positive = np.arange(labeled.size) < positives.size
    aucs = {}
    for name, scores in tables.items():
        scores = np.asarray(scores, dtype=float)
        if scores.shape != (pairs.size,):
            raise GigmineError(f"{scores.size} scores for {pairs.size} pairs")
        # roc_auc rejects a non-finite score
        aucs[name] = roc_auc(scores[at], positive)
    return aucs


def sample_negative_pairs(
    g: BipartiteGraph,
    n: int,
    exclude=(),
    seed: int = 0,
) -> np.ndarray:
    """Uniform pair codes that are neither edges of ``g`` nor in ``exclude``.

    Draws up to ``n`` distinct non-edges with a seeded generator; asks for
    more than exist and you get them all.
    """
    n_a, n_v = len(g.artist_order), len(g.venue_order)
    banned = _distinct(np.concatenate([edge_codes(g), _checked(g, exclude).ravel()]))
    available = n_a * n_v - banned.size
    if available <= 0:
        raise GigmineError("graph has no candidate non-edges")

    rng = np.random.default_rng(seed)
    if n > available // 2:
        free = np.ones(n_a * n_v, dtype=bool)
        free[banned] = False
        free_codes = np.flatnonzero(free)
        if n >= available:
            return free_codes
        # rejection sampling stalls when most candidates are wanted
        return free_codes[rng.choice(free_codes.size, size=n, replace=False)]
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < n:
        k = (n - chosen.size) * 2 + 16
        ai = rng.integers(n_a, size=k)
        codes = ai * n_v + rng.integers(n_v, size=k)
        codes = codes[~_in_sorted(codes, banned) & ~_in_sorted(codes, np.sort(chosen))]
        _, first = np.unique(codes, return_index=True)
        chosen = np.concatenate([chosen, codes[np.sort(first)][: n - chosen.size]])
    return chosen


def _workers(n_passes: int) -> int:
    """Threads for ``n_passes`` scoring passes: one per pass, at most one per usable core."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cores = os.cpu_count() or 1
    return max(1, min(n_passes, cores))


def run_task2(
    corpus,
    predictors: Sequence[str] = ALL_PREDICTORS,
    train_end_year: int = TRAIN_END_YEAR,
    test_years: Iterable[int] = TEST_YEARS,
    hidden_fraction: float = HIDDEN_FRACTION,
    n_random_splits: int = 3,
    core_k: int = CORE_K,
    svd_k: int = SVD_RANK,
    neg_multiple: int = NEG_MULTIPLE,
    neg_floor: int = NEG_FLOOR,
    seed: int = 0,
    **embed_params,
) -> dict:
    """Both link-prediction configurations on one corpus.

    Forecasting: temporal split, AUC per predictor. Prediction: the same
    training graph with a random fraction of edges hidden, averaged over
    ``n_random_splits`` seeded repeats. Negative pairs are sampled per
    evaluation as max(neg_multiple * positives, neg_floor) non-edges. The
    ``fits`` block holds what the model fits of each scoring pass report
    (see ``build_score_tables``): the forecasting pass and each random split.

    The scoring passes are independent and run concurrently on up to
    ``min(passes, usable cores)`` threads; numpy and scipy release the GIL
    in their heavy steps. Each pass is seeded on its own, so the report does
    not depend on the thread count.
    """
    if n_random_splits < 1:
        raise GigmineError(f"n_random_splits must be at least 1, got {n_random_splits}")
    temporal = make_temporal_split(corpus, train_end_year, test_years, core_k=core_k)
    g = temporal.train_graph
    _hidden_count(hidden_fraction, g.n_edges)  # fail before any pass runs
    if neg_multiple < 0 or neg_floor < 0 or neg_multiple == neg_floor == 0:
        raise GigmineError(
            "neg_multiple and neg_floor must be at least 0 and not both 0, "
            f"got {neg_multiple} and {neg_floor}"
        )

    def score_pass(s: Optional[int]):
        """AUC per predictor, model fits and negative count of one pass.

        ``s`` None is the forecasting pass; otherwise random split ``s``.
        """
        if s is None:
            train_g, positives, pass_seed = g, temporal.test_pairs, seed
        else:
            pass_seed = seed + s
            # train edges plus hidden pairs are exactly the full graph's edges
            train_g, positives = make_random_split(g, hidden_fraction, seed=pass_seed)
        negatives = sample_negative_pairs(
            train_g,
            max(neg_multiple * len(positives), neg_floor),
            exclude=positives,
            seed=pass_seed,
        )
        candidates = np.concatenate([positives, negatives])
        tables, fits = build_score_tables(
            train_g, candidates, predictors, svd_k=svd_k, seed=pass_seed, **embed_params
        )
        return evaluate_linkpred(tables, candidates, positives, negatives), fits, len(negatives)

    passes = [None, *range(n_random_splits)]
    with ThreadPoolExecutor(max_workers=_workers(len(passes))) as pool:
        (forecasting, fits, n_negatives), *splits = pool.map(score_pass, passes)
    prediction_runs = {name: [aucs[name] for aucs, _, _ in splits] for name in predictors}

    return {
        "task": "linkpred",
        "split": temporal.stats,
        "negative_sampling": {
            "multiple": neg_multiple,
            "floor": neg_floor,
            "forecasting_negatives": n_negatives,
        },
        "random_splits": n_random_splits,
        "hidden_fraction": hidden_fraction,
        "svd_k": svd_k,
        "seed": seed,
        "forecasting": forecasting,
        "prediction": {
            name: {
                "mean": float(np.mean(runs)),
                "per_split": runs,
            }
            for name, runs in prediction_runs.items()
        },
        "fits": {"forecasting": fits, "prediction": [f for _, f, _ in splits]},
    }
