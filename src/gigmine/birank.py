"""Temporally weighted BiRank over the artist-venue graph.

Scores propagate between the two sides through a symmetrically normalized
weight matrix, damped toward log-degree seed vectors. Edge weights decay
geometrically with the age of the first event on the edge, so recent activity
counts for more. On top of the single run sit yearly moving-window rank
trajectories and per-class score histograms.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from gigmine.errors import GigmineError
from gigmine.graph import BipartiteGraph, build_graph

log = logging.getLogger(__name__)

ALPHA = 0.85
BETA = 0.85
DELTA = 0.85
REF_YEAR = 2017
TOL = 1e-8
MAX_ITER = 200


@dataclass(frozen=True)
class SeedScores:
    """Per-side id -> seed maps; each side is a probability distribution.

    ``seed_scores`` gives ``ScoreView``s over the graph's orders; any other
    mapping works too.
    """

    artist_seed: Mapping
    venue_seed: Mapping

    def __post_init__(self):
        for name, side in (("artist", self.artist_seed), ("venue", self.venue_seed)):
            if isinstance(side, ScoreView):
                values = np.asarray(side.array, dtype=float)
            else:
                values = np.fromiter(side.values(), dtype=float, count=len(side))
            if not np.all((values >= 0.0) & (values < math.inf)):  # NaN fails both
                raise GigmineError(f"{name} seeds contain a negative or non-finite entry")
            total = float(values.sum())
            if abs(total - 1.0) > 1e-9:
                raise GigmineError(f"{name} seeds sum to {total!r}, expected 1")


@dataclass(frozen=True, eq=False)
class TemporalWeights:
    """Per-edge decay weight delta^(ref_year - first_year) of one graph.

    ``values`` follows the graph's edge arrays; ``weights`` is the same data
    keyed by (artist, venue) pair.
    """

    graph: BipartiteGraph
    values: np.ndarray
    delta: float
    ref_year: int

    @property
    def weights(self) -> dict:
        g = self.graph
        return dict(zip(g.id_pairs(g.row, g.col), self.values.tolist()))


class ScoreView(Mapping):
    """Read-only id -> score map over an id tuple and an array of one score per id.

    ``order`` and ``array`` are the map itself; the id index a lookup needs
    is built on the first lookup.
    """

    def __init__(self, order: tuple, array: np.ndarray):
        self.order, self.array = order, array
        self._index = None

    def position(self, node) -> int:
        """Index of ``node`` in ``order``; KeyError when it is not there."""
        if self._index is None:
            self._index = dict(zip(self.order, range(len(self.order))))
        return self._index[node]

    def __getitem__(self, node) -> float:
        return self.array[self.position(node)].item()

    def top(self, k: Optional[int] = None) -> list:
        """``[id, score]`` pairs of the ``k`` highest scores (all for None), ties in ``order``."""
        at = np.argsort(-self.array, kind="stable")[:k]
        return [[self.order[i], s] for i, s in zip(at.tolist(), self.array[at].tolist())]

    def __iter__(self):
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class BiRankResult:
    artist_scores: Mapping
    venue_scores: Mapping
    iterations: int
    converged: bool


def seed_scores(g: BipartiteGraph) -> SeedScores:
    """Log-degree seeds: ln(degree + 1) normalized to sum 1 per side.

    Degree is the distinct-neighbor count. Rankings induced by the seeds do
    not depend on the logarithm base, but the values do; natural log is
    fixed here. Each side is a read-only ``ScoreView`` over the graph's order.
    """
    if not g.artists or not g.venues:
        raise GigmineError("seed scores need at least one artist and one venue")
    seeds = []
    for order, ptr in ((g.artist_order, g.indptr), (g.venue_order, g.csc_indptr)):
        raw = [math.log(d + 1) for d in np.diff(ptr).tolist()]
        total = sum(raw)
        if total == 0.0:
            raise GigmineError("cannot seed a side whose nodes all have degree 0")
        seed = np.array(raw) / total
        seed.flags.writeable = False
        seeds.append(ScoreView(order, seed))
    return SeedScores(artist_seed=seeds[0], venue_seed=seeds[1])


def _seed_vector(side: Mapping, order: tuple, name: str) -> np.ndarray:
    """The seeds of ``side`` in ``order``; raises unless ``side`` covers exactly its ids."""
    if isinstance(side, ScoreView) and side.order == order:
        return np.asarray(side.array, dtype=float)
    if side.keys() != set(order):
        raise GigmineError(f"{name} seeds must cover exactly the graph's {name}s")
    return np.array([side[n] for n in order], dtype=float)


def temporal_weights(
    g: BipartiteGraph, delta: float = DELTA, ref_year: int = REF_YEAR
) -> TemporalWeights:
    """Geometric decay per edge age: delta^(ref_year - first_year)."""
    if not 0.0 < delta <= 1.0:
        raise GigmineError(f"delta must lie in (0, 1], got {delta}")
    late = np.flatnonzero(g.first_year > ref_year)
    if late.size:
        e = late[0]
        (pair,) = g.id_pairs(g.row[e:e + 1], g.col[e:e + 1])
        raise GigmineError(
            f"edge {pair} has first_year {g.first_year[e]} after ref_year {ref_year}"
        )
    # one Python power per distinct age keeps the values bit-identical to
    # delta ** age on Python ints
    ages, age_of_edge = np.unique(ref_year - g.first_year, return_inverse=True)
    decay = np.array([delta ** age for age in ages.tolist()], dtype=float)
    return TemporalWeights(
        graph=g, values=decay[age_of_edge], delta=delta, ref_year=ref_year
    )


def birank(
    g: BipartiteGraph,
    weights: Optional[TemporalWeights] = None,
    seeds: Optional[SeedScores] = None,
    alpha: float = ALPHA,
    beta: float = BETA,
    tol: float = TOL,
    max_iter: int = MAX_ITER,
    count_scaled: bool = False,
    init: str = "seeds",
) -> BiRankResult:
    """Damped two-sided ranking on the weighted graph.

    With S the symmetrically degree-normalized weight matrix, iterate
    u <- alpha*S*p + (1-alpha)*u0 and p <- beta*S'*u + (1-beta)*p0 from the
    seeds until the larger side's L1 change drops below ``tol``. Defaults:
    decayed binary incidence weights (``count_scaled=True`` multiplies in
    event counts) and log-degree seeds. The fixed point does not depend on
    the starting vectors; ``init="uniform"`` starts from uniform vectors
    instead of the seeds. Non-convergence within ``max_iter`` returns the
    last iterate flagged ``converged=False``; ``max_iter`` must be at least 1
    and ``tol`` at least 0. The scores come as ``ScoreView``s over the
    graph's id orders. The products run on the graph's edge arrays.
    """
    if init not in ("seeds", "uniform"):
        raise GigmineError(f"init must be seeds or uniform, got {init!r}")
    if not 0.0 <= alpha <= 1.0 or not 0.0 <= beta <= 1.0:
        raise GigmineError(f"alpha and beta must lie in [0, 1], got {alpha}, {beta}")
    if max_iter < 1:
        raise GigmineError(f"max_iter must be at least 1, got {max_iter}")
    if not tol >= 0.0:  # NaN fails every comparison
        raise GigmineError(f"tol must be a number at least 0, got {tol}")
    weights = weights if weights is not None else temporal_weights(g)
    if weights.graph is not g and weights.graph != g:
        raise GigmineError("temporal weights were computed for a different graph")
    seeds = seeds if seeds is not None else seed_scores(g)
    u0 = _seed_vector(seeds.artist_seed, g.artist_order, "artist")
    p0 = _seed_vector(seeds.venue_seed, g.venue_order, "venue")
    n_a, n_v = len(g.artist_order), len(g.venue_order)
    row, col = g.row, g.col
    w = np.asarray(weights.values * g.count if count_scaled else weights.values, dtype=float)
    # the sums and products below round as scipy.sparse's would on the CSR
    # matrix of w: row sums reduce each nonempty row (its _minor_reduce),
    # column sums and both products add in CSR order (csc_matvec, csr_matvec)
    du = np.zeros(n_a)
    nonempty = np.flatnonzero(np.diff(g.indptr))
    if nonempty.size:
        du[nonempty] = np.add.reduceat(w, g.indptr[nonempty])
    dp = np.bincount(col, weights=w, minlength=n_v)
    # isolated nodes receive no propagated mass, only their damped seed
    inv_sqrt_u = np.where(du > 0, du, 1.0) ** -0.5 * (du > 0)
    inv_sqrt_p = np.where(dp > 0, dp, 1.0) ** -0.5 * (dp > 0)
    # the entries of diag(inv_sqrt_u) @ W @ diag(inv_sqrt_p), in CSR order
    s = (inv_sqrt_u[row] * w) * inv_sqrt_p[col]

    if init == "uniform":
        u = np.full(u0.size, 1.0 / u0.size)
        p = np.full(p0.size, 1.0 / p0.size)
    else:
        u, p = u0.copy(), p0.copy()
    converged = False
    for iterations in range(1, max_iter + 1):
        u_new = alpha * np.bincount(row, weights=s * p[col], minlength=n_a) + (1.0 - alpha) * u0
        p_new = beta * np.bincount(col, weights=s * u_new[row], minlength=n_v) + (1.0 - beta) * p0
        change = max(
            float(np.abs(u_new - u).sum()), float(np.abs(p_new - p).sum())
        )
        u, p = u_new, p_new
        if change < tol:
            converged = True
            break
    u.flags.writeable = p.flags.writeable = False
    return BiRankResult(
        artist_scores=ScoreView(g.artist_order, u),
        venue_scores=ScoreView(g.venue_order, p),
        iterations=iterations,
        converged=converged,
    )


def _descending_rank(values: np.ndarray) -> np.ndarray:
    """Dense rank of each value, 1 for the largest; equal values share a rank."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return distinct.size - inverse


def dense_rank(scores: Mapping) -> dict:
    """Rank 1 = highest score; equal scores share a rank with no gaps after ties."""
    ranks = _descending_rank(np.array(list(scores.values())))
    return dict(zip(scores, ranks.tolist()))


class WindowRanking(Mapping):
    """One window's artist -> {"rank", "score"} view, plus its BiRank convergence.

    ``scores`` is the window's artist ``ScoreView`` and ``ranks`` the dense
    rank of each of its scores (1 for the highest), in the same order; a
    cell is made when it is looked up.
    """

    def __init__(self, scores: ScoreView, iterations: int, converged: bool):
        self.scores = scores
        self.ranks = _descending_rank(scores.array)
        self.iterations = iterations
        self.converged = converged

    def ranked(self) -> list:
        """``(artist, rank, score)`` of every artist by rank, ties in the scores' ``order``."""
        at = np.argsort(self.ranks, kind="stable").tolist()
        order = self.scores.order
        ranks, scores = self.ranks.tolist(), self.scores.array.tolist()
        return [(order[i], ranks[i], scores[i]) for i in at]

    def __getitem__(self, artist) -> dict:
        i = self.scores.position(artist)
        return {"rank": int(self.ranks[i]), "score": self.scores.array[i].item()}

    def __iter__(self):
        return iter(self.scores.order)

    def __len__(self) -> int:
        return len(self.scores.order)


def yearly_trajectories(
    corpus,
    window_years: int = 3,
    delta: float = DELTA,
    alpha: float = ALPHA,
    beta: float = BETA,
    count_scaled: bool = False,
) -> dict:
    """BiRank artist ranks per year over a moving window of events.

    Each year Y ranks the subgraph of events dated within the window
    [Y - window_years + 1, Y], with temporal decay referenced to Y. Output
    maps year -> WindowRanking, a view {artist: {"rank": dense rank, "score":
    score}} over the window's score and rank arrays, carrying its
    ``iterations`` and ``converged``. Years whose window holds no events are
    skipped and logged; a window that does not converge within ``MAX_ITER``
    logs a warning. ``window_years`` must be at least 1.
    """
    if window_years < 1:
        raise GigmineError(f"window_years must be at least 1, got {window_years}")
    lo, hi = corpus.year_span()
    if hi - lo + 1 < window_years:
        raise GigmineError(
            f"corpus spans {hi - lo + 1} years, need at least {window_years}"
        )
    out = {}
    for year in range(lo + window_years - 1, hi + 1):
        in_window = (corpus.year > year - window_years) & (corpus.year <= year)
        if not in_window.any():
            log.info(
                "no events in the %d-year window ending %d; skipped", window_years, year
            )
            continue
        g = build_graph(corpus.select(in_window))
        weights = temporal_weights(g, delta=delta, ref_year=year)
        result = birank(g, weights=weights, alpha=alpha, beta=beta,
                        count_scaled=count_scaled)
        if not result.converged:
            log.warning(
                "BiRank did not converge in %d iterations on the %d-year window ending %d",
                result.iterations, window_years, year,
            )
        out[year] = WindowRanking(result.artist_scores, result.iterations, result.converged)
    return out


def score_histogram(
    result: BiRankResult, labels: Mapping, bins: int = 20
) -> dict:
    """Relative-frequency artist score histograms per success class.

    Shared bin edges across both classes; each histogram sums to 1. Also
    reports per-class means and medians. Raises when ``bins`` is below 1, a
    scored artist lacks a label or a class is empty.
    """
    if bins < 1:
        raise GigmineError(f"bins must be at least 1, got {bins}")
    missing = [a for a in result.artist_scores if a not in labels]
    if missing:
        raise GigmineError(f"{len(missing)} scored artists lack labels, e.g. {missing[0]!r}")
    signed = np.array(
        [s for a, s in result.artist_scores.items() if labels[a]], dtype=float
    )
    unsigned = np.array(
        [s for a, s in result.artist_scores.items() if not labels[a]], dtype=float
    )
    if signed.size == 0 or unsigned.size == 0:
        raise GigmineError("both classes must be nonempty for a histogram")
    all_scores = np.concatenate([signed, unsigned])
    edges = np.histogram_bin_edges(all_scores, bins=bins)
    h_signed, _ = np.histogram(signed, bins=edges)
    h_unsigned, _ = np.histogram(unsigned, bins=edges)
    return {
        "bin_edges": edges.tolist(),
        "signed": (h_signed / signed.size).tolist(),
        "unsigned": (h_unsigned / unsigned.size).tolist(),
        "signed_mean": float(signed.mean()),
        "unsigned_mean": float(unsigned.mean()),
        "signed_median": float(np.median(signed)),
        "unsigned_median": float(np.median(unsigned)),
        "n_signed": int(signed.size),
        "n_unsigned": int(unsigned.size),
    }
