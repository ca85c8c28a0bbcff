"""Temporally weighted BiRank over the artist-venue graph.

Scores propagate between the two sides through a symmetrically normalized
weight matrix, damped toward log-degree seed vectors. Edge weights decay
geometrically with the age of the first event on the edge, so recent activity
counts for more. ``birank`` builds both from the graph it ranks: the weights
from ``delta`` and ``ref_year`` (``temporal_weights``), the seeds from the
node degrees (``seed_scores``). On top of the single run sit yearly
moving-window rank trajectories and per-class score histograms;
``run_task3`` runs all three on one corpus.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from gigmine.errors import GigmineError
from gigmine.graph import BipartiteGraph, build_graph
from gigmine.labeling import NEVER

log = logging.getLogger(__name__)

ALPHA = 0.85
BETA = 0.85
DELTA = 0.85
REF_YEAR = 2017
TOL = 1e-8
MAX_ITER = 200
WINDOW_YEARS = 3
BINS = 20


class Seeds(NamedTuple):
    """Per-side seed arrays in the graph's orders; each side sums to 1."""

    artist_seed: np.ndarray
    venue_seed: np.ndarray


@dataclass(frozen=True, eq=False)
class ScoreView:
    """One score per id: ``array[i]`` is the score of ``order[i]``."""

    order: tuple
    array: np.ndarray

    def top(self, k: Optional[int] = None) -> list:
        """``[id, score]`` pairs of the ``k`` highest scores (all for None), ties in ``order``."""
        at = np.argsort(-self.array, kind="stable")[:k]
        return [[self.order[i], s] for i, s in zip(at.tolist(), self.array[at].tolist())]


@dataclass(frozen=True)
class BiRankResult:
    artist_scores: ScoreView
    venue_scores: ScoreView
    iterations: int
    converged: bool


def _check_task3(delta: float = DELTA, alpha: float = ALPHA, beta: float = BETA,
                 window_years: int = 1, count_scaled: bool = False, bins: int = 1,
                 ref_year: int = 0, top_k: Optional[int] = None) -> None:
    """Raise GigmineError for a task3 setting that no corpus mends.

    Each BiRank function checks its own settings here, and ``run_task3``
    all of its keywords; any ``count_scaled`` is valid.
    """
    if not 0.0 < delta <= 1.0:
        raise GigmineError(f"delta must lie in (0, 1], got {delta}")
    if not 0.0 <= alpha <= 1.0 or not 0.0 <= beta <= 1.0:
        raise GigmineError(f"alpha and beta must lie in [0, 1], got {alpha}, {beta}")
    if window_years < 1:
        raise GigmineError(f"window_years must be at least 1, got {window_years}")
    if bins < 1:
        raise GigmineError(f"bins must be at least 1, got {bins}")
    if ref_year < 0:
        raise GigmineError(f"ref_year must be at least 0, got {ref_year}")
    if top_k is not None and top_k < 1:
        raise GigmineError(f"top_k must be at least 1, got {top_k}")


def seed_scores(g: BipartiteGraph) -> Seeds:
    """Log-degree seeds: ln(degree + 1) normalized to sum 1 per side.

    Degree is the distinct-neighbor count. Rankings induced by the seeds do
    not depend on the logarithm base, but the values do; natural log is
    fixed here. Each side is a read-only array in the graph's order.
    """
    if not g.artist_order or not g.venue_order:
        raise GigmineError("seed scores need at least one artist and one venue")
    seeds = []
    for ptr in (g.indptr, g.csc_indptr):
        # one log per distinct degree, gathered back per node; the total is
        # Python's sum over the nodes in order, as in the per-node form (from
        # 3.12 it is compensated, which no numpy sum reproduces bit for bit)
        degrees, degree_of = np.unique(np.diff(ptr), return_inverse=True)
        raw = np.array([math.log(d + 1) for d in degrees.tolist()])[degree_of]
        total = sum(raw.tolist())
        if total == 0.0:
            raise GigmineError("cannot seed a side whose nodes all have degree 0")
        seed = raw / total
        seed.flags.writeable = False
        seeds.append(seed)
    return Seeds(*seeds)


def temporal_weights(
    g: BipartiteGraph, delta: float = DELTA, ref_year: int = REF_YEAR
) -> np.ndarray:
    """Geometric decay per edge age: delta^(ref_year - first_year).

    One read-only weight per edge, in the order of the graph's edge arrays.
    """
    _check_task3(delta=delta)
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
    weights = decay[age_of_edge]
    weights.flags.writeable = False
    return weights


def birank(
    g: BipartiteGraph,
    delta: float = DELTA,
    ref_year: int = REF_YEAR,
    alpha: float = ALPHA,
    beta: float = BETA,
    tol: float = TOL,
    max_iter: int = MAX_ITER,
    count_scaled: bool = False,
) -> BiRankResult:
    """Damped two-sided ranking on the temporally weighted graph.

    The edge weights are ``temporal_weights(g, delta, ref_year)``, the
    decayed binary incidence (``count_scaled=True`` multiplies in event
    counts), and the seeds u0 and p0 are the log-degree ``seed_scores(g)``.
    With S the symmetrically degree-normalized weight matrix, iterate
    u <- alpha*S*p + (1-alpha)*u0 and p <- beta*S'*u + (1-beta)*p0 from the
    seeds until the larger side's L1 change drops below ``tol``.
    Non-convergence within ``max_iter`` returns the last iterate flagged
    ``converged=False``; ``max_iter`` must be at least 1 and ``tol`` at
    least 0. The scores come as ``ScoreView``s over the graph's id orders.
    The products run on the graph's edge arrays.
    """
    _check_task3(alpha=alpha, beta=beta)
    if max_iter < 1:
        raise GigmineError(f"max_iter must be at least 1, got {max_iter}")
    if not tol >= 0.0:  # NaN fails every comparison
        raise GigmineError(f"tol must be a number at least 0, got {tol}")
    weights = temporal_weights(g, delta, ref_year)
    u0, p0 = seed_scores(g)
    n_a, n_v = len(g.artist_order), len(g.venue_order)
    row, col = g.row, g.col
    w = weights * g.count if count_scaled else weights
    # the sums and products below round as scipy.sparse's would on the CSR
    # matrix of w: row sums reduce each nonempty row (its _minor_reduce),
    # column sums and both products add each node's terms in CSR order
    # (csc_matvec, csr_matvec)
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
    # the artist-side product runs over the edges in CSC order: each artist's
    # terms keep their CSR order (venues ascending), but consecutive terms
    # fall on different artists instead of each add waiting on the last;
    # in that order p[col] is each venue's score repeated over its edges
    row_v, s_v, venue_deg = g.csc_indices, s[g.csc_edges], np.diff(g.csc_indptr)

    u, p = u0, p0
    converged = False
    for iterations in range(1, max_iter + 1):
        u_new = (alpha * np.bincount(row_v, weights=s_v * p.repeat(venue_deg), minlength=n_a)
                 + (1.0 - alpha) * u0)
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


def dense_rank(values: np.ndarray) -> np.ndarray:
    """Dense rank of each value, 1 for the largest; equal values share a rank with no gaps."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return distinct.size - inverse


@dataclass(frozen=True, eq=False)
class WindowRanking:
    """One window's artist scores, their dense ranks in the same order, and its convergence."""

    scores: ScoreView
    ranks: np.ndarray
    iterations: int
    converged: bool


def yearly_trajectories(
    corpus,
    window_years: int = WINDOW_YEARS,
    delta: float = DELTA,
    alpha: float = ALPHA,
    beta: float = BETA,
    count_scaled: bool = False,
) -> dict:
    """BiRank artist ranks per year over a moving window of events.

    Each year Y ranks the subgraph of events dated within the window
    [Y - window_years + 1, Y], with temporal decay referenced to Y. Output
    maps year -> WindowRanking: the window's artist ``ScoreView``, the dense
    rank of each score (1 for the highest) and the BiRank ``iterations`` and
    ``converged``. Years whose window holds no events are skipped and logged;
    a window that does not converge within ``MAX_ITER`` logs a warning.
    ``window_years`` must be at least 1.
    """
    _check_task3(delta=delta, alpha=alpha, beta=beta, window_years=window_years)
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
        result = birank(build_graph(corpus.select(in_window)), delta=delta, ref_year=year,
                        alpha=alpha, beta=beta, count_scaled=count_scaled)
        if not result.converged:
            log.warning(
                "BiRank did not converge in %d iterations on the %d-year window ending %d",
                result.iterations, window_years, year,
            )
        scores = result.artist_scores
        out[year] = WindowRanking(
            scores, dense_rank(scores.array), result.iterations, result.converged
        )
    return out


def score_histogram(
    result: BiRankResult, successful: np.ndarray, bins: int = BINS
) -> dict:
    """Relative-frequency artist score histograms per success class.

    ``successful`` holds one flag per artist of ``result.artist_scores.order``.
    Shared bin edges across both classes; each histogram sums to 1. Also
    reports per-class means and medians. Raises when ``bins`` is below 1,
    the flags do not match the scores one to one or a class is empty.
    """
    _check_task3(bins=bins)
    scores = result.artist_scores.array
    successful = np.asarray(successful, dtype=bool)
    if successful.shape != scores.shape:
        raise GigmineError(f"{successful.size} success flags for {scores.size} scored artists")
    signed, unsigned = scores[successful], scores[~successful]
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


def run_task3(corpus, delta: float = DELTA, alpha: float = ALPHA, beta: float = BETA,
              window_years: int = WINDOW_YEARS, count_scaled: bool = False, bins: int = BINS,
              ref_year: int = 0, top_k: Optional[int] = 20) -> tuple[dict, dict]:
    """task3 on one corpus: BiRank on its graph, the score histograms and the yearly trajectories.

    BiRank ranks the whole graph at ``ref_year``, the corpus's last year
    when 0. Returns the report block, with the ``top_k`` artists and venues
    (all for None) and the ``histogram`` (None, with a warning logged,
    unless both success classes occur), and ``yearly_trajectories``' map
    of year -> ``WindowRanking``, the rows of the trajectory table.
    """
    _check_task3(delta=delta, alpha=alpha, beta=beta, window_years=window_years, bins=bins,
                 ref_year=ref_year, top_k=top_k)
    ref_year = ref_year or corpus.year_span()[1]
    result = birank(build_graph(corpus), delta=delta, ref_year=ref_year, alpha=alpha, beta=beta,
                    count_scaled=count_scaled)
    signed, hist = corpus.change_day < NEVER, None
    if 0 < signed.sum() < signed.size:  # a histogram needs both classes
        hist = score_histogram(result, signed, bins=bins)
    else:
        log.warning("no score histogram: %d of %d artists sign", signed.sum(), signed.size)
    trajectories = yearly_trajectories(corpus, window_years=window_years, delta=delta,
                                       alpha=alpha, beta=beta, count_scaled=count_scaled)
    block = {
        "ref_year": ref_year,
        "iterations": result.iterations,
        "converged": result.converged,
        "top_artists": result.artist_scores.top(top_k),
        "top_venues": result.venue_scores.top(top_k),
        "histogram": hist,
        "trajectory_years": sorted(trajectories),
        "trajectory_convergence": [
            {"year": y, "iterations": w.iterations, "converged": w.converged}
            for y, w in sorted(trajectories.items())
        ],
    }
    return block, trajectories
