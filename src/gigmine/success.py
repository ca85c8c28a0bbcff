"""Forecasting artist success from venue-affiliation features.

The feature matrix has one row per artist and one column per venue; entries
count the artist's concerts at that venue (binary and log variants are
available). For successful artists the forecasting variant truncates history
to events dated strictly before the change point, so the model only ever sees
what preceded success.

Three models are evaluated: an activity baseline (row sum scaled by the
maximum row sum), L2-regularized logistic regression on the raw matrix, and
the same classifier on a truncated-SVD reduction. Hyperparameters are tuned
by stratified cross-validation on F1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy

from gigmine.blas import blas_threads
from gigmine.errors import GigmineError
from gigmine.labeling import NEVER, check_change_day
from gigmine.metrics import precision_recall_f1, roc_auc

C_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)
K_GRID = (250, 500, 750, 1000)


def truncate_events(corpus, change_day: np.ndarray) -> np.ndarray:
    """Censor successful artists' histories at their change day.

    ``change_day`` holds one date ordinal per ``corpus.artist_order`` entry
    (``labeling.label_corpus``). Returns the mask of the corpus events that
    are kept: every event of a never-successful artist (change day
    ``NEVER``) and only events dated strictly before the change day for
    successful ones.
    """
    check_change_day(corpus, change_day)
    return corpus.day < change_day[corpus.artist]


def build_features(corpus, keep, mode: str = "count") -> scipy.sparse.csr_matrix:
    """Artist-by-venue affiliation matrix of the corpus events where ``keep`` holds.

    Rows follow ``corpus.artist_order`` (artists without kept events get
    zero rows); columns are the venues with at least one kept event, in
    ``corpus.venue_order``. mode "count" stores event counts, "binary"
    presence flags, and "log" log(1 + count).
    """
    if mode not in ("count", "binary", "log"):
        raise GigmineError(f"unknown affiliation mode: {mode!r}")
    venues, cols = np.unique(corpus.venue[keep], return_inverse=True)
    mat = scipy.sparse.csr_matrix(
        (np.ones(cols.size), (corpus.artist[keep], cols)),
        shape=(len(corpus.artist_order), venues.size),
    )
    mat.sum_duplicates()
    if mode == "binary":
        mat.data[:] = 1.0
    elif mode == "log":
        mat.data = np.log1p(mat.data)
    return mat


def baseline_scores(X) -> np.ndarray:
    """Total activity scaled into [0, 1] by the busiest row."""
    totals = np.asarray(X.sum(axis=1)).ravel()
    top = totals.max() if totals.size else 0.0
    if top <= 0:
        return np.zeros_like(totals, dtype=float)
    return totals / top


class SVDReducer:
    """Rank-k truncated SVD fitted on one matrix, applied to others.

    ``fit`` factors the training matrix; ``transform`` projects any matrix
    with the same columns onto the fitted right singular vectors, so the
    training rows map to their left-singular coordinates scaled by the
    singular values and held-out rows never influence the basis.

    The solver follows from the shape: ARPACK when ``2k + 1 < min(n, m)``,
    dense LAPACK otherwise; ``solver_`` names the one that ran. Both give
    the same sign-fixed basis up to rounding. The LAPACK path eigensolves
    the m x m Gram matrix ``XᵀX``, so it holds m x m dense arrays (the Gram
    and its eigenvectors), more than a dense copy of X only when m > n.
    """

    def __init__(self, k: int, seed: int = 0):
        if k < 1:
            raise GigmineError(f"rank must be positive, got {k}")
        self.k = k
        self.seed = seed
        self.components_: Optional[np.ndarray] = None  # (n_cols, k)
        self.singular_values_: Optional[np.ndarray] = None
        self.solver_: Optional[str] = None  # "arpack" or "lapack"

    def fit(self, X) -> "SVDReducer":
        n, m = X.shape
        if self.k > min(n, m):
            raise GigmineError(
                f"rank {self.k} exceeds matrix dimensions {X.shape}"
            )
        A = scipy.sparse.csr_matrix(X, dtype=float)
        if 2 * self.k + 1 < min(n, m):
            rng = np.random.default_rng(self.seed)
            v0 = rng.standard_normal(min(n, m))
            u, s, vt = scipy.sparse.linalg.svds(A, k=self.k, v0=v0)
            order = np.argsort(s)[::-1]
            s, vt = s[order], vt[order]
            self.solver_ = "arpack"
        else:
            # one symmetric eigensolve (divide and conquer) of the m x m Gram,
            # built by one sparse product, costs less than a dense SVD of X:
            # no left vectors and no dense copy of a mostly-zero X. Each
            # singular value is the norm of X times its vector; the square
            # root of an eigenvalue near zero is off by about sqrt(eps) * s_max
            _, vecs = scipy.linalg.eigh(
                (A.T @ A).toarray(), overwrite_a=True, check_finite=False, driver="evd"
            )
            vt = vecs[:, : -self.k - 1 : -1].T
            s = np.linalg.norm(A @ vt.T, axis=0)
            self.solver_ = "lapack"
        # fix the sign ambiguity so repeated fits agree bit for bit
        flip = np.sign(vt[np.arange(vt.shape[0]), np.argmax(np.abs(vt), axis=1)])
        flip[flip == 0] = 1.0
        self.components_ = (vt * flip[:, None]).T
        self.singular_values_ = s
        return self

    def transform(self, X) -> np.ndarray:
        if self.components_ is None:
            raise GigmineError("reducer is not fitted")
        return np.asarray(X @ self.components_)


@dataclass
class LogregModel:
    weights: np.ndarray
    intercept: float
    C: float
    loss_history: list = field(default_factory=list)
    converged: bool = False
    n_iter: int = 0


def logreg_loss_grad(params: np.ndarray, X, y: np.ndarray, C: float):
    """Mean negative log-likelihood plus ||w||^2 / (2C); intercept unpenalized.

    Averaging the data term keeps the objective invariant under duplicating
    every row, so C means the same thing at any corpus size.
    """
    w, b = params[:-1], params[-1]
    n = X.shape[0]
    margins = np.asarray(X @ w).ravel() + b
    z = np.where(y, 1.0, -1.0)
    loss = np.logaddexp(0.0, -z * margins).mean() + (w @ w) / (2.0 * C)
    p = scipy.special.expit(margins)
    resid = (p - y) / n
    grad_w = np.asarray(X.T @ resid).ravel() + w / C
    grad_b = resid.sum()
    return loss, np.concatenate([grad_w, [grad_b]])


def train_logreg(
    X,
    y,
    C: float = 1.0,
    max_iter: int = 1000,
    grad_tol: float = 1e-6,
) -> LogregModel:
    """Fit L2-regularized logistic regression with a quasi-Newton solver.

    The loss history holds the objective at each accepted iterate (starting
    point included), so it is non-increasing; ``converged`` reports whether
    the gradient dropped below tolerance within the iteration budget. The
    solver runs OpenBLAS on one thread (``blas.blas_threads``).
    """
    if C <= 0:
        raise GigmineError(f"regularization strength C must be positive, got {C}")
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.size:
        raise GigmineError(f"X has {X.shape[0]} rows but y has {y.size} labels")
    history = []

    def loss_grad(params):
        loss, grad = logreg_loss_grad(params, X, y, C)
        if not history:  # the solver's first evaluation is at the starting point
            history.append(loss)
        return loss, grad

    def record(intermediate_result):
        history.append(intermediate_result.fun)

    # loads scipy's OpenBLAS, which blas_threads sets only once it is loaded
    minimize = scipy.optimize.minimize
    # one iteration's BLAS calls are too small to gain from more threads
    with blas_threads(1):
        result = minimize(
            loss_grad,
            np.zeros(X.shape[1] + 1),
            jac=True,
            method="L-BFGS-B",
            callback=record,
            options={"maxiter": max_iter, "gtol": grad_tol, "ftol": 0.0},
        )
    return LogregModel(
        weights=result.x[:-1],
        intercept=float(result.x[-1]),
        C=C,
        loss_history=history,
        converged=bool(result.success),
        n_iter=int(result.nit),
    )


def predict_proba(model: LogregModel, X) -> np.ndarray:
    margins = np.asarray(X @ model.weights).ravel() + model.intercept
    return scipy.special.expit(margins)


def stratified_split(y: np.ndarray, test_fraction: float, seed: int):
    """Index arrays (train, test) with the class ratio preserved per side."""
    y = np.asarray(y, dtype=bool)
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in (False, True):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(idx.size)]
        n_test = int(round(test_fraction * idx.size))
        test.append(idx[:n_test])
        train.append(idx[n_test:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


def stratified_folds(y: np.ndarray, n_folds: int, seed: int):
    """Deal each class round-robin into ``n_folds`` disjoint index arrays."""
    y = np.asarray(y, dtype=bool)
    rng = np.random.default_rng(seed)
    dealt = []
    for cls in (False, True):
        idx = np.flatnonzero(y == cls)
        dealt.append(idx[rng.permutation(idx.size)])
    return [np.sort(np.concatenate([idx[f::n_folds] for idx in dealt])) for f in range(n_folds)]


def _cv_sets(X, y, folds):
    """Each fold's (fit rows, fit labels, held-out rows, held-out labels), sliced once."""
    sets = []
    for i, test_idx in enumerate(folds):
        train_idx = np.sort(np.concatenate([f for j, f in enumerate(folds) if j != i]))
        sets.append((X[train_idx], y[train_idx], X[test_idx], y[test_idx]))
    return sets


def _metric_block(scores, y_true, threshold):
    p, r, f1 = precision_recall_f1(scores, y_true, threshold=threshold)
    return {"precision": p, "recall": r, "f1": f1, "auc": roc_auc(scores, y_true)}


def _mean_blocks(blocks):
    keys = ("precision", "recall", "f1", "auc")
    return {k: float(np.mean([b[k] for b in blocks])) for k in keys}


def _tune_C(cv, c_grid, threshold, fits):
    """The C of best mean held-out F1 over the ``_cv_sets`` ``cv``, first on ties.

    Every fitted model is appended to ``fits``.
    """
    best_c, best_f1 = None, -1.0
    for C in c_grid:
        f1s = []
        for x_fit, y_fit, x_out, y_out in cv:
            model = train_logreg(x_fit, y_fit, C=C)
            fits.append(model)
            _, _, f1 = precision_recall_f1(predict_proba(model, x_out), y_out, threshold=threshold)
            f1s.append(f1)
        mean_f1 = float(np.mean(f1s))
        if mean_f1 > best_f1:
            best_c, best_f1 = C, mean_f1
    return best_c, best_f1


def _tune_C_k(cv, c_grid, k_grid, threshold, seed, fits):
    """Joint (C, k) grid search sharing one SVD per fold.

    The candidate ranks are the grid's at or below the smallest fold cap,
    min(rows, columns) of a fold's fit rows, or that cap if none is. The
    rank-k basis for a smaller k is a prefix of the larger one from the
    same fit, so each fold is factored once at the largest candidate.
    Every fitted model is appended to ``fits``.
    """
    cap = min(min(x_fit.shape) for x_fit, *_ in cv)
    ks = [k for k in sorted(k_grid) if k <= cap] or [cap]
    reducers = [SVDReducer(ks[-1], seed=seed).fit(x_fit) for x_fit, *_ in cv]
    best, best_f1 = None, -1.0
    for k in ks:
        reduced = []
        for (x_fit, y_fit, x_out, y_out), reducer in zip(cv, reducers):
            Vk = reducer.components_[:, :k]
            reduced.append((x_fit @ Vk, y_fit, x_out @ Vk, y_out))
        C, mean_f1 = _tune_C(reduced, c_grid, threshold, fits)
        if mean_f1 > best_f1:
            best, best_f1 = (C, k), mean_f1
    return best, best_f1


def run_task1(
    corpus,
    change_day: np.ndarray,
    mode: str = "count",
    n_splits: int = 3,
    test_fraction: float = 0.2,
    cv_folds: int = 3,
    threshold: float = 0.5,
    c_grid: Sequence[float] = C_GRID,
    k_grid: Sequence[int] = K_GRID,
    seed: int = 0,
) -> dict:
    """Full forecasting evaluation: baseline, logreg, and logreg on SVD features.

    Censors successful artists' events at their change day (``change_day``
    as in ``truncate_events``; an artist is successful when it is not
    ``NEVER``), builds the affiliation matrix, then averages test metrics
    over ``n_splits`` seeded stratified splits that hold out
    ``test_fraction`` of each class. C (and the SVD rank) are re-tuned inside
    each split by stratified cross-validation on F1. Each ``selected`` entry
    also names the solver of the split's final SVD fit and, over every
    logistic regression fitted in the split (tuning included), how many
    stopped short of convergence and the most iterations any took.
    ``cv_folds`` must be at least 2 and at most the training artists of the
    smaller class, ``n_splits`` at least 1 and ``test_fraction`` in (0, 1),
    leaving each class at least one test and one training artist.
    ``c_grid`` must hold at least one C, each finite and positive, and
    every ``k_grid`` rank must be at least 1 (an empty ``k_grid`` means the
    fold cap, as in ``_tune_C_k``).
    """
    if cv_folds < 2:
        raise GigmineError(f"cv_folds must be at least 2, got {cv_folds}")
    if n_splits < 1:
        raise GigmineError(f"n_splits must be at least 1, got {n_splits}")
    if not 0.0 < test_fraction < 1.0:  # NaN fails too
        raise GigmineError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    if len(c_grid) == 0 or not all(np.isfinite(C) and C > 0 for C in c_grid):
        raise GigmineError(
            f"c_grid must be a non-empty list of finite positive values, got {list(c_grid)}"
        )
    if any(k < 1 for k in k_grid):
        raise GigmineError(f"k_grid ranks must be at least 1, got {list(k_grid)}")
    check_change_day(corpus, change_day)
    y = change_day < NEVER
    if not y.any() or y.all():
        raise GigmineError("forecasting needs both successful and unsuccessful artists")
    sizes = (int(y.sum()), int((~y).sum()))
    if not all(0 < round(test_fraction * n) < n for n in sizes):  # as stratified_split rounds
        raise GigmineError(
            f"test_fraction {test_fraction} leaves a class with no test or no training artists: "
            f"{sizes[0]} positives, {sizes[1]} negatives"
        )
    # stratified_folds deals each class round-robin: a fold past the smaller
    # class's training count would hold none of that class
    n_train = min(n - round(test_fraction * n) for n in sizes)
    if cv_folds > n_train:
        raise GigmineError(
            f"cv_folds {cv_folds} exceeds the {n_train} training artists of the smaller class "
            f"at test_fraction {test_fraction}"
        )
    X = build_features(corpus, truncate_events(corpus, change_day), mode=mode)
    if not X.shape[1]:
        raise GigmineError("no events remain after change-point truncation")

    per_model: dict[str, list] = {"baseline": [], "logreg": [], "logreg_svd": []}
    chosen = []
    for s in range(n_splits):
        split_seed = seed + s
        train_idx, test_idx = stratified_split(y, test_fraction, split_seed)
        X_train, y_train, X_test, y_test = X[train_idx], y[train_idx], X[test_idx], y[test_idx]
        cv = _cv_sets(X_train, y_train, stratified_folds(y_train, cv_folds, split_seed))

        base = baseline_scores(X_test)
        per_model["baseline"].append(_metric_block(base, y_test, threshold))

        fits: list[LogregModel] = []
        best_c, _ = _tune_C(cv, c_grid, threshold, fits)
        model = train_logreg(X_train, y_train, C=best_c)
        fits.append(model)
        per_model["logreg"].append(
            _metric_block(predict_proba(model, X_test), y_test, threshold)
        )

        (svd_c, svd_k), _ = _tune_C_k(cv, c_grid, k_grid, threshold, split_seed, fits)
        reducer = SVDReducer(svd_k, seed=split_seed).fit(X_train)
        model = train_logreg(reducer.transform(X_train), y_train, C=svd_c)
        fits.append(model)
        per_model["logreg_svd"].append(
            _metric_block(predict_proba(model, reducer.transform(X_test)), y_test, threshold)
        )
        chosen.append({
            "split_seed": split_seed,
            "C": best_c,
            "svd_C": svd_c,
            "svd_k": svd_k,
            "svd_solver": reducer.solver_,
            "logreg_unconverged": sum(not f.converged for f in fits),
            "logreg_max_iter": max(f.n_iter for f in fits),
        })

    return {
        "task": "forecasting",
        "n_artists": X.shape[0],
        "n_venues": X.shape[1],
        "n_positives": int(y.sum()),
        "mode": mode,
        "splits": n_splits,
        "seed": seed,
        "selected": chosen,
        "models": {
            name: {"mean": _mean_blocks(blocks), "per_split": blocks}
            for name, blocks in per_model.items()
        },
    }
