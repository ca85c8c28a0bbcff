import datetime as dt
import gc
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_corpus
from oracles import dense_svd_oracle, tune_C_k_reference, tune_C_reference

from gigmine import success
from gigmine.blas import blas_threads
from gigmine.errors import GigmineError
from gigmine.ingest import parse_corpus
from gigmine.labeling import NEVER
from gigmine.success import (
    C_GRID,
    SVDReducer,
    baseline_scores,
    build_features,
    logreg_loss_grad,
    predict_proba,
    run_task1,
    stratified_folds,
    stratified_split,
    train_logreg,
    truncate_events,
)
from gigmine.synth import GenSpec, generate


def corpus_of(*events, signings=()):
    """Corpus of (artist, venue, date) events, with ``make_corpus``'s signings."""
    return make_corpus([(f"e{i}", a, v, d) for i, (a, v, d) in enumerate(events)], signings)


D = dt.date


class TestTruncation:
    def test_strictly_before_change_point(self):
        c = corpus_of(
            ("a", "v", D(2010, 1, 1)),
            ("a", "v", D(2011, 6, 1)),  # == cp, must go
            ("a", "v", D(2012, 1, 1)),
            ("b", "v", D(2015, 1, 1)),
            signings=[("a", D(2013, 1, 1)), ("a", D(2011, 6, 1))],  # the earliest is cp
        )
        assert c.artist_order == ("a", "b")
        kept = truncate_events(c)
        assert [
            (c.artist_order[a], D.fromordinal(d))
            for a, d in zip(c.artist[kept].tolist(), c.day[kept].tolist())
        ] == [
            ("a", D(2010, 1, 1)),
            ("b", D(2015, 1, 1)),
        ]

    def test_unlabeled_artist_keeps_everything(self):
        # an artist that never signs has change day NEVER, after any event
        c = corpus_of(("x", "v", D(2012, 1, 1)), ("x", "v", D.max))
        assert c.change_day.tolist() == [NEVER]
        assert truncate_events(c).tolist() == [True, True]


class TestBuildFeatures:
    CORPUS = corpus_of(
        ("a1", "v1", D(2010, 1, 1)),
        ("a1", "v1", D(2010, 2, 1)),
        ("a1", "v2", D(2010, 3, 1)),
        ("a2", "v2", D(2010, 4, 1)),
    )

    def test_count_mode(self):
        X = build_features(self.CORPUS, slice(None), mode="count")
        assert X.toarray().tolist() == [[2.0, 1.0], [0.0, 1.0]]

    def test_binary_mode(self):
        X = build_features(self.CORPUS, slice(None), mode="binary")
        assert X.toarray().tolist() == [[1.0, 1.0], [0.0, 1.0]]

    def test_log_mode(self):
        X = build_features(self.CORPUS, slice(None), mode="log")
        assert X.toarray() == pytest.approx(np.log1p([[2.0, 1.0], [0.0, 1.0]]))

    def test_events_outside_orders_ignored(self):
        # keep only a1's events at v1: v2 loses its column, a2 keeps a zero row
        c = self.CORPUS
        keep = (c.artist == c.artist_order.index("a1")) & (c.venue == c.venue_order.index("v1"))
        X = build_features(c, keep, mode="count")
        assert X.toarray().tolist() == [[2.0], [0.0]]

    def test_unknown_mode_rejected(self):
        with pytest.raises(GigmineError, match="mode"):
            build_features(self.CORPUS, slice(None), mode="tfidf")


class TestBaseline:
    def test_busiest_row_scores_one(self):
        X = sp.csr_matrix(np.array([[3.0, 1.0], [1.0, 0.0], [0.0, 0.0]]))
        assert baseline_scores(X).tolist() == [1.0, 0.25, 0.0]

    def test_all_zero_matrix_scores_zero(self):
        X = sp.csr_matrix((3, 4))
        assert baseline_scores(X).tolist() == [0.0, 0.0, 0.0]


class TestSVDReducer:
    def test_rank_r_recovery(self):
        rng = np.random.default_rng(0)
        for r in (1, 3, 5):
            left = rng.standard_normal((40, r))
            right = rng.standard_normal((r, 25))
            A = left @ right
            red = SVDReducer(r, seed=1).fit(sp.csr_matrix(A))
            recon = red.transform(A) @ red.components_.T
            rel = np.linalg.norm(A - recon) / np.linalg.norm(A)
            assert rel <= 1e-8

    def test_full_rank_uses_dense_path(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((6, 4))
        before = A.copy()
        red = SVDReducer(4, seed=0).fit(A)
        assert red.solver_ == "lapack"
        assert np.array_equal(A, before)  # the solver overwrites its own copy only
        recon = red.transform(A) @ red.components_.T
        assert np.linalg.norm(A - recon) / np.linalg.norm(A) <= 1e-10
        assert red.singular_values_.shape == (4,)

    def test_solver_follows_shape_and_paths_agree(self):
        rng = np.random.default_rng(12)
        for shape in ((30, 12), (12, 30)):
            A = sp.csr_matrix(rng.standard_normal(shape))
            # short side 12: ARPACK while 2k + 1 < 12, LAPACK from k = 6 on,
            # whose first 5 columns are a rank-5 fit
            arpack = SVDReducer(5, seed=3).fit(A)
            lapack = SVDReducer(6, seed=3).fit(A)
            assert (arpack.solver_, lapack.solver_) == ("arpack", "lapack")
            assert np.abs(arpack.components_ - lapack.components_[:, :5]).max() <= 1e-10
            assert np.abs(arpack.singular_values_ - lapack.singular_values_[:5]).max() <= 1e-10

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(["gaussian", "heavy_row_counts", "duplicate_rows", "zero_columns"]),
        n=st.integers(1, 14),
        m=st.integers(1, 14),
        k_from_top=st.integers(0, 7),
        sparse=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="gaussian", n=9, m=4, k_from_top=0, sparse=False, seed=0)  # tall, k = m
    @example(kind="gaussian", n=4, m=9, k_from_top=0, sparse=False, seed=0)  # wide, k = n
    @example(kind="duplicate_rows", n=8, m=5, k_from_top=0, sparse=True, seed=1)
    @example(kind="zero_columns", n=6, m=10, k_from_top=0, sparse=True, seed=2)
    @example(kind="heavy_row_counts", n=12, m=7, k_from_top=1, sparse=True, seed=3)
    def test_dense_path_matches_dense_svd_reference(self, kind, n, m, k_from_top, sparse, seed):
        # ranks from min(n, m) down to the smallest with 2k + 1 >= min(n, m)
        short = min(n, m)
        k = max(short - k_from_top, short // 2, 1)
        rng = np.random.default_rng(seed)
        if kind == "gaussian":
            A = rng.standard_normal((n, m))
        elif kind == "heavy_row_counts":  # integer counts, one row far busier than the rest
            A = rng.poisson(0.7, (n, m)).astype(float)
            A[rng.integers(n)] = rng.integers(0, 2000, m)
        elif kind == "duplicate_rows":
            base = rng.integers(0, 5, ((n + 1) // 2, m)).astype(float)
            A = base[rng.integers(0, base.shape[0], n)]
        else:
            A = rng.standard_normal((n, m))
            A[:, rng.random(m) < 0.4] = 0.0
        X = sp.csr_matrix(A) if sparse else A
        snapshot = A.copy()

        red = SVDReducer(k).fit(X)
        again = SVDReducer(k).fit(X)
        s_ref, vt_ref = dense_svd_oracle(A)
        s_max = s_ref[0]

        assert red.solver_ == "lapack"
        assert red.components_.shape == (m, k)
        V = red.components_
        assert np.abs(V.T @ V - np.eye(k)).max() <= 1e-12
        assert np.abs(red.singular_values_ - s_ref[:k]).max() <= 1e-9 * s_max
        if k == m or s_ref[k - 1] - s_ref[k] > 1e-3 * s_max:  # the rank-k subspace is defined
            P_ref = vt_ref[:k].T @ vt_ref[:k]
            assert np.abs(V @ V.T - P_ref).max() <= 1e-9
        assert np.array_equal(red.components_, again.components_)
        assert np.array_equal(red.singular_values_, again.singular_values_)
        assert np.array_equal(X.toarray() if sparse else X, snapshot)  # input untouched

    def test_transform_does_not_see_heldout_rows(self):
        rng = np.random.default_rng(2)
        train = rng.standard_normal((30, 10))
        red = SVDReducer(3, seed=0).fit(train)
        basis_before = red.components_.copy()
        held = rng.standard_normal((5, 10))
        out = red.transform(held)
        assert np.array_equal(red.components_, basis_before)
        assert out == pytest.approx(held @ basis_before)

    def test_repeat_fits_identical(self):
        rng = np.random.default_rng(3)
        A = sp.csr_matrix(rng.standard_normal((20, 12)))
        a = SVDReducer(4, seed=7).fit(A)
        b = SVDReducer(4, seed=7).fit(A)
        assert np.array_equal(a.components_, b.components_)
        assert np.array_equal(a.singular_values_, b.singular_values_)

    def test_subspace_independent_of_seed(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((20, 12))
        pa = SVDReducer(4, seed=0).fit(A).components_
        pb = SVDReducer(4, seed=99).fit(A).components_
        assert pa @ pa.T == pytest.approx(pb @ pb.T, abs=1e-8)

    def test_rank_validation(self):
        with pytest.raises(GigmineError):
            SVDReducer(0)
        with pytest.raises(GigmineError, match="exceeds"):
            SVDReducer(5).fit(np.ones((3, 4)))
        with pytest.raises(GigmineError, match="not fitted"):
            SVDReducer(2).transform(np.ones((3, 4)))

    def test_one_shot_helper(self):
        # fitted and applied to the same rows: their rank-k coordinates U_k S_k
        rng = np.random.default_rng(5)
        A = rng.standard_normal((15, 8))
        u, s, vt = np.linalg.svd(A, full_matrices=False)
        # the reducer's signs: each right singular vector's largest entry is positive
        sign = np.sign(vt[np.arange(3), np.abs(vt[:3]).argmax(axis=1)])
        assert SVDReducer(3, seed=1).fit(A).transform(A) == pytest.approx(
            u[:, :3] * s[:3] * sign
        )


def central_diff(f, x, eps=1e-5):
    g = np.empty_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
    return g


class TestLogreg:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(20):
            n, d = int(rng.integers(5, 15)), int(rng.integers(2, 8))
            X = rng.standard_normal((n, d))
            y = rng.integers(0, 2, n).astype(float)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            C = float(rng.choice([0.1, 1.0, 10.0]))
            params = rng.standard_normal(d + 1)
            _, ana = logreg_loss_grad(params, X, y, C)
            num = central_diff(lambda p: logreg_loss_grad(p, X, y, C)[0], params)
            dev = np.abs(num - ana) / np.maximum.reduce(
                [np.ones_like(num), np.abs(num), np.abs(ana)]
            )
            worst = max(worst, dev.max())
        assert worst < 1e-5

    def test_mean_loss_invariant_under_row_duplication(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((10, 4))
        y = rng.integers(0, 2, 10).astype(float)
        params = rng.standard_normal(5)
        once, g1 = logreg_loss_grad(params, X, y, 1.0)
        twice, g2 = logreg_loss_grad(params, np.vstack([X, X]), np.concatenate([y, y]), 1.0)
        assert twice == pytest.approx(once, rel=1e-12)
        assert g2 == pytest.approx(g1, rel=1e-12)

    def test_loss_history_non_increasing_and_converges(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((60, 3))
        w_true = np.array([2.0, -1.0, 0.5])
        y = (X @ w_true + 0.1 * rng.standard_normal(60) > 0).astype(float)
        model = train_logreg(X, y, C=1.0)
        hist = np.asarray(model.loss_history)
        assert len(hist) >= 2
        assert len(hist) == model.n_iter + 1
        final = np.append(model.weights, model.intercept)
        assert hist[-1] == logreg_loss_grad(final, X, y, 1.0)[0]
        assert np.all(np.diff(hist) <= 1e-12)
        assert model.converged
        assert model.n_iter >= 1
        preds = predict_proba(model, X)
        assert ((preds >= 0.5) == y.astype(bool)).mean() > 0.9

    def test_sparse_and_dense_agree(self):
        rng = np.random.default_rng(9)
        X = (rng.random((20, 6)) < 0.3) * rng.random((20, 6))
        y = rng.integers(0, 2, 20).astype(float)
        params = rng.standard_normal(7)
        ld, gd = logreg_loss_grad(params, X, y, 2.0)
        ls, gs = logreg_loss_grad(params, sp.csr_matrix(X), y, 2.0)
        assert ls == pytest.approx(ld, rel=1e-12)
        assert gs == pytest.approx(gd, rel=1e-12)

    def test_validation_errors(self):
        X = np.ones((4, 2))
        y = np.array([0.0, 1.0, 0.0, 1.0])
        with pytest.raises(GigmineError, match="positive"):
            train_logreg(X, y, C=0.0)
        with pytest.raises(GigmineError, match="rows"):
            train_logreg(X, y[:3])

    def test_one_evaluation_at_the_starting_point(self):
        # the first history entry is the solver's own first evaluation
        rng = np.random.default_rng(11)
        X = rng.standard_normal((40, 3))
        y = (X[:, 0] > 0).astype(float)
        starts = []

        def counting(params, *args):
            starts.append(not params.any())
            return logreg_loss_grad(params, *args)

        with mock.patch.object(success, "logreg_loss_grad", counting):
            models = [train_logreg(X, y, C=C) for C in (0.1, 10.0)]
        assert sum(starts) == 2
        for model in models:
            assert model.loss_history[0] == logreg_loss_grad(np.zeros(4), X, y, model.C)[0]

    def test_fit_independent_of_blas_threads(self):
        # 400 x 60 is above OpenBLAS's size for threading a matrix-vector product
        rng = np.random.default_rng(12)
        X = rng.standard_normal((400, 60))
        y = (X[:, :3].sum(axis=1) + rng.standard_normal(400) > 0).astype(float)
        one = train_logreg(X, y, C=1.0)
        with blas_threads(2), mock.patch.object(success, "blas_threads", lambda n: blas_threads(2)):
            two = train_logreg(X, y, C=1.0)
        assert np.array_equal(one.weights, two.weights)
        assert one.intercept == two.intercept
        assert (one.loss_history, one.n_iter) == (two.loss_history, two.n_iter)

    def test_stronger_regularization_shrinks_weights(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((50, 4))
        y = (X[:, 0] > 0).astype(float)
        loose = train_logreg(X, y, C=100.0)
        tight = train_logreg(X, y, C=0.01)
        assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)


class TestSplits:
    def test_split_partitions_and_preserves_ratio(self):
        y = np.array([True] * 20 + [False] * 80)
        train, test = stratified_split(y, 0.2, seed=0)
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(100))
        assert test.size == 20
        assert y[test].sum() == 4  # round(0.2 * 20) positives in test

    def test_split_deterministic_per_seed(self):
        y = np.array([True, False] * 30)
        a = stratified_split(y, 0.25, seed=5)
        b = stratified_split(y, 0.25, seed=5)
        c = stratified_split(y, 0.25, seed=6)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[1], c[1])

    def test_folds_partition_with_balanced_classes(self):
        y = np.array([True] * 10 + [False] * 23)
        folds = stratified_folds(y, 3, seed=1)
        joined = np.sort(np.concatenate(folds))
        assert np.array_equal(joined, np.arange(33))
        pos_per_fold = [int(y[f].sum()) for f in folds]
        assert max(pos_per_fold) - min(pos_per_fold) <= 1
        sizes = [f.size for f in folds]
        assert max(sizes) - min(sizes) <= 2  # one per class at most

    @pytest.mark.parametrize(
        "n_pos, n_neg, n_folds, seed",
        [(10, 23, 3, 1), (0, 7, 2, 0), (5, 5, 5, 4), (3, 40, 4, 9), (1, 2, 5, 2), (17, 17, 3, 12)],
    )
    def test_folds_equal_the_round_robin_deal(self, n_pos, n_neg, n_folds, seed):
        # the per-element deal the folds were first defined by, classes interleaved
        y = np.random.default_rng(seed + 100).permutation([True] * n_pos + [False] * n_neg)
        rng = np.random.default_rng(seed)
        dealt = [[] for _ in range(n_folds)]
        for cls in (False, True):
            idx = np.flatnonzero(y == cls)
            idx = idx[rng.permutation(idx.size)]
            for pos, i in enumerate(idx):
                dealt[pos % n_folds].append(int(i))
        folds = stratified_folds(y, n_folds, seed)
        assert [f.tolist() for f in folds] == [sorted(f) for f in dealt]
        assert all(f.dtype == np.asarray([], dtype=int).dtype for f in folds)


def random_cv(n, m, n_folds, sparse, seed):
    """``_cv_sets`` of a seeded count matrix whose first column leans positive."""
    rng = np.random.default_rng(seed)
    y = rng.random(n) < 0.4
    y[:n_folds], y[n_folds:2 * n_folds] = True, False  # each fold holds both classes
    X = rng.poisson(1.0, (n, m)).astype(float)
    X[:, 0] += 2.0 * y
    folds = stratified_folds(y, n_folds, seed)
    return success._cv_sets(sp.csr_matrix(X) if sparse else X, y, folds)


class TestTuneCK:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(8, 30),
        m=st.integers(2, 12),
        n_folds=st.integers(2, 4),
        c_grid=st.lists(st.sampled_from(C_GRID), min_size=1, max_size=3, unique=True),
        k_grid=st.lists(st.integers(1, 40), max_size=3, unique=True),
        threshold=st.sampled_from([0.5, 0.3, 2.0]),
        sparse=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # 2.0 is above every probability: every F1 is 0 and the first (C, k) wins
    @example(n=20, m=8, n_folds=3, c_grid=[10.0, 0.1], k_grid=[3, 2], threshold=2.0,
             sparse=True, seed=0)
    @example(n=20, m=8, n_folds=3, c_grid=[1.0], k_grid=[2, 40], threshold=0.5,
             sparse=True, seed=1)  # 40 is above every fold cap
    @example(n=20, m=30, n_folds=2, c_grid=[0.1, 1.0], k_grid=[], threshold=0.5,
             sparse=False, seed=2)  # an empty grid means the fold cap
    # (100.0, 1) ties (1.0, 2): k-major order takes the first, C-major the second
    @example(n=16, m=4, n_folds=4, c_grid=[0.01, 1.0, 100.0], k_grid=[1, 2, 3], threshold=0.5,
             sparse=False, seed=30)
    def test_matches_the_all_folds_reference(self, n, m, n_folds, c_grid, k_grid, threshold,
                                             sparse, seed):
        cv = random_cv(n, m, n_folds, sparse, seed)
        fits = []
        best, best_f1 = success._tune_C_k(cv, c_grid, k_grid, threshold, seed, fits)
        want, want_f1, n_models = tune_C_k_reference(cv, c_grid, k_grid, threshold, seed)
        assert best == want
        assert best_f1 == want_f1
        assert len(fits) == n_models
        if threshold > 1.0:  # every F1 is 0: the first C at the smallest candidate rank
            cap = min(min(x_fit.shape) for x_fit, *_ in cv)
            assert best == (c_grid[0], min([k for k in k_grid if k <= cap] or [cap]))
            assert best_f1 == 0.0

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(8, 30),
        m=st.integers(2, 12),
        n_folds=st.integers(2, 4),
        c_grid=st.lists(st.sampled_from(C_GRID), min_size=1, max_size=3, unique=True),
        threshold=st.sampled_from([0.5, 0.3, 2.0]),
        sparse=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # C = 100 and C = 10 share the best mean F1 on this fold set
    @example(n=20, m=8, n_folds=3, c_grid=[100.0, 1.0, 10.0], threshold=0.5, sparse=False,
             seed=0)
    def test_without_ranks_matches_the_c_major_reference(self, n, m, n_folds, c_grid, threshold,
                                                         sparse, seed):
        # k_grid None searches C alone on the raw fold features: no fold is factored
        cv = random_cv(n, m, n_folds, sparse, seed)

        def never(*args, **kwargs):
            raise AssertionError("a fold was factored")

        fits = []
        with mock.patch.object(SVDReducer, "fit", never):
            best, best_f1 = success._tune_C_k(cv, c_grid, None, threshold, seed, fits)
        want, want_f1, n_models = tune_C_reference(cv, c_grid, threshold)
        assert best == (want, None)
        assert best_f1 == want_f1
        assert len(fits) == n_models

    @pytest.mark.parametrize("c_grid", [[100.0, 1.0, 10.0], [10.0, 1.0, 100.0]])
    def test_without_ranks_the_first_of_tied_cs_wins(self, c_grid):
        cv = random_cv(20, 8, 3, False, 0)
        tied = [tune_C_reference(cv, [C], 0.5)[1] for C in (10.0, 100.0)]
        assert tied[0] == tied[1] > tune_C_reference(cv, [1.0], 0.5)[1]
        best, best_f1 = success._tune_C_k(cv, c_grid, None, 0.5, 0, [])
        assert best == (c_grid[0], None)
        assert best_f1 == tied[0]

    def test_one_fold_alive_at_a_time(self):
        # when a fold is factored, no earlier fold's reducer or basis survives
        cv = random_cv(30, 10, 3, True, 0)
        refs, alive = [], []
        fit = SVDReducer.fit

        def recording_fit(self, X):
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))
            fit(self, X)
            refs.extend([weakref.ref(self), weakref.ref(self.components_)])
            return self

        with mock.patch.object(SVDReducer, "fit", recording_fit):
            success._tune_C_k(cv, (0.1, 1.0), (2, 4), 0.5, 0, [])
        assert alive == [0, 0, 0]


EMPTIED_CLASS = "leaves a class with no test or no training artists: 10 positives, 40 negatives"


class TestRunTask1:
    @pytest.fixture(scope="class")
    @staticmethod
    def small_corpus(tmp_path_factory):
        out = tmp_path_factory.mktemp("t1corpus")
        generate(
            GenSpec(
                n_artists=50,
                n_venues=20,
                years=(2008, 2016),
                seed=11,
                positive_fraction=0.2,
                min_events=6,
            ),
            out,
        )
        return parse_corpus(out / "events.csv", out / "releases.csv", out / "labels.csv")

    def test_report_shape_and_ranges(self, small_corpus):
        report = run_task1(
            small_corpus,
            n_splits=2,
            cv_folds=2,
            c_grid=(1.0,),
            k_grid=(4,),
            seed=0,
        )
        assert report["task"] == "forecasting"
        assert report["n_artists"] == 50
        assert report["n_positives"] == 10
        assert len(report["selected"]) == 2
        assert set(report["models"]) == {"baseline", "logreg", "logreg_svd"}
        for block in report["models"].values():
            assert len(block["per_split"]) == 2
            for key in ("precision", "recall", "f1", "auc"):
                assert 0.0 <= block["mean"][key] <= 1.0
        for sel in report["selected"]:
            assert sel["C"] == 1.0
            assert sel["svd_k"] <= 4
            assert sel["svd_solver"] == "arpack"  # 2k + 1 = 9 is below both matrix sides
            assert sel["logreg_unconverged"] == 0
            assert sel["logreg_max_iter"] >= 1

    def test_each_model_scores_its_own_picks(self, small_corpus):
        # refitting each model from its reported picks on the split's rows
        # gives its reported test metrics; logreg and logreg_svd pick
        # different Cs here, so a report that swapped them would fail
        corpus = small_corpus
        report = run_task1(
            corpus, n_splits=2, test_fraction=0.2, cv_folds=3,
            c_grid=(0.1, 1.0, 10.0, 100.0), k_grid=(1, 3, 8), seed=0,
        )
        X = build_features(corpus, truncate_events(corpus))
        y = corpus.change_day < NEVER
        models = report["models"]
        for i, sel in enumerate(report["selected"]):
            assert sel["C"] != sel["svd_C"]
            train, test = stratified_split(y, 0.2, sel["split_seed"])
            model = train_logreg(X[train], y[train], C=sel["C"])
            block = success._metric_block(predict_proba(model, X[test]), y[test], 0.5)
            assert models["logreg"]["per_split"][i] == block
            reducer = SVDReducer(sel["svd_k"], seed=sel["split_seed"]).fit(X[train])
            model = train_logreg(reducer.transform(X[train]), y[train], C=sel["svd_C"])
            scores = predict_proba(model, reducer.transform(X[test]))
            assert models["logreg_svd"]["per_split"][i] == success._metric_block(scores, y[test], 0.5)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_fails_before_features(self, small_corpus, threshold):
        def never(*args, **kwargs):
            raise AssertionError("features were built")

        with mock.patch.object(success, "build_features", never), \
                pytest.raises(GigmineError, match=f"threshold must be finite, got {threshold}"):
            run_task1(small_corpus, threshold=threshold)

    @pytest.mark.parametrize("k_grid, k_chosen", [((1000,), 16), ((17, 1000), 16), ((5, 17, 1000), 5)])
    def test_rank_grid_above_a_fold_cap(self, small_corpus, k_grid, k_chosen):
        # at test_fraction 0.5 the three folds fit on 16, 16 and 18 of the 25
        # training artists, all below the 20 venues: the candidates are the
        # grid ranks up to the smallest cap, 16, or that cap if none is
        y = small_corpus.change_day < NEVER
        train, _ = stratified_split(y, 0.5, 0)
        assert sorted(train.size - f.size for f in stratified_folds(y[train], 3, 0)) == [16, 16, 18]
        report = run_task1(
            small_corpus, n_splits=1, test_fraction=0.5, cv_folds=3,
            c_grid=(1.0,), k_grid=k_grid, seed=0,
        )
        assert report["n_venues"] == 20
        assert [sel["svd_k"] for sel in report["selected"]] == [k_chosen]

    @pytest.mark.parametrize("cv_folds", [1, 0])
    def test_cv_folds_below_two_rejected(self, small_corpus, cv_folds):
        with pytest.raises(GigmineError, match=f"cv_folds must be at least 2, got {cv_folds}"):
            run_task1(small_corpus, n_splits=1, cv_folds=cv_folds)

    @pytest.mark.parametrize("params, message", [
        ({"n_splits": 0}, "n_splits must be at least 1, got 0"),
        ({"n_splits": -2}, "n_splits must be at least 1, got -2"),
        ({"test_fraction": -0.5}, r"test_fraction must lie in \(0, 1\), got -0.5"),
        ({"test_fraction": 0.0}, r"test_fraction must lie in \(0, 1\), got 0.0"),
        ({"test_fraction": 1.0}, r"test_fraction must lie in \(0, 1\), got 1.0"),
        ({"test_fraction": 1.5}, r"test_fraction must lie in \(0, 1\), got 1.5"),
        ({"test_fraction": float("nan")}, r"test_fraction must lie in \(0, 1\), got nan"),
        # of the corpus's 10 positives and 40 negatives, 0.04 leaves the
        # positives no test artist, 0.01 neither class, 0.97 the positives
        # no training artist
        ({"test_fraction": 0.04}, f"test_fraction 0.04 {EMPTIED_CLASS}"),
        ({"test_fraction": 0.01}, f"test_fraction 0.01 {EMPTIED_CLASS}"),
        ({"test_fraction": 0.97}, f"test_fraction 0.97 {EMPTIED_CLASS}"),
        ({"c_grid": []}, r"c_grid must be a non-empty list of finite positive values, got \[\]"),
        ({"c_grid": [0.0]}, r"c_grid must be .* got \[0.0\]"),
        ({"c_grid": [1.0, -1.0]}, r"c_grid must be .* got \[1.0, -1.0\]"),
        ({"c_grid": [float("nan")]}, r"c_grid must be .* got \[nan\]"),
        ({"c_grid": [float("inf")]}, r"c_grid must be .* got \[inf\]"),
        ({"k_grid": [-5, 250]}, r"k_grid ranks must be at least 1, got \[-5, 250\]"),
        ({"k_grid": [0]}, r"k_grid ranks must be at least 1, got \[0\]"),
        # a repeat only runs more fits: the first-best pick never takes it
        ({"c_grid": [1.0, 1.0]}, "c_grid lists 1.0 more than once"),
        ({"c_grid": [0.1, 1, 10.0, 1.0]}, "c_grid lists 1.0 more than once"),
        ({"k_grid": [500, 250, 500]}, "k_grid lists 500 more than once"),
        # round-robin folds past a class's training count hold none of it:
        # 10 - round(0.5 * 10) = 5 training positives, 10 - round(0.2 * 10) = 8
        ({"test_fraction": 0.5, "cv_folds": 6},
         "cv_folds 6 exceeds the 5 training artists of the smaller class at test_fraction 0.5"),
        ({"test_fraction": 0.5, "cv_folds": 30}, "cv_folds 30 exceeds the 5 training artists"),
        ({"cv_folds": 9}, "cv_folds 9 exceeds the 8 training artists"),
    ])
    def test_bad_split_parameters_fail_before_features(self, small_corpus, params, message):
        def never(*args, **kwargs):
            raise AssertionError("features were built")

        with mock.patch.object(success, "build_features", never), \
                pytest.raises(GigmineError, match=message):
            run_task1(small_corpus, **params)

    def test_folds_up_to_the_smaller_class_accepted(self, small_corpus):
        # 5 training positives make 5 folds of one positive each; an empty
        # rank grid means the fold cap
        report = run_task1(
            small_corpus, n_splits=1, test_fraction=0.5, cv_folds=5,
            c_grid=(1.0,), k_grid=(), seed=0,
        )
        assert [sel["svd_k"] for sel in report["selected"]] == [20]

    def test_report_independent_of_blas_threads(self, tmp_path):
        # large enough for OpenBLAS to thread the factorisations and products
        generate(
            GenSpec(n_artists=400, n_venues=150, years=(2008, 2016), seed=5,
                    positive_fraction=0.2, min_events=6),
            tmp_path,
        )
        corpus = parse_corpus(*(tmp_path / f for f in ("events.csv", "releases.csv", "labels.csv")))
        reports = []
        for n in (1, 2):
            with blas_threads(n):
                reports.append(run_task1(
                    corpus, n_splits=1, test_fraction=0.5,
                    c_grid=(0.1, 10.0), k_grid=(40, 80), seed=0,
                ))
        assert reports[0] == reports[1]

    def test_single_class_corpus_rejected(self, small_corpus):
        corpus = small_corpus
        signs = corpus.change_day[corpus.artist] < NEVER
        for keep in (signs, ~signs):  # only the artists that sign, or only the others
            with pytest.raises(GigmineError, match="both"):
                run_task1(corpus.select(keep), n_splits=1)
