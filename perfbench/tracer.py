"""In-memory span tracer that wraps gigmine's public functions from outside.

Nothing under ``src/`` knows about tracing. ``Tracer.install`` replaces each
traced function in every ``gigmine.*`` namespace where it is bound (so calls
made through module globals, such as ``gigmine.birank.build_graph``, are
seen), and wraps two methods on their classes. Each call records a span:
name, start, end, parent span and thread. Counters are read from the
wrapped call's arguments and return value.

Thread pools: ``pool.map`` does not carry the caller's span into the worker
threads, so ``ThreadPoolExecutor`` is replaced in gigmine's namespaces by a
subclass whose ``submit`` hands the submitting thread's open span to the
worker. Spans opened on pool threads therefore nest under, for example,
``birank.yearly_trajectories``.

GC pauses are timed through ``gc.callbacks``.
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor


def _load_counts(t, fn, args, kwargs, out):
    rep = out.load_report
    t.add("ingest.parse_corpus.rows", rep.events_total + rep.releases_total + rep.labels_total)
    t.add("ingest.parse_corpus.rejected",
          rep.events_rejected + rep.releases_rejected + rep.labels_rejected)


def _birank_counts(t, fn, args, kwargs, out):
    t.add("birank.iterations", out.iterations)
    t.add("birank.converged", int(out.converged))


def _logreg_counts(t, fn, args, kwargs, out):
    t.add("success.logreg_iters", out.n_iter)
    t.add("success.logreg_converged", int(out.converged))


def _svd_counts(t, fn, args, kwargs, out):
    t.peak("success.svd_k_max", out.k)


def _pairs_counts(t, fn, args, kwargs, out):
    pairs = inspect.signature(fn).bind(*args, **kwargs).arguments["pairs"]
    t.add("linkpred.pairs_scored", len(pairs))


# (span name, module, attribute, counter hook). Methods are given as
# "Class.method" and wrapped on the class; functions are wrapped in every
# gigmine namespace that binds them.
TRACED = [
    ("ingest.parse_corpus", "ingest", "parse_corpus", _load_counts),
    ("ingest.filter_post_2007", "ingest", "filter_post_2007", None),
    ("ingest.filter_min_activity", "ingest", "filter_min_activity",
     lambda t, fn, a, k, out: t.add("ingest.events_kept", out.n_events)),
    ("ingest.recursive_core_filter", "ingest", "recursive_core_filter", None),
    ("labeling.label_corpus", "labeling", "label_corpus", None),
    ("graph.build_graph", "graph", "build_graph",
     lambda t, fn, a, k, out: t.add("graph.edges_built", out.n_edges)),
    ("graph.biadjacency", "graph", "BipartiteGraph.biadjacency", None),
    ("birank.birank", "birank", "birank", _birank_counts),
    ("birank.yearly_trajectories", "birank", "yearly_trajectories", None),
    ("birank.temporal_weights", "birank", "temporal_weights", None),
    ("birank.seed_scores", "birank", "seed_scores", None),
    ("routes.city_sequences", "routes", "city_sequences",
     lambda t, fn, a, k, out: (t.add("routes.sequences", len(out)),
                               t.add("routes.city_visits", sum(len(s.cities) for s in out)))),
    ("routes.mine_routes", "routes", "mine_routes", None),
    ("linkpred.run_task2", "linkpred", "run_task2", None),
    ("linkpred.make_temporal_split", "linkpred", "make_temporal_split", None),
    ("linkpred.make_random_split", "linkpred", "make_random_split", None),
    ("linkpred.sample_negative_pairs", "linkpred", "sample_negative_pairs",
     lambda t, fn, a, k, out: t.add("linkpred.negatives", len(out))),
    ("linkpred.build_score_tables", "linkpred", "build_score_tables", _pairs_counts),
    ("linkpred.score_svd", "linkpred", "score_svd", None),
    ("linkpred.evaluate_linkpred", "linkpred", "evaluate_linkpred", None),
    ("embeddings.sample_walks", "embeddings", "sample_walks",
     lambda t, fn, a, k, out: t.add("embeddings.walk_tokens", sum(len(w) for w in out))),
    ("embeddings.train_embeddings", "embeddings", "train_embeddings", None),
    ("success.run_task1", "success", "run_task1", None),
    ("success.truncate_events", "success", "truncate_events", None),
    ("success.build_features", "success", "build_features", None),
    ("success.SVDReducer.fit", "success", "SVDReducer.fit", _svd_counts),
    ("success.train_logreg", "success", "train_logreg", _logreg_counts),
    ("metrics.roc_auc", "metrics", "roc_auc", None),
]


class Tracer:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans = []  # [name, start, end, span_id, parent_id, thread_id]
        self.counters: dict[str, float] = {}
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._local = threading.local()
        self._ids = iter(range(1, sys.maxsize))
        self._lock = threading.Lock()
        self._gc_start = None

    # -- spans -----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, hook=None):
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else getattr(self._local, "adopted", None)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append([name, start, end, span_id, parent, threading.get_ident()])
        if hook is not None:
            hook(self, fn, args, kwargs, out)
        return out

    def run_adopted(self, parent, fn, *args, **kwargs):
        """Run ``fn`` on this thread with ``parent`` as its enclosing span."""
        previous = getattr(self._local, "adopted", None)
        self._local.adopted = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.adopted = previous

    # -- counters --------------------------------------------------------

    def add(self, name, value):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name, value):
        with self._lock:
            self.counters[name] = max(self.counters.get(name, value), value)

    # -- gc --------------------------------------------------------------

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- installation ----------------------------------------------------

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, hook)

        return traced

    def install(self):
        """Wrap every traced function wherever gigmine binds it."""
        import gigmine.cli  # noqa: F401  (imports every traced module)

        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "gigmine" or n.startswith("gigmine.")]
        for name, layer, attr, hook in TRACED:
            module = sys.modules[f"gigmine.{layer}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth), hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, hook)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.run_adopted, tracer.current(), fn, *args, **kwargs)

        for ns in namespaces:
            if vars(ns).get("ThreadPoolExecutor") is ThreadPoolExecutor:
                ns.ThreadPoolExecutor = TracedPool
        gc.callbacks.append(self._on_gc)

    def dump(self) -> dict:
        gc.callbacks.remove(self._on_gc)
        counters = dict(self.counters)
        counters["py.gc_pause_s"] = self.gc_pause_s
        counters["py.gc_collections"] = self.gc_collections
        return {"spans": self.spans, "counters": counters}


# -- aggregation (runs in the benchmark process) -----------------------------


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_table(spans) -> dict:
    """Span name -> {"calls", "s", "self_s"} for one process.

    ``s`` sums span durations. ``self_s`` sums each span's duration minus the
    part of its interval covered by the union of its child spans, so
    children that overlap on pool threads are not subtracted twice.
    """
    children: dict = {}
    for _name, start, end, _span_id, parent, _thread in spans:
        children.setdefault(parent, []).append((start, end))

    table: dict = {}
    for name, start, end, span_id, _parent, _thread in spans:
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += (end - start) - _covered(children.get(span_id, ()), start, end)
    return table
