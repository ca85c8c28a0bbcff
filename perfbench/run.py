"""gigmine benchmark: synthetic corpus -> CLI reports, timed and checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload ingest_rank --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

For each workload the benchmark generates a corpus with ``gigmine synth``
(the set-up, timed ``SETUP_REPS`` times, each in its own process) and then
runs the workload's gigmine commands, each in a fresh process through
``perfbench/child.py``, until ``--seconds`` have been measured (at least one
pass). Every report is checked against the corpus's planted ground truth.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the traced ones, plus the tracing overhead (traced minus
untraced wall time). The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import span_table  # noqa: E402
from workloads import AUC_FIGURES, CHECKS, QUALITY, WORKLOADS  # noqa: E402

CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_REPS = 3
RUN_LIMIT_S = 170.0  # a workload run kills its commands after this long

END_TO_END = [
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
    ("quality.auc_mean", "auc"),
    ("quality.auc_min", "auc"),
]

PER_LAYER = [
    ("ingest.parse_corpus.s", "s"),
    ("ingest.parse_corpus.rows", "count"),
    ("ingest.parse_corpus.rejected", "count"),
    ("ingest.filter_post_2007.s", "s"),
    ("ingest.filter_min_activity.s", "s"),
    ("ingest.events_kept", "count"),
    ("ingest.recursive_core_filter.s", "s"),
    ("labeling.label_corpus.s", "s"),
    ("graph.build_graph.s", "s"),
    ("graph.build_graph.calls", "count"),
    ("graph.edges_built", "count"),
    ("graph.biadjacency.s", "s"),
    ("birank.birank.s", "s"),
    ("birank.birank.calls", "count"),
    ("birank.iterations", "count"),
    ("birank.converged_ratio", "ratio"),
    ("birank.yearly_trajectories.self_s", "s"),
    ("birank.temporal_weights.s", "s"),
    ("birank.seed_scores.s", "s"),
    ("birank.auc.final_window", "auc"),
    ("routes.city_sequences.s", "s"),
    ("routes.mine_routes.s", "s"),
    ("routes.sequences", "count"),
    ("routes.city_visits", "count"),
    ("linkpred.make_temporal_split.self_s", "s"),
    ("linkpred.make_random_split.s", "s"),
    ("linkpred.sample_negative_pairs.s", "s"),
    ("linkpred.negatives", "count"),
    ("linkpred.build_score_tables.self_s", "s"),
    ("linkpred.pairs_scored", "count"),
    ("linkpred.score_svd.self_s", "s"),
    ("linkpred.evaluate_linkpred.s", "s"),
    ("linkpred.auc.forecast.common_neighbors", "auc"),
    ("linkpred.auc.forecast.jaccard", "auc"),
    ("linkpred.auc.forecast.preferential_attachment", "auc"),
    ("linkpred.auc.forecast.svd", "auc"),
    ("linkpred.auc.forecast.embedding", "auc"),
    ("linkpred.auc.prediction.svd", "auc"),
    ("linkpred.auc.prediction.embedding", "auc"),
    ("embeddings.sample_walks.s", "s"),
    ("embeddings.walk_tokens", "count"),
    ("embeddings.train_embeddings.s", "s"),
    ("embeddings.fits", "count"),
    ("success.SVDReducer.fit.s", "s"),
    ("success.svd_fits", "count"),
    ("success.svd_k_max", "count"),
    ("success.train_logreg.s", "s"),
    ("success.logreg_fits", "count"),
    ("success.logreg_iters", "count"),
    ("success.logreg_converged_ratio", "ratio"),
    ("success.build_features.s", "s"),
    ("success.truncate_events.s", "s"),
    ("success.auc.logreg", "auc"),
    ("success.auc.logreg_svd", "auc"),
    ("success.f1.logreg_svd", "f1"),
    ("metrics.roc_auc.s", "s"),
    ("metrics.roc_auc.calls", "count"),
    ("cli.self_s", "s"),
    ("py.gc_pause_s", "s"),
    ("py.gc_collections", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]

# per-layer metrics that are call counts of a span, or ratios over them
CALLS_OF = {
    "embeddings.fits": "embeddings.train_embeddings",
    "success.svd_fits": "success.SVDReducer.fit",
    "success.logreg_fits": "success.train_logreg",
}
RATIOS = {
    "birank.converged_ratio": ("birank.converged", "birank.birank"),
    "success.logreg_converged_ratio": ("success.logreg_converged", "success.train_logreg"),
}


class Failure(Exception):
    """The benchmark cannot produce a result (missing program, failed set-up)."""


class Runner:
    """Starts gigmine commands in child processes and reaps each one."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root, self.work, self.deadline = root, work, deadline
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def run(self, cli_args, log_name, trace_file=None):
        """Run one command; return (exit status, wall seconds, peak RSS in MB)."""
        opts = ["--trace", str(trace_file)] if trace_file else []
        cmd = [sys.executable, str(CHILD), *opts, "--", *map(str, cli_args)]
        with open(self.work / f"{log_name}.out", "wb") as out, \
                open(self.work / f"{log_name}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
        if proc.returncode != 0:
            tail = (self.work / f"{log_name}.err").read_text(errors="replace")[-2000:]
            print(f"[{log_name}] exit {proc.returncode}:\n{tail}", file=sys.stderr)
        # ru_maxrss is the child's own peak in KiB on Linux
        return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _digest(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        out[key] = _merge(out.get(key, {}), value) if isinstance(value, dict) else value
    return out


class WorkloadRun:
    def __init__(self, name, seed, runner: Runner):
        self.name, self.seed, self.runner = name, seed, runner
        self.spec = WORKLOADS[name]
        self.attempted = self.failed = 0
        self.quality = None

    def _outcome(self, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            for e in errors:
                print(f"[{self.name}] CHECK FAILED: {e}", file=sys.stderr)

    def setup(self, reps):
        """Generate the corpus ``reps`` times; return the set-up times."""
        work = self.runner.work
        synth_cfg = work / "synth.json"
        synth_cfg.write_text(json.dumps({"synth": self.spec.synth}))
        times, first = [], None
        for i in range(reps):
            corpus = work / f"corpus{i}"
            status, wall, _rss = self.runner.run(
                ["synth", "--config", synth_cfg, "--seed", self.seed, "--out", corpus],
                f"synth{i}")
            if status != 0:
                raise Failure(f"gigmine synth exited with {status}")
            times.append(wall)
            if first is None:
                first = _digest(corpus)
                self.handoff = json.loads((work / "synth0.out").read_text())
                self.manifest = json.loads((corpus / "manifest.json").read_text())
                self._outcome([])
            else:
                same = _digest(corpus) == first
                self._outcome([] if same else [f"synth run {i} wrote different files"])
                shutil.rmtree(corpus)
        self.configs = {}
        for command, overrides in self.spec.commands:
            path = work / f"{command}.json"
            path.write_text(json.dumps(_merge(self.handoff, overrides)))
            self.configs[command] = path
        return times

    def run_pass(self, index, traced):
        """Run every command of the workload once; return its measurements."""
        out = self.runner.work / f"pass{index}"
        wall, rss, traces, quality = 0.0, 0.0, [], {}
        for command, _overrides in self.spec.commands:
            trace_file = self.runner.work / f"pass{index}-{command}.trace.json" if traced else None
            status, cmd_wall, cmd_rss = self.runner.run(
                [command, "--config", self.configs[command], "--seed", self.seed, "--out", out],
                f"pass{index}-{command}", trace_file)
            wall += cmd_wall
            rss = max(rss, cmd_rss)
            if status != 0:
                self._outcome([f"gigmine {command} exited with {status}"])
                continue
            try:
                errors = CHECKS[command](out, self.manifest)
                if command in QUALITY:
                    quality.update(QUALITY[command](out, self.manifest))
            except (OSError, LookupError, TypeError, ValueError) as exc:
                errors = [f"gigmine {command} reports are unreadable: {exc!r}"]
            if traced:
                traces.append(json.loads(trace_file.read_text()))
            self._outcome(errors)
        if self.quality is None:
            self.quality = quality
        elif quality != self.quality:
            self._outcome([f"pass {index} quality {quality} differs from {self.quality}"])
        shutil.rmtree(out, ignore_errors=True)
        return {"wall": wall, "rss": rss, "traces": traces, "quality": quality}


def merged_tables(traces) -> dict:
    """Span tables of several processes (span ids are per process) summed."""
    table: dict = {}
    for t in traces:
        for key, row in span_table(t["spans"]).items():
            into = table.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for field, value in row.items():
                into[field] += value
    return table


def layer_metrics(traces, quality) -> dict:
    """Per-layer metrics of one traced pass (its commands' traces combined)."""
    counters: dict = {}
    for t in traces:
        for key, value in t["counters"].items():
            merge = max if key.endswith("_max") else (lambda a, b: a + b)
            counters[key] = merge(counters[key], value) if key in counters else value
    table = merged_tables(traces)

    def calls(span):
        return table.get(span, {}).get("calls", 0)

    out = {}
    for name, _unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name in CALLS_OF:
            out[name] = calls(CALLS_OF[name])
        elif name in RATIOS:
            num, span = RATIOS[name]
            out[name] = counters.get(num, 0) / calls(span) if calls(span) else 0.0
        elif field in ("s", "self_s", "calls") and base in table:
            out[name] = table[base][field]
        elif name in quality:
            out[name] = quality[name]
        else:
            out[name] = counters.get(name, 0)
    return out


def run_workload(name, seed, seconds, trace, root: Path):
    work = root / ".perfbench_work" / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, time.monotonic() + RUN_LIMIT_S)
    wl = WorkloadRun(name, seed, runner)
    try:
        setup_times = wl.setup(1 if trace else SETUP_REPS)
        os.sync()  # flush the corpus writes before anything is timed
        passes, traced_passes = [], []
        start = time.monotonic()
        while True:
            passes.append(wl.run_pass(len(passes) + len(traced_passes), traced=False))
            if trace:
                traced_passes.append(
                    wl.run_pass(len(passes) + len(traced_passes), traced=True))
            elapsed = time.monotonic() - start
            per_round = elapsed / len(passes)
            if elapsed >= seconds or time.monotonic() + 1.5 * per_round > runner.deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall = statistics.median(p["wall"] for p in passes)
    if trace:
        rows = [layer_metrics(p["traces"], p["quality"]) for p in traced_passes]
        metrics = {m: statistics.median(r[m] for r in rows) for m, _u in PER_LAYER
                   if not m.startswith("trace.")}
        metrics["trace.wall_s"] = statistics.median(p["wall"] for p in traced_passes)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
        units = dict(PER_LAYER)
    else:
        aucs = [v for k, v in wl.quality.items() if k in AUC_FIGURES]
        metrics = {
            "wall_s": wall,
            "peak_rss_mb": statistics.median(p["rss"] for p in passes),
            "setup_s": statistics.median(setup_times),
            "ok_frac": (wl.attempted - wl.failed) / wl.attempted,
            "quality.auc_mean": statistics.fmean(aucs) if aucs else 0.0,
            "quality.auc_min": min(aucs, default=0.0),
        }
        units = dict(END_TO_END)
    return {
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }, {"walls": [p["wall"] for p in passes], "traced_walls": [p["wall"] for p in traced_passes],
        "setup_s": setup_times, "quality": wl.quality}


def print_table(name, result, extra):
    print(f"== {name}: pass walls {[round(w, 3) for w in extra['walls']]}, "
          f"traced {[round(w, 3) for w in extra['traced_walls']]}, "
          f"setup runs {[round(s, 3) for s in extra['setup_s']]}, "
          f"correct={result['correct']} ({result['failed']}/{result['attempted']} failed)")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<46} {m['value']:>14.6g} {m['unit']}")
    for figure, value in sorted((extra["quality"] or {}).items()):
        print(f"  quality {figure:<38} {value:>14.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gigmine" / "cli.py").is_file():
        print(f"perfbench: no gigmine sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, extra = run_workload(name, args.seed, args.seconds, args.trace, root)
            print_table(name, result, extra)
            results[name] = result
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
