"""Smoke test of the per-layer benchmark harness on a tiny corpus.

Runs ``perfbench/child.py --trace`` the way ``perfbench/run.py`` does, so a
rename in the program that the tracer depends on fails here rather than only
in a benchmark run.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gigmine.synth import GenSpec, generate

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402


def test_every_traced_name_is_a_plain_function():
    for name, layer, attr, _hook in tracer.TRACED:
        obj = importlib.import_module(f"gigmine.{layer}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert inspect.isfunction(obj), name


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("benchcorpus")
    manifest = generate(
        GenSpec(n_artists=100, n_venues=40, years=(2008, 2017), seed=5,
                min_events=8, future_edge_count=10),
        out,
    )
    return out, manifest


@pytest.mark.parametrize("command, spans", [
    ("task3", {"graph.build_graph", "birank.birank"}),
    ("task2", {"graph.build_graph", "linkpred.build_score_tables",
               "linkpred.evaluate_linkpred"}),
    ("routes", {"routes.city_sequences", "routes.mine_routes"}),
    ("task1", {"success.truncate_events", "success.build_features"}),
])
def test_traced_child_run(corpus, tmp_path, command, spans):
    corpus_dir, manifest = corpus
    config = {
        "corpus": {"dir": str(corpus_dir)},
        "preprocess": {"activity_threshold": 5},
        "task2": {"train_end_year": manifest["train_end_year"],
                  "test_years": manifest["test_years"], "n_random_splits": 1,
                  "neg_floor": 300, "walks_per_node": 2, "embed_dim": 8,
                  "embed_epochs": 1},
        "task1": {"n_splits": 1, "c_grid": [1.0], "k_grid": [4]},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    trace = tmp_path / "trace.json"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--trace", str(trace),
         "--", command, "--config", str(cfg), "--out", str(tmp_path / "out")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    traced = json.loads(trace.read_text())
    assert spans <= {span[0] for span in traced["spans"]}
    if command == "task2":
        # counters the tracer reads from task2's arguments and return values
        counters = traced["counters"]
        report = json.loads((tmp_path / "out" / "task2-report.json").read_text())
        positives = report["split"]["test_positives"]
        hidden = round(report["hidden_fraction"] * report["split"]["train_edges"])
        assert counters["linkpred.negatives"] > 0
        assert counters["linkpred.pairs_scored"] == (
            positives + hidden + counters["linkpred.negatives"]
        )
        # the forecasting pass's core-filtered graph has no isolated node, so
        # its walks hold exactly F tokens; a random split's walks hold at
        # least one token each and at most F
        embed = report["config"]["task2"]
        n_nodes = report["split"]["train_artists"] + report["split"]["train_venues"]
        full = embed["walks_per_node"] * (embed["walk_length"] + 1) * n_nodes
        assert full + embed["walks_per_node"] * n_nodes <= counters["embeddings.walk_tokens"]
        assert counters["embeddings.walk_tokens"] <= 2 * full
        fits = [span for span in traced["spans"] if span[0] == "embeddings.train_embeddings"]
        assert len(fits) == 1 + report["random_splits"]
