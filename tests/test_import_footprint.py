"""Start-up cost of the CLI: importing it loads numpy and no SciPy subpackage.

SciPy's subpackages are reached through its lazy submodule loading, so
only the commands that call them pay for them, on first use: ``scipy.sparse``
and the heavier ones for task1 and task2 alone. task3's BiRank runs on the
graph's CSR arrays and loads none of them, and task2 never needs
``scipy.stats`` or ``scipy.optimize``. A fresh interpreter imports
``gigmine.cli``, runs the synth, ingest, stats, routes, task3 and task2
commands on a tiny corpus, in that order, and reports which of them it holds
after each step.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from gigmine.synth import GenSpec, generate

ROOT = Path(__file__).resolve().parents[1]

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.special", "scipy.linalg", "scipy.sparse.linalg")
SPARSE = "scipy.sparse"

SCRIPT = """
import contextlib, io, json, sys

watched, cfg, out = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]
loaded = lambda: [m for m in watched if m in sys.modules]
import gigmine.cli

seen = {"import": loaded()}
for command in ("synth", "ingest", "stats", "routes", "task3", "task2"):
    with contextlib.redirect_stdout(io.StringIO()):  # synth prints its hand-off config
        code = gigmine.cli.main([command, "--config", cfg, "--out", f"{out}/{command}"])
    seen[command] = loaded() if code == 0 else f"exit {code}"
print(json.dumps(seen))
"""


def test_cli_loads_no_heavy_scipy_subpackage(tmp_path):
    # planted future edges give task2 its test years
    spec = dict(n_artists=60, n_venues=25, years=(2008, 2017), seed=3, min_events=8,
                route_artists=1, future_edge_count=3)
    manifest = generate(GenSpec(**spec), tmp_path / "corpus")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "corpus": {"dir": str(tmp_path / "corpus")},
        "preprocess": {"activity_threshold": 5},
        "task2": {"train_end_year": manifest["train_end_year"],
                  "test_years": manifest["test_years"], "n_random_splits": 1,
                  "neg_floor": 300, "walks_per_node": 2, "embed_dim": 8, "embed_epochs": 1},
        "synth": {k: list(v) if k == "years" else v for k, v in spec.items() if k != "seed"},
    }))
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps([*HEAVY, SPARSE]), str(cfg),
         str(tmp_path / "out")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    seen = json.loads(proc.stdout)
    task2 = seen.pop("task2")
    assert seen == {"import": [], "synth": [], "ingest": [], "stats": [], "routes": [],
                    "task3": []}
    # task2 ran its SVD and SGNS fits, and its start-up stays clear of the
    # two heaviest subpackages
    assert SPARSE in task2 and "scipy.special" in task2, task2
    assert not {"scipy.stats", "scipy.optimize"} & set(task2), task2
