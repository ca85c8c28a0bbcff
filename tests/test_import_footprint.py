"""Start-up cost of the CLI: importing it loads numpy and scipy.sparse only.

The heavy SciPy subpackages are reached through SciPy's lazy submodule
loading, so only task1 and task2 pay for them, on first use. A fresh
interpreter imports ``gigmine.cli``, runs the task3 and routes commands on a
tiny corpus and reports which of them it holds after each step.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from gigmine.synth import GenSpec, generate

ROOT = Path(__file__).resolve().parents[1]

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.special", "scipy.linalg", "scipy.sparse.linalg")

SCRIPT = """
import json, sys

heavy = json.loads(sys.argv[1])
loaded = lambda: [m for m in heavy if m in sys.modules]
import gigmine.cli

seen = {"import": loaded()}
for command in ("task3", "routes"):
    code = gigmine.cli.main([command, "--config", sys.argv[2], "--out", sys.argv[3]])
    seen[command] = loaded() if code == 0 else f"exit {code}"
print(json.dumps(seen))
"""


def test_cli_loads_no_heavy_scipy_subpackage(tmp_path):
    generate(
        GenSpec(n_artists=60, n_venues=25, years=(2008, 2017), seed=3, min_events=8,
                route_artists=1),
        tmp_path / "corpus",
    )
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"corpus": {"dir": str(tmp_path / "corpus")},
                               "preprocess": {"activity_threshold": 5}}))
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(HEAVY), str(cfg), str(tmp_path / "out")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == {"import": [], "task3": [], "routes": []}
