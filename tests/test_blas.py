import glob
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy
import pytest
import scipy
import scipy.optimize  # noqa: F401  loads scipy's own OpenBLAS copy

from gigmine import blas, linkpred
from gigmine.blas import blas_threads, loaded_openblas
from gigmine.ingest import parse_corpus
from gigmine.synth import GenSpec, generate

ROOT = Path(__file__).resolve().parents[1]

# the copies blas_threads finds when a fresh interpreter's first fit starts,
# and the copies loaded after it
FIRST_FIT = """
import json
import numpy as np
from gigmine import blas, success

real, entered = blas.loaded_openblas, []
blas.loaded_openblas = lambda: entered.append(sorted(real())) or real()
success.train_logreg(np.eye(4), np.array([0.0, 1.0, 0.0, 1.0]))
print(json.dumps([entered[0], sorted(real())]))
"""

# the copies loaded when run_task2 enters its pool's block, asked for one
# model predictor in a fresh interpreter, and the copies loaded after it
TASK2_ENTRY = """
import json, sys
from gigmine import blas, linkpred
from gigmine.ingest import parse_corpus

corpus_dir, predictor, years = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
corpus = parse_corpus(*(f"{corpus_dir}/{t}.csv" for t in ("events", "releases", "labels")))
real, entered = blas.loaded_openblas, []
blas.loaded_openblas = lambda: entered.append(sorted(real())) or real()
linkpred.run_task2(corpus, predictors=[predictor], n_random_splits=1, neg_floor=200, svd_k=5,
                   walks_per_node=1, embed_dim=8, embed_epochs=1, **years)
print(json.dumps([entered[0], sorted(real())]))
"""

# planted future edges give task2 its test years
TASK2_SPEC = GenSpec(n_artists=120, n_venues=40, years=(2008, 2017), seed=33, min_events=8,
                     future_edge_count=20)


def counts():
    return [get_threads() for _, get_threads in loaded_openblas().values()]


@pytest.fixture
def copies():
    found = loaded_openblas()
    if not found:
        pytest.skip("no OpenBLAS bundled with numpy or scipy is loaded")
    return len(found)


@pytest.fixture(scope="module")
def task2_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("task2corpus")
    manifest = generate(TASK2_SPEC, out)
    corpus = parse_corpus(out / "events.csv", out / "releases.csv", out / "labels.csv")
    years = {"train_end_year": manifest["train_end_year"], "test_years": manifest["test_years"]}
    return out, corpus, years


def subprocess_env():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


class TestBlasThreads:
    def test_every_wheel_copy_is_found(self):
        # each package's bundled OpenBLAS is loaded once numpy and
        # scipy.optimize are imported, and each must be found
        for package in (numpy, scipy):
            libs = os.path.dirname(package.__file__) + ".libs"
            bundled = glob.glob(os.path.join(libs, "*openblas*"))
            assert set(bundled) <= set(loaded_openblas())

    def test_first_fit_finds_the_copy_its_solver_loads(self, copies):
        # scipy's copy loads with scipy.optimize, not with gigmine.success
        proc = subprocess.run([sys.executable, "-c", FIRST_FIT], cwd=ROOT, env=subprocess_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        at_entry, after = json.loads(proc.stdout)
        assert at_entry == after and len(after) == copies

    def test_sets_every_copy_and_restores_it(self, copies):
        before = counts()
        with blas_threads(2):
            assert counts() == [2] * copies
            with blas_threads(1):
                assert counts() == [1] * copies
            assert counts() == [2] * copies
        assert counts() == before

    def test_restores_when_the_body_raises(self, copies):
        with blas_threads(2):
            with pytest.raises(RuntimeError, match="body"), blas_threads(1):
                assert counts() == [1] * copies
                raise RuntimeError("body")
            assert counts() == [2] * copies

    @pytest.mark.parametrize("files", [(), ("libopenblas-unloaded.so",)])
    def test_no_op_without_a_loaded_library(self, copies, tmp_path, files):
        # a library file that is not loaded is neither loaded nor counted
        for name in files:
            (tmp_path / name).write_bytes(b"")
        getters = [get_threads for _, get_threads in loaded_openblas().values()]
        with blas_threads(2), mock.patch.object(blas, "LIB_DIRS", (str(tmp_path),)):
            assert loaded_openblas() == {}
            with blas_threads(1):
                assert [get_threads() for get_threads in getters] == [2] * copies


class TestTask2Pool:
    """run_task2 holds every OpenBLAS copy at one thread around its pool of passes."""

    def run(self, task2_corpus, score):
        _, corpus, years = task2_corpus
        with mock.patch.object(linkpred, "build_score_tables", score), \
                mock.patch.object(linkpred, "_workers", lambda n_passes: 2):
            return linkpred.run_task2(corpus, predictors=("common_neighbors", "svd"),
                                      n_random_splits=1, neg_floor=200, svd_k=5, **years)

    def test_every_pass_runs_at_one_thread_and_the_counts_come_back(self, copies, task2_corpus):
        real, seen = linkpred.build_score_tables, []

        def score(*args, **kwargs):
            seen.append(counts())
            return real(*args, **kwargs)

        with blas_threads(2):
            report = self.run(task2_corpus, score)
            assert counts() == [2] * copies
        assert seen == [[1] * copies] * 2
        assert report["fits"]["forecasting"]["svd_solver"]

    def test_the_counts_come_back_when_a_pass_raises(self, copies, task2_corpus):
        def score(*args, **kwargs):
            assert counts() == [1] * copies
            raise RuntimeError("pass")

        with blas_threads(2):
            with pytest.raises(RuntimeError, match="pass"):
                self.run(task2_corpus, score)
            assert counts() == [2] * copies

    @pytest.mark.parametrize("predictor", ["svd", "embedding"])
    def test_scipy_copy_is_loaded_before_the_pool(self, copies, task2_corpus, predictor):
        # a fresh interpreter that has parsed a corpus holds neither
        # scipy.linalg nor scipy.special, so scipy's copy is loaded at entry
        # only because run_task2 loads it first
        corpus_dir, _, years = task2_corpus
        proc = subprocess.run([sys.executable, "-c", TASK2_ENTRY, str(corpus_dir), predictor,
                               json.dumps(years)], cwd=ROOT, env=subprocess_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        at_entry, after = json.loads(proc.stdout)
        assert at_entry == after and len(after) == copies
