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

from gigmine import blas
from gigmine.blas import blas_threads, loaded_openblas

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


def counts():
    return [get_threads() for _, get_threads in loaded_openblas().values()]


@pytest.fixture
def copies():
    found = loaded_openblas()
    if not found:
        pytest.skip("no OpenBLAS bundled with numpy or scipy is loaded")
    return len(found)


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
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        proc = subprocess.run([sys.executable, "-c", FIRST_FIT], cwd=ROOT, env=env,
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
