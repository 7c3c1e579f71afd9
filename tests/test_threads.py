"""One thread, one place: ``tensor.py`` is the only module that imports a threading module,
and only an eval MLP of two or more row blocks starts its helper thread."""

import ast
import glob
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_MODULES = {"threading", "concurrent", "concurrent.futures", "_thread"}


def thread_imports(source: str) -> list:
    """Modules of ``THREAD_MODULES`` that ``source`` imports, in any scope."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name in THREAD_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module in THREAD_MODULES:
            found.append(node.module)
    return found


def test_only_tensor_imports_a_thread_module():
    importers = set()
    for path in glob.glob(os.path.join(ROOT, "src", "xlinear", "*.py")):
        with open(path, encoding="utf-8") as fh:
            if thread_imports(fh.read()):
                importers.add(os.path.basename(path))
    assert importers == {"tensor.py"}


def test_the_check_finds_each_import_form():
    assert thread_imports("import threading\nfrom concurrent import futures\n"
                          "def f():\n    from concurrent.futures import Future\n"
                          "import os\n") == ["threading", "concurrent", "concurrent.futures"]


CHILD = """
import threading
import numpy as np
from xlinear import model as mdl
counts = [threading.active_count()]
cfg = mdl.ModelConfig(horizon=96, n_endo=7, n_exo=7, lookback=96, d_model=128, t_ff=256,
                      c_ff=128)
predict = mdl.predictor(mdl.XLinearParams(cfg, np.random.default_rng(0)), cfg)
window = np.random.default_rng(1).normal(size=(1, 7, 96))
predict(window, window)
counts.append(threading.active_count())
windows = np.random.default_rng(2).normal(size=(16, 7, 96))
predict(windows, windows)
counts.append(threading.active_count())
print(counts)
"""


def test_a_one_window_predict_starts_no_thread():
    """At the reproduction size one window's TGM and VGM layers (7 and 128 rows) are one
    block each; a 16-window batch's VGM layer (2048 rows) is four, and starts the helper."""
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[1,", "1,", "2]"]
