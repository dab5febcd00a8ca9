"""Smoke test: the fast demos run to completion against the source tree.

Demos 01, 03, 05 and 06 take about 8 s together and demo 02 (the exact
solver's coverage sweep) about 9 s. Demo 04 (training and baselines, about
15 s) is left out to keep the Tier-1 run short; run it by hand with
``PYTHONPATH=src python3 demos/04_training_and_baselines.py``. Every demo,
04 included, has the names it imports from the package checked without
running it.
"""

import ast
import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAST_DEMOS = (
    "01_data_model_and_system_loss.py",
    "02_exact_milp_solver.py",
    "03_surrogate_losses.py",
    "05_benchmark_and_curves.py",
    "06_generalization_bound.py",
)
ALL_DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


@pytest.mark.parametrize("demo", ALL_DEMOS)
def test_demo_imports_exist(demo):
    with open(os.path.join(ROOT, "demos", demo), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=demo)
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "deferlab":
            module = importlib.import_module(node.module)
            names += [(node.module, alias.name, hasattr(module, alias.name))
                      for alias in node.names]
    assert names, f"{demo} imports nothing from deferlab"
    assert [(m, name) for m, name, found in names if not found] == []


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    # TMPDIR keeps the files a demo writes inside the test's own directory
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
