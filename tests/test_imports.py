"""No command loads scipy: the package needs numpy alone at runtime.

scipy is only a test oracle (tests/hull_reference.py, the LP checks of the
metrics). The check imports every `simplexcast` module and runs every
command in a fresh interpreter, because this test process already holds
scipy through other test modules. A second fresh interpreter checks that
`theory-check`, which trains nothing, never loads the tape, a third that
importing the package loads no process pool, and a parse of
the package's imports checks that `model` alone imports the tape and alone
calls `forward` and `score_blocks`, and that `evaluate` alone imports a
process pool. A parse of the package's expressions checks that the L1
distance and the smoothing floor are each written out once.
"""
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import importlib, json, os, pkgutil, sys

import simplexcast

for module in pkgutil.iter_modules(simplexcast.__path__):
    importlib.import_module("simplexcast." + module.name)
from simplexcast.cli import cli_dispatch

out = sys.argv[1]
data = os.path.join(out, "homogeneous.jsonl")
model = os.path.join(out, "model.ckpt")
runs = os.path.join(out, "runs")
calls = [
    ["simulate-queues", "--section", "homogeneous", "--systems", "4", "--arrivals", "40",
     "--replications", "5", "--out", out],
    ["train", "--data", data, "--iters", "2", "--out", out],
    ["diagnose-aliasing", "--data", data, "--samples", "5", "--out", out],
]
for method in ("persistence", "cast"):
    calls.append(["evaluate", "--data", data, "--method", method, "--model", model,
                  "--out", runs])
    calls.append(["rollout", "--data", data, "--method", method, "--model", model,
                  "--context", "3", "--horizon", "2", "--out", runs])
calls.append(["report", "--results", runs, "--out", out])
calls.append(["theory-check", "--scenarios", "1", "--out", out])
calls.append(["aliasing-synthetic", "--seeds", "0", "--iters", "2", "--sequences", "8",
              "--out", out])
codes = [cli_dispatch(argv) for argv in calls]


def loaded():
    return sorted(k for k in sys.modules if k.startswith("scipy"))


after_commands = loaded()
import scipy.optimize  # noqa: E402,F401  (positive control)

print(json.dumps({"codes": codes, "scipy": after_commands, "control": loaded()}))
"""


def test_no_command_loads_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 10, proc.stderr
    assert result["scipy"] == []
    # positive control: the same check sees scipy once something loads it
    assert "scipy.optimize" in result["control"]


THEORY_SCRIPT = """
import json, sys

from simplexcast.cli import cli_dispatch

code = cli_dispatch(["theory-check", "--scenarios", "1", "--out", sys.argv[1]])
print(json.dumps({"code": code, "autodiff": "simplexcast.autodiff" in sys.modules}))
"""


def test_theory_check_loads_no_tape(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", THEORY_SCRIPT, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"code": 0, "autodiff": False}, proc.stderr


POOL_SCRIPT = """
import importlib, json, pkgutil, sys

import simplexcast

for module in pkgutil.iter_modules(simplexcast.__path__):
    importlib.import_module("simplexcast." + module.name)
print(json.dumps(sorted(k for k in sys.modules
                        if k.split(".")[0] in ("multiprocessing", "concurrent"))))
"""


def test_no_module_imports_the_process_pool():
    # aliasing-synthetic imports its pool when it runs, so importing the
    # package, which every command's start-up pays, loads neither module
    proc = subprocess.run(
        [sys.executable, "-c", POOL_SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, check=True,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == [], proc.stderr


def _imported_modules(path: Path) -> set:
    """Every module that a source file imports, relative imports resolved
    against the `simplexcast` package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "simplexcast." * (node.level > 0) + (node.module or "")
            names.add(base.rstrip("."))
            names.update(f"{base.rstrip('.')}.{alias.name}" for alias in node.names)
    return names


def test_only_model_imports_the_tape():
    importers = sorted(
        path.name for path in (SRC / "simplexcast").glob("*.py")
        if "simplexcast.autodiff" in _imported_modules(path)
    )
    assert importers == ["model.py"]


def test_only_evaluate_imports_the_process_pool():
    # the package's one process pool is `evaluate._pool_map`
    importers = sorted(
        path.name for path in (SRC / "simplexcast").glob("*.py")
        if any(name.split(".")[0] in ("multiprocessing", "concurrent")
               for name in _imported_modules(path))
    )
    assert importers == ["evaluate.py"]


def test_only_model_cuts_scoring_blocks():
    # the rest of the package scores CAST through `model.predict`
    block_loop = {"simplexcast.model.forward", "simplexcast.model.score_blocks"}
    importers = sorted(
        path.name for path in (SRC / "simplexcast").glob("*.py")
        if path.name != "model.py" and block_loop & _imported_modules(path)
    )
    assert importers == []


def _abs_difference(node) -> bool:
    return (isinstance(node, ast.Call) and ast.unparse(node.func) == "np.abs" and node.args
            and isinstance(node.args[0], ast.BinOp) and isinstance(node.args[0].op, ast.Sub))


def _written_primitives(path: Path) -> set:
    """(kind, module, top-level name) of every L1 distance, `np.abs(a - b)`
    summed, and every smoothing floor, a division by `1 + n * eps`, that a
    source file writes out."""
    found = set()
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Attribute) and node.func.attr == "sum"
                and _abs_difference(node.func.value)
                or ast.unparse(node.func) == "np.sum" and node.args
                and _abs_difference(node.args[0])
            ):
                found.add(("l1", path.name, getattr(top, "name", None)))
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                    and re.fullmatch(r"1(\.0)? \+ .+ \* eps", ast.unparse(node.right))):
                found.add(("floor", path.name, getattr(top, "name", None)))
    return found


def test_one_l1_distance_and_one_smoothing_floor():
    # everything else calls `metrics.l1` and `simplex.smooth`. `model._kl_term`
    # keeps its own floor: the checkpoint goldens pin the rounding of its
    # qs = (p_hat + eps) * c, which `smooth`'s division would change
    found = set().union(*map(_written_primitives, (SRC / "simplexcast").glob("*.py")))
    assert sorted(found) == [("floor", "model.py", "_kl_term"),
                             ("floor", "simplex.py", "smooth"),
                             ("l1", "metrics.py", "l1")]
