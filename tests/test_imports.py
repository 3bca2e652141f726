"""scipy stays off the import path of every command that solves no LP.

Only `theory-check` and `aliasing-synthetic` use scipy, and they import it
inside the solvers that call it. The check imports every `simplexcast`
module and runs the other commands in a fresh interpreter, because this
test process already holds scipy through other test modules.
"""
import json
import os
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
codes = [cli_dispatch(argv) for argv in calls]
before = sorted(k for k in sys.modules if k.startswith("scipy"))
theory = cli_dispatch(["theory-check", "--scenarios", "1", "--out", out])
print(json.dumps({"codes": codes, "scipy_before": before, "theory": theory,
                  "optimize_after": "scipy.optimize" in sys.modules}))
"""


def test_only_the_theory_commands_load_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 8, proc.stderr
    assert result["scipy_before"] == []
    # positive control: the check would see scipy if a command loaded it
    assert result["theory"] == 0, proc.stderr
    assert result["optimize_after"] is True
