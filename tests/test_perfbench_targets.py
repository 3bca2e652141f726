"""The traced benchmark patches functions by name and reads their arguments
in count hooks; a rename or a signature change in the package must fail
here, not only in a traced benchmark run."""
import importlib.util
from pathlib import Path

import numpy as np

from simplexcast.cli import cli_dispatch
from simplexcast.io import write_dataset
from simplexcast.simplex import SimplexSeries

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_target_exists():
    tracing = _tracing()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in tracing.targets()
        if attr not in owner.__dict__
    ]
    assert not missing


def test_count_hooks_read_the_cast_path(tmp_path):
    # a tiny train, cast evaluate and cast rollout under the tracer: every
    # count hook on that path must find the arguments it reads
    tracing = _tracing()
    rng = np.random.default_rng(0)
    data = tmp_path / "d.jsonl"
    write_dataset(data, [SimplexSeries(f"s{i}", True, rng.dirichlet(np.ones(4), size=16))
                         for i in range(3)], section_name="unit")
    common = ["--data", str(data), "--out", str(tmp_path)]
    tracer = tracing.Tracer("tier1")
    with tracing.instrumented(tracer):
        assert cli_dispatch(["train", "--iters", "2"] + common) == 0
        for command in ("evaluate", "rollout"):
            assert cli_dispatch([command, "--method", "cast", "--model",
                                 str(tmp_path / "model.ckpt")] + common) == 0
    for key in ("autodiff.tape_nodes", "model.batch_items", "model.mem_rows",
                "baselines.cast.encode_rows"):
        assert tracer.counts[key] > 0, key
