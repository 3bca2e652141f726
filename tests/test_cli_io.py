"""Tests for dataset files, run configuration, and the CLI."""
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from simplexcast import cli, theory
from simplexcast.cli import cli_dispatch
from simplexcast.errors import InvalidValue, ParseError, SimplexCastError
from simplexcast.io import ingest, load_run_config, write_dataset, write_json
from simplexcast.simplex import SimplexSeries


def _seqs(rng, n=3, t=6, d=4):
    return [
        SimplexSeries(
            f"s{i}", True, rng.dirichlet(np.ones(d), size=t), np.ones(t - 1, dtype=bool)
        )
        for i in range(n)
    ]


class TestDatasetIO:
    def test_round_trip_within_1e12(self, rng, tmp_path):
        seqs = _seqs(rng)
        path = tmp_path / "data.jsonl"
        write_dataset(path, seqs, section_name="unit")
        res = ingest(path)
        assert res.section_name == "unit"
        assert res.dropped_rows == 0
        assert [s.id for s in res.sequences] == [s.id for s in seqs]
        for a, b in zip(seqs, res.sequences):
            np.testing.assert_allclose(a.steps, b.steps, atol=1e-12)
            np.testing.assert_array_equal(a.loss_mask, b.loss_mask)

    def test_gzip_round_trip(self, rng, tmp_path):
        seqs = _seqs(rng)
        path = tmp_path / "data.jsonl.gz"
        write_dataset(path, seqs)
        res = ingest(path)
        np.testing.assert_allclose(res.sequences[0].steps, seqs[0].steps, atol=1e-12)

    def test_zero_mass_row_dropped_and_counted(self, rng, tmp_path, caplog):
        seqs = _seqs(rng, n=2, t=3, d=3)
        path = tmp_path / "data.jsonl"
        write_dataset(path, seqs)
        lines = path.read_text().splitlines()
        bad = {"id": "dead", "steps": [[0, 0, 0], [0, 0, 0]], "loss_mask": [True]}
        path.write_text("\n".join(lines + [json.dumps(bad)]) + "\n")
        with caplog.at_level("WARNING"):
            res = ingest(path)
        assert res.dropped_rows == 1
        assert len(res.sequences) == 2

    def test_rows_are_normalized(self, tmp_path):
        header = {"format_version": 1, "D": 2, "ordered": True, "section_name": ""}
        row = {"id": "x", "steps": [[2.0, 2.0], [1.0, 3.0]], "loss_mask": [True]}
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(header) + "\n" + json.dumps(row) + "\n")
        res = ingest(path)
        np.testing.assert_allclose(res.sequences[0].steps, [[0.5, 0.5], [0.25, 0.75]])

    def test_malformed_line_reports_number(self, rng, tmp_path, capsys):
        seqs = _seqs(rng, n=2)
        path = tmp_path / "d.jsonl"
        write_dataset(path, seqs)
        lines = path.read_text().splitlines()
        lines[2] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            ingest(path)
        assert exc.value.line == 3
        assert cli_dispatch(["evaluate", "--data", str(path), "--out", str(tmp_path)]) == 1
        # the file line, not the decoder's position within the row
        assert capsys.readouterr().err.startswith("error: line 3: bad row:")

    def test_repeated_id_rejected_with_line(self, rng, tmp_path, capsys):
        seqs = _seqs(rng)
        seqs[2] = SimplexSeries("s0", True, seqs[2].steps, seqs[2].loss_mask)
        path = tmp_path / "d.jsonl"
        write_dataset(path, seqs)
        with pytest.raises(ParseError) as exc:
            ingest(path)
        assert exc.value.line == 4
        assert cli_dispatch(["evaluate", "--data", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: line 4: repeated id 's0'")

    @pytest.mark.parametrize("seq_id", [None, 3, [1, 2]], ids=["null", "int", "list"])
    def test_non_string_id_rejected_with_line(self, tmp_path, capsys, seq_id):
        # a stringified id would read null as "None" and clash 3 with "3"
        header = {"format_version": 1, "D": 2, "ordered": True, "section_name": ""}
        good = {"id": "3", "steps": [[0.5, 0.5], [0.25, 0.75]]}
        bad = {"id": seq_id, "steps": [[0.5, 0.5], [0.25, 0.75]]}
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(json.dumps(x) for x in (header, good, bad)) + "\n")
        message = f"line 3: id must be a JSON string, got {json.dumps(seq_id)}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            ingest(path)
        assert cli_dispatch(["evaluate", "--data", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_schema_version_mismatch(self, tmp_path):
        header = {"format_version": 99, "D": 2, "ordered": True, "section_name": ""}
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ParseError, match=r"^dataset format 99 \(supported: 1\)$") as exc:
            ingest(path)
        assert exc.value.line is None

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_format_version_must_be_the_integer_1(self, tmp_path, version):
        header = {"format_version": version, "D": 2, "ordered": True, "section_name": ""}
        row = {"id": "x", "steps": [[0.5, 0.5], [0.25, 0.75]]}
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(header) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(ParseError, match=rf"^dataset format {version} \(supported: 1\)$"):
            ingest(path)

    @pytest.mark.parametrize("entry", [True, False, "1e-1", None],
                             ids=["true", "false", "string", "null"])
    def test_non_number_step_rejected_with_line(self, tmp_path, capsys, entry):
        # numpy would read true as 1.0 and "1e-1" as 0.1
        header = {"format_version": 1, "D": 2, "ordered": True, "section_name": ""}
        good = {"id": "a", "steps": [[0.5, 0.5], [0.25, 0.75]]}
        bad = {"id": "b", "steps": [[0.5, 0.5], [entry, 0.75]]}
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(json.dumps(x) for x in (header, good, bad)) + "\n")
        with pytest.raises(ParseError, match="^line 3: steps must be JSON numbers$"):
            ingest(path)
        assert cli_dispatch(["evaluate", "--data", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: line 3: steps must be JSON numbers\n"

    def test_wrong_dim_rejected(self, tmp_path):
        header = {"format_version": 1, "D": 3, "ordered": True, "section_name": ""}
        row = {"id": "x", "steps": [[0.5, 0.5]], "loss_mask": []}
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(header) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(ParseError):
            ingest(path)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_value_rejected_with_line(self, tmp_path, capsys, bad):
        header = {"format_version": 1, "D": 3, "ordered": True, "section_name": ""}
        good = {"id": "a", "steps": [[0.2, 0.3, 0.5], [0.1, 0.1, 0.8]]}
        path = tmp_path / "d.jsonl"
        path.write_text(
            json.dumps(header) + "\n" + json.dumps(good) + "\n"
            + f'{{"id": "b", "steps": [[{bad}, 0.5, 0.5], [0.2, 0.3, 0.5]]}}\n'
        )
        with pytest.raises(ParseError) as exc:
            ingest(path)
        assert exc.value.line == 3
        assert cli_dispatch(["evaluate", "--data", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: line 3: steps must be finite")

    def test_negative_value_rejected_with_line(self, tmp_path, capsys):
        header = {"format_version": 1, "D": 3, "ordered": True, "section_name": ""}
        good = {"id": "a", "steps": [[0.2, 0.3, 0.5], [0.1, 0.1, 0.8]]}
        bad = {"id": "b", "steps": [[0.2, 0.3, 0.5], [0.6, -0.1, 0.5]]}
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in (header, good, bad)) + "\n")
        with pytest.raises(ParseError, match="^line 3: steps must be nonnegative$") as exc:
            ingest(path)
        assert exc.value.line == 3
        assert cli_dispatch(["evaluate", "--data", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: line 3: steps must be nonnegative\n"

    def test_negative_value_after_a_zero_mass_step_rejected(self, tmp_path):
        # a row is checked whole before its zero-mass steps drop it
        header = {"format_version": 1, "D": 3, "ordered": True, "section_name": ""}
        row = {"id": "b", "steps": [[0.0, 0.0, 0.0], [0.6, -0.1, 0.5]]}
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(header) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(ParseError, match="^line 2: steps must be nonnegative$"):
            ingest(path)
        row["steps"][1][1] = 0.1
        path.write_text(json.dumps(header) + "\n" + json.dumps(row) + "\n")
        assert ingest(path).dropped_rows == 1

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"D": "abc"}, "header D must be an integer >= 2, got 'abc'"),
            ({"D": True}, "header D must be an integer >= 2, got True"),
            ({"D": 1}, "header D must be an integer >= 2, got 1"),
            ({"ordered": "no"}, "header ordered must be true or false, got 'no'"),
            ({"section_name": ["x"]}, "header section_name must be a string"),
        ],
        ids=["D_string", "D_boolean", "D_below_2", "ordered_string", "section_name_list"],
    )
    def test_bad_header_value_rejected_at_line_1(self, tmp_path, capsys, field, message):
        header = {"format_version": 1, "D": 2, "ordered": True, "section_name": "", **field}
        row = {"id": "x", "steps": [[0.5, 0.5], [0.25, 0.75]]}
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(header) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(ParseError) as exc:
            ingest(path)
        assert exc.value.line == 1
        assert cli_dispatch(["evaluate", "--data", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: line 1: {message}")

    @pytest.mark.parametrize("mask", [["x"], [None], [1], "yes"])
    def test_non_boolean_loss_mask_rejected_with_line(self, tmp_path, capsys, mask):
        header = {"format_version": 1, "D": 2, "ordered": True, "section_name": ""}
        good = {"id": "a", "steps": [[0.5, 0.5], [0.25, 0.75]], "loss_mask": [True]}
        bad = {"id": "b", "steps": [[0.5, 0.5], [0.25, 0.75]], "loss_mask": mask}
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(json.dumps(x) for x in (header, good, bad)) + "\n")
        with pytest.raises(ParseError) as exc:
            ingest(path)
        assert exc.value.line == 3
        assert cli_dispatch(["evaluate", "--data", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: line 3: loss_mask must be a list of true/false"
        )

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_dataset(tmp_path / "d.jsonl", [])

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        write_json(tmp_path / "x.json", {"a": 1})
        assert sorted(os.listdir(tmp_path)) == ["x.json"]

    @seed(20261018)
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 4), t_len=st.integers(1, 6), d=st.integers(2, 6),
        ordered=st.booleans(), gz=st.booleans(), data_seed=st.integers(0, 2**32 - 1),
        section=st.text(max_size=8),
    )
    def test_round_trip_property(self, n, t_len, d, ordered, gz, data_seed, section):
        rng = np.random.default_rng(data_seed)
        seqs = [
            SimplexSeries(f"id{i}", ordered, rng.dirichlet(np.full(d, 0.5), size=t_len),
                          rng.random(t_len - 1) < 0.5)
            for i in range(n)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.jsonl.gz" if gz else "d.jsonl")
            write_dataset(path, seqs, section_name=section)
            res = ingest(path)
        assert (res.section_name, res.ordered, res.dim, res.dropped_rows) == (section, ordered, d, 0)
        assert [s.id for s in res.sequences] == [s.id for s in seqs]
        for a, b in zip(seqs, res.sequences):
            assert b.ordered == ordered
            np.testing.assert_allclose(b.steps, a.steps, rtol=0, atol=1e-12)
            assert np.array_equal(b.loss_mask, a.loss_mask)


# the `train --config` schema: key -> a strategy for values of its JSON type
_CONFIG_SCHEMA = {
    "variant": st.text(max_size=12),
    "feature_mode": st.text(max_size=12),
    "iters": st.integers(-10**6, 10**6),
    "batch_size": st.integers(-10**6, 10**6),
    "lr": st.floats(allow_nan=False, allow_infinity=False) | st.integers(-100, 100),
    "warmup": st.integers(-10**6, 10**6),
    "weight_decay": st.floats(allow_nan=False, allow_infinity=False) | st.integers(-100, 100),
}
_JSON_VALUES = {
    "str": st.text(max_size=6),
    "int": st.integers(-1000, 1000),
    "float": st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: x != int(x)),
    "bool": st.booleans(),
    "null": st.none(),
    "list": st.lists(st.integers(), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
# JSON types each key accepts (an int is a valid float)
_ACCEPTED = {
    "variant": {"str"}, "feature_mode": {"str"}, "iters": {"int"}, "batch_size": {"int"},
    "lr": {"int", "float"}, "warmup": {"int"}, "weight_decay": {"int", "float"},
}


def _load_run_config(path):
    """`load_run_config` with the keys and types that `train` passes it."""
    return load_run_config(path, cli._run_config_types())


def _write_config(tmp, raw):
    path = os.path.join(tmp, "cfg.json")
    with open(path, "w") as fh:
        json.dump(raw, fh)
    return path


class TestRunConfig:
    def test_load_valid(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"iters": 100, "lr": 0.01}))
        cfg = _load_run_config(path)
        assert cfg.get("iters") == 100
        assert cfg.get("missing", 7) == 7

    @seed(20261018)
    @settings(max_examples=60, deadline=None)
    @given(st.fixed_dictionaries({}, optional=_CONFIG_SCHEMA))
    def test_accepts_each_schema_key_with_its_type(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = _load_run_config(_write_config(tmp, raw))
        for key, value in raw.items():
            assert cfg.get(key) == value

    @seed(20261018)
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["train_path", "val_path", "test_path", "method", "seeds",
                            "context_len", "horizon", "max_examples", "out_dir"])
           | st.text(min_size=1, max_size=12).filter(lambda k: k not in _CONFIG_SCHEMA),
           st.sampled_from(sorted(_JSON_VALUES)).flatmap(lambda kind: _JSON_VALUES[kind]))
    def test_rejects_any_other_key(self, key, value):
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(ParseError, match="unknown config key"):
                _load_run_config(_write_config(tmp, {"iters": 3, key: value}))

    @seed(20261018)
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(_ACCEPTED)).flatmap(
        lambda key: st.tuples(st.just(key), st.sampled_from(
            sorted(set(_JSON_VALUES) - _ACCEPTED[key])).flatmap(lambda kind: _JSON_VALUES[kind]))))
    def test_rejects_any_other_type(self, key_value):
        key, value = key_value
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(ParseError, match=f"config key '{key}' must be"):
                _load_run_config(_write_config(tmp, {key: value}))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"itres": 100}))
        with pytest.raises(ParseError):
            _load_run_config(path)

    def test_wrong_type_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"iters": "many"}))
        with pytest.raises(ParseError):
            _load_run_config(path)


def _run(args):
    return cli_dispatch(args)


class TestCli:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert _run(["frobnicate"]) == 1

    def test_bad_flag_exits_1(self):
        assert _run(["evaluate", "--no-such-flag"]) == 1

    def test_missing_file_exits_1(self, tmp_path):
        assert _run(["evaluate", "--data", str(tmp_path / "nope.jsonl")]) == 1

    def test_simulate_queues_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = _run([
                "simulate-queues", "--section", "nonhomogeneous",
                "--systems", "12", "--arrivals", "60", "--replications", "20",
                "--seed", "7", "--split", "--out", str(out),
            ])
            assert code == 0
        for name in ("nonhomogeneous.jsonl", "nonhomogeneous_manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("flag,value,quantity", [
        ("--arrivals", "0", "arrivals"), ("--arrivals", "-3", "arrivals"),
        ("--replications", "0", "replications"), ("--replications", "-1", "replications"),
        ("--systems", "0", "systems"),
    ])
    def test_simulate_queues_rejects_bad_sizes(self, tmp_path, capsys, flag, value, quantity):
        argv = ["simulate-queues", "--section", "homogeneous", "--systems", "2",
                "--arrivals", "20", "--replications", "3", "--out", str(tmp_path)]
        argv[argv.index(flag) + 1] = value
        assert _run(argv) == 1
        err = capsys.readouterr().err
        assert f"number of {quantity} must be >= 1, got {value}" in err

    def test_simulate_queues_split_checks_size_before_simulating(
        self, tmp_path, capsys, monkeypatch
    ):
        from simplexcast import queue_sim

        def no_simulation(*args, **kwargs):
            raise AssertionError("a system was simulated")

        monkeypatch.setattr(queue_sim, "simulate_system", no_simulation)
        argv = ["simulate-queues", "--section", "homogeneous", "--systems", "9",
                "--split", "--out", str(tmp_path)]
        assert _run(argv) == 1
        assert capsys.readouterr().err == "error: need >= 10 systems, got 9\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,message", [
        (["simulate-queues", "--section", "homogeneous", "--seed", "-1"],
         "argument --seed: expected a non-negative integer, got '-1'"),
        (["train", "--data", "unused.jsonl", "--seed", "-1"],
         "argument --seed: expected a non-negative integer, got '-1'"),
        (["theory-check", "--seed", "-1"],
         "argument --seed: expected a non-negative integer, got '-1'"),
        (["aliasing-synthetic", "--seeds=-1"],
         "argument --seeds: expected non-negative integers, got '-1'"),
        (["aliasing-synthetic", "--seeds", "0,0", "--iters", "2", "--sequences", "8"],
         "argument --seeds: expected distinct seeds, got '0,0'"),
    ], ids=["simulate-queues", "train", "theory-check", "aliasing-synthetic",
            "repeated-seeds"])
    def test_negative_seed_rejected_at_parse_time(self, tmp_path, capsys, argv, message):
        assert _run(argv + ["--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_evaluate_persistence(self, rng, tmp_path):
        data = tmp_path / "d.jsonl"
        write_dataset(data, _seqs(rng), section_name="unit")
        code = _run(["evaluate", "--data", str(data), "--method", "persistence",
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "evaluate_persistence.json").read_text())
        assert payload["section"] == "unit"
        assert payload["metrics"]["kl"] >= 0

    def test_rollout_persistence(self, rng, tmp_path):
        data = tmp_path / "d.jsonl"
        write_dataset(data, _seqs(rng, t=10), section_name="unit")
        code = _run(["rollout", "--data", str(data), "--method", "persistence",
                     "--context", "4", "--horizon", "3", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "rollout_persistence.json").read_text())
        assert payload["metrics"]["n_examples"] == 3

    @pytest.mark.parametrize("command", ["evaluate", "rollout"])
    @pytest.mark.parametrize("method", ["analog", "var", "ets"])
    def test_fitted_baseline_needs_train(self, rng, tmp_path, capsys, command, method):
        # fitted on the split it scores, a baseline would be scored in-sample
        data = tmp_path / "d.jsonl"
        write_dataset(data, _seqs(rng, t=10), section_name="unit")
        out = tmp_path / "out"
        assert _run([command, "--data", str(data), "--method", method, "--out", str(out)]) == 1
        assert "--train" in capsys.readouterr().err
        assert not out.exists()

    def test_train_then_cast_evaluate(self, rng, tmp_path):
        data = tmp_path / "d.jsonl"
        write_dataset(data, _seqs(rng, n=4, t=8), section_name="unit")
        code = _run(["train", "--data", str(data), "--iters", "30",
                     "--warmup", "5", "--out", str(tmp_path)])
        assert code == 0
        ckpt = tmp_path / "model.ckpt"
        assert ckpt.exists()
        code = _run(["evaluate", "--data", str(data), "--method", "cast",
                     "--model", str(ckpt), "--out", str(tmp_path)])
        assert code == 0

    @staticmethod
    def _cast_checkpoint(rng, tmp_path):
        from simplexcast.model import CastParams, ModelConfig

        data = tmp_path / "d.jsonl"
        write_dataset(data, _seqs(rng, n=2, t=8), section_name="unit")
        ckpt = tmp_path / "model.ckpt"
        CastParams.init(ModelConfig(dim=4, ordered=True, window=2, d_r=4), seed=0).save(ckpt)
        argv = ["evaluate", "--data", str(data), "--method", "cast",
                "--model", str(ckpt), "--out", str(tmp_path)]
        assert _run(argv) == 0
        return ckpt, argv

    @pytest.mark.parametrize("key,value", [("rho_max", 3.0), ("window", 0),
                                           ("reg_weights", [5e-4, -1.0, 1e-4, 5e-4]),
                                           ("window", "8"), ("ordered", 1), ("budget", [0.25]),
                                           ("dim", None), ("dim", 7), ("lambda_op", True),
                                           ("ew_beta", float("nan")),
                                           ("budget", [0.25, 0.1, 0.0]), ("extra", 1),
                                           ("dim", 1), ("lambda_init", 1e300),
                                           ("rho_init", -1.0)])
    def test_cast_evaluate_rejects_bad_checkpoint_config(self, rng, tmp_path, key, value):
        ckpt, argv = self._cast_checkpoint(rng, tmp_path)
        # hand-edit the JSON header: magic, little-endian length, header, values;
        # value None deletes the key
        blob = ckpt.read_bytes()
        n = int.from_bytes(blob[4:8], "little")
        header = json.loads(blob[8 : 8 + n])
        header["config"][key] = value
        if value is None:
            del header["config"][key]
        edited = json.dumps(header, sort_keys=True).encode()
        ckpt.write_bytes(blob[:4] + len(edited).to_bytes(4, "little") + edited + blob[8 + n :])
        assert _run(argv) == 1

    @pytest.mark.parametrize(
        "edit", ["cut_100", "trailing_16", "entry_shape", "entry_name", "entry_order",
                 "entry_shape_float", "format_version_true", "format_version_float"]
    )
    def test_cast_evaluate_rejects_bad_checkpoint_layout(self, rng, tmp_path, edit):
        ckpt, argv = self._cast_checkpoint(rng, tmp_path)
        blob = ckpt.read_bytes()
        n = int.from_bytes(blob[4:8], "little")
        header = json.loads(blob[8 : 8 + n])
        if edit == "cut_100":
            blob = blob[:-100]
        elif edit == "trailing_16":
            blob = blob + b"\x00" * 16
        else:
            # same payload, so only the header checks can catch it
            if edit == "entry_shape":
                header["entries"][-1]["shape"] = [1, 3]
            elif edit == "entry_name":
                header["entries"][-1]["name"] = "bias"
            elif edit == "entry_shape_float":
                # equal to the layout's shape as numbers: only its JSON type is wrong
                header["entries"][0]["shape"] = [float(x) for x in header["entries"][0]["shape"]]
            elif edit.startswith("format_version"):
                header["format_version"] = True if edit.endswith("true") else 1.0
            else:
                # every name and shape kept; the payload is read in layout order
                header["entries"].reverse()
            edited = json.dumps(header, sort_keys=True).encode()
            blob = blob[:4] + len(edited).to_bytes(4, "little") + edited + blob[8 + n :]
        ckpt.write_bytes(blob)
        assert _run(argv) == 1

    def test_cast_evaluate_rejects_full_layout_of_a_smaller_config(self, rng, tmp_path, capsys):
        # an anchor-only header over the entries and payload of the layout
        # that stores every head, as earlier versions wrote it
        ckpt, argv = self._cast_checkpoint(rng, tmp_path)
        blob = ckpt.read_bytes()
        n = int.from_bytes(blob[4:8], "little")
        header = json.loads(blob[8 : 8 + n])
        header["config"]["variant"] = "anchor_only"
        edited = json.dumps(header, sort_keys=True).encode()
        ckpt.write_bytes(blob[:4] + len(edited).to_bytes(4, "little") + edited + blob[8 + n :])
        capsys.readouterr()
        assert _run(argv) == 1
        # F = (window + 2) * D + 2 = 18 features
        assert "file has w_rho (18,), layout has end of entries" in capsys.readouterr().err

    def test_cast_evaluate_rejects_per_head_retrieval_layout(self, rng, tmp_path, capsys):
        # the header that earlier versions wrote, one query and one key entry
        # per head, over the same payload: only the entry names and shapes
        # differ from the one (H, 2, F, d_r) entry
        ckpt, argv = self._cast_checkpoint(rng, tmp_path)
        blob = ckpt.read_bytes()
        n = int.from_bytes(blob[4:8], "little")
        header = json.loads(blob[8 : 8 + n])
        assert header["entries"][0] == {"name": "w_qk", "shape": [2, 2, 18, 4]}
        header["entries"][:1] = [{"name": f"{w}{m}", "shape": [18, 4]}
                                 for m in range(2) for w in ("wq", "wk")]
        edited = json.dumps(header, sort_keys=True).encode()
        ckpt.write_bytes(blob[:4] + len(edited).to_bytes(4, "little") + edited + blob[8 + n :])
        capsys.readouterr()
        assert _run(argv) == 1
        assert "file has wq0 (18, 4), layout has w_qk (2, 2, 18, 4)" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_cast_evaluate_rejects_non_finite_checkpoint_value(self, rng, tmp_path, capsys,
                                                                value):
        # one parameter of the payload's last entry made non-finite; evaluate
        # would otherwise write "kl": NaN, which is not JSON
        ckpt, argv = self._cast_checkpoint(rng, tmp_path)
        blob = ckpt.read_bytes()
        n = int.from_bytes(blob[4:8], "little")
        last = json.loads(blob[8 : 8 + n])["entries"][-1]["name"]
        ckpt.write_bytes(blob[:-8] + np.array([value], dtype="<f8").tobytes())
        out = tmp_path / "out"
        capsys.readouterr()
        assert _run(argv[:-1] + [str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: checkpoint parameter {last!r} holds a non-finite value\n"
        )
        assert not out.exists()

    def test_cast_rejects_checkpoint_for_other_data(self, rng, tmp_path, capsys):
        from simplexcast.model import CastParams, ModelConfig

        ckpt, argv = self._cast_checkpoint(rng, tmp_path)
        CastParams.init(ModelConfig(dim=5, ordered=True, window=2, d_r=4), seed=0).save(ckpt)
        capsys.readouterr()
        for command in ("evaluate", "rollout"):
            assert _run([command] + argv[1:]) == 1
            assert "checkpoint is for D=5" in capsys.readouterr().err

    def test_train_records_selection_split(self, rng, tmp_path, caplog):
        data = tmp_path / "d.jsonl"
        write_dataset(data, _seqs(rng, n=4, t=8), section_name="unit")
        base = ["train", "--data", str(data), "--iters", "4", "--warmup", "1"]
        with caplog.at_level("WARNING"):
            assert _run(base + ["--out", str(tmp_path / "a")]) == 0
        assert "training split" in caplog.text
        log_a = json.loads((tmp_path / "a" / "train_log.json").read_text())
        assert log_a["selected_on"] == "train"
        assert _run(base + ["--val", str(data), "--out", str(tmp_path / "b")]) == 0
        log_b = json.loads((tmp_path / "b" / "train_log.json").read_text())
        assert log_b["selected_on"] == "val"

    def test_train_rejects_unscored_validation_split(self, rng, tmp_path, capsys):
        data, val = tmp_path / "d.jsonl", tmp_path / "v.jsonl"
        write_dataset(data, _seqs(rng, n=4, t=8), section_name="unit")
        unscored = [SimplexSeries(s.id, True, s.steps, np.zeros(7, dtype=bool))
                    for s in _seqs(rng, n=2, t=8)]
        write_dataset(val, unscored, section_name="unit")
        out = tmp_path / "out"
        assert _run(["train", "--data", str(data), "--val", str(val), "--iters", "50",
                     "--out", str(out)]) == 1
        assert "error: validation split has no scored positions" in capsys.readouterr().err
        assert not (out / "model.ckpt").exists()

    def test_seed_study_records_selection_split(self, rng, tmp_path, caplog):
        data = tmp_path / "d.jsonl"
        write_dataset(data, _seqs(rng, n=4, t=8), section_name="unit")
        base = ["seed-study", "--data", str(data), "--test", str(data), "--iters", "3",
                "--seeds", "0,1"]
        with caplog.at_level("WARNING"):
            assert _run(base + ["--out", str(tmp_path / "a")]) == 0
        assert "training split" in caplog.text
        study_a = json.loads((tmp_path / "a" / "seed_study.json").read_text())
        assert study_a["selected_on"] == "train"
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert _run(base + ["--val", str(data), "--out", str(tmp_path / "b")]) == 0
        assert "training split" not in caplog.text
        study_b = json.loads((tmp_path / "b" / "seed_study.json").read_text())
        assert study_b["selected_on"] == "val"

    @pytest.mark.parametrize("test_flag, scored_on", [(False, "train"), (True, "test")],
                             ids=["no_test", "test"])
    def test_seed_study_records_scored_split(self, rng, tmp_path, caplog, test_flag, scored_on):
        # without --test the seeds are scored on the training split, with a
        # warning, as a missing --val selects on it
        data = tmp_path / "d.jsonl"
        write_dataset(data, _seqs(rng, n=4, t=8), section_name="unit")
        argv = ["seed-study", "--data", str(data), "--val", str(data), "--iters", "3",
                "--seeds", "0,1", "--out", str(tmp_path)]
        if test_flag:
            argv += ["--test", str(data)]
        with caplog.at_level("WARNING"):
            assert _run(argv) == 0
        warned = "no --test given: the seeds are scored on the training split" in caplog.text
        assert warned is not test_flag
        study = json.loads((tmp_path / "seed_study.json").read_text())
        assert study["scored_on"] == scored_on

    def test_seed_study_task_error_exits_1(self, rng, tmp_path, capsys, monkeypatch):
        # a training that fails in a worker is raised in the command, after
        # every worker has exited: exit 1, no report
        import multiprocessing

        from simplexcast import model

        def broken(*args):
            raise InvalidValue("broken training")

        monkeypatch.setattr(model, "train", broken)
        data = tmp_path / "d.jsonl"
        write_dataset(data, _seqs(rng, n=4, t=8), section_name="unit")
        argv = ["seed-study", "--data", str(data), "--iters", "3", "--seeds", "0,1,2",
                "--out", str(tmp_path / "out")]
        assert _run(argv) == 1
        assert capsys.readouterr().err == "error: broken training\n"
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "out" / "seed_study.json").exists()

    def test_theory_check_passes(self, tmp_path):
        code = _run(["theory-check", "--scenarios", "5", "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "theory_check.json").read_text())
        assert payload["pass"] is True
        assert set(payload["checks"]) == {
            "fixed_summary_identity", "pinsker_separation",
            "default_scenario", "retrieval_consistency",
        }

    def test_theory_check_writes_the_analysis_payload(self, tmp_path):
        assert _run(["theory-check", "--scenarios", "3", "--seed", "7",
                     "--out", str(tmp_path / "cli")]) == 0
        write_json(tmp_path / "direct.json", theory.theory_check(7, 3))
        written = (tmp_path / "cli" / "theory_check.json").read_bytes()
        assert written == (tmp_path / "direct.json").read_bytes()

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_theory_check_rejects_no_scenarios(self, tmp_path, capsys, value):
        assert _run(["theory-check", "--scenarios", value, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: --scenarios must be >= 1, got {value}\n"
        assert not (tmp_path / "theory_check.json").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_aliasing_synthetic_rejects_no_iters(self, tmp_path, capsys, value):
        assert _run(["aliasing-synthetic", "--iters", value, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: --iters must be >= 1, got {value}\n"
        assert not (tmp_path / "aliasing_synthetic.json").exists()

    @pytest.mark.parametrize("value", ["1", "0", "-3"])
    def test_aliasing_synthetic_rejects_too_few_sequences(self, tmp_path, capsys, value):
        assert _run(["aliasing-synthetic", "--sequences", value, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: --sequences must be >= 2, got {value}\n"
        assert not (tmp_path / "aliasing_synthetic.json").exists()

    @pytest.mark.parametrize("command", [
        ["aliasing-synthetic"], ["seed-study", "--data", "unused.jsonl"],
    ])
    @pytest.mark.parametrize("value", [",", "", "0,x", "1,,2"])
    def test_seeds_must_be_integers(self, tmp_path, capsys, command, value):
        assert _run(command + ["--seeds", value, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"argument --seeds: expected comma-separated integers, got {value!r}" in err
        assert "invalid literal" not in err

    def test_theory_check_reports_pinsker_violation(self, tmp_path, monkeypatch):
        # with every KL read as 0 the anchor-only excess falls below the
        # Pinsker separation: a failed check, reported and exit 2
        monkeypatch.setattr(theory, "kl", lambda p, q: np.zeros(len(p)))
        assert _run(["theory-check", "--scenarios", "3", "--out", str(tmp_path)]) == 2
        payload = json.loads((tmp_path / "theory_check.json").read_text())
        assert payload["pass"] is False
        assert payload["checks"]["pinsker_separation"]["violations"] >= 1
        assert payload["checks"]["pinsker_separation"]["pass"] is False

    def test_theory_check_reports_default_identity_failure(self, tmp_path, monkeypatch):
        # a numeric minimum 1e-7 off fails the one 1e-8 tolerance, in the
        # random scenarios and in the default scenario alike
        minimize = theory.numeric_fixed_summary_minimum
        monkeypatch.setattr(theory, "numeric_fixed_summary_minimum",
                            lambda *a, **kw: minimize(*a, **kw) + 1e-7)
        assert _run(["theory-check", "--scenarios", "3", "--out", str(tmp_path)]) == 2
        checks = json.loads((tmp_path / "theory_check.json").read_text())["checks"]
        assert checks["fixed_summary_identity"]["max_gap"] == pytest.approx(1e-7, rel=1e-6)
        assert checks["fixed_summary_identity"]["pass"] is False
        assert checks["default_scenario"]["pass"] is False

    def test_aliasing_synthetic_reports_identity_failure(self, tmp_path, monkeypatch):
        # the same offset fails the fixed-summary identity of aliasing-synthetic:
        # the report is written with the verdict false, and the exit code is 2
        minimize = theory.numeric_fixed_summary_minimum
        monkeypatch.setattr(theory, "numeric_fixed_summary_minimum",
                            lambda *a, **kw: minimize(*a, **kw) + 1e-7)
        assert _run(["aliasing-synthetic", "--seeds", "0", "--iters", "2", "--sequences", "8",
                     "--out", str(tmp_path)]) == 2
        checks = json.loads((tmp_path / "aliasing_synthetic.json").read_text())["checks"]
        assert checks["fixed_summary_identity"] is False

    def test_aliasing_synthetic_reports_a_worker_error(self, tmp_path, capsys, monkeypatch):
        # the forked workers inherit the patched train; its error reaches the
        # CLI as exit 1 with its message, and nothing is written or left running
        import multiprocessing

        from simplexcast import model

        def refused(*args, **kwargs):
            raise InvalidValue("refused in a worker")

        monkeypatch.setattr(model, "train", refused)
        assert _run(["aliasing-synthetic", "--seeds", "0,1", "--iters", "2", "--sequences", "8",
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: refused in a worker\n"
        assert not (tmp_path / "aliasing_synthetic.json").exists()
        assert multiprocessing.active_children() == []

    def test_module_runs_as_a_script(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        argv = [sys.executable, "-m", "simplexcast.cli", "theory-check", "--scenarios", "1"]
        done = subprocess.run(argv + ["--out", str(tmp_path)], env=env, capture_output=True)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "theory_check.json").exists()
        done = subprocess.run(argv + ["--no-such-flag"], env=env, capture_output=True)
        assert done.returncode == 1

    def test_theory_check_seed_32_passes(self, tmp_path):
        assert _run(["theory-check", "--seed", "32", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "theory_check.json").read_text())
        assert payload["pass"] is True
        assert payload["checks"]["fixed_summary_identity"]["max_gap"] < 1e-12

    def test_diagnose_aliasing(self, rng, tmp_path):
        data = tmp_path / "d.jsonl"
        write_dataset(data, _seqs(rng, n=4), section_name="unit")
        code = _run(["diagnose-aliasing", "--data", str(data), "--samples", "20",
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "aliasing_diagnostic.json").read_text())
        assert payload["severity"] in ("strong", "moderate", "weak")

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_diagnose_aliasing_rejects_no_samples(self, rng, tmp_path, capsys, value):
        data = tmp_path / "d.jsonl"
        write_dataset(data, _seqs(rng, n=4), section_name="unit")
        out = tmp_path / "out"
        assert _run(["diagnose-aliasing", "--data", str(data), "--samples", value,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --samples must be >= 1, got {value}\n"
        assert not (out / "aliasing_diagnostic.json").exists()

    def test_diagnose_aliasing_needs_two_sequences_with_a_transition(
        self, rng, tmp_path, capsys
    ):
        seqs = _seqs(rng, n=2)
        seqs[1] = SimplexSeries("s1", True, seqs[1].steps[:1], np.ones(0, dtype=bool))
        data = tmp_path / "d.jsonl"
        write_dataset(data, seqs, section_name="unit")
        code = _run(["diagnose-aliasing", "--data", str(data), "--out", str(tmp_path)])
        assert code == 1
        assert "two sequences with a transition" in capsys.readouterr().err

    @pytest.mark.parametrize("as_json", [False, True], ids=["wrote_lines", "json"])
    def test_stdout_names_every_written_file(self, tmp_path, capsys, as_json):
        # without --json stdout is one `wrote <path>` line per file, the
        # JSON report first; with --json it is the report alone
        out, results = tmp_path / "out", tmp_path / "results"
        results.mkdir()
        for method, v in (("m1", 0.1), ("m2", 0.2)):
            (results / f"{method}.json").write_text(json.dumps(
                {"method": method, "section": "secA", "metrics": {"kl": v}}))
        data = out / "homogeneous.jsonl"
        commands = [
            (["simulate-queues", "--section", "homogeneous", "--systems", "4", "--arrivals",
              "40", "--replications", "5"], "homogeneous_manifest.json", data),
            (["train", "--data", str(data), "--iters", "2"], "train_log.json",
             out / "model.ckpt"),
            (["report", "--results", str(results)], "ranks.json", out / "ranks.csv"),
        ]
        for argv, report, other in commands:
            assert _run(argv + ["--out", str(out)] + ["--json"] * as_json) == 0
            stdout = capsys.readouterr().out
            if as_json:
                payload = json.loads((out / report).read_text())
                assert stdout == json.dumps(payload, indent=2, sort_keys=True) + "\n"
            else:
                assert stdout == f"wrote {out / report}\nwrote {other}\n"

    def test_report_ranks(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        for method, vals in (("m1", (0.1, 0.3)), ("m2", (0.2, 0.2))):
            for section, v in zip(("secA", "secB"), vals):
                (results / f"{method}_{section}.json").write_text(json.dumps(
                    {"method": method, "section": section, "metrics": {"kl": v}}
                ))
        code = _run(["report", "--results", str(results), "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "ranks.json").read_text())
        assert payload["methods"] == ["m1", "m2"]
        csv_text = (tmp_path / "ranks.csv").read_text()
        assert csv_text.splitlines()[0] == "method,secA,secB,average_rank,top1"

    def test_report_ranks_rollout_in_its_own_column(self, tmp_path):
        # the evaluate KLs rank m1 first and the rollout KLs rank m2 first;
        # neither file may replace the other
        results = tmp_path / "results"
        results.mkdir()
        for method, ev, ro in (("m1", 0.1, 0.4), ("m2", 0.2, 0.3)):
            (results / f"evaluate_{method}.json").write_text(json.dumps(
                {"method": method, "section": "secA", "metrics": {"kl": ev}}
            ))
            (results / f"rollout_{method}.json").write_text(json.dumps(
                {"method": method, "section": "secA", "context_len": 8, "horizon": 4,
                 "metrics": {"kl": ro}}
            ))
        assert _run(["report", "--results", str(results), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "ranks.json").read_text())
        assert payload["methods"] == ["m1", "m2"]
        assert payload["sections"] == ["secA", "secA:rollout"]
        assert payload["ranks"] == [[1.0, 2.0], [2.0, 1.0]]
        csv_text = (tmp_path / "ranks.csv").read_text()
        assert csv_text.splitlines()[0] == "method,secA,secA:rollout,average_rank,top1"

    def test_report_on_readme_file_set(self, rng, tmp_path, capsys):
        # README's workflow evaluates and rolls out each method into one
        # directory; with only half of those files, report names the gap
        ckpt, _ = self._cast_checkpoint(rng, tmp_path)
        data = tmp_path / "d.jsonl"
        results = tmp_path / "eval"
        rollout = ["--context", "4", "--horizon", "3"]

        def run(command, method, extra=()):
            model = ["--model", str(ckpt)] if method == "cast" else []
            assert _run([command, "--data", str(data), "--method", method, *model,
                         *extra, "--out", str(results)]) == 0

        report = ["report", "--results", str(results), "--out", str(tmp_path / "report")]
        run("evaluate", "cast")
        run("rollout", "persistence", rollout)
        capsys.readouterr()
        assert _run(report) == 1
        err = capsys.readouterr().err
        assert "method 'cast' does not cover all sections: no unit:rollout" in err
        run("evaluate", "persistence")
        run("rollout", "cast", rollout)
        assert _run(report) == 0
        payload = json.loads((tmp_path / "report" / "ranks.json").read_text())
        assert payload["methods"] == ["cast", "persistence"]
        assert payload["sections"] == ["unit", "unit:rollout"]

    def test_report_skips_non_object_results(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "a.json").write_text(json.dumps([1, 2]))
        (results / "b.json").write_text(
            json.dumps({"method": "m1", "section": "secA", "metrics": {"kl": 0.1}})
        )
        assert _run(["report", "--results", str(results), "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "ranks.json").read_text())["methods"] == ["m1"]

    def test_report_truncated_result_file_exits_1(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "a.json").write_text('{"method":')
        assert _run(["report", "--results", str(results), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "a.json: not a JSON file" in err

    @pytest.mark.parametrize("field", [{"section": ["secA"]}, {"method": 3}])
    def test_report_non_string_method_or_section_exits_1(self, tmp_path, capsys, field):
        results = tmp_path / "results"
        results.mkdir()
        row = {"method": "m1", "section": "secA", "metrics": {"kl": 0.1}, **field}
        (results / "b.json").write_text(json.dumps(row))
        assert _run(["report", "--results", str(results), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "b.json: method and section must be strings" in err

    def test_report_non_number_metric_exits_1(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "b.json").write_text(
            json.dumps({"method": "m1", "section": "secA", "metrics": {"kl": "low"}})
        )
        assert _run(["report", "--results", str(results), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "b.json: metric 'kl' must be a number" in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_report_non_finite_metric_exits_1(self, tmp_path, capsys, value):
        results = tmp_path / "results"
        results.mkdir()
        for method, kl in (("m1", 0.1), ("m2", value)):
            row = {"method": method, "section": "secA", "metrics": {"kl": kl}}
            (results / f"{method}.json").write_text(json.dumps(row))
        out = tmp_path / "out"
        assert _run(["report", "--results", str(results), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "m2.json: metric 'kl' is not finite" in err
        assert not out.exists()

    def test_non_utf8_input_files_exit_1(self, rng, tmp_path, capsys):
        # a decoding failure is a ValueError; each reader reports it as bad input
        binary = b"\xff\xfe\x00\x81"
        data = tmp_path / "d.jsonl"
        write_dataset(data, _seqs(rng))
        (tmp_path / "bin.jsonl").write_bytes(binary)
        (tmp_path / "cfg.json").write_bytes(binary)
        results = tmp_path / "results"
        results.mkdir()
        (results / "a.json").write_bytes(binary)
        calls = [
            (["evaluate", "--data", str(tmp_path / "bin.jsonl")],
             f"error: {tmp_path / 'bin.jsonl'}: not a text file"),
            (["train", "--data", str(data), "--config", str(tmp_path / "cfg.json")],
             f"error: {tmp_path / 'cfg.json'}: bad config"),
            (["report", "--results", str(results)], "a.json: not a JSON file"),
        ]
        for argv, message in calls:
            assert _run(argv + ["--out", str(tmp_path / "out")]) == 1, argv
            assert message in capsys.readouterr().err, argv

    def test_non_utf8_train_file_names_itself(self, rng, tmp_path, capsys):
        # --data and --train are both datasets: the message says which one is bad
        data, fitted = tmp_path / "d.jsonl", tmp_path / "train.jsonl"
        write_dataset(data, _seqs(rng))
        fitted.write_bytes(b"\xff\xfe\x00\x81")
        assert _run(["evaluate", "--data", str(data), "--train", str(fitted),
                     "--method", "analog", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {fitted}: not a text file: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("command,flag,extra", [
        ("evaluate", "--train", ["--method", "analog"]),
        ("train", "--val", ["--iters", "1"]),
    ])
    def test_bad_row_in_split_file_names_its_flag(self, rng, tmp_path, capsys,
                                                   command, flag, extra):
        # the same row in --data reads "error: line 3: ..." (see above)
        data, split = tmp_path / "d.jsonl", tmp_path / "split.jsonl"
        write_dataset(data, _seqs(rng))
        header = {"format_version": 1, "D": 4, "ordered": True, "section_name": ""}
        good = {"id": "a", "steps": [[0.1, 0.2, 0.3, 0.4]] * 2}
        bad = {"id": "b", "steps": [[0.1, 0.2, 0.3, 0.4], [0.6, -0.1, 0.3, 0.2]]}
        split.write_text("\n".join(json.dumps(r) for r in (header, good, bad)) + "\n")
        assert _run([command, "--data", str(data), flag, str(split), *extra,
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: {flag} split.jsonl: line 3: steps must be nonnegative\n")

    def test_config_not_json_names_itself_and_line(self, rng, tmp_path, capsys):
        data, cfg = tmp_path / "d.jsonl", tmp_path / "cfg.json"
        write_dataset(data, _seqs(rng))
        cfg.write_text('{"iters": 2,\n')
        assert _run(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: line 2: {cfg}: bad config: Expecting")

    @pytest.mark.parametrize(
        "argv, wrong",
        [
            (["report", "--results", "{data}"], "{data}"),
            (["evaluate", "--data", "{dir}"], "{dir}"),
            (["train", "--data", "{data}", "--config", "{dir}"], "{dir}"),
            (["evaluate", "--data", "{data}", "--method", "cast", "--model", "{dir}"], "{dir}"),
        ],
        ids=["report_results_file", "evaluate_data_dir", "train_config_dir", "cast_model_dir"],
    )
    def test_path_of_the_wrong_kind_exits_1(self, rng, tmp_path, capsys, argv, wrong):
        paths = {"data": str(tmp_path / "d.jsonl"), "dir": str(tmp_path / "adir")}
        write_dataset(paths["data"], _seqs(rng))
        os.mkdir(paths["dir"])
        argv = [a.format(**paths) for a in argv]
        assert _run(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(wrong.format(**paths)) in err

    @pytest.mark.parametrize("command", ["train", "theory-check"])
    def test_out_naming_a_regular_file_exits_1(self, rng, tmp_path, capsys, command):
        data = tmp_path / "d.jsonl"
        write_dataset(data, _seqs(rng, n=4, t=8), section_name="unit")
        argv = {
            "train": ["train", "--data", str(data), "--iters", "2", "--warmup", "1"],
            "theory-check": ["theory-check", "--scenarios", "1"],
        }[command]
        afile = tmp_path / "afile"
        afile.write_text("kept")
        # the file itself, and a path under it
        for out in (afile, afile / "sub"):
            assert _run(argv + ["--out", str(out)]) == 1, out
            err = capsys.readouterr().err
            assert err.startswith("error: ") and repr(str(out)) in err, err
        assert afile.read_text() == "kept"
        assert sorted(os.listdir(tmp_path)) == ["afile", "d.jsonl"]

    def test_train_refuses_a_bad_out_before_it_trains(self, rng, tmp_path, capsys, monkeypatch):
        from simplexcast import model

        def refused(*args, **kwargs):
            raise AssertionError("trained before checking --out")

        monkeypatch.setattr(model, "train", refused)
        data = tmp_path / "d.jsonl"
        write_dataset(data, _seqs(rng, n=4, t=8), section_name="unit")
        afile = tmp_path / "afile"
        afile.write_text("kept")
        for out, error in ((afile, "File exists"), (afile / "sub", "Not a directory")):
            assert _run(["train", "--data", str(data), "--iters", "1000", "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: [Errno") and error in err and repr(str(out)) in err, err
        assert afile.read_text() == "kept"
        assert sorted(os.listdir(tmp_path)) == ["afile", "d.jsonl"]

    @pytest.mark.parametrize("damage", ["truncated", "not_gzip"])
    def test_corrupt_gzip_input_exits_1(self, rng, tmp_path, capsys, damage):
        import gzip

        data, cfg = tmp_path / "d.jsonl.gz", tmp_path / "cfg.json.gz"
        write_dataset(data, _seqs(rng))
        if damage == "truncated":
            data.write_bytes(data.read_bytes()[:-30])
            cfg.write_bytes(gzip.compress(b'{"iters": 2}')[:-8])
        else:
            data.write_bytes(gzip.decompress(data.read_bytes()))
            cfg.write_text('{"iters": 2}')
        good = tmp_path / "good.jsonl"
        write_dataset(good, _seqs(rng))
        for argv, path in [(["evaluate", "--data", str(data)], data),
                           (["train", "--data", str(good), "--config", str(cfg)], cfg)]:
            assert _run(argv + ["--out", str(tmp_path / "out")]) == 1, argv
            assert f"error: {path}: not a whole gzip file" in capsys.readouterr().err, argv
        with pytest.raises(ParseError):
            ingest(data)
        with pytest.raises(ParseError):
            _load_run_config(cfg)

    def test_internal_value_error_exits_2(self, tmp_path, capsys, monkeypatch):
        # only the package's own InvalidValue means bad input; any other
        # ValueError is a fault of the program
        import simplexcast.evaluate

        assert issubclass(InvalidValue, SimplexCastError) and issubclass(InvalidValue, ValueError)

        def broken(table):
            raise ValueError("boom")

        monkeypatch.setattr(simplexcast.evaluate, "rank_aggregate", broken)
        results = tmp_path / "results"
        results.mkdir()
        (results / "b.json").write_text(
            json.dumps({"method": "m1", "section": "secA", "metrics": {"kl": 0.1}})
        )
        assert _run(["report", "--results", str(results), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("runtime failure: boom")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["evaluate", "--method", "analog", "--train"], "--train"),
            (["train", "--iters", "1", "--val"], "--val"),
            (["seed-study", "--iters", "1", "--seeds", "0,1", "--test"], "--test"),
        ],
        ids=["evaluate_train", "train_val", "seed_study_test"],
    )
    def test_second_file_of_other_dimension_exits_1(self, rng, tmp_path, capsys, argv, flag):
        data, other = tmp_path / "d4.jsonl", tmp_path / "d3.jsonl"
        write_dataset(data, _seqs(rng, d=4))
        write_dataset(other, _seqs(rng, d=3))
        code = _run(argv + [str(other), "--data", str(data), "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"error: {flag} has D=3, ordered=True; --data has D=4, ordered=True" in (
            capsys.readouterr().err
        )

    def test_report_missing_metric_exits_1(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "b.json").write_text(
            json.dumps({"method": "m1", "section": "secA", "metrics": {"kl": 0.1}})
        )
        code = _run(["report", "--results", str(results), "--metric", "foo",
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "b.json has no metric 'foo'" in err

    def test_train_validation_ignores_training_ids(self, rng, tmp_path):
        # both files name their sequences system00000..system00004, as every
        # simulated section does; validation must score its own sequences
        from simplexcast.model import MAX_VAL_POSITIONS, CastParams, Split, evaluate_val_kl

        def section(path):
            seqs = [SimplexSeries(f"system{i:05d}", True, rng.dirichlet(np.ones(4), size=12),
                                  np.ones(11, dtype=bool)) for i in range(5)]
            write_dataset(path, seqs, section_name="unit")

        train_path, val_path = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
        section(train_path)
        section(val_path)
        assert _run(["train", "--data", str(train_path), "--val", str(val_path),
                     "--iters", "10", "--out", str(tmp_path)]) == 0
        (entry,) = json.loads((tmp_path / "train_log.json").read_text())["log"]
        params = CastParams.load(tmp_path / "model.ckpt")
        val = Split(ingest(val_path).sequences, params.cfg)
        fresh = evaluate_val_kl(val, params, MAX_VAL_POSITIONS)
        assert entry["val_kl"] == fresh

    def test_json_flag_prints_payload(self, rng, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        write_dataset(data, _seqs(rng), section_name="unit")
        code = _run(["evaluate", "--data", str(data), "--method", "persistence",
                     "--out", str(tmp_path), "--json"])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["section"] == "unit"

    def test_config_file_overrides_defaults(self, rng, tmp_path):
        data = tmp_path / "d.jsonl"
        write_dataset(data, _seqs(rng, n=4, t=8))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iters": 10, "warmup": 2}))
        code = _run(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "train_log.json").read_text())
        assert payload["log"][-1]["step"] == 10

    def test_flag_overrides_config_file(self, rng, tmp_path):
        data = tmp_path / "d.jsonl"
        write_dataset(data, _seqs(rng, n=4, t=8))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iters": 10, "warmup": 2}))
        code = _run(["train", "--data", str(data), "--config", str(cfg), "--iters", "4",
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "train_log.json").read_text())
        assert payload["log"][-1]["step"] == 4

    @pytest.mark.parametrize("argv,config,field", [
        (["--iters", "-5"], None, "iters"),
        (["--batch-size", "0"], None, "batch_size"),
        ([], '{"lr": NaN}', "lr"),
    ])
    def test_train_rejects_bad_train_config(self, rng, tmp_path, capsys, argv, config, field):
        data = tmp_path / "d.jsonl"
        write_dataset(data, _seqs(rng, n=4, t=8))
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
            argv = argv + ["--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "out"
        assert _run(["train", "--data", str(data), "--out", str(out)] + argv) == 1
        assert f"error: {field} must be" in capsys.readouterr().err
        assert not (out / "model.ckpt").exists()

    def test_config_only_on_train(self, rng, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        write_dataset(data, _seqs(rng, n=4, t=8))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iters": 2, "context_len": 8}))
        assert _run(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1
        assert "unknown config key 'context_len'" in capsys.readouterr().err
        cfg.write_text(json.dumps({"iters": 2}))
        for command in ("evaluate", "rollout", "diagnose-aliasing"):
            assert _run([command, "--data", str(data), "--config", str(cfg),
                         "--out", str(tmp_path)]) == 1

    def test_out_env_var_used(self, rng, tmp_path, monkeypatch):
        data = tmp_path / "d.jsonl"
        write_dataset(data, _seqs(rng), section_name="unit")
        dest = tmp_path / "envout"
        dest.mkdir()
        monkeypatch.setenv("SIMPLEXCAST_OUT", str(dest))
        code = _run(["evaluate", "--data", str(data), "--method", "persistence"])
        assert code == 0
        assert (dest / "evaluate_persistence.json").exists()


# ------------------------------------------------------------ golden outputs

# Outputs of `train`, `evaluate` and `rollout` on one small section, recorded
# before scoring became one pass per sequence. Cast scores computed for many
# rows at once may differ from one-row scores in the last ulp (BLAS rounds a
# row differently with the row count), so the cast metrics and the training
# log's validation KL are held to 1e-12 relative; every other output must
# keep its bytes. The checkpoint, the cast rollout and the training loss were
# re-recorded when retrieval, the operator and the KL loss became single tape
# nodes, whose backward passes round differently (parameters moved at most
# 6e-16). The checkpoint was re-recorded again when the retrieval weights
# became one `w_qk` entry of its header; its payload kept its bytes. The
# checkpoint, the cast rollout and the training loss were re-recorded once
# more when the loss became `metrics.kl`, the clipping norm one sum over the
# gradient and AdamW's bias corrections two scalars: parameters moved at most
# 4.4e-17 of the largest, the rollout metrics 3.1e-16 and the training loss
# 5.1e-16 relative; the cast metrics (1.6e-16) and the validation KL kept
# their pins.
PIPELINE_SHA256 = {
    "model.ckpt": "d1df8cabb7b525a73f31ddbee22b558e436e197a55fd28fdb1739c587d8797ac",
    "evaluate_persistence.json": "030ee353061e5c26b827eeb91342bd125d58fa49b05575657998d3acddb3134d",
    "evaluate_analog.json": "22485e5a1f6d4debfccdc5c57f92b4960e327b38aba086827b8bf0878dbcc79c",
    "evaluate_var.json": "13370bf9dffc2c3a21256b9e98327ab3dd7387dcd38b90c050cb0b8f36428f22",
    "evaluate_ets.json": "adc695a2de78eb424daadcc9470a54393668ec816044cc9c1a7f88eab0f823e9",
    "rollout_cast.json": "3fefee5db12ebc02ad9f63e9e91896fdf8f6672cd52de20c44c4341e9e4fe916",
}
PIPELINE_TRAIN_LOG = {
    "checkpoint": "model.ckpt",
    "log": [{"step": 30, "train_loss": 0.08158190995359661, "val_kl": 0.18841308686318572}],
    "selected_on": "train",
}
PIPELINE_CAST_METRICS = {
    "bray_curtis": 0.13251597031421491,
    "jsd": 0.02498961919860871,
    "kl": 0.12869737926016012,
    "l1": 0.26503194062842983,
    "w1": 0.17503902326023665,
}


def test_pipeline_golden_outputs(tmp_path):
    data = str(tmp_path / "nonhomogeneous.jsonl")
    ckpt = str(tmp_path / "model.ckpt")
    common = ["--seed", "0", "--out", str(tmp_path)]
    assert _run(["simulate-queues", "--section", "nonhomogeneous", "--systems", "10",
                 "--arrivals", "100", "--replications", "20", "--seed", "7",
                 "--out", str(tmp_path)]) == 0
    assert _run(["train", "--data", data, "--iters", "30"] + common) == 0
    for method in ("persistence", "analog", "var", "ets", "cast"):
        assert _run(["evaluate", "--data", data, "--train", data, "--method", method,
                     "--model", ckpt] + common) == 0
    assert _run(["rollout", "--data", data, "--method", "cast", "--model", ckpt] + common) == 0
    for name, digest in PIPELINE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    train_log = json.loads((tmp_path / "train_log.json").read_text())
    (entry,) = train_log.pop("log")
    (golden,) = PIPELINE_TRAIN_LOG["log"]
    assert train_log == {k: v for k, v in PIPELINE_TRAIN_LOG.items() if k != "log"}
    assert entry == {**golden, "val_kl": pytest.approx(golden["val_kl"], rel=1e-12)}
    metrics = json.loads((tmp_path / "evaluate_cast.json").read_text())["metrics"]
    assert metrics == pytest.approx(PIPELINE_CAST_METRICS, rel=1e-12)


# Outputs of the analysis commands and the four baseline rollouts on the same
# section, recorded before the baselines became one Predictor class each and
# the analyses returned their payloads; each must keep its bytes. The section's
# split manifest is pinned in test_queue_sim.py. seed_study.json was re-recorded
# when it gained its "scored_on" key, its only change, and again with the
# training step above: one per-seed metric moved 1.4e-16 relative, and the sd
# of the two seeds' jsd 2.4e-18 (1.4e-14 of itself).
ANALYSIS_SHA256 = {
    "aliasing_diagnostic.json": "67de06e576fc2a425236310ab9da72f6243d64082884699678428bb39cb6c1d5",
    "seed_study.json": "500ae78b0ed9805d4ea438dce897fbabe619037f4b9dee1dd375689bbca70f22",
    "theory_check.json": "60039f53294f08f5c2d994db56ae05f73b41961d6a5e03a38b9ee47d34bc1944",
    "rollout_persistence.json": "485697081bf10b86ae29421d75e21941618edea026822c6c06b2d31301cfd7b9",
    "rollout_analog.json": "c6d41cc0a71dd2fc193d160b9c0d2cee3fd58bf36b517c619e8149dd2e33fa22",
    "rollout_var.json": "286e9515bd86980faf6c5293a5a640d5440ed5ffd13adc94d02cc4a62aca53d8",
    "rollout_ets.json": "859769a1e05b5c7e9dca9cd42986b97d71f1c3e38e21273f6b5c6732ebf919b2",
}


def test_analysis_golden_outputs(tmp_path):
    data = str(tmp_path / "nonhomogeneous.jsonl")
    common = ["--seed", "0", "--out", str(tmp_path)]
    assert _run(["simulate-queues", "--section", "nonhomogeneous", "--systems", "10",
                 "--arrivals", "100", "--replications", "20", "--seed", "7",
                 "--out", str(tmp_path)]) == 0
    assert _run(["diagnose-aliasing", "--data", data] + common) == 0
    assert _run(["seed-study", "--data", data, "--iters", "5"] + common) == 0
    assert _run(["theory-check", "--scenarios", "3"] + common) == 0
    for method in ("persistence", "analog", "var", "ets"):
        assert _run(["rollout", "--data", data, "--train", data, "--method", method]
                    + common) == 0
    for name, digest in ANALYSIS_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# The `report` outputs of a results directory with tied ranks and a rollout
# column, recorded while the ranks were still returned as a RankMatrix.
RANKS_SHA256 = {
    "ranks.json": "3045b65eec4c73bffda1fe8699c7ef9bbc94f57e2714b9daea30288ee698c98d",
    "ranks.csv": "e941c3560c152212cd62e801bf6a35f67e98fa0614f81582e2334a9ab4f0f1f5",
}
RANKS_TABLE = {
    "analog": {"homogeneous": 0.31, "nonhomogeneous": 0.2, "nonhomogeneous:rollout": 0.5},
    "cast": {"homogeneous": 0.12, "nonhomogeneous": 0.2, "nonhomogeneous:rollout": 0.4},
    "ets": {"homogeneous": 0.12, "nonhomogeneous": 0.35, "nonhomogeneous:rollout": 0.45},
    "persistence": {"homogeneous": 0.4, "nonhomogeneous": 0.1, "nonhomogeneous:rollout": 0.4},
}


def test_report_golden_outputs(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    for method, columns in RANKS_TABLE.items():
        for column, value in columns.items():
            section, _, kind = column.partition(":")
            row = {"method": method, "section": section, "metrics": {"kl": value, "jsd": value / 4}}
            if kind:
                row.update(context_len=8, horizon=4)
            (results / f"{kind or 'evaluate'}_{method}_{section}.json").write_text(json.dumps(row))
    assert _run(["report", "--results", str(results), "--out", str(tmp_path / "out")]) == 0
    for name, digest in RANKS_SHA256.items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest, name
