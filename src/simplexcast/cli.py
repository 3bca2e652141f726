"""Command-line interface tying together simulation, training, evaluation,
and the theory checks.

Exit codes: 0 success, 1 validation error (bad flags, config, or input
files), 2 runtime failure. `theory-check` also exits 2 when a check fails,
and `aliasing-synthetic` when the fixed-summary identity fails, each after
writing its report.
"""
from __future__ import annotations

import argparse
import csv
import errno
import io as _stdio
import json
import logging
import os
import sys
from typing import get_type_hints

import numpy as np

from .errors import ParseError, SimplexCastError
from .io import atomic_write, ingest, json_type_ok, load_run_config, write_dataset, write_json

log = logging.getLogger(__name__)

OUT_ROOT_ENV = "SIMPLEXCAST_OUT"


def _out_dir(args) -> str:
    if args.out:
        return args.out
    root = os.environ.get(OUT_ROOT_ENV)
    if root:
        return root
    return "."


def _refuse_out_dir(out: str) -> None:
    """Raises what `os.makedirs(out, exist_ok=True)` would when `out`, or
    the nearest of its parents that exists, is not a directory, creating
    nothing: a command checks --out before its work, not after it."""
    path = os.path.abspath(out)
    while not os.path.exists(path) and path != os.path.dirname(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        code = errno.EEXIST if path == os.path.abspath(out) else errno.ENOTDIR
        raise OSError(code, os.strerror(code), out)  # FileExistsError or NotADirectoryError


# the fields of ModelConfig and of TrainConfig that `train` sets from a flag
# or its --config file, and `seed-study` from the flags it defines
_RUN_CONFIG_KEYS = (("feature_mode", "variant"),
                    ("iters", "batch_size", "lr", "warmup", "weight_decay"))


def _run_config_types() -> dict:
    """Each `_RUN_CONFIG_KEYS` field and its annotated type."""
    from .model import ModelConfig, TrainConfig

    return {key: get_type_hints(cls)[key]
            for cls, keys in zip((ModelConfig, TrainConfig), _RUN_CONFIG_KEYS) for key in keys}


def _resolve(args, cfg_file: dict, keys) -> dict:
    """Keyword arguments for a config dataclass: a flag beats the config file,
    and a key set by neither (a flag the command lacks is unset) is left to the default."""
    out = {}
    for key in keys:
        value = getattr(args, key, None)
        if value is None:
            value = cfg_file.get(key)
        if value is not None:
            out[key] = value
    return out


def _ingest_like(path, data, flag: str):
    """`ingest(path)` of the `flag` file, which must match --data's D and
    ordered. A parse error that does not name the file already is prefixed
    with the flag and the file's name."""
    try:
        res = ingest(path)
    except ParseError as exc:
        if os.fspath(path) in str(exc):
            raise
        raise ParseError(f"{flag} {os.path.basename(path)}: {exc}") from exc
    if (res.dim, res.ordered) != (data.dim, data.ordered):
        raise SimplexCastError(f"{flag} has D={res.dim}, ordered={res.ordered}; "
                               f"--data has D={data.dim}, ordered={data.ordered}")
    return res


def _emit(args, payload, filename, *written) -> None:
    """Writes payload as `filename` in the output directory, and prints it (--json)
    or one `wrote <path>` line for that file and each other file the command wrote."""
    path = os.path.join(_out_dir(args), filename)
    write_json(path, payload)
    if args.json:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for wrote in (path, *written):
            print(f"wrote {wrote}")


def _train_prologue(args):
    """The --data split, the --val split (else --data) and its name, and the
    `_resolve`d ModelConfig and TrainConfig of `train` and `seed-study`."""
    from .model import ModelConfig, TrainConfig

    config = getattr(args, "config", None)
    cfg_file = load_run_config(config, _run_config_types()) if config else {}
    train_res = ingest(args.data)
    val_res, selected_on = _split_or_train(args, "--val", train_res, "model is selected")
    model_keys, train_keys = _RUN_CONFIG_KEYS
    mc = ModelConfig(dim=train_res.dim, ordered=train_res.ordered,
                     **_resolve(args, cfg_file, model_keys))
    return train_res, val_res, selected_on, mc, TrainConfig(**_resolve(args, cfg_file, train_keys))


# ------------------------------------------------------------ subcommands


def _cmd_simulate_queues(args) -> int:
    from .queue_sim import check_split_size, generate_section, split_systems

    if args.split:
        check_split_size(args.systems)  # before any system is simulated
    section = generate_section(
        args.section,
        n_systems=args.systems,
        master_seed=args.seed,
        n_arrivals=args.arrivals,
        n_replications=args.replications,
    )
    manifest = section.manifest(
        split_systems(section.systems, seed=args.seed)
        if args.split
        else None
    )
    data_path = os.path.join(_out_dir(args), f"{args.section}.jsonl")
    write_dataset(data_path, section.systems, section_name=args.section)
    _emit(args, manifest, f"{args.section}_manifest.json", data_path)
    return 0


def _data_and_predictor(args):
    """The prologue of `evaluate` and `rollout`: the scored split --data and
    the predictor of --method. A fitted baseline is fitted on --train and
    needs it: fitted on the scored split, the analog bank would hold the
    very windows it is queried with."""
    from .baselines import (
        CastPredictor,
        PersistencePredictor,
        build_analog_bank,
        ets_fit,
        ilr_var_fit,
    )
    from .model import CastParams

    fitters = {"analog": build_analog_bank, "var": ilr_var_fit, "ets": ets_fit}
    if args.method in fitters and not args.train:
        raise SimplexCastError(f"--method {args.method} is fitted on training data: give --train")
    data = ingest(args.data)
    if args.method in fitters:
        return data, fitters[args.method](_ingest_like(args.train, data, "--train").sequences)
    if args.method == "persistence":
        return data, PersistencePredictor()
    if not args.model:
        raise SimplexCastError("--model checkpoint required for method=cast")
    params = CastParams.load(args.model)
    if (params.cfg.dim, params.cfg.ordered) != (data.dim, data.ordered):
        raise SimplexCastError(
            f"checkpoint is for D={params.cfg.dim}, ordered={params.cfg.ordered}; "
            f"data has D={data.dim}, ordered={data.ordered}"
        )
    return data, CastPredictor(params)


def _split_or_train(args, flag: str, train_res, use: str):
    """The split of `flag` and its name, or else, with a warning, the
    training split: `use` is what the split is for."""
    if path := getattr(args, flag[2:]):
        return _ingest_like(path, train_res, flag), flag[2:]
    log.warning("no %s given: the %s on the training split", flag, use)
    return train_res, "train"


def _cmd_train(args) -> int:
    from .model import train

    train_res, val_res, selected_on, mc, tc = _train_prologue(args)
    params, train_log = train(train_res.sequences, val_res.sequences, mc, tc, args.seed)
    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)
    ckpt = os.path.join(out, "model.ckpt")
    params.save(ckpt)
    payload = {"log": train_log, "checkpoint": os.path.basename(ckpt), "selected_on": selected_on}
    _emit(args, payload, "train_log.json", ckpt)
    return 0


def _cmd_evaluate(args) -> int:
    from .evaluate import evaluate_offline

    data, predictor = _data_and_predictor(args)
    result = evaluate_offline(predictor, data.sequences)
    payload = {"method": args.method, "section": data.section_name, "metrics": result}
    _emit(args, payload, f"evaluate_{args.method}.json")
    return 0


def _cmd_rollout(args) -> int:
    from .evaluate import RolloutConfig, evaluate_rollout

    data, predictor = _data_and_predictor(args)
    rc = RolloutConfig(
        context_len=args.context, horizon=args.horizon, max_examples=args.max_examples
    )
    result = evaluate_rollout(
        predictor, data.sequences, rc, final_step_only=args.final_step
    )
    payload = {
        "method": args.method,
        "section": data.section_name,
        "context_len": rc.context_len,
        "horizon": rc.horizon,
        "metrics": result,
    }
    _emit(args, payload, f"rollout_{args.method}.json")
    return 0


def _cmd_aliasing_synthetic(args) -> int:
    from .theory import default_scenario, run_synthetic_experiment

    if args.iters is not None and args.iters < 1:
        raise SimplexCastError(f"--iters must be >= 1, got {args.iters}")
    if args.sequences < 2:
        raise SimplexCastError(f"--sequences must be >= 2, got {args.sequences}")
    result = run_synthetic_experiment(
        default_scenario(), args.seeds, args.sequences, args.iters
    )
    _emit(args, result, "aliasing_synthetic.json")
    # the trained rows' checks are reported only: short runs do not converge
    return 0 if result["checks"]["fixed_summary_identity"] else 2


def _cmd_theory_check(args) -> int:
    from .theory import theory_check

    if args.scenarios < 1:
        raise SimplexCastError(f"--scenarios must be >= 1, got {args.scenarios}")
    payload = theory_check(args.seed, args.scenarios)
    _emit(args, payload, "theory_check.json")
    return 0 if payload["pass"] else 2


def _cmd_diagnose_aliasing(args) -> int:
    from .evaluate import aliasing_diagnostic

    if args.samples < 1:
        raise SimplexCastError(f"--samples must be >= 1, got {args.samples}")
    data = ingest(args.data)
    report = aliasing_diagnostic(
        data.sequences, n_samples=args.samples, seed=args.seed
    )
    _emit(args, {"section": data.section_name, **report}, "aliasing_diagnostic.json")
    return 0


def _cmd_seed_study(args) -> int:
    from .evaluate import seed_study

    if len(args.seeds) < 2:  # before any file is read
        raise SimplexCastError("seed study needs at least two seeds")
    train_res, val_res, selected_on, mc, tc = _train_prologue(args)
    test_res, scored_on = _split_or_train(args, "--test", train_res, "seeds are scored")
    result = seed_study((train_res.sequences, val_res.sequences, test_res.sequences),
                        mc, tc, args.seeds)
    _emit(args, {**result, "selected_on": selected_on, "scored_on": scored_on},
          "seed_study.json")
    return 0


def _cmd_report(args) -> int:
    from .evaluate import rank_aggregate

    table: dict = {}
    for name in sorted(os.listdir(args.results)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(args.results, name)
        with open(path) as fh:
            try:
                row = json.load(fh)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ParseError(f"{path}: not a JSON file: {exc}") from exc
        if not json_type_ok(row, dict) or not {"method", "section", "metrics"} <= row.keys():
            continue
        if not (json_type_ok(row["method"], str) and json_type_ok(row["section"], str)):
            raise ParseError(f"{path}: method and section must be strings")
        metrics = row["metrics"]
        if not json_type_ok(metrics, dict) or args.metric not in metrics:
            raise SimplexCastError(f"{path} has no metric {args.metric!r}")
        value = metrics[args.metric]
        if not json_type_ok(value, float):
            raise ParseError(f"{path}: metric {args.metric!r} must be a number, got {value!r}")
        if not np.isfinite(value):
            raise ParseError(f"{path}: metric {args.metric!r} is not finite: {value!r}")
        # a rollout payload carries its horizon; it ranks in its own column
        section = f"{row['section']}:rollout" if "horizon" in row else row["section"]
        table.setdefault(row["method"], {})[section] = value
    if not table:
        raise SimplexCastError(f"no result files with metrics in {args.results}")
    payload = {"metric": args.metric, **rank_aggregate(table)}

    buf = _stdio.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["method"] + payload["sections"] + ["average_rank", "top1"])
    for method, ranks, average, top1 in zip(payload["methods"], payload["ranks"],
                                            payload["average_rank"], payload["top1_counts"]):
        writer.writerow([method] + [f"{r:g}" for r in ranks] + [f"{average:g}", str(top1)])
    csv_text = buf.getvalue()
    csv_path = os.path.join(_out_dir(args), "ranks.csv")
    atomic_write(csv_path, lambda fh: fh.write(csv_text))
    _emit(args, payload, "ranks.json", csv_path)
    return 0


# --------------------------------------------------------------- parser


def _seed(text: str) -> int:
    """The value of `--seed`: a non-negative integer, as numpy's seeding
    requires."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _seed_list(text: str) -> list[int]:
    """The value of `--seeds`: comma-separated distinct non-negative integers
    (a repeated seed would count one training twice in the mean and sd)."""
    try:
        seeds = [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if min(seeds) < 0:
        raise argparse.ArgumentTypeError(
            f"expected non-negative integers, got {text!r}"
        )
    if len(set(seeds)) < len(seeds):
        raise argparse.ArgumentTypeError(f"expected distinct seeds, got {text!r}")
    return seeds


def _add_scoring(sub):
    """The flags of `evaluate` and `rollout`: the scored split, the method,
    and the training split or checkpoint that the method needs."""
    sub.add_argument("--data", required=True)
    sub.add_argument("--train", default=None, help="training data that analog, var and ets "
                     "are fitted on (required for them)")
    sub.add_argument("--method", default="persistence",
                     choices=["persistence", "analog", "var", "ets", "cast"])
    sub.add_argument("--model", default=None, help="checkpoint for method=cast")


def _add_common(sub):
    sub.add_argument("--seed", type=_seed, default=0)
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument(
        "--json", action="store_true", help="also print the report to stdout"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexcast",
        description="Distribution-valued time-series forecasting toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sq = subs.add_parser("simulate-queues", help="generate a queue benchmark section")
    sq.add_argument("--section", choices=["homogeneous", "nonhomogeneous"], required=True)
    sq.add_argument("--systems", type=int, default=100)
    sq.add_argument("--arrivals", type=int, default=500)
    sq.add_argument("--replications", type=int, default=200)
    sq.add_argument("--split", action="store_true", help="include a train/val/test split")
    _add_common(sq)
    sq.set_defaults(func=_cmd_simulate_queues)

    tr = subs.add_parser("train", help="train the forecaster")
    tr.add_argument("--data", required=True)
    tr.add_argument("--val", default=None)
    # flag > --config > ModelConfig/TrainConfig default; None means "not given"
    tr.add_argument("--variant", default=None)
    tr.add_argument("--feature-mode", default=None, dest="feature_mode")
    tr.add_argument("--iters", type=int, default=None)
    tr.add_argument("--batch-size", type=int, default=None)
    tr.add_argument("--lr", type=float, default=None)
    tr.add_argument("--warmup", type=int, default=None)
    tr.add_argument("--weight-decay", type=float, default=None)
    tr.add_argument("--config", default=None, help="JSON run-config file")
    _add_common(tr)
    tr.set_defaults(func=_cmd_train)

    ev = subs.add_parser("evaluate", help="offline teacher-forced evaluation")
    _add_scoring(ev)
    _add_common(ev)
    ev.set_defaults(func=_cmd_evaluate)

    ro = subs.add_parser("rollout", help="autoregressive rollout evaluation")
    _add_scoring(ro)
    ro.add_argument("--context", type=int, default=8)
    ro.add_argument("--horizon", type=int, default=4)
    ro.add_argument("--max-examples", type=int, default=1_000_000)
    ro.add_argument("--final-step", action="store_true", dest="final_step",
                    help="score only the last horizon step")
    _add_common(ro)
    ro.set_defaults(func=_cmd_rollout)

    al = subs.add_parser("aliasing-synthetic", help="run the synthetic aliasing experiment")
    al.add_argument("--seeds", type=_seed_list, default="0,1,2")
    al.add_argument("--iters", type=int, default=None,
                    help="iterations of every trained row (default: per row)")
    al.add_argument("--sequences", type=int, default=240,
                    help="training sequences; validation n/4, evaluation n/2, at least 2 each")
    _add_common(al)
    al.set_defaults(func=_cmd_aliasing_synthetic)

    th = subs.add_parser("theory-check", help="numerical checks of the identifiability results")
    th.add_argument("--scenarios", type=int, default=50)
    _add_common(th)
    th.set_defaults(func=_cmd_theory_check)

    di = subs.add_parser("diagnose-aliasing", help="measure aliasing in a dataset")
    di.add_argument("--data", required=True)
    di.add_argument("--samples", type=int, default=500)
    _add_common(di)
    di.set_defaults(func=_cmd_diagnose_aliasing)

    ss = subs.add_parser("seed-study", help="multi-seed train + evaluate")
    ss.add_argument("--data", required=True)
    ss.add_argument("--val", default=None)
    ss.add_argument("--test", default=None)
    ss.add_argument("--variant", default=None)
    ss.add_argument("--iters", type=int, default=None)
    ss.add_argument("--seeds", type=_seed_list, default="0,1")
    _add_common(ss)
    ss.set_defaults(func=_cmd_seed_study)

    rp = subs.add_parser("report", help="rank table across methods and sections")
    rp.add_argument("--results", required=True, help="directory of evaluate/rollout JSON files")
    rp.add_argument("--metric", default="kl")
    _add_common(rp)
    rp.set_defaults(func=_cmd_report)

    return parser


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; the contract is 1 for validation errors
        return 0 if exc.code == 0 else 1
    try:
        _refuse_out_dir(_out_dir(args))
        return args.func(args)
    # a path missing or of the wrong kind is bad input; a full disk is not
    except (SimplexCastError, FileNotFoundError, FileExistsError, IsADirectoryError,
            NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    logging.basicConfig(level=logging.WARNING)
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
