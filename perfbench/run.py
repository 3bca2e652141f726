"""Benchmark of the simplexcast CLI pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload queue-cast --seed 7 --seconds 30 --trace 0

Every phase drives the package through `simplexcast.cli.cli_dispatch`, in
this process, and is timed from outside.  With `--trace 0` the run repeats
whole cycles of passes until `--seconds` is used up (at least MIN_CYCLES)
and reports end-to-end figures.  With `--trace 1` it runs one untraced pass and two
traced passes over the same inputs, and reports per-layer metrics.
Human-readable lines come first; the last stdout line is one JSON object.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere in this process
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath("src")
WORK_ROOT = os.path.abspath(".perfbench_work")
sys.path.insert(0, HERE)

from tracing import Tracer, instrumented, percentile_ms  # noqa: E402

LAZY_IMPORTS = ("simplexcast.cli", "simplexcast.queue_sim", "simplexcast.model",
                "simplexcast.baselines", "simplexcast.evaluate", "simplexcast.theory")
SETUP_REPEATS = 5
# A generated section's size varies widely with its seed (D from 6 to 35 over
# seeds 0-31), and so does the work on it.  An untraced run therefore makes
# whole cycles of one pass per input derived from the workload seed, so every
# input gets the same number of passes whatever the speed.  A phase's time is
# the mean over inputs of its median over that input's passes.  The second
# cycle repeats every input, so outputs can be compared byte for byte.
INPUTS_PER_RUN = 3
MIN_CYCLES = 2
MAX_CYCLES = 10
# quality numbers must equal their goldens within this (relative, absolute)
QUALITY_TOLERANCE = (1e-6, 1e-9)

# CLI sizes.  "full" is the benchmark; "tiny" only exercises the harness.
SIZES = {
    "full": {"systems": 10, "arrivals": 500, "replications": 200, "steps": 150, "iters": 100,
             "context": 120, "horizon": 4, "samples": 20, "synthetic": [], "theory": []},
    "tiny": {"systems": 10, "arrivals": 60, "replications": 20, "steps": 40, "iters": 5,
             "context": 8, "horizon": 2, "samples": 3,
             "synthetic": ["--iters", "5", "--sequences", "8"], "theory": ["--scenarios", "3"]},
}

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
# a per-layer name is "<span>.<field>" unless pass_layer_metrics derives it
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

# counts that two traced passes must reproduce exactly
EXACT_COUNTS = ("autodiff.tape_nodes_per_step", "model.mem_rows_per_step",
                "baselines.cast.encode_rows", "baselines.ilr_forward.calls",
                "evaluate.jsd.calls", "queue_sim.simulate_replication.calls")


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def input_seed(seed: int, k: int) -> int:
    """Seed of input k of a run at workload seed `seed`."""
    return seed * INPUTS_PER_RUN + k


def numbers(prefix: str, obj) -> dict[str, float]:
    """The numeric leaves of a JSON value, by dotted path (booleans are not
    numbers here)."""
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            out.update(numbers(f"{prefix}.{key}", value))
        return out
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return {prefix: obj}
    return {}


class Bench:
    """Counts operations (CLI calls and output checks) and failures."""

    def __init__(self, workload: str, seed: int, size: dict):
        self.workload, self.seed, self.size = workload, seed, size
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Pass:
    """One pass of a workload over the inputs of one seed: its phase times,
    quality numbers (checked against goldens) and output directory.  Only a
    `full` pass runs phases too slow to repeat within one run."""

    def __init__(self, bench: Bench, out: str, seed: int, full: bool):
        self.bench, self.out, self.seed, self.full = bench, out, seed, full
        self.phases: dict[str, float] = {}
        self.quality: dict[str, float] = {}

    @contextlib.contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + time.perf_counter() - t0

    def cli(self, *argv) -> None:
        from simplexcast import cli

        argv = [str(a) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.cli_dispatch(argv)  # looked up per call, so tracing sees it
        self.bench.check(code == 0, f"exit {code}: simplexcast {' '.join(argv)}")

    def path(self, *parts) -> str:
        return os.path.join(self.out, *parts)


# ------------------------------------------------------------- workloads


def simulate(p: Pass, section: str) -> None:
    """simulate-queues, then train/val/test files from the manifest.  Split
    files keep each sequence's first `steps` steps, so that the work after
    simulation does not depend on the generated lengths."""
    from simplexcast import io as sxio
    from simplexcast.simplex import SimplexSeries

    b, size = p.bench, p.bench.size
    with p.phase("simulate"):
        p.cli("simulate-queues", "--section", section, "--systems", size["systems"],
              "--arrivals", size["arrivals"], "--replications", size["replications"],
              "--seed", p.seed, "--split", "--out", p.out)
        split = {s["system_id"]: s["split"]
                 for s in read_json(p.path(f"{section}_manifest.json"))["systems"]}
        data = sxio.ingest(p.path(f"{section}.jsonl"))
        n = size["steps"]
        for part in ("train", "val", "test"):
            seqs = [SimplexSeries(s.id, s.ordered, s.steps[:n], s.loss_mask[: n - 1])
                    for s in data.sequences if split[s.id] == part]
            sxio.write_dataset(p.path(f"{part}.jsonl"), seqs, section_name=section)
    b.check(data.dropped_rows == 0, f"ingest dropped {data.dropped_rows} rows")


def report(p: Pass) -> None:
    """`report`, then every metric of every evaluate and rollout output."""
    with p.phase("report"):
        p.cli("report", "--results", p.path("eval"), "--metric", "kl", "--out", p.path("report"))
    for name in sorted(os.listdir(p.path("eval"))):
        p.quality.update(numbers(name.removesuffix(".json"),
                                 read_json(p.path("eval", name))["metrics"]))


def queue_cast(p: Pass) -> None:
    size, seed = p.bench.size, p.seed
    simulate(p, "nonhomogeneous")
    with p.phase("train"):
        p.cli("train", "--data", p.path("train.jsonl"), "--val", p.path("val.jsonl"),
              "--iters", size["iters"], "--seed", seed, "--out", p.path("model"))
    with p.phase("eval"):
        for method in ("persistence", "cast"):
            common = ("--data", p.path("test.jsonl"), "--method", method,
                      "--model", p.path("model", "model.ckpt"), "--out", p.path("eval"))
            p.cli("evaluate", *common)
            p.cli("rollout", *common, "--context", size["context"], "--horizon", size["horizon"])
    report(p)
    p.quality["train.val_kl"] = read_json(p.path("model", "train_log.json"))["log"][-1]["val_kl"]


def queue_baselines(p: Pass) -> None:
    size, seed = p.bench.size, p.seed
    simulate(p, "homogeneous")
    with p.phase("diagnose"):
        p.cli("diagnose-aliasing", "--data", p.path("train.jsonl"), "--samples", size["samples"],
              "--seed", seed, "--out", p.path("diagnose"))
    with p.phase("eval"):
        for method in ("persistence", "analog", "var", "ets"):
            p.cli("evaluate", "--data", p.path("test.jsonl"), "--train", p.path("train.jsonl"),
                  "--method", method, "--out", p.path("eval"))
    report(p)
    p.quality.update(numbers("diagnose", read_json(p.path("diagnose", "aliasing_diagnostic.json"))))


def aliasing_synthetic(p: Pass) -> None:
    """The synthetic experiment takes about half a minute: an untraced run
    times it once, in its first pass."""
    b = p.bench
    if p.full:
        with p.phase("synthetic"):
            p.cli("aliasing-synthetic", "--seeds", "0", *b.size["synthetic"],
                  "--out", p.path("synthetic"))
        result = read_json(p.path("synthetic", "aliasing_synthetic.json"))
        if b.size is SIZES["full"]:  # tiny runs are too short to converge
            for name, ok in sorted(result["checks"].items()):
                b.check(ok is True, f"aliasing-synthetic check {name} failed")
        for row in result["rows"]:
            p.quality.update(numbers(f"synthetic.{row['method']}", row))
    with p.phase("theory_check"):
        p.cli("theory-check", "--seed", p.seed, *b.size["theory"], "--out", p.path("theory"))
    result = read_json(p.path("theory", "theory_check.json"))
    b.check(result["pass"] is True, f"theory-check --seed {p.seed} reported pass: false")
    p.quality.update(numbers("theory", result["checks"]))


WORKLOADS = {
    "queue-cast": (queue_cast, "nonhomogeneous"),
    "queue-baselines": (queue_baselines, "homogeneous"),
    "aliasing-synthetic": (aliasing_synthetic, None),
}
# the quality numbers printed as end-to-end metrics, by the output they come from
HEADLINE_QUALITY = {
    "queue-cast": {"val_kl": "train.val_kl", "test_kl": "evaluate_cast.kl",
                   "rollout_jsd": "rollout_cast.jsd"},
    "queue-baselines": {"test_kl": "evaluate_analog.kl"},
    "aliasing-synthetic": {"test_kl": "synthetic.current_only_trained.kl_mean"},
}


# ---------------------------------------------------------------- checks


def output_digests(root: str) -> dict[str, str]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = sha256(path)
    return out


def check_repeats(bench: Bench, firsts: dict, passes: list) -> None:
    """Every output a pass writes equals, byte for byte, the output of the
    first pass over the same inputs."""
    digests = {p.out: output_digests(p.out) for p in passes}
    for p in passes:
        if p is firsts[p.seed]:
            continue
        first = digests[firsts[p.seed].out]
        for name in sorted(digests[p.out].keys() & first.keys()):
            bench.check(digests[p.out][name] == first[name], f"{p.out} changed {name}")


def check_goldens(bench: Bench, firsts: dict) -> list[int]:
    """Checks the section files' digests and every quality number of the
    first pass over each input against goldens.json.  Returns the input
    seeds that have no golden."""
    if bench.size is not SIZES["full"]:
        return []
    goldens = read_json(os.path.join(HERE, "goldens.json")).get(bench.workload, {})
    rel, abs_ = QUALITY_TOLERANCE
    missing = []
    for seed, p in sorted(firsts.items()):
        expected = goldens.get(str(seed))
        if expected is None:
            missing.append(seed)
            continue
        for name, digest in sorted(expected["sha256"].items()):
            bench.check(sha256(p.path(name)) == digest, f"{p.path(name)} differs from its golden")
        for name, value in sorted(p.quality.items()):
            want = expected["quality"].get(name)
            bench.check(want is not None and math.isclose(value, want, rel_tol=rel, abs_tol=abs_),
                        f"input seed {seed}: {name} = {value!r}, golden {want!r}")
    return missing


# ------------------------------------------------------------ set-up, info


def prepare(work: str) -> None:
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)


def measure_setup() -> float:
    """Median of fresh-process imports of every module the subcommands load."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import " + ", ".join(LAZY_IMPORTS)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def phase_times(passes: list) -> dict[str, float]:
    """Per phase, the mean over inputs of the median over each input's passes."""
    by_input: dict[int, list] = {}
    for p in passes:
        by_input.setdefault(p.seed, []).append(p)
    out = {}
    for name in dict.fromkeys(n for p in passes for n in p.phases):
        per_input = [statistics.median(p.phases[name] for p in ps if name in p.phases)
                     for ps in by_input.values() if any(name in p.phases for p in ps)]
        out[f"{name}_s"] = statistics.fmean(per_input)
    return out


def machine_info() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": openblas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# ---------------------------------------------------------- layer metrics


def pass_layer_metrics(spans: dict, c: dict) -> dict[str, float]:
    """Per-layer values of one traced pass (percentiles excepted), from its
    span summary and counts."""

    def get(span, field):
        return spans.get(span, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    derived = {
        "queue_sim.arrivals_per_s": ratio(c["queue_sim.arrivals"],
                                          get("queue_sim.simulate_replication", "busy_s")),
        "io.write_dataset.bytes": c["io.write_dataset.bytes"],
        "io.ingest.rows": c["io.ingest.rows"],
        "io.ingest.dropped_rows": c["io.ingest.dropped_rows"],
        "model.feats_cache.hit_ratio": ratio(c["model.feats_cache.hits"], c["model.batch_items"]),
        "model.mem_rows_per_step": ratio(c["model.mem_rows"], get("model.make_batch", "calls")),
        "autodiff.tape_nodes_per_step": ratio(c["autodiff.tape_nodes"], get("model.loss_var", "calls")),
        "baselines.cast.encode_rows": c["baselines.cast.encode_rows"],
        "evaluate.positions": c["evaluate.positions"],
    }
    out = {}
    for name, _ in PER_LAYER:
        span, field = name.rsplit(".", 1)
        if name in derived:
            out[name] = float(derived[name])
        elif field in ("calls", "busy_s", "self_s"):
            out[name] = float(get(span, field))
    return out


def layer_metrics(bench: Bench, tracers, summaries, untraced_wall: float, traced_walls) -> dict:
    per_pass = [pass_layer_metrics(s, t.counts) for s, t in zip(summaries, tracers)]
    for name in EXACT_COUNTS:
        values = [m[name] for m in per_pass]
        bench.check(len(set(values)) == 1, f"{name} differs between traced passes: {values}")
    out = {}
    for name, unit in PER_LAYER:
        span, field = name.rsplit(".", 1)
        if name == "bench.trace_overhead_ratio":
            value = statistics.fmean(traced_walls) / untraced_wall
        elif field in ("p50_ms", "p95_ms"):
            durations = [d for s in summaries for d in s.get(span, {}).get("durations", [])]
            value = percentile_ms(durations, int(field[1:3]))
        elif unit in ("s", "1/s"):
            value = statistics.fmean(m[name] for m in per_pass)
        else:
            value = per_pass[0][name]
        out[name] = {"value": value, "unit": unit}
    return out


# ------------------------------------------------------------------ main


def run(args) -> dict:
    size = SIZES[args.size]
    bench = Bench(args.workload, args.seed, size)
    body, _ = WORKLOADS[args.workload]
    work = os.path.join(WORK_ROOT, args.workload)

    prepare(work)  # drops earlier outputs before anything is timed
    setup_s = measure_setup()
    for module in LAZY_IMPORTS:  # so that no timed pass pays for an import
        __import__(module)
    machine = machine_info()

    passes: list[Pass] = []
    tracers = []

    def one_pass(seed: int, tracer=None) -> float:
        p = Pass(bench, os.path.join(work, f"pass{len(passes)}"), seed,
                 full=args.trace or not passes)
        t0 = time.perf_counter()
        try:
            with instrumented(tracer) if tracer else contextlib.nullcontext():
                body(p)
        except (OSError, LookupError, ValueError) as exc:  # outputs missing after a failed call
            bench.check(False, f"pass {len(passes)} stopped: {exc!r}")
        passes.append(p)
        return time.perf_counter() - t0

    if args.trace:  # every pass over the same inputs, so counts must repeat
        seed = input_seed(args.seed, 0)
        one_pass(seed)
        for k in (1, 2):
            tracers.append(Tracer(f"{args.workload}-seed{args.seed}-pass{k}"))
            one_pass(seed, tracers[-1])
    else:
        deadline = time.perf_counter() + args.seconds
        for cycle in range(1, MAX_CYCLES + 1):
            took = sum(one_pass(input_seed(args.seed, k)) for k in range(INPUTS_PER_RUN))
            if cycle >= MIN_CYCLES and time.perf_counter() + took > deadline:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    firsts = {}
    for p in passes:
        firsts.setdefault(p.seed, p)
    no_golden = check_goldens(bench, firsts)
    check_repeats(bench, firsts, passes)
    quality = {}
    for name, source in HEADLINE_QUALITY[args.workload].items():
        values = [p.quality[source] for p in firsts.values() if source in p.quality]
        bench.check(bool(values) and all(map(math.isfinite, values)),
                    f"{name} is missing or not finite: {values}")
        if values:
            quality[name] = statistics.fmean(values)

    phases = phase_times(passes[:1] if args.trace else passes)
    wall_s = sum(phases.values())

    result = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "machine": machine, "passes": [{"input_seed": p.seed, **p.phases} for p in passes],
        "no_golden": no_golden,
        "end_to_end": {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
                       **phases, **quality},
    }
    if args.trace:
        traced_walls = [sum(p.phases.values()) for p in passes[1:]]
        summaries = [t.summary() for t in tracers]
        result["per_layer"] = layer_metrics(bench, tracers, summaries, wall_s, traced_walls)
        result["tracing"] = {
            "untraced_wall_s": wall_s, "traced_wall_s": traced_walls,
            "self_time_total_s": [sum(v["self_s"] for v in s.values()) for s in summaries],
        }
        spans_path = os.path.join(work, "spans.jsonl")
        for t in tracers:
            t.write(spans_path)
    result["end_to_end"]["error_rate"] = len(bench.failures) / bench.attempted
    result["attempted"] = bench.attempted
    result["failures"] = bench.failures
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    return result


E2E_UNITS = {"val_kl": "nats", "test_kl": "nats", "rollout_jsd": "nats",
             "error_rate": "ratio", "peak_rss_mb": "MB"}


def print_result(result: dict) -> None:
    print(f"{result['workload']} seed={result['seed']} size={result['size']} "
          f"trace={result['trace']} passes={len(result['passes'])}")
    if result["no_golden"]:
        print(f"WARNING: no golden recorded for input seeds {result['no_golden']}: "
              "their outputs are checked for repeats only")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print("end-to-end (untraced):")
    for name, value in result["end_to_end"].items():
        print(f"  {name} {value!r} {E2E_UNITS.get(name, 's')}")
    if "per_layer" in result:
        print("per-layer (traced):")
        for name, m in result["per_layer"].items():
            print(f"  {name} {m['value']!r} {m['unit']}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    if result["trace"]:
        metrics = result["per_layer"]
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": not result["failures"], "attempted": result["attempted"],
                      "failed": len(result["failures"]), "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "simplexcast", "cli.py")):
        print(f"error: no simplexcast sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    print_result(run(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
