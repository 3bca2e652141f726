"""Tiny-size self-test of the benchmark harness (about two minutes).

    python3 perfbench/selftest.py

Runs every workload at the "tiny" size, untraced and traced, and checks
that: the last stdout line has the result keys and exactly the metrics
BENCHMARK.json declares, with their units; every metric listed below, and
every per-layer metric, is printed with its unit; per-layer self times
add up to the traced wall time within the measured tracing overhead; and a
directory holding only the benchmark files makes run.py fail without
printing a result.
"""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

# end-to-end metrics each workload must print (error_rate included)
E2E = {
    "queue-cast": ["setup_s", "wall_s", "simulate_s", "train_s", "eval_s", "peak_rss_mb",
                   "error_rate", "val_kl", "test_kl", "rollout_jsd"],
    "queue-baselines": ["setup_s", "wall_s", "simulate_s", "diagnose_s", "eval_s",
                        "peak_rss_mb", "error_rate", "test_kl"],
    "aliasing-synthetic": ["setup_s", "wall_s", "synthetic_s", "theory_check_s",
                           "peak_rss_mb", "error_rate", "test_kl"],
}
# share of the traced wall time the harness itself may spend outside spans
GLUE_TOLERANCE = 0.05

LINE = re.compile(r"^  (\S+) (\S+) (\S+)$")


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in sorted(E2E):
        for trace in (0, 1):
            tag = f"{workload} trace={trace}"
            proc = run_bench(ROOT, workload, trace)
            check(proc.returncode == 0, f"{tag}: exit code {proc.returncode} {proc.stderr[-300:]}")
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                continue
            last = json.loads(lines[-1])
            check(sorted(last) == ["attempted", "correct", "failed", "metrics"], f"{tag}: result keys")
            check(last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1,
                  f"{tag}: correct with {last['attempted']} operations")
            units = {n: m["unit"] for n, m in last["metrics"].items()}
            check(units == declared[trace], f"{tag}: metrics match BENCHMARK.json")
            printed = {m.group(1): m.group(3) for m in map(LINE.match, lines) if m}
            expected = E2E[workload] + (list(declared[1]) if trace else [])
            missing = [n for n in expected if n not in printed]
            check(not missing, f"{tag}: every metric printed with its unit {missing}")
            wrong = [n for n, unit in declared[trace].items() if printed.get(n) != unit]
            check(not wrong, f"{tag}: printed units match BENCHMARK.json {wrong}")
            if trace:
                with open(os.path.join(ROOT, ".perfbench_work", workload, "result.json")) as fh:
                    tracing = json.load(fh)["tracing"]
                untraced = tracing["untraced_wall_s"]
                for wall, self_total in zip(tracing["traced_wall_s"], tracing["self_time_total_s"]):
                    overhead = max(wall - untraced, 0.0)
                    gap = wall - self_total
                    check(0.0 <= gap <= overhead + GLUE_TOLERANCE * wall,
                          f"{tag}: self times {self_total:.4f}s vs traced wall {wall:.4f}s "
                          f"(overhead {overhead:.4f}s)")

    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_bench(bare, "queue-cast", 0)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"bare directory: exit code {proc.returncode}, no result printed")
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
