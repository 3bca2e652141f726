"""Records goldens.json: for every input seed that runs at a range of
workload seeds, the sha256 of the files `simulate-queues` writes and every
quality number a full pass reports.

    python3 perfbench/record_goldens.py 0 52 [WORKLOAD ...]

Run it from the repository root, only when a change is meant to alter the
generated sections or the quality numbers; run.py checks these goldens on
every full-size run.  A failed check is printed and the numbers are recorded
all the same, so a known failure of the program stays visible in run.py.
"""
from __future__ import annotations

import fcntl
import json
import os
import sys

import run


def record(workload: str, seeds: list[int]) -> dict:
    body, section = run.WORKLOADS[workload]
    files = [f"{section}.jsonl", f"{section}_manifest.json"] if section else []
    out, synthetic = {}, {}
    for i, seed in enumerate(seeds):
        bench = run.Bench(workload, seed, run.SIZES["full"])
        work = os.path.join(run.WORK_ROOT, "goldens", workload, str(seed))
        run.prepare(work)
        # the synthetic experiment does not depend on the input seed: run it once
        p = run.Pass(bench, work, seed, full=i == 0)
        body(p)
        if i == 0:
            synthetic = {k: v for k, v in p.quality.items() if k.startswith("synthetic.")}
        out[str(seed)] = {"sha256": {name: run.sha256(p.path(name)) for name in files},
                          "quality": {**synthetic, **p.quality}}
        for failure in bench.failures:
            print(f"{workload} input seed {seed}: {failure}", file=sys.stderr)
        print(f"{workload} input seed {seed} recorded", flush=True)
    return out


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    workloads = argv[2:] or sorted(run.WORKLOADS)
    sys.path.insert(0, run.SRC)
    seeds = sorted({run.input_seed(s, k) for s in range(first, last + 1)
                    for k in range(run.INPUTS_PER_RUN)})
    recorded = {w: record(w, seeds) for w in workloads}
    path = os.path.join(run.HERE, "goldens.json")
    with open(path, "r+") as fh:  # locked, so recorders of other workloads may run alongside
        fcntl.flock(fh, fcntl.LOCK_EX)
        goldens = json.load(fh)
        for workload, entries in recorded.items():
            goldens.setdefault(workload, {}).update(entries)
        fh.seek(0)
        fh.truncate()
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
