"""In-memory span tracer, and the table of simplexcast functions it wraps.

The tracer patches public functions from outside the package, at the name
each caller looks up, so per-layer numbers come without editing `src/`.
A span records (name, start, end, parent); a layer's self time is its
duration minus the time its direct children cover.  Count hooks run on a
paused clock, so their cost never lands inside any span.
"""
from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextlib.contextmanager
    def untimed(self):
        """Bookkeeping whose time is cut out of every open span."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    def wrap(self, name, fn, before=None, after=None):
        """`before(counts, args, kwargs)` and `after(counts, args, kwargs, out)`
        update counts around the span."""

        def wrapper(*args, **kwargs):
            if before is not None:
                with self.untimed():
                    before(self.counts, args, kwargs)
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = self.now()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = self.now()
                self._stack.pop()
            if after is not None:
                with self.untimed():
                    after(self.counts, args, kwargs, out)
            return out

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, busy_s, self_s and the call durations."""
        covered = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent is not None:
                covered[parent] += t1 - t0
        out: dict = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []})
            s["calls"] += 1
            s["busy_s"] += t1 - t0
            s["self_s"] += t1 - t0 - covered[i]
            s["durations"].append(t1 - t0)
        return out

    def write(self, path: str) -> None:
        with open(path, "a") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")


def percentile_ms(durations, q: int) -> float:
    """q-th percentile in ms; 0.0 when the span never ran."""
    if len(durations) < 2:
        return 1e3 * durations[0] if durations else 0.0
    return 1e3 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


# ------------------------------------------------------------ count hooks


def _count_arrivals(counts, args, kwargs, out):
    counts["queue_sim.arrivals"] += args[0].n_arrivals


def _count_written(counts, args, kwargs, out):
    counts["io.write_dataset.bytes"] += os.path.getsize(args[0])


def _count_ingested(counts, args, kwargs, out):
    counts["io.ingest.rows"] += len(out.sequences)
    counts["io.ingest.dropped_rows"] += out.dropped_rows


def _count_batch(counts, args, kwargs):
    seqs, positions = args[0], args[1]
    cache = args[3] if len(args) > 3 else kwargs.get("feats_cache")
    seen = set(cache) if cache is not None else set()
    for seq_idx, t in positions:
        seq_id = seqs[seq_idx].id
        counts["model.feats_cache.hits"] += seq_id in seen
        if cache is not None:
            seen.add(seq_id)
        counts["model.batch_items"] += 1
        counts["model.mem_rows"] += t


def _count_tape(counts, args, kwargs, out):
    seen = {id(out)}
    stack = [out]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    counts["autodiff.tape_nodes"] += len(seen)


def _count_encode_rows(counts, args, kwargs):
    counts["baselines.cast.encode_rows"] += len(args[1])


def _count_positions(counts, args, kwargs, out):
    counts["evaluate.positions"] += sum(int(s.loss_mask.sum()) for s in args[1])


def targets():
    """(owner, attribute, span name, before hook, after hook) for every
    wrapped name, patched where its caller looks it up."""
    from simplexcast import (autodiff, baselines, cli, evaluate, io, model,
                             queue_sim, theory, transport)

    t = [
        (cli, "cli_dispatch", "cli.dispatch", None, None),
        (queue_sim, "simulate_system", "queue_sim.simulate_system", None, None),
        (queue_sim, "simulate_replication", "queue_sim.simulate_replication", None, _count_arrivals),
        (queue_sim, "lindley_departures", "queue_sim.lindley_departures", None, None),
        (queue_sim, "occupancy_on_grid", "queue_sim.occupancy_on_grid", None, None),
        (queue_sim, "sample_config", "queue_sim.sample_config", None, None),
        (model, "train", "model.train", None, None),
        (model, "gradient", "model.gradient", None, None),
        (model, "loss_var", "model.loss_var", None, _count_tape),
        (model, "make_batch", "model.make_batch", _count_batch, None),
        (model, "evaluate_val_kl", "model.evaluate_val_kl", None, None),
        (model, "encode_all", "model.encode_all", None, None),
        (model, "forward", "model.forward", None, None),
        (autodiff.Var, "backward", "autodiff.backward", None, None),
        (transport, "shift_mass", "transport.shift_mass", None, None),
        (baselines.CastPredictor, "predict", "baselines.cast.predict", _count_encode_rows, None),
        (baselines.AnalogPredictor, "predict", "baselines.analog.predict", None, None),
        (baselines.EtsPredictor, "predict", "baselines.ets.predict", None, None),
        (baselines.VarPredictor, "predict", "baselines.var.predict", None, None),
        (baselines.PersistencePredictor, "predict", "baselines.persistence.predict", None, None),
        (baselines, "build_analog_bank", "baselines.build_analog_bank", None, None),
        (baselines, "ets_fit", "baselines.ets_fit", None, None),
        (baselines, "ilr_var_fit", "baselines.ilr_var_fit", None, None),
        (baselines, "ilr_forward", "baselines.ilr_forward", None, None),
        (evaluate, "evaluate_offline", "evaluate.evaluate_offline", None, _count_positions),
        (evaluate, "evaluate_rollout", "evaluate.evaluate_rollout", None, None),
        (evaluate, "metric_report", "evaluate.metric_report", None, None),
        (evaluate, "aliasing_diagnostic", "evaluate.aliasing_diagnostic", None, None),
        (evaluate, "jsd", "evaluate.jsd", None, None),
    ]
    for owner in (io, cli):  # cli binds io's functions at import
        t.append((owner, "write_dataset", "io.write_dataset", None, _count_written))
        t.append((owner, "ingest", "io.ingest", None, _count_ingested))
    for name in ("run_synthetic_experiment", "build_aliasing_dataset", "fixed_summary_optimum",
                 "numeric_fixed_summary_minimum", "anchor_only_optimum",
                 "retrieval_consistency_check"):
        t.append((theory, name, f"theory.{name}", None, None))
    return t


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Patches every target for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, before, after in targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, before, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
