"""Offline and rollout evaluation, rank aggregation, the aliasing
diagnostic, and the one multi-seed path of `seed-study` and `aliasing-synthetic`."""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidValue
from .metrics import jsd, l1, metric_report
from .simplex import history_windows


def _means(report) -> dict:
    """Per-metric mean over the rows of one `metric_report` block: a
    sequential sum in row order, divided by the row count."""
    return {name: float(sum(values) / len(values)) for name, values in report.items()}


def _ordered(seqs) -> bool:
    """The `ordered` flag of a split's sequences; disagreement is an InvalidValue."""
    if len(flags := {seq.ordered for seq in seqs}) > 1:
        raise InvalidValue("the sequences disagree on ordered")
    return True in flags


def evaluate_offline(predictor, seqs) -> dict:
    """Teacher-forced one-step evaluation: for every scored position t,
    predict from the true prefix steps[: t + 1] and score against the true
    successor. Predictions are never fed forward. The sequences with scored
    positions are forecast by one `predictor.predict_split` call (a CAST
    predictor scores them in packed blocks, a baseline one sequence at a
    time), whose rows, in split order, are scored against their successors
    as one `metric_report` block. Returns per-metric means over all scored
    positions."""
    ordered = _ordered(seqs)
    scored = [(seq, ts) for seq in seqs if len(ts := np.flatnonzero(seq.loss_mask))]
    if not scored:
        raise InvalidValue("no masked positions in the split")
    targets = np.concatenate([seq.steps[ts + 1] for seq, ts in scored])
    return _means(metric_report(targets, predictor.predict_split(*zip(*scored)), ordered))


@dataclass(frozen=True)
class RolloutConfig:
    context_len: int
    horizon: int
    max_examples: int = 1_000_000

    def __post_init__(self):
        if self.context_len < 1 or self.horizon < 1:
            raise InvalidValue("context_len and horizon must be >= 1")
        if self.max_examples < 1:
            raise InvalidValue("max_examples must be >= 1")


def evaluate_rollout(
    predictor, seqs, rc: RolloutConfig, final_step_only: bool = False
) -> dict:
    """Autoregressive evaluation: seed with the first context_len true steps,
    then feed each prediction back as the next input for `horizon` steps.
    The scored horizon rows of every example, stacked in example order, are
    one `metric_report` block. Metrics are averaged uniformly over all
    horizon steps and examples, or over the final horizon step only when
    final_step_only is set. Sequences shorter than context_len + horizon are
    skipped (and counted); example selection is deterministic by sorted
    sequence id. Returns the per-metric means plus n_examples and n_skipped."""
    eligible = sorted(
        (s for s in seqs if len(s.steps) >= rc.context_len + rc.horizon),
        key=lambda s: s.id,
    )
    n_skipped = len(seqs) - len(eligible)
    eligible = eligible[: rc.max_examples]
    if not eligible:
        raise InvalidValue(f"no sequence has length >= {rc.context_len + rc.horizon}")
    ordered = _ordered(seqs)
    first = rc.context_len + (rc.horizon - 1 if final_step_only else 0)
    targets, preds = [], []
    for seq in eligible:
        prefix = seq.steps[: rc.context_len].copy()
        for _ in range(rc.horizon):
            prefix = np.vstack([prefix, predictor.predict(prefix)])
        targets.append(seq.steps[first : rc.context_len + rc.horizon])
        preds.append(prefix[first:])
    out = _means(metric_report(np.concatenate(targets), np.concatenate(preds), ordered))
    out["n_examples"] = len(eligible)
    out["n_skipped"] = n_skipped
    return out


def rank_aggregate(table: dict) -> dict:
    """table maps method name -> {section name -> finite metric value}; every
    method must cover the same sections. Returns the sorted `methods` and
    `sections`, the (method, section) `ranks` (lower metric = rank 1; ties
    get the average of the ranks they span), each method's `average_rank`
    and its `top1_counts`, the sections where its rank is exactly the
    minimum, all as lists."""
    methods = sorted(table)
    if not methods:
        raise InvalidValue("empty results table")
    sections = sorted(set().union(*table.values()))
    for m in methods:
        missing = [s for s in sections if s not in table[m]]
        if missing:
            raise InvalidValue(
                f"method {m!r} does not cover all sections: no {', '.join(missing)}"
            )
    values = np.array([[table[m][s] for s in sections] for m in methods], dtype=np.float64)
    # per section: rank = #smaller + (#equal + 1) / 2, exact for finite values
    smaller = (values[None, :, :] < values[:, None, :]).sum(axis=1)
    equal = (values[None, :, :] == values[:, None, :]).sum(axis=1)
    ranks = smaller + (equal + 1) / 2.0
    top1 = (ranks == ranks.min(axis=0, keepdims=True)).sum(axis=1)
    return {
        "methods": methods,
        "sections": sections,
        "ranks": ranks.tolist(),
        "average_rank": ranks.mean(axis=1).tolist(),
        "top1_counts": top1.tolist(),
    }


@dataclass(frozen=True)
class DiagnosticThresholds:
    strong_successor_jsd: float = 0.01
    moderate_successor_jsd: float = 0.001
    max_neighbor_jsd: float = 0.05


def aliasing_diagnostic(
    seqs,
    n_samples: int = 500,
    thresholds: DiagnosticThresholds | None = None,
    window: int = 8,
    seed: int = 0,
) -> dict:
    """Measures how ambiguous the current distribution is as a predictor of
    the successor. For sampled (state, successor) pairs, finds the nearest
    cross-sequence state by current-distribution JSD and records both the
    neighbor JSD and the successor JSD, and returns their median and q90 as
    `neighbor_jsd` and `successor_jsd`, with `history_better_rate`,
    `n_samples` and `severity`. Each candidate sequence's states
    with a successor are scored as one block against the sampled state; ties
    go to the first minimum in sequence order, then position order, and
    sequences without a transition are never candidates. history_better_rate
    is the fraction of samples where the nearest neighbor by last-`window`
    history descriptor has a strictly closer successor than the nearest by
    current state (None when every successor gap ties, e.g. identical
    sequences)."""
    thresholds = thresholds or DiagnosticThresholds()
    if sum(len(seq.steps) >= 2 for seq in seqs) < 2:
        raise InvalidValue(
            "aliasing diagnostic needs at least two sequences with a transition"
        )
    rng = np.random.default_rng(seed)
    positions = [
        (i, t)
        for i, seq in enumerate(seqs)
        for t in range(len(seq.steps) - 1)
    ]
    take = min(n_samples, len(positions))
    chosen = [positions[k] for k in rng.choice(len(positions), size=take, replace=False)]

    # each sequence's descriptors once; row t reads only steps[: t + 1], so
    # the rows before the last are the descriptors of the states with a successor
    descs = [history_windows(seq.steps, window) for seq in seqs]
    neighbor_jsds, successor_jsds = [], []
    history_better, comparable = 0, 0
    for i, t in chosen:
        cur = seqs[i].steps[t]
        succ = seqs[i].steps[t + 1]
        best_cur = best_hist = None
        best_cur_d = best_hist_d = np.inf
        desc = descs[i][t]
        for j, other in enumerate(seqs):
            if j == i or len(other.steps) < 2:
                continue
            # one sequence's distances at a time keeps memory to one block;
            # a strict < keeps the first minimum across sequences
            d_cur = jsd(cur, other.steps[:-1])
            d_hist = l1(desc, descs[j][:-1])
            s_cur, s_hist = int(np.argmin(d_cur)), int(np.argmin(d_hist))
            if d_cur[s_cur] < best_cur_d:
                best_cur_d, best_cur = d_cur[s_cur], (j, s_cur)
            if d_hist[s_hist] < best_hist_d:
                best_hist_d, best_hist = d_hist[s_hist], (j, s_hist)
        nj, ns = best_cur
        neighbor_jsds.append(best_cur_d)
        succ_gap_cur = jsd(succ, seqs[nj].steps[ns + 1])
        successor_jsds.append(succ_gap_cur)
        hj, hs = best_hist
        succ_gap_hist = jsd(succ, seqs[hj].steps[hs + 1])
        if not np.isclose(succ_gap_hist, succ_gap_cur, atol=1e-12):
            comparable += 1
            if succ_gap_hist < succ_gap_cur:
                history_better += 1

    def quantiles(values):
        arr = np.asarray(values)
        return {
            "median": float(np.quantile(arr, 0.5)),
            "q90": float(np.quantile(arr, 0.9)),
        }

    succ_q = quantiles(successor_jsds)
    neigh_q = quantiles(neighbor_jsds)
    rate = history_better / comparable if comparable else None
    # aliasing is present when some near-identical states lead to clearly
    # different successors, so the upper-quantile successor gap is what is
    # classified, against the typical (median) neighbor gap
    if (
        succ_q["q90"] >= thresholds.strong_successor_jsd
        and neigh_q["median"] <= thresholds.max_neighbor_jsd
    ):
        severity = "strong"
    elif succ_q["q90"] >= thresholds.moderate_successor_jsd:
        severity = "moderate"
    else:
        severity = "weak"
    return {
        "neighbor_jsd": neigh_q,
        "successor_jsd": succ_q,
        "history_better_rate": rate,
        "n_samples": take,
        "severity": severity,
    }


def train_and_score(splits, task: tuple) -> dict:
    """Task (cfg, tc, seed) on splits (train, val, test): `model.train`, then
    `evaluate_offline` on test. The model is imported here, so that importing
    this module loads no tape."""
    from .baselines import CastPredictor
    from .model import train

    train_seqs, val_seqs, test_seqs = splits
    return evaluate_offline(CastPredictor(train(train_seqs, val_seqs, *task)[0]), test_seqs)


def _pool_map(fn, tasks: list) -> list:
    """fn over tasks on min(len(tasks), usable CPUs) forked workers (checked on Linux
    only), results in task order; a task's error is raised after every worker exits."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(tasks), len(affinity(0)) if affinity else os.cpu_count() or 1)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, tasks))


def seed_summary(per_seed: list) -> dict:
    """The per-metric `mean` and sample standard deviation `sd` (ddof 1) over
    per-seed metric dicts that share their names; a metric whose values all equal
    the first has that mean and sd 0.0 (`np.mean` of equal floats can miss by an ulp)."""
    vals = {name: np.array([row[name] for row in per_seed], dtype=np.float64)
            for name in per_seed[0]}
    tied = {name: len(v) == 1 or bool(np.all(v == v[0])) for name, v in vals.items()}
    return {"mean": {name: float(v[0] if tied[name] else v.mean()) for name, v in vals.items()},
            "sd": {name: 0.0 if tied[name] else float(v.std(ddof=1)) for name, v in vals.items()}}


def seed_study(splits, cfg, tc, seeds) -> dict:
    """Every seed's `train_and_score` task (cfg, tc, seed) on splits (train,
    val, test), on `_pool_map`'s workers. Returns the seeds, the per-seed
    metric dicts (`per_seed`), and their `seed_summary`."""
    per_seed = _pool_map(partial(train_and_score, splits), [(cfg, tc, seed) for seed in seeds])
    return {"seeds": seeds, "per_seed": per_seed, **seed_summary(per_seed)}
