"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line.

Criterion 9 reproduces a direction (trend), not a number; when the trend
does not hold it is logged for investigation rather than hard-failing,
matching its contract. Every other criterion is a hard gate.
"""
import heapq
import json
import os
import time
from collections import deque

import numpy as np
import pytest
from scipy.optimize import linprog

from simplexcast.cli import cli_dispatch
from simplexcast.metrics import jsd, kl, l1, w1_ordered
from simplexcast.model import (
    CastParams,
    ModelConfig,
    Split,
    TrainConfig,
    gradient,
    make_batch,
    train,
)
from simplexcast.queue_sim import (
    QueueConfig,
    ServiceTimeFamily,
    generate_section,
    lindley_departures,
    simulate_system,
    split_systems,
)
from simplexcast.simplex import SimplexSeries, normalize
from simplexcast.theory import (
    anchor_only_optimum,
    default_scenario,
    fixed_summary_optimum,
    numeric_fixed_summary_minimum,
    pinsker_separation,
    random_scenario,
    retrieval_consistency_check,
    run_synthetic_experiment,
    build_aliasing_dataset,
)
from simplexcast.transport import BudgetParams, cast_step
from simplexcast.baselines import CastPredictor, PersistencePredictor
from simplexcast.evaluate import RolloutConfig, evaluate_offline, evaluate_rollout

from conftest import convex_mix, loss, pinsker_lower_bound, random_dist
from transport_reference import budget, mean_support


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\ncriterion {number:2d} [{status}] {name}{suffix}")


# ------------------------------------------------------------ criterion 1


def test_criterion_1_fixed_summary_identity():
    rng = np.random.default_rng(101)
    t0 = time.time()
    max_gap = 0.0
    for _ in range(1000):
        s = random_scenario(rng, int(rng.integers(2, 7)), int(rng.integers(2, 5)))
        _, analytic = fixed_summary_optimum(s)
        numeric = numeric_fixed_summary_minimum(s, n_starts=12)
        max_gap = max(max_gap, abs(numeric - analytic))
    elapsed = time.time() - t0
    ok = max_gap < 1e-6 and elapsed < 60
    _report(1, "weighted-JS identity on 1000 scenarios", ok,
            f"max gap {max_gap:.2e}, {elapsed:.1f}s")
    assert max_gap < 1e-6
    assert elapsed < 60


# ------------------------------------------------------------ criterion 2


def test_criterion_2_pinsker_separation():
    rng = np.random.default_rng(202)
    t0 = time.time()
    violations = 0
    for _ in range(1000):
        s = random_scenario(rng, int(rng.integers(3, 7)), int(rng.integers(2, 5)))
        excess, deltas = anchor_only_optimum(s)
        if excess < pinsker_separation(s, deltas) - 1e-9:
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 300
    _report(2, "Pinsker separation on 1000 scenarios", ok,
            f"{violations} violations, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 300


# ------------------------------------------------------------ criterion 3


@pytest.mark.slow
def test_criterion_3_synthetic_experiment_structure():
    t0 = time.time()
    result = run_synthetic_experiment(
        default_scenario(), seeds=[0, 1, 2, 3, 4]
    )
    elapsed = time.time() - t0
    checks = result["checks"]
    rows = {r["method"]: r for r in result["rows"]}
    ok = all(checks.values()) and result["delta_positive"] and elapsed < 600
    _report(
        3, "synthetic experiment ordering and gaps", ok,
        f"fixed {rows['fixed_summary_optimum']['kl_mean']:.4e}, "
        f"current-only {rows['current_only_trained']['kl_mean']:.4e}, "
        f"anchor-only {rows['anchor_only_trained']['kl_mean']:.4e}, "
        f"cast {rows['cast_trained']['kl_mean']:.2e}, {elapsed:.0f}s",
    )
    assert checks["oracle_exact"], "regime-aware oracle must be exact"
    assert checks["current_only_within_1pct"], (
        f"current-only {rows['current_only_trained']['kl_mean']} vs "
        f"optimum {rows['fixed_summary_optimum']['kl_mean']}"
    )
    assert checks["cast_near_zero"], f"cast KL {rows['cast_trained']['kl_mean']}"
    assert checks["anchor_only_geq_fixed"]
    assert result["delta_positive"]
    assert elapsed < 600


# ------------------------------------------------------------ criterion 4


def _flatten(values):
    return np.concatenate([values[k].ravel() for k in sorted(values)])


def _unflatten(params, flat):
    out = params.copy()
    i = 0
    for k in sorted(out.values):
        n = out.values[k].size
        out.values[k][...] = flat[i : i + n].reshape(out.values[k].shape)
        i += n
    return out


def test_criterion_4_gradient_matches_finite_differences():
    rng = np.random.default_rng(404)
    t0 = time.time()
    worst = 0.0
    for instance in range(20):
        d = int(rng.integers(3, 5))
        cfg = ModelConfig(
            dim=d, ordered=True, window=2, heads=2, d_r=2,
            variant=["full", "no_structural_reg", "anchor_only",
                     "single_head", "fixed_local_kernel",
                     "no_persistence_mix"][instance % 6],
        )
        params = CastParams.init(cfg, seed=instance)
        t_len = int(rng.integers(4, 7))
        seqs = [
            SimplexSeries(
                f"s{i}", True,
                np.array([random_dist(rng, d) for _ in range(t_len)]),
            )
            for i in range(2)
        ]
        batch = make_batch(Split(seqs, cfg), [(0, t_len - 2), (1, 1)])
        _, g = gradient(batch, params)
        flat_grad = _flatten(CastParams(cfg, g).values)
        flat0 = _flatten(params.values)
        step = 1e-5
        fd = np.zeros_like(flat0)
        for i in range(flat0.size):
            plus = flat0.copy(); plus[i] += step
            minus = flat0.copy(); minus[i] -= step
            fd[i] = (
                loss(batch, _unflatten(params, plus))
                - loss(batch, _unflatten(params, minus))
            ) / (2 * step)
        denom = np.maximum(np.abs(fd), np.abs(flat_grad))
        # relative check where the gradient is resolvable by central
        # differences; tiny gradients are held to an absolute tolerance
        # below the FD noise floor instead
        mask = denom > 1e-6
        if mask.any():
            worst = max(worst, float((np.abs(fd - flat_grad)[mask] / denom[mask]).max()))
        assert np.abs(fd - flat_grad)[~mask].max(initial=0.0) < 1e-9
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60
    _report(4, "analytic gradient vs finite differences, 20 instances", ok,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 60


# ------------------------------------------------------------ criterion 5


def test_criterion_5_cast_step_fuzz():
    rng = np.random.default_rng(505)
    t0 = time.time()
    violations = 0
    for _ in range(10_000):
        d = int(rng.integers(2, 9))
        p = random_dist(rng, d)
        r = random_dist(rng, d)
        lam = float(rng.uniform())
        rho = float(rng.uniform(0, 1))
        rows = rng.dirichlet(np.ones(3), size=d)
        b = BudgetParams()
        # the operator the model trains through; a and the budget are
        # independent numpy references
        a = convex_mix(p, r, lam)
        parts = cast_step(p, r, lam, rows, rho, b)
        p_hat, rho_eff = parts["p_hat"], parts["rho_eff"].item()
        closure = np.all(p_hat >= -1e-12) and abs(p_hat.sum() - 1.0) < 1e-9
        drift = w1_ordered(a, p_hat) <= rho_eff * 1.0 + 1e-9
        mean_ok = abs(mean_support(p_hat) - mean_support(a)) <= rho * budget(b, a) + 1e-9
        gate_ok = rho_eff <= rho
        if not (closure and drift and mean_ok and gate_ok):
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 60
    _report(5, "cast_step closure/drift/mean fuzz, 1e4 cases", ok,
            f"{violations} violations, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 60


# ------------------------------------------------------------ criterion 6


def test_criterion_6_retrieval_approximation_bound():
    total_queries = 0
    violations = 0
    for seed in range(4):
        report = retrieval_consistency_check(
            d=6 + seed, densities=(50, 200), n_queries=125, seed=seed
        )
        violations += report["violations"]
        total_queries += 125 * 2
    ok = violations == 0 and total_queries >= 1000
    _report(6, "retrieval approximation bound, 1e3 scenarios", ok,
            f"{violations} violations over {total_queries} queries")
    assert violations == 0
    assert total_queries >= 1000


# ------------------------------------------------------------ criterion 7


def _event_calendar_departures(arrivals, services):
    events = [(a, 0, i) for i, a in enumerate(arrivals)]
    heapq.heapify(events)
    waiting = deque()
    busy = False
    departures = [0.0] * len(arrivals)
    while events:
        t, kind, i = heapq.heappop(events)
        if kind == 0:
            waiting.append(i)
        else:
            departures[i] = t
            busy = False
        if not busy and waiting:
            j = waiting.popleft()
            heapq.heappush(events, (t + services[j], 1, j))
            busy = True
    return np.array(departures)


def test_criterion_7_queue_simulator():
    rng = np.random.default_rng(707)
    t0 = time.time()

    # (a) Lindley vs event-calendar oracle, exact on 200 tiny instances
    lindley_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 12))
        arrivals = np.sort(rng.uniform(0, 10, size=n))
        services = rng.uniform(0.1, 3.0, size=n)
        if not np.allclose(
            lindley_departures(arrivals, services),
            _event_calendar_departures(arrivals, services),
            atol=1e-12,
        ):
            lindley_ok = False

    # (b) M/M/1 at utilization 0.5 vs geometric stationary law
    expo = lambda mean: ServiceTimeFamily("gamma", {"shape": 1.0, "scale": mean})
    config = QueueConfig(
        arrival=expo(2.0), service=expo(1.0),
        n_arrivals=500, n_replications=2000, seed=77,
    )
    series = simulate_system(config)
    late = series.steps[-250:-50].mean(axis=0)
    k = np.arange(len(late))
    geometric = 0.5 * 0.5**k
    geometric[-1] += 1.0 - geometric.sum()
    tv = 0.5 * float(np.abs(late - geometric).sum())

    # (c) 10000-system split reproduces 7000/1000/2000
    systems = []
    for i in range(10_000):
        width = int(rng.integers(1, 40))
        steps = np.zeros((3, width + 1))
        steps[:, : width + 1] = rng.dirichlet(np.ones(width + 1), size=3)
        systems.append(SimplexSeries(f"sys{i:05d}", True, steps, None))
    manifest = split_systems(systems, fractions=(0.7, 0.1, 0.2), seed=9)
    counts = {
        name: sum(v == name for v in manifest.values())
        for name in ("train", "val", "test")
    }
    elapsed = time.time() - t0
    split_ok = counts == {"train": 7000, "val": 1000, "test": 2000}
    ok = lindley_ok and tv < 0.02 and split_ok and elapsed < 600
    _report(7, "queue simulator: Lindley oracle, M/M/1 law, split", ok,
            f"TV {tv:.4f}, split {counts}, {elapsed:.1f}s")
    assert lindley_ok
    assert tv < 0.02
    assert split_ok
    assert elapsed < 600


# ------------------------------------------------------------ criterion 8


def _w1_lp(p, q):
    d = len(p)
    # transport polytope: minimize sum_ij c_ij x_ij with |i-j| cost
    cost = np.abs(np.subtract.outer(np.arange(d), np.arange(d))).ravel()
    a_eq = []
    b_eq = []
    for i in range(d):
        row = np.zeros(d * d)
        row[i * d : (i + 1) * d] = 1.0
        a_eq.append(row)
        b_eq.append(p[i])
    for j in range(d):
        row = np.zeros(d * d)
        row[j::d] = 1.0
        a_eq.append(row)
        b_eq.append(q[j])
    res = linprog(cost, A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=[(0, None)] * (d * d), method="highs")
    assert res.success
    return float(res.fun)


def test_criterion_8_metric_oracles():
    rng = np.random.default_rng(808)
    t0 = time.time()
    worst_w1 = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        p, q = random_dist(rng, d), random_dist(rng, d)
        worst_w1 = max(worst_w1, abs(w1_ordered(p, q) - _w1_lp(p, q)))

    pinsker_violations = 0
    max_jsd = 0.0
    for _ in range(10_000):
        d = int(rng.integers(2, 10))
        p, q = random_dist(rng, d), random_dist(rng, d)
        if kl(p, q) < pinsker_lower_bound(p, q) - 1e-9:
            pinsker_violations += 1
        max_jsd = max(max_jsd, jsd(p, q))
    elapsed = time.time() - t0
    ok = worst_w1 < 1e-9 and pinsker_violations == 0 and max_jsd <= np.log(2) + 1e-12
    _report(8, "metric oracles: W1 LP, Pinsker, JSD cap", ok,
            f"W1 gap {worst_w1:.1e}, {pinsker_violations} Pinsker violations, "
            f"max JSD {max_jsd:.4f}, {elapsed:.1f}s")
    assert worst_w1 < 1e-9
    assert pinsker_violations == 0
    assert max_jsd <= np.log(2) + 1e-12


# ------------------------------------------------------------ criterion 9


def _queue_split_sections(section, n_systems, seed, n_arrivals, n_replications):
    sec = generate_section(
        section, n_systems, master_seed=seed,
        n_arrivals=n_arrivals, n_replications=n_replications,
    )
    manifest = split_systems(sec.systems, seed=seed)
    by_split = {"train": [], "val": [], "test": []}
    for s in sec.systems:
        by_split[manifest[s.id]].append(s)
    return by_split


@pytest.mark.slow
def test_criterion_9_desk_benchmark_trend():
    t0 = time.time()
    splits = _queue_split_sections(
        "nonhomogeneous", 500, seed=90, n_arrivals=120, n_replications=60
    )
    dim = splits["train"][0].steps.shape[1]
    cfg = ModelConfig(dim=dim, ordered=True)
    tc = TrainConfig(iters=400, batch_size=8, lr=3e-4, warmup=50)
    params, _ = train(splits["train"], splits["val"], cfg, tc, seed=90)
    rc = RolloutConfig(context_len=8, horizon=4, max_examples=60)
    cast_out = evaluate_rollout(CastPredictor(params), splits["test"], rc)
    persist_out = evaluate_rollout(PersistencePredictor(), splits["test"], rc)
    elapsed = time.time() - t0
    trend = cast_out["jsd"] <= persist_out["jsd"]
    _report(9, "desk benchmark: CAST rollout JSD <= persistence (trend)", trend,
            f"cast {cast_out['jsd']:.5f} vs persistence {persist_out['jsd']:.5f}, "
            f"{elapsed:.0f}s")
    if not trend:
        # trend criterion: logged for investigation, not a hard gate
        print(
            "criterion  9 [INVESTIGATE] trend not reproduced at this scale; "
            f"cast={cast_out['jsd']:.5f} persistence={persist_out['jsd']:.5f}"
        )
    assert elapsed < 1800


# ------------------------------------------------------------ criterion 10


ABLATION_VARIANTS = (
    "no_structural_reg",
    "anchor_only",
    "single_head",
    "fixed_local_kernel",
    "no_persistence_mix",
)


def _offline_kl_for_variant(train_seqs, val_seqs, test_seqs, dim, variant, tc, seed):
    cfg = ModelConfig(dim=dim, ordered=True, variant=variant)
    params, _ = train(train_seqs, val_seqs, cfg, tc, seed)
    return evaluate_offline(CastPredictor(params), test_seqs)["kl"]


@pytest.mark.slow
def test_criterion_10_ablation_harness():
    t0 = time.time()
    scenario = default_scenario()
    syn_train = build_aliasing_dataset(scenario, 120, seed=0)
    syn_val = build_aliasing_dataset(scenario, 30, seed=1)
    syn_test = build_aliasing_dataset(scenario, 60, seed=2)
    syn_tc = TrainConfig(iters=300, batch_size=16, lr=0.02,
                         warmup=30, weight_decay=0.0)

    splits = _queue_split_sections(
        "nonhomogeneous", 60, seed=100, n_arrivals=80, n_replications=40
    )
    q_dim = splits["train"][0].steps.shape[1]
    q_tc = TrainConfig(iters=150, batch_size=8, lr=3e-4, warmup=30)

    table = {}
    for section, (tr, va, te, dim, tc) in {
        "synthetic": (syn_train, syn_val, syn_test, scenario.dim, syn_tc),
        "queue": (splits["train"], splits["val"], splits["test"], q_dim, q_tc),
    }.items():
        full_kl = _offline_kl_for_variant(tr, va, te, dim, "full", tc, seed=5)
        table[section] = {"full": full_kl}
        for variant in ABLATION_VARIANTS:
            table[section][variant] = _offline_kl_for_variant(
                tr, va, te, dim, variant, tc, seed=5
            )
    elapsed = time.time() - t0

    print("\nvariant-vs-full offline KL deltas:")
    degrade = False
    for section, row in table.items():
        full_kl = row["full"]
        for variant in ABLATION_VARIANTS:
            delta = row[variant] - full_kl
            rel = delta / max(full_kl, 1e-30)
            print(f"  {section:10s} {variant:20s} {row[variant]:.4e} "
                  f"(delta {delta:+.2e}, {rel:+.1%})")
            if variant == "no_persistence_mix" and delta > 0:
                degrade = True
    ok = degrade
    _report(10, "ablation harness, 5 variants x 2 sections", ok,
            f"no_persistence_mix degrades somewhere: {degrade}, {elapsed:.0f}s")
    assert degrade, "no_persistence_mix must degrade offline KL on >= 1 section"


# ------------------------------------------------------------ criterion 11


def _run_twice_and_compare(argv_template, tmp_path, tag):
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"{tag}_{run}"
        out.mkdir()
        argv = [a.replace("@OUT@", str(out)) for a in argv_template]
        assert cli_dispatch(argv) == 0, f"{tag} run failed: {argv}"
        outs.append(out)
    a, b = outs
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b, f"{tag}: different file sets"
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), (
            f"{tag}: {name} differs between runs"
        )


@pytest.mark.slow
def test_criterion_11_subcommand_determinism(tmp_path):
    t0 = time.time()
    rng = np.random.default_rng(11)
    from simplexcast.io import write_dataset

    seqs = [
        SimplexSeries(
            f"s{i}", True, rng.dirichlet(np.ones(4), size=10),
            np.ones(9, dtype=bool),
        )
        for i in range(6)
    ]
    data = tmp_path / "data.jsonl"
    write_dataset(data, seqs, section_name="unit")

    _run_twice_and_compare(
        ["simulate-queues", "--section", "homogeneous", "--systems", "12",
         "--arrivals", "50", "--replications", "15", "--seed", "3",
         "--split", "--out", "@OUT@"],
        tmp_path, "simulate-queues",
    )
    _run_twice_and_compare(
        ["train", "--data", str(data), "--iters", "25", "--warmup", "5",
         "--seed", "4", "--out", "@OUT@"],
        tmp_path, "train",
    )
    ckpt_dir = tmp_path / "ckpt"
    ckpt_dir.mkdir()
    assert cli_dispatch(["train", "--data", str(data), "--iters", "25",
                         "--warmup", "5", "--seed", "4",
                         "--out", str(ckpt_dir)]) == 0
    ckpt = str(ckpt_dir / "model.ckpt")
    _run_twice_and_compare(
        ["evaluate", "--data", str(data), "--method", "cast",
         "--model", ckpt, "--seed", "5", "--out", "@OUT@"],
        tmp_path, "evaluate",
    )
    _run_twice_and_compare(
        ["rollout", "--data", str(data), "--method", "persistence",
         "--context", "4", "--horizon", "3", "--seed", "5", "--out", "@OUT@"],
        tmp_path, "rollout",
    )
    _run_twice_and_compare(
        ["aliasing-synthetic", "--seeds", "0", "--iters", "20",
         "--sequences", "16", "--seed", "6", "--out", "@OUT@"],
        tmp_path, "aliasing-synthetic",
    )
    _run_twice_and_compare(
        ["theory-check", "--scenarios", "3", "--seed", "7", "--out", "@OUT@"],
        tmp_path, "theory-check",
    )
    _run_twice_and_compare(
        ["diagnose-aliasing", "--data", str(data), "--samples", "15",
         "--seed", "8", "--out", "@OUT@"],
        tmp_path, "diagnose-aliasing",
    )
    _run_twice_and_compare(
        ["seed-study", "--data", str(data), "--iters", "15",
         "--seeds", "0,1", "--seed", "9", "--out", "@OUT@"],
        tmp_path, "seed-study",
    )
    results = tmp_path / "results"
    results.mkdir()
    for method, vals in (("m1", (0.1, 0.3)), ("m2", (0.2, 0.2))):
        for section, v in zip(("secA", "secB"), vals):
            (results / f"{method}_{section}.json").write_text(json.dumps(
                {"method": method, "section": section, "metrics": {"kl": v}}
            ))
    _run_twice_and_compare(
        ["report", "--results", str(results), "--seed", "10", "--out", "@OUT@"],
        tmp_path, "report",
    )
    elapsed = time.time() - t0
    _report(11, "byte-identical determinism for all 9 subcommands", True,
            f"{elapsed:.0f}s")
