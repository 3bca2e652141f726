"""Tests for offline/rollout evaluation, rank aggregation, the aliasing
diagnostic, and the multi-seed path."""
import json
import multiprocessing
import os
from functools import partial

import numpy as np
import pytest

from simplexcast import evaluate
from simplexcast.baselines import CastPredictor, PersistencePredictor
from simplexcast.errors import InvalidValue
from simplexcast.evaluate import (
    DiagnosticThresholds,
    RolloutConfig,
    aliasing_diagnostic,
    evaluate_offline,
    evaluate_rollout,
    rank_aggregate,
    seed_study,
    seed_summary,
    train_and_score,
)
from simplexcast.metrics import kl, metric_report
from simplexcast.model import CastParams, ModelConfig, TrainConfig
from simplexcast.simplex import SimplexSeries


def _series(rng, t, d, id_="s0", ordered=True, mask=None):
    steps = rng.dirichlet(np.ones(d), size=t)
    if mask is None:
        mask = np.ones(t - 1, dtype=bool)
    return SimplexSeries(id_, ordered, steps, np.asarray(mask, dtype=bool))


class TestEvaluateOffline:
    def test_persistence_on_constant_series_scores_zero(self):
        steps = np.tile(np.array([0.2, 0.3, 0.5]), (6, 1))
        seq = SimplexSeries("c", True, steps, np.ones(5, dtype=bool))
        out = evaluate_offline(PersistencePredictor(), [seq])
        for name in ("kl", "jsd", "l1", "bray_curtis", "w1"):
            assert out[name] == pytest.approx(0.0, abs=1e-12)

    def test_persistence_kl_matches_direct_loop(self, rng):
        seqs = [_series(rng, 8, 4, f"s{i}") for i in range(3)]
        out = evaluate_offline(PersistencePredictor(), seqs)
        direct = [
            kl(seq.steps[t + 1], seq.steps[t])
            for seq in seqs
            for t in np.flatnonzero(seq.loss_mask)
        ]
        assert out["kl"] == pytest.approx(np.mean(direct), abs=1e-12)

    def test_partial_mask_scores_only_marked_positions(self, rng):
        seq = _series(rng, 6, 3, mask=[False, True, False, True, False])
        out = evaluate_offline(PersistencePredictor(), [seq])
        direct = [kl(seq.steps[t + 1], seq.steps[t]) for t in (1, 3)]
        assert out["kl"] == pytest.approx(np.mean(direct), abs=1e-12)

    def test_all_false_mask_raises(self, rng):
        seq = _series(rng, 5, 3, mask=[False] * 4)
        with pytest.raises(InvalidValue, match="^no masked positions in the split$"):
            evaluate_offline(PersistencePredictor(), [seq])

    def test_rerun_is_identical(self, rng):
        seqs = [_series(rng, 7, 5, f"s{i}") for i in range(2)]
        a = evaluate_offline(PersistencePredictor(), seqs)
        b = evaluate_offline(PersistencePredictor(), seqs)
        assert a == b

    def test_unordered_series_omit_w1(self, rng):
        seq = _series(rng, 5, 3, ordered=False)
        out = evaluate_offline(PersistencePredictor(), [seq])
        assert "w1" not in out


class TestEvaluateRollout:
    def test_persistence_on_constant_series(self):
        steps = np.tile(np.array([0.4, 0.6]), (10, 1))
        seq = SimplexSeries("c", True, steps, np.ones(9, dtype=bool))
        out = evaluate_rollout(
            PersistencePredictor(), [seq], RolloutConfig(context_len=3, horizon=4)
        )
        assert out["jsd"] == pytest.approx(0.0, abs=1e-12)
        assert out["n_examples"] == 1 and out["n_skipped"] == 0

    def test_horizon_one_equals_offline_at_same_position(self, rng):
        seqs = [_series(rng, 9, 4, f"s{i}") for i in range(3)]
        ctx = 5
        rolled = evaluate_rollout(
            PersistencePredictor(), seqs, RolloutConfig(context_len=ctx, horizon=1)
        )
        masked = [
            SimplexSeries(
                s.id, s.ordered, s.steps,
                np.arange(len(s.steps) - 1) == ctx - 1,
            )
            for s in seqs
        ]
        offline = evaluate_offline(PersistencePredictor(), masked)
        for name in ("kl", "jsd", "l1"):
            assert rolled[name] == pytest.approx(offline[name], abs=1e-12)

    def test_short_sequences_skipped_and_counted(self, rng):
        long = _series(rng, 12, 3, "long")
        short = _series(rng, 4, 3, "short")
        out = evaluate_rollout(
            PersistencePredictor(), [long, short], RolloutConfig(6, 4)
        )
        assert out["n_examples"] == 1 and out["n_skipped"] == 1

    def test_no_eligible_raises(self, rng):
        seq = _series(rng, 4, 3)
        with pytest.raises(InvalidValue, match="^no sequence has length >= 12$"):
            evaluate_rollout(PersistencePredictor(), [seq], RolloutConfig(8, 4))

    def test_max_examples_selects_by_sorted_id(self, rng):
        seqs = [_series(rng, 10, 3, f"s{i}") for i in (3, 1, 2)]
        out_all = evaluate_rollout(
            PersistencePredictor(), seqs, RolloutConfig(4, 3, max_examples=1)
        )
        out_s1 = evaluate_rollout(
            PersistencePredictor(),
            [s for s in seqs if s.id == "s1"],
            RolloutConfig(4, 3),
        )
        assert out_all["kl"] == pytest.approx(out_s1["kl"], abs=1e-12)

    def test_never_reads_truth_beyond_context(self, rng):
        seq = _series(rng, 10, 3)
        rc = RolloutConfig(4, 3)

        class Spy(PersistencePredictor):
            seen = []

            def predict(self, prefix):
                Spy.seen.append(np.array(prefix[-1]))
                return super().predict(prefix)

        baseline = evaluate_rollout(Spy(), [seq], rc)
        # corrupt the tail past context+horizon targets: result must not change
        steps = seq.steps.copy()
        steps[rc.context_len :] = steps[rc.context_len :][::-1]
        # only mutate steps that are not scored targets -> use a longer tail
        seq2 = SimplexSeries(seq.id, True, np.vstack([seq.steps, rng.dirichlet(np.ones(3), size=2)]),
                             np.ones(len(seq.steps) + 1, dtype=bool))
        out2 = evaluate_rollout(PersistencePredictor(), [seq2], rc)
        assert out2["kl"] == pytest.approx(baseline["kl"], abs=1e-12)

    def test_final_step_only_matches_last_horizon_step(self, rng):
        seq = _series(rng, 12, 3)
        rc = RolloutConfig(4, 3)
        final = evaluate_rollout(PersistencePredictor(), [seq], rc, final_step_only=True)
        # persistence rollout repeats the context tail, so the final-step
        # score is the distance from that tail to the step at context+horizon-1
        expected = kl(seq.steps[rc.context_len + rc.horizon - 1], seq.steps[rc.context_len - 1])
        assert final["kl"] == pytest.approx(expected, abs=1e-12)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            RolloutConfig(context_len=0, horizon=1)
        with pytest.raises(ValueError):
            RolloutConfig(context_len=1, horizon=0)


@pytest.mark.parametrize("method", ["persistence", "cast"])
def test_each_evaluation_is_one_metric_report(rng, monkeypatch, method):
    seqs = [_series(rng, n, 3, f"s{n}") for n in (9, 4, 7)]
    seqs[1].loss_mask[:] = False
    predictor = PersistencePredictor()
    if method == "cast":
        cfg = ModelConfig(dim=3, ordered=True, window=2, d_r=4)
        predictor = CastPredictor(CastParams.init(cfg, seed=0))
    rows = []

    def counted(p, q, ordered=False):
        rows.append(len(p))
        return metric_report(p, q, ordered)

    monkeypatch.setattr(evaluate, "metric_report", counted)
    evaluate_offline(predictor, seqs)
    assert rows == [8 + 6]  # the scored rows of s9 and s7
    rows.clear()
    evaluate_rollout(predictor, seqs, RolloutConfig(context_len=3, horizon=2))
    assert rows == [2 * 2]  # two horizon rows each of s9 and s7; s4 is too short


def test_a_split_that_mixes_ordered_is_rejected(rng):
    seqs = [_series(rng, 6, 3, "a"), _series(rng, 6, 3, "b", ordered=False)]
    with pytest.raises(InvalidValue, match="^the sequences disagree on ordered$"):
        evaluate_offline(PersistencePredictor(), seqs)
    with pytest.raises(InvalidValue, match="^the sequences disagree on ordered$"):
        evaluate_rollout(PersistencePredictor(), seqs, RolloutConfig(3, 2))


class TestRankAggregate:
    def test_single_method_rank_one_everywhere(self):
        rm = rank_aggregate({"only": {"a": 0.5, "b": 0.1}})
        assert rm == {"methods": ["only"], "sections": ["a", "b"], "ranks": [[1.0, 1.0]],
                      "average_rank": [1.0], "top1_counts": [2]}

    def test_strict_ordering(self):
        rm = rank_aggregate(
            {
                "good": {"a": 0.1, "b": 0.2, "c": 0.3},
                "bad": {"a": 0.5, "b": 0.6, "c": 0.7},
            }
        )
        i_good = rm["methods"].index("good")
        i_bad = rm["methods"].index("bad")
        assert rm["average_rank"][i_good] == 1.0
        assert rm["average_rank"][i_bad] == 2.0
        assert rm["top1_counts"][i_good] == 3 and rm["top1_counts"][i_bad] == 0

    def test_tie_gets_average_rank(self):
        rm = rank_aggregate(
            {
                "m1": {"a": 0.1, "b": 0.3, "c": 0.2},
                "m2": {"a": 0.1, "b": 0.1, "c": 0.4},
                "m3": {"a": 0.9, "b": 0.2, "c": 0.1},
            }
        )
        j = rm["sections"].index("a")
        col = np.asarray(rm["ranks"])[:, j]
        assert col[rm["methods"].index("m1")] == 1.5
        assert col[rm["methods"].index("m2")] == 1.5
        assert col[rm["methods"].index("m3")] == 3.0

    def test_rows_sum_per_section(self, rng):
        table = {
            f"m{i}": {f"s{j}": float(rng.integers(0, 4)) for j in range(5)}
            for i in range(4)
        }
        rm = rank_aggregate(table)
        expected = 4 * 5 / 2
        np.testing.assert_allclose(np.sum(rm["ranks"], axis=0), expected)
        # a tied value's rank from the sorted section: the position of its
        # first copy plus the middle of its run of ties
        for j, sec in enumerate(rm["sections"]):
            values = [table[m][sec] for m in rm["methods"]]
            order = sorted(values)
            want = [order.index(v) + (order.count(v) + 1) / 2 for v in values]
            assert [row[j] for row in rm["ranks"]] == want

    def test_incomplete_table_rejected(self):
        with pytest.raises(InvalidValue, match="^method 'm1' does not cover all sections: no b$"):
            rank_aggregate({"m1": {"a": 0.1}, "m2": {"b": 0.2}})


class TestAliasingDiagnostic:
    def test_identical_sequences_degenerate(self, rng):
        steps = rng.dirichlet(np.ones(4), size=6)
        seqs = [SimplexSeries(f"s{i}", True, steps.copy(), np.ones(5, dtype=bool)) for i in range(3)]
        rep = aliasing_diagnostic(seqs, n_samples=30, seed=0)
        assert rep["successor_jsd"]["median"] == pytest.approx(0.0, abs=1e-12)
        assert rep["history_better_rate"] is None

    def test_theory_dataset_shows_strong_aliasing(self):
        from simplexcast.theory import build_aliasing_dataset, default_scenario

        seqs = build_aliasing_dataset(default_scenario(), 60, seed=0)
        # score only the aliased transition (position 2) by sampling widely
        rep = aliasing_diagnostic(seqs, n_samples=400, seed=1)
        # states shared across regimes have exact matches in other sequences
        assert rep["neighbor_jsd"]["median"] == pytest.approx(0.0, abs=1e-9)
        # at the aliased state the successors differ across regimes, so the
        # q90 successor gap is large while the neighbor gap is zero
        assert rep["successor_jsd"]["q90"] > 0.005
        assert rep["history_better_rate"] is not None
        assert rep["history_better_rate"] > 0.9
        assert rep["severity"] == "strong"

    def test_too_few_sequences(self, rng):
        with pytest.raises(InvalidValue, match="^aliasing diagnostic needs at least two sequences"):
            aliasing_diagnostic([_series(rng, 5, 3)], n_samples=5)

    def test_sequences_without_a_transition_do_not_count(self, rng):
        # a T = 1 sequence has no (state, successor) pair to sample or match
        long_seq, single = _series(rng, 6, 3, "long"), _series(rng, 1, 3, "single")
        with pytest.raises(InvalidValue, match="^aliasing diagnostic needs at least two sequences"):
            aliasing_diagnostic([long_seq, single], n_samples=5)
        rep = aliasing_diagnostic([single, long_seq, _series(rng, 4, 3, "s2")], n_samples=50)
        assert rep["n_samples"] == 8

    def test_rate_in_unit_interval(self, rng):
        seqs = [_series(rng, 6, 3, f"s{i}") for i in range(4)]
        rep = aliasing_diagnostic(seqs, n_samples=40, seed=3)
        if rep["history_better_rate"] is not None:
            assert 0.0 <= rep["history_better_rate"] <= 1.0

    @pytest.mark.parametrize("d", [2, 6, 21, 35])
    def test_equals_per_candidate_reference(self, rng, d):
        from simplexcast.metrics import jsd

        from conftest import descriptor_ref

        # T = 1 and T < window included; the reference builds one descriptor
        # per (sample, candidate) and scans candidates with strict "<". Three
        # sequences share their first 6 steps, so at position 5 two candidates
        # tie on both distances but lead to different successors.
        seqs = [_series(rng, t, d, f"s{i}") for i, t in enumerate((1, 3, 9, 12, 12, 10))]
        for k in (4, 5):
            seqs[k].steps[:6] = seqs[3].steps[:6]
        rep = aliasing_diagnostic(seqs, n_samples=1000, window=8, seed=5)  # every position
        positions = [(i, t) for i, s in enumerate(seqs) for t in range(len(s.steps) - 1)]
        picks = np.random.default_rng(5).choice(len(positions), size=len(positions), replace=False)
        neighbor, successor, better, comparable = [], [], 0, 0
        for i, t in (positions[k] for k in picks):
            best_cur = best_hist = (np.inf, None)
            desc = descriptor_ref(seqs[i].steps, t, 8)
            for j, other in enumerate(seqs):
                for s in range(len(other.steps) - 1) if j != i else ():
                    d_cur = jsd(seqs[i].steps[t], other.steps[s])
                    d_hist = float(np.abs(desc - descriptor_ref(other.steps, s, 8)).sum())
                    best_cur = min(best_cur, (d_cur, (j, s)), key=lambda b: b[0])
                    best_hist = min(best_hist, (d_hist, (j, s)), key=lambda b: b[0])
            succ = seqs[i].steps[t + 1]
            (nj, ns), (hj, hs) = best_cur[1], best_hist[1]
            gap_cur, gap_hist = jsd(succ, seqs[nj].steps[ns + 1]), jsd(succ, seqs[hj].steps[hs + 1])
            neighbor.append(best_cur[0])
            successor.append(gap_cur)
            if not np.isclose(gap_hist, gap_cur, atol=1e-12):
                comparable += 1
                better += gap_hist < gap_cur
        assert rep["history_better_rate"] == (better / comparable if comparable else None)
        assert rep["neighbor_jsd"]["q90"] == float(np.quantile(neighbor, 0.9))
        assert rep["successor_jsd"]["median"] == float(np.quantile(successor, 0.5))

    def test_thresholds_drive_severity(self, rng):
        seqs = [_series(rng, 6, 3, f"s{i}") for i in range(3)]
        loose = aliasing_diagnostic(
            seqs, n_samples=20,
            thresholds=DiagnosticThresholds(strong_successor_jsd=0.0, max_neighbor_jsd=10.0),
            seed=0,
        )
        assert loose["severity"] == "strong"


def _study_inputs(rng):
    """Tiny (train, val, test) splits and the config of a three-step training."""
    splits = tuple([_series(rng, 6, 3, f"{name}{i}") for i in range(3)]
                   for name in ("train", "val", "test"))
    return splits, ModelConfig(dim=3, ordered=True, window=2, d_r=4), TrainConfig(iters=3)


def _in_process(fn, tasks):
    return [fn(task) for task in tasks]


class TestSeedStudy:
    def test_constant_metrics_zero_sd(self):
        res = seed_summary([{"kl": 0.5, "jsd": 0.1}] * 3)
        assert res["sd"]["kl"] == pytest.approx(0.0, abs=1e-15)
        assert res["sd"]["jsd"] == pytest.approx(0.0, abs=1e-15)
        assert res["mean"]["kl"] == pytest.approx(0.5)
        assert res["mean"]["jsd"] == pytest.approx(0.1)

    def test_identical_seed_repeated_zero_sd(self):
        v = float(np.random.default_rng(7).uniform())
        assert seed_summary([{"kl": v}] * 3)["sd"]["kl"] == 0.0

    def test_tied_seeds_keep_their_value(self):
        # np.mean of these three equal floats is 0.6739386248926852, and
        # their np.std(ddof=1) 1.36e-16
        v = float(np.random.default_rng(199).uniform())
        assert seed_summary([{"kl": v}] * 3) == {"mean": {"kl": v}, "sd": {"kl": 0.0}}

    def test_repeated_seed_trains_equal_rows(self, rng):
        # one seed trained three times on the workers gives three equal rows,
        # and so each metric's own value with sd 0.0
        splits, cfg, tc = _study_inputs(rng)
        res = seed_study(splits, cfg, tc, [7, 7, 7])
        assert res["per_seed"][0] == res["per_seed"][1] == res["per_seed"][2]
        assert res["mean"] == res["per_seed"][0]
        assert all(sd == 0.0 for sd in res["sd"].values())

    def test_mean_and_sample_sd(self):
        res = seed_summary([{"m": float(seed)} for seed in (0, 1, 2, 3)])
        assert res["mean"]["m"] == pytest.approx(1.5)
        assert res["sd"]["m"] == pytest.approx(np.std([0, 1, 2, 3], ddof=1))

    def test_one_seed_zero_sd(self):
        res = seed_summary([{"m": 0.25}])
        assert res == {"mean": {"m": 0.25}, "sd": {"m": 0.0}}

    def test_requires_two_seeds(self, tmp_path, capsys):
        # `seed-study` refuses one seed before it reads a file: --data is missing
        from simplexcast.cli import cli_dispatch

        argv = ["seed-study", "--data", str(tmp_path / "missing.jsonl"), "--seeds", "0",
                "--out", str(tmp_path)]
        assert cli_dispatch(argv) == 1
        assert capsys.readouterr().err == "error: seed study needs at least two seeds\n"
        assert not (tmp_path / "seed_study.json").exists()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_pool_equals_the_tasks_run_in_process(self, rng, monkeypatch, cpus):
        # three seeds on 1, 2 or 3 workers: the study's bytes are those of the
        # tasks run in order in this process, and no worker outlives the call
        splits, cfg, tc = _study_inputs(rng)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        pooled = seed_study(splits, cfg, tc, [0, 1, 2])
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(evaluate, "_pool_map", _in_process)
        in_process = seed_study(splits, cfg, tc, [0, 1, 2])
        assert json.dumps(pooled, sort_keys=True) == json.dumps(in_process, sort_keys=True)

    def test_pool_without_affinity_uses_cpu_count(self, rng, monkeypatch):
        # a platform without os.sched_getaffinity (macOS) sizes the pool by
        # os.cpu_count(), with the same bytes
        splits, cfg, tc = _study_inputs(rng)
        fn, tasks = partial(train_and_score, splits), [(cfg, tc, 0), (cfg, tc, 1)]
        monkeypatch.delattr(os, "sched_getaffinity")
        counted = []
        monkeypatch.setattr(os, "cpu_count", lambda: counted.append(2) or 2)
        pooled = evaluate._pool_map(fn, tasks)
        assert counted == [2]
        assert multiprocessing.active_children() == []
        assert json.dumps(pooled) == json.dumps(_in_process(fn, tasks))
