"""Tests for the identifiability theory lab and the aliasing experiment."""
import json
import multiprocessing
import os

import numpy as np
import pytest

from simplexcast import evaluate, theory
from simplexcast.errors import InvalidValue
from simplexcast.metrics import jsd, js_weighted, kl, l1
from simplexcast.theory import (
    AliasingScenario,
    anchor_only_optimum,
    build_aliasing_dataset,
    cast_oracle,
    default_scenario,
    fixed_summary_identity,
    fixed_summary_optimum,
    numeric_fixed_summary_minimum,
    pinsker_separation,
    random_scenario,
    regime_markers,
    retrieval_consistency_check,
)
from simplexcast.transport import BudgetParams, cast_step

from hull_reference import anchor_hull_optimum, l1_distance_to_hull
from transport_reference import TransportKernel, apply_transport


# A radius-1 transport moves the support mean by at most one bin, so a
# mean budget above 1 + epsilon never binds, whatever the scenario.
OPEN = BudgetParams(delta_mu=1.25)


def kernel_block(*kernels):
    """The (K, D, 3) block of a scenario from reference kernels."""
    return np.stack([k.rows for k in kernels])


# ------------------------------------------------------------ scenarios


class TestScenario:
    def test_default_scenario_well_formed(self):
        s = default_scenario()
        assert s.dim == 21
        assert s.k == 2
        np.testing.assert_allclose(s.p_star.sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(s.pis, [0.5, 0.5])
        s.check_budget_feasible(BudgetParams())  # must not raise

    def test_default_scenario_interior_support(self):
        # unit shifts of the support must stay inside the bin range
        s = default_scenario()
        support = np.flatnonzero(s.p_star)
        assert support.min() >= 1 and support.max() <= s.dim - 2

    def test_successor_is_convex_blend(self):
        s = default_scenario()
        us = s.successors()
        for z in range(s.k):
            moved = apply_transport(TransportKernel(s.kernels[z]), s.p_star)
            expected = (1 - s.rho) * s.p_star + s.rho * moved
            np.testing.assert_allclose(us[z], expected, atol=1e-14)

    def test_rejects_bad_regime_weights(self):
        d = 4
        kernel = TransportKernel.pure_shift(d, 0)
        with pytest.raises(ValueError):
            AliasingScenario(
                p_star=np.full(d, 0.25),
                rho=0.1,
                pis=[0.7, 0.7],
                kernels=kernel_block(kernel, kernel),
            )

    def test_rejects_bad_rho(self):
        d = 4
        kernel = TransportKernel.pure_shift(d, 0)
        with pytest.raises(ValueError):
            AliasingScenario(
                p_star=np.full(d, 0.25), rho=0.0, pis=[1.0], kernels=kernel_block(kernel)
            )

    def test_budget_infeasible_raises(self):
        # concentrated p* has tiny support spread, so the default budget
        # cannot cover a unit mean shift
        d = 11
        p = np.zeros(d)
        p[5] = 1.0
        s = AliasingScenario(
            p_star=p,
            rho=0.5,
            pis=[1.0],
            kernels=kernel_block(TransportKernel.pure_shift(d, 1)),
        )
        s.check_budget_feasible(OPEN)
        with pytest.raises(ValueError, match="regime 0: the gate scales its transport by 0.2"):
            s.check_budget_feasible(BudgetParams())

    def test_random_scenario_well_formed(self, rng):
        s = random_scenario(rng, d=5, k=3)
        assert s.dim == 5 and s.k == 3
        np.testing.assert_allclose(s.pis.sum(), 1.0, atol=1e-9)
        for u in s.successors():
            assert np.all(u >= -1e-15)
            np.testing.assert_allclose(u.sum(), 1.0, atol=1e-9)

    def test_random_scenario_draws_one_regime_at_a_time(self):
        # one (k, d) Dirichlet draw takes the stream of k draws of d rows
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(50):
            d, k = int(rng.integers(2, 9)), int(rng.integers(1, 6))
            ref.integers(2, 9), ref.integers(1, 6)
            s = random_scenario(rng, d, k)
            p, pis = ref.dirichlet(np.ones(d) * 1.5), ref.dirichlet(np.ones(k))
            kernels = [ref.dirichlet(np.ones(3), size=d) for _ in range(k)]
            rho = ref.uniform(0.05, 0.2)
            for got, want in ((s.p_star, p), (s.pis, pis), (s.kernels, np.stack(kernels))):
                assert got.tobytes() == want.tobytes()
            assert s.rho == rho


class TestKernelCheck:
    """`AliasingScenario` checks the (K, D, 3) kernel block when it is built."""

    @staticmethod
    def build(kernels):
        """Two regimes over D = 4."""
        return AliasingScenario(p_star=np.full(4, 0.25), rho=0.1, pis=[0.5, 0.5], kernels=kernels)

    def test_accepts_a_valid_block(self):
        s = self.build(np.full((2, 4, 3), 1 / 3))
        assert s.kernels.shape == (2, 4, 3)

    @pytest.mark.parametrize("shape", [(2, 5, 3), (2, 3, 3), (3, 4, 3), (1, 4, 3),
                                       (2, 4, 2), (4, 3), (2, 4, 3, 1)])
    def test_rejects_a_wrong_shape_naming_both(self, shape):
        with pytest.raises(ValueError) as err:
            self.build(np.full(shape, 1 / shape[-1]))
        assert str(err.value) == (
            f"kernels must have shape (K, D, 3) = (2, 4, 3), got {shape}"
        )

    def test_rejects_an_all_nan_block(self):
        with pytest.raises(ValueError, match="nonnegative and sum to 1"):
            self.build(np.full((2, 4, 3), np.nan))

    @pytest.mark.parametrize("row", [[np.nan, 0.5, 0.5], [-0.1, 0.6, 0.5], [0.2, 0.2, 0.2],
                                     [np.inf, 0.0, 0.0]])
    def test_rejects_a_row_off_the_simplex(self, row):
        kernels = np.full((2, 4, 3), 1 / 3)
        kernels[1, 2] = row
        with pytest.raises(ValueError, match="nonnegative and sum to 1"):
            self.build(kernels)


class TestPerRegimeReference:
    """The scenario runs all regimes at once; the reference applies one
    (D, 3) kernel at a time, by `apply_transport` and by one `cast_step`
    per regime. The bytes must match, also where the budget binds."""

    def test_batched_equals_per_regime(self):
        rng = np.random.default_rng(0)
        binding = 0
        for k in range(1, 6):
            for d in range(2, 9):
                for _ in range(4):
                    s = random_scenario(rng, d, k)
                    p = s.p_star
                    kernels = [TransportKernel(rows) for rows in s.kernels]
                    moved = [apply_transport(kernel, p) for kernel in kernels]
                    us = np.array([(1.0 - s.rho) * p + s.rho * m for m in moved])
                    assert s.successors().tobytes() == us.tobytes()
                    # an open budget, the default one and one that binds
                    for budget in (OPEN, BudgetParams(), BudgetParams(0.01, 0.0)):
                        steps = [cast_step(p, p, 1.0, kernel.rows, s.rho, budget)
                                 for kernel in kernels]
                        ref = np.array([step["p_hat"] for step in steps])
                        assert cast_oracle(s, budget).tobytes() == ref.tobytes()
                        binds = sum(step["rho_eff"] < s.rho for step in steps)
                        binding += binds
                        if binds:
                            with pytest.raises(InvalidValue):
                                s.check_budget_feasible(budget)
                        else:
                            s.check_budget_feasible(budget)
        assert binding > 100


# -------------------------------------------------------- fixed summary


class TestFixedSummary:
    def test_identical_regimes_zero_excess(self):
        d = 6
        kernel = TransportKernel.pure_shift(d, 1)
        s = AliasingScenario(
            p_star=np.full(d, 1 / d),
            rho=0.3,
            pis=[0.5, 0.5],
            kernels=kernel_block(kernel, kernel),
        )
        q, excess = fixed_summary_optimum(s)
        assert fixed_summary_identity(s)
        assert excess < 1e-12
        np.testing.assert_allclose(q, s.successors()[0], atol=1e-12)

    def test_two_regime_excess_is_jsd(self):
        s = default_scenario()
        us = s.successors()
        _, excess = fixed_summary_optimum(s)
        np.testing.assert_allclose(excess, jsd(us[0], us[1]), atol=1e-12)

    def test_matches_weighted_js_radius(self, rng):
        s = random_scenario(rng, d=5, k=4)
        _, excess = fixed_summary_optimum(s)
        np.testing.assert_allclose(
            excess, js_weighted(s.successors(), s.pis), atol=1e-12
        )

    def test_numeric_minimum_matches_analytic(self, rng):
        for _ in range(20):
            s = random_scenario(rng, d=rng.integers(2, 7), k=rng.integers(2, 5))
            numeric = numeric_fixed_summary_minimum(s, n_starts=10)
            _, analytic = fixed_summary_optimum(s)
            assert abs(numeric - analytic) < 1e-8

    def test_numeric_minimum_converges_on_cli_draws(self):
        # theory-check's draws for seeds 32 (its scenario 25 once gave a
        # gap of 0.287), 0, 1, 2 and 3: 250 scenarios
        worst = 0.0
        for seed in (32, 0, 1, 2, 3):
            rng = np.random.default_rng(seed)
            for _ in range(50):
                s = random_scenario(rng, int(rng.integers(2, 7)), int(rng.integers(2, 5)))
                _, analytic = fixed_summary_optimum(s)
                worst = max(worst, abs(numeric_fixed_summary_minimum(s, n_starts=10) - analytic))
        assert worst < 1e-12

    def test_grid_oracle_binary_support(self, rng):
        # D=2: scan q = (t, 1-t) directly and compare to the analytic optimum
        s = random_scenario(rng, d=2, k=3)
        us = s.successors()
        ts = np.linspace(1e-6, 1 - 1e-6, 20001)
        objs = [
            sum(pi * kl(u, np.array([t, 1 - t])) for pi, u in zip(s.pis, us))
            for t in ts
        ]
        _, analytic = fixed_summary_optimum(s)
        assert min(objs) >= analytic - 1e-12
        assert min(objs) - analytic < 1e-6


# ---------------------------------------------------------- anchor only


class TestAnchorOnly:
    """`anchor_only_optimum` is the one-point class {p*} in closed form; the
    general anchor hull is solved by the reference in hull_reference.py."""

    def test_hull_distance_zero_for_member(self, rng):
        points = rng.dirichlet(np.ones(5), size=3)
        w = rng.dirichlet(np.ones(3))
        target = w @ points
        assert l1_distance_to_hull(target, points) < 1e-9

    def test_hull_distance_brute_force(self, rng):
        # two anchor points: scan the mixing weight on a fine grid
        points = rng.dirichlet(np.ones(4), size=2)
        target = rng.dirichlet(np.ones(4))
        ts = np.linspace(0, 1, 20001)
        brute = min(
            np.abs(t * points[0] + (1 - t) * points[1] - target).sum() for t in ts
        )
        exact = l1_distance_to_hull(target, points)
        assert exact <= brute + 1e-9
        assert brute - exact < 1e-4

    def test_target_in_hull_gives_zero_excess(self):
        # anchors that span the successors make the anchor class sufficient
        s = default_scenario()
        us = s.successors()
        qs, excess, deltas = anchor_hull_optimum(s, list(us))
        assert excess < 1e-9
        assert np.all(deltas < 1e-9)
        for z in range(s.k):
            np.testing.assert_allclose(qs[z], us[z], atol=1e-5)

    def test_closed_form_matches_reference_solver(self):
        rng = np.random.default_rng(11)
        scenarios = [default_scenario()] + [
            random_scenario(rng, int(rng.integers(3, 7)), int(rng.integers(2, 5)))
            for _ in range(60)
        ]
        for s in scenarios:
            excess, deltas = anchor_only_optimum(s)
            _, ref_excess, ref_deltas = anchor_hull_optimum(s, [s.p_star], n_starts=4)
            assert excess == pytest.approx(ref_excess, rel=1e-9)
            np.testing.assert_allclose(deltas, ref_deltas, rtol=0, atol=1e-9)

    def test_default_scenario_separation(self):
        s = default_scenario()
        excess, deltas = anchor_only_optimum(s)
        assert np.all(deltas > 0.1)
        assert excess >= pinsker_separation(s, deltas) - 1e-9
        _, fixed = fixed_summary_optimum(s)
        # the anchor-only class is strictly worse than the fixed-summary
        # optimum here: it cannot move mass off p*'s support
        assert excess > fixed

    def test_pinsker_fuzz(self, rng):
        for _ in range(10):
            s = random_scenario(rng, d=rng.integers(3, 6), k=rng.integers(2, 4))
            excess, deltas = anchor_only_optimum(s)
            assert excess >= pinsker_separation(s, deltas) - 1e-9


# -------------------------------------------------------------- oracle


class TestCastOracle:
    def test_default_scenario_exact(self):
        s = default_scenario()
        preds = cast_oracle(s, BudgetParams())
        us = s.successors()
        for z in range(s.k):
            assert kl(us[z], preds[z]) < 1e-12
            np.testing.assert_allclose(preds[z], us[z], atol=1e-12)

    def test_identity_kernel_returns_p_star(self):
        d = 7
        s = AliasingScenario(
            p_star=np.full(d, 1 / d),
            rho=0.4,
            pis=[1.0],
            kernels=kernel_block(TransportKernel.pure_shift(d, 0)),
        )
        preds = cast_oracle(s, OPEN)
        np.testing.assert_allclose(preds[0], s.p_star, atol=1e-12)

    def test_asymmetric_three_regimes(self, rng):
        s = random_scenario(rng, d=6, k=3)
        preds = cast_oracle(s, OPEN)
        us = s.successors()
        np.testing.assert_allclose(preds, us, atol=1e-12)


class TestBudgetCheck:
    """`check_budget_feasible` asks the gate of `cast_oracle`'s own step."""

    @staticmethod
    def point_mass_scenario(kernels, pis=(1.0,)):
        """D = 7, p* a point mass at bin 4, rho = 0.5."""
        p = np.zeros(7)
        p[4] = 1.0
        return AliasingScenario(p_star=p, rho=0.5, pis=list(pis), kernels=kernel_block(*kernels))

    def test_gate_epsilon_at_the_boundary_raises(self):
        # |mean shift| = budget = 1: the gate divides the budget by
        # |mean shift| + epsilon, so it scales the transport by
        # 1 / (1 + 1e-8), and the oracle misses the successor by about 5e-9
        s = self.point_mass_scenario([TransportKernel.pure_shift(7, 1)])
        budget = BudgetParams(delta_mu=1.0, delta_sigma=0.0)
        gap = np.abs(cast_oracle(s, budget) - s.successors()).max()
        assert gap == pytest.approx(5.0e-9, rel=1e-6)
        with pytest.raises(InvalidValue) as err:
            s.check_budget_feasible(budget)
        assert str(err.value) == ("regime 0: the gate scales its transport by 0.99999999, "
                                  "as mean shift 1 + epsilon 1e-08 exceeds budget 1")

    def test_names_the_first_regime_the_gate_scales(self):
        s = self.point_mass_scenario(
            [TransportKernel.pure_shift(7, 0), TransportKernel.pure_shift(7, -1),
             TransportKernel.pure_shift(7, 1)],
            pis=(0.2, 0.3, 0.5),
        )
        with pytest.raises(InvalidValue, match="^regime 1: "):
            s.check_budget_feasible(BudgetParams(delta_mu=0.5, delta_sigma=0.0))

    def test_open_budget_never_binds(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            s = random_scenario(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)))
            s.check_budget_feasible(OPEN)
            assert cast_oracle(s, OPEN).tobytes() == s.successors().tobytes()


# -------------------------------------------------------------- dataset


class TestAliasingDataset:
    def test_markers_are_one_hot(self):
        m = regime_markers(21, 2)
        assert m.shape == (2, 21)
        np.testing.assert_allclose(m.sum(axis=1), 1.0)
        assert np.all((m == 0) | (m == 1))
        assert m[0, 0] == 1.0 and m[1, 20] == 1.0

    def test_noise_free_final_step_exact(self):
        s = default_scenario()
        seqs = build_aliasing_dataset(s, 50, seed=3)
        us = s.successors()
        for seq in seqs:
            z = int(seq.id.rsplit("z", 1)[1])
            np.testing.assert_allclose(seq.steps[-1], us[z], atol=1e-12)
            np.testing.assert_allclose(seq.steps[-2], s.p_star, atol=1e-12)

    def test_loss_mask_scores_only_final_transition(self):
        s = default_scenario()
        seqs = build_aliasing_dataset(s, 5, seed=0)
        for seq in seqs:
            assert seq.steps.shape == (4, s.dim)
            np.testing.assert_array_equal(seq.loss_mask, [False, False, True])

    def test_regime_frequencies_binomial(self):
        s = default_scenario()
        n = 2000
        seqs = build_aliasing_dataset(s, n, seed=7)
        count0 = sum(seq.id.endswith("z0") for seq in seqs)
        # 3-sigma band around the binomial mean
        sigma = np.sqrt(n * 0.25)
        assert abs(count0 - n / 2) < 3 * sigma

    def test_prelude_reveals_regime(self):
        # the first step's marker component separates the regimes by a wide
        # L1 margin even though the aliased step is identical
        s = default_scenario()
        seqs = build_aliasing_dataset(s, 40, seed=1)
        by_z = {0: [], 1: []}
        for seq in seqs:
            by_z[int(seq.id.rsplit("z", 1)[1])].append(seq.steps[0])
        gap = np.abs(by_z[0][0] - by_z[1][0]).sum()
        assert gap > 0.5
        for z in (0, 1):
            for step in by_z[z][1:]:
                np.testing.assert_allclose(step, by_z[z][0], atol=1e-12)

    def test_requires_two_sequences(self):
        with pytest.raises(ValueError):
            build_aliasing_dataset(default_scenario(), 1)


# ------------------------------------------------- synthetic experiment


class TestSyntheticExperiment:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_pool_equals_the_tasks_run_in_process(self, monkeypatch, cpus):
        # six (row, seed) tasks on 1, 2 or 3 workers: the table's bytes are
        # those of the tasks run in order in this process, and no worker
        # outlives the call
        scenario = default_scenario()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        pooled = theory.run_synthetic_experiment(scenario, [0, 1], n_sequences=8, iters=3)
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(evaluate, "_pool_map", lambda fn, tasks: [fn(t) for t in tasks])
        in_process = theory.run_synthetic_experiment(scenario, [0, 1], n_sequences=8, iters=3)
        assert json.dumps(pooled, sort_keys=True) == json.dumps(in_process, sort_keys=True)


# ------------------------------------------------ retrieval consistency


class TestRetrievalConsistency:
    def test_no_bound_violations(self):
        report = retrieval_consistency_check(d=8, n_queries=1000, seed=0)
        assert report["violations"] == 0
        assert report["lipschitz"] > 0

    def test_nn_distance_shrinks_with_density(self):
        report = retrieval_consistency_check(
            d=4, densities=(25, 100, 400, 1600), n_queries=300, seed=2
        )
        assert report["max_nn_distance"][-1] < report["max_nn_distance"][0]

    def test_zero_noise_bounded_by_lipschitz_term(self):
        report = retrieval_consistency_check(
            d=5, densities=(200,), n_queries=500, noise_l1=0.0, seed=1
        )
        assert report["violations"] == 0
        assert report["max_error"][0] <= report["lipschitz"] * report["max_nn_distance"][0] + 1e-9
