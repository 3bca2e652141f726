"""Tests for the identifiability theory lab and the aliasing experiment."""
import numpy as np
import pytest

from simplexcast.metrics import jsd, js_weighted, kl, l1
from simplexcast.theory import (
    AliasingScenario,
    Regime,
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
from simplexcast.transport import TransportKernel, apply_transport

from hull_reference import anchor_hull_optimum, l1_distance_to_hull


# ------------------------------------------------------------ scenarios


class TestScenario:
    def test_default_scenario_well_formed(self):
        s = default_scenario()
        assert s.dim == 21
        assert s.k == 2
        np.testing.assert_allclose(s.p_star.sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(s.pis, [0.5, 0.5])
        s.check_budget_feasible()  # must not raise

    def test_default_scenario_interior_support(self):
        # unit shifts of the support must stay inside the bin range
        s = default_scenario()
        support = np.flatnonzero(s.p_star)
        assert support.min() >= 1 and support.max() <= s.dim - 2

    def test_successor_is_convex_blend(self):
        s = default_scenario()
        for z in range(s.k):
            moved = apply_transport(s.regimes[z].kernel, s.p_star)
            expected = (1 - s.rho) * s.p_star + s.rho * moved
            np.testing.assert_allclose(s.successor(z), expected, atol=1e-14)

    def test_rejects_bad_regime_weights(self):
        d = 4
        kernel = TransportKernel.pure_shift(d, 0)
        with pytest.raises(ValueError):
            AliasingScenario(
                p_star=np.full(d, 0.25),
                rho=0.1,
                regimes=(Regime(0.7, kernel), Regime(0.7, kernel)),
            )

    def test_rejects_bad_rho(self):
        d = 4
        kernel = TransportKernel.pure_shift(d, 0)
        with pytest.raises(ValueError):
            AliasingScenario(
                p_star=np.full(d, 0.25), rho=0.0, regimes=(Regime(1.0, kernel),)
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
            regimes=(Regime(1.0, TransportKernel.pure_shift(d, 1)),),
            budget=None,
        )
        # auto-sized budget is feasible by construction
        s.check_budget_feasible()
        from simplexcast.transport import BudgetParams

        tight = AliasingScenario(
            p_star=p,
            rho=0.5,
            regimes=(Regime(1.0, TransportKernel.pure_shift(d, 1)),),
            budget=BudgetParams(),
        )
        with pytest.raises(ValueError):
            tight.check_budget_feasible()

    def test_random_scenario_well_formed(self, rng):
        s = random_scenario(rng, d=5, k=3)
        assert s.dim == 5 and s.k == 3
        np.testing.assert_allclose(s.pis.sum(), 1.0, atol=1e-9)
        for z in range(s.k):
            u = s.successor(z)
            assert np.all(u >= -1e-15)
            np.testing.assert_allclose(u.sum(), 1.0, atol=1e-9)


# -------------------------------------------------------- fixed summary


class TestFixedSummary:
    def test_identical_regimes_zero_excess(self):
        d = 6
        kernel = TransportKernel.pure_shift(d, 1)
        s = AliasingScenario(
            p_star=np.full(d, 1 / d),
            rho=0.3,
            regimes=(Regime(0.5, kernel), Regime(0.5, kernel)),
        )
        q, excess = fixed_summary_optimum(s)
        assert fixed_summary_identity(s)
        assert excess < 1e-12
        np.testing.assert_allclose(q, s.successor(0), atol=1e-12)

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
        preds = cast_oracle(s)
        us = s.successors()
        for z in range(s.k):
            assert kl(us[z], preds[z]) < 1e-12
            np.testing.assert_allclose(preds[z], us[z], atol=1e-12)

    def test_identity_kernel_returns_p_star(self):
        d = 7
        s = AliasingScenario(
            p_star=np.full(d, 1 / d),
            rho=0.4,
            regimes=(Regime(1.0, TransportKernel.pure_shift(d, 0)),),
        )
        preds = cast_oracle(s)
        np.testing.assert_allclose(preds[0], s.p_star, atol=1e-12)

    def test_asymmetric_three_regimes(self, rng):
        s = random_scenario(rng, d=6, k=3)
        preds = cast_oracle(s)
        us = s.successors()
        np.testing.assert_allclose(preds, us, atol=1e-12)


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
