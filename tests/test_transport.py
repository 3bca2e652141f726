import numpy as np
import pytest

from simplexcast.metrics import l1, w1_ordered
from simplexcast.transport import BudgetParams, cast_step

from conftest import convex_mix, random_dist
from transport_reference import TransportKernel, apply_transport, budget, mean_support

REG_WEIGHTS = (5e-4, 5e-4, 1e-4, 5e-4)


def random_kernel(rng, d):
    rows = rng.gamma(1.0, 1.0, size=(d, 3)) + 1e-12
    return TransportKernel(rows / rows.sum(axis=1, keepdims=True))


def step(p, r, lam, kernel, rho, b, weights=None):
    """The operator's parts for a TransportKernel (or None)."""
    return cast_step(p, r, lam, None if kernel is None else kernel.rows, rho, b, weights)


def p_hat(p, r, lam, kernel, rho, b):
    return step(p, r, lam, kernel, rho, b)["p_hat"]


class TestApplyTransport:
    def test_identity(self, rng):
        a = random_dist(rng, 5)
        np.testing.assert_allclose(apply_transport(TransportKernel.identity(5), a), a)

    def test_right_shift_point_mass(self):
        a = np.array([1.0, 0.0, 0.0])
        out = apply_transport(TransportKernel.pure_shift(3, +1), a)
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0])

    def test_left_shift_clips_at_boundary(self):
        a = np.array([1.0, 0.0, 0.0])
        out = apply_transport(TransportKernel.pure_shift(3, -1), a)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0])

    def test_mass_conserved(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 9))
            a = random_dist(rng, d)
            out = apply_transport(random_kernel(rng, d), a)
            assert np.all(out >= 0)
            assert out.sum() == pytest.approx(1.0, abs=1e-9)


class TestBudgetGate:
    """The gate inside cast_step, with lam=1 so the anchor is a and a kernel
    chosen to give the hand-set ta."""

    def test_no_shift_no_scaling(self, rng):
        a = random_dist(rng, 4)
        parts = step(a, a, 1.0, TransportKernel.identity(4), 0.15, BudgetParams())
        assert parts["delta_mu"].item() == 0
        assert parts["rho_eff"].item() == pytest.approx(0.15)

    def test_formula_arithmetic(self):
        # unit mean shift against budget 0.25: gate = 0.25 / (1 + eps)
        a = np.array([1.0, 0.0, 0.0])
        b = BudgetParams(delta_mu=0.25, delta_sigma=0.0)
        parts = step(a, a, 1.0, TransportKernel.pure_shift(3, +1), 0.2, b)
        np.testing.assert_array_equal(parts["ta"], [0.0, 1.0, 0.0])
        assert parts["delta_mu"].item() == pytest.approx(1.0)
        assert parts["rho_eff"].item() == pytest.approx(0.2 * 0.25 / (1.0 + b.epsilon), abs=1e-8)

    def test_inside_budget(self):
        a = np.array([0.95, 0.05, 0.0])
        move = 0.1 / 0.95  # bin 1 sends 0.1 of mass right
        k = TransportKernel(np.array([[0.0, 1.0 - move, move], [0, 1, 0], [0, 1, 0]]))
        parts = step(a, a, 1.0, k, 0.2, BudgetParams(delta_mu=0.25, delta_sigma=0.0))
        np.testing.assert_allclose(parts["ta"], [0.85, 0.15, 0.0])  # mean shift 0.1 < budget
        assert parts["delta_mu"].item() == pytest.approx(0.1)
        assert parts["rho_eff"].item() == pytest.approx(0.2)


class TestCastStep:
    def test_persistence_identity(self, rng):
        p, r = random_dist(rng, 5), random_dist(rng, 5)
        k = random_kernel(rng, 5)
        out = p_hat(p, r, 1.0, k, 0.0, BudgetParams())
        np.testing.assert_array_equal(out, p)

    def test_pure_anchor_identity(self, rng):
        p, r = random_dist(rng, 5), random_dist(rng, 5)
        out = p_hat(p, r, 0.0, random_kernel(rng, 5), 0.0, BudgetParams())
        np.testing.assert_array_equal(out, r)

    def test_identity_kernel_fixed_point(self, rng):
        p, r = random_dist(rng, 4), random_dist(rng, 4)
        out = p_hat(p, r, 0.3, TransportKernel.identity(4), 0.2, BudgetParams())
        np.testing.assert_allclose(out, convex_mix(p, r, 0.3))

    def test_unordered_disables_transport(self, rng):
        # unordered supports pass no kernel: the step is the anchor
        p, r = random_dist(rng, 4), random_dist(rng, 4)
        parts = step(p, r, 0.3, None, 0.2, BudgetParams(), REG_WEIGHTS)
        np.testing.assert_allclose(parts["p_hat"], convex_mix(p, r, 0.3))
        assert parts["rho_eff"] is None
        assert parts["prior"] is None


class TestRegularizer:
    def test_identity_zero(self, rng):
        a = random_dist(rng, 4)
        parts = step(a, a, 1.0, TransportKernel.identity(4), 0.0, BudgetParams(), REG_WEIGHTS)
        assert parts["prior"].item() == 0

    def test_constant_rows_zero_smoothness(self, rng):
        rows = np.tile([0.2, 0.5, 0.3], (5, 1))
        a = random_dist(rng, 5)
        # isolate the smoothness term
        parts = step(a, a, 1.0, TransportKernel(rows), 0.0, BudgetParams(), (0, 0, 1, 0))
        assert parts["prior"].item() == 0

    def test_right_shift_hand_values(self):
        d = 3
        a = np.full(d, 1 / 3)
        b = BudgetParams()
        kernel = TransportKernel.pure_shift(d, +1)
        off_id = step(a, a, 1.0, kernel, 0.0, b, (0, 1, 0, 0))["prior"].item()
        assert off_id == pytest.approx(3.0)
        shift = step(a, a, 1.0, kernel, 0.0, b, (0, 0, 0, 1))["prior"].item()
        assert shift == pytest.approx(((2 / 3) / budget(b, a)) ** 2)


class TestDriftInvariants:
    def test_fuzz_closure_and_bounds(self, rng):
        b = BudgetParams()
        for _ in range(2000):
            d = int(rng.integers(3, 10))
            p, r = random_dist(rng, d), random_dist(rng, d)
            lam = float(rng.uniform())
            rho = float(rng.uniform(0, 0.2))
            k = random_kernel(rng, d)
            a = convex_mix(p, r, lam)
            ta = apply_transport(k, a)
            parts = step(p, r, lam, k, rho, b)
            rho_eff, out = parts["rho_eff"].item(), parts["p_hat"]
            for v in (a, ta, out):
                assert np.all(v >= -1e-15)
                assert v.sum() == pytest.approx(1.0, abs=1e-9)
            assert w1_ordered(a, out) <= rho_eff + 1e-9
            assert abs(mean_support(out) - mean_support(a)) <= rho * budget(b, a) + 1e-9

    def test_l1_nonexpansive(self, rng):
        for _ in range(500):
            d = int(rng.integers(2, 9))
            k = random_kernel(rng, d)
            a, ap = random_dist(rng, d), random_dist(rng, d)
            assert l1(apply_transport(k, a), apply_transport(k, ap)) <= l1(a, ap) + 1e-12

    def test_approximation_bound(self, rng):
        # perturbed operator vs oracle: ||u~ - u||_1 <= eps_r + 2 eps_lam
        # + rho_max * eps_T + 2 eps_rho
        b = BudgetParams(delta_mu=1e9)  # disable gating; bound is about raw stages
        rho_max = 0.2
        for _ in range(1000):
            d = int(rng.integers(3, 8))
            p = random_dist(rng, d)
            r, r2 = random_dist(rng, d), random_dist(rng, d)
            lam, lam2 = float(rng.uniform()), float(rng.uniform())
            rho, rho2 = float(rng.uniform(0, rho_max)), float(rng.uniform(0, rho_max))
            k, k2 = random_kernel(rng, d), random_kernel(rng, d)
            u = p_hat(p, r, lam, k, rho, b)
            u2 = p_hat(p, r2, lam2, k2, rho2, b)
            a2 = convex_mix(p, r2, lam2)
            eps_r = l1(r, r2)
            eps_lam = abs(lam - lam2)
            eps_rho = abs(rho - rho2)
            eps_t = l1(apply_transport(k, a2), apply_transport(k2, a2))
            bound = eps_r + 2 * eps_lam + rho_max * eps_t + 2 * eps_rho
            assert l1(u, u2) <= bound + 1e-9
