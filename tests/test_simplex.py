import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexcast.errors import InvalidValue
from simplexcast.simplex import (
    SimplexSeries,
    helmert_basis,
    history_windows,
    ilr_forward,
    ilr_inverse,
    normalize,
    smooth,
    smoothed_levels,
)

from conftest import (
    convex_mix,
    descriptor_ref,
    ilr_inverse_row_ref,
    ilr_rows_ref,
    random_dist,
    stacked_windows_ref,
    window_ref,
)
from transport_reference import mean_support, std_support


class TestNormalize:
    def test_symmetric(self):
        np.testing.assert_allclose(normalize([2, 2]), [0.5, 0.5])

    def test_exact(self):
        np.testing.assert_allclose(normalize([1, 0, 0, 3]), [0.25, 0, 0, 0.75])

    def test_all_zero(self):
        with pytest.raises(InvalidValue, match="^raw masses sum to zero$"):
            normalize([0, 0])

    def test_negative(self):
        with pytest.raises(InvalidValue, match="^raw masses contain negative entries$"):
            normalize([1, -1])

    def test_block_rows_have_the_bytes_of_each_row(self, rng):
        for d in (2, 7, 8, 9, 33):
            block = rng.random((12, d)) * 1e3
            block[rng.random(block.shape) < 0.3] = 0.0
            block[:, 0] += 1e-9
            assert np.array_equal(normalize(block), np.array([normalize(r) for r in block]))
        with pytest.raises(InvalidValue, match="^raw masses sum to zero$"):
            normalize([[1.0, 0.0], [0.0, 0.0]])


class TestSmooth:
    def test_closed_form(self):
        out = smooth(np.array([1.0, 0.0]), 1e-8)
        np.testing.assert_allclose(out, [(1 + 1e-8) / (1 + 2e-8), 1e-8 / (1 + 2e-8)])

    def test_uniform_fixed_point(self):
        np.testing.assert_allclose(smooth(np.array([0.5, 0.5]), 0.3), [0.5, 0.5])

    def test_hand_arithmetic(self):
        out = smooth(np.array([0.0, 0.0, 1.0]), 0.01)
        np.testing.assert_allclose(out, [0.01 / 1.03, 0.01 / 1.03, 1.01 / 1.03])

    def test_monotone_in_eps(self, rng):
        p = random_dist(rng, 5)
        mins = [smooth(p, e).min() for e in [1e-8, 1e-6, 1e-4, 1e-2, 1e-1]]
        assert all(a <= b for a, b in zip(mins, mins[1:]))


class TestConvexMix:
    def test_identity_endpoints(self, rng):
        a, b = random_dist(rng, 4), random_dist(rng, 4)
        np.testing.assert_array_equal(convex_mix(a, b, 1.0), a)
        np.testing.assert_array_equal(convex_mix(a, b, 0.0), b)

    def test_exact(self):
        np.testing.assert_allclose(
            convex_mix(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.3), [0.3, 0.7]
        )

    def test_symmetry(self, rng):
        a, b = random_dist(rng, 6), random_dist(rng, 6)
        np.testing.assert_array_equal(convex_mix(a, b, 0.25), convex_mix(b, a, 0.75))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidValue, match=r"^shapes \(2,\) and \(3,\) differ$"):
            convex_mix(np.array([0.5, 0.5]), np.array([1 / 3] * 3), 0.5)


class TestIlr:
    def test_basis_orthonormal(self):
        for d in [2, 3, 5, 9]:
            b = helmert_basis(d)
            np.testing.assert_allclose(b @ b.T, np.eye(d - 1), atol=1e-12)

    def test_uniform_maps_to_zero(self):
        z = ilr_forward(np.full(5, 0.2))
        np.testing.assert_allclose(z, 0, atol=1e-12)

    def test_d2_closed_form(self):
        a = 0.7
        z = ilr_forward(np.array([a, 1 - a]))
        np.testing.assert_allclose(z, [np.log(a / (1 - a)) / np.sqrt(2)])

    def test_round_trip(self, rng):
        for d in [2, 3, 7, 12]:
            for _ in range(20):
                p = smooth(random_dist(rng, d), 1e-4)
                back = ilr_inverse(ilr_forward(p), d)
                assert np.abs(back - p).sum() < 1e-10

    def test_zero_component(self):
        with pytest.raises(InvalidValue, match="^ilr requires strictly positive entries"):
            ilr_forward(np.array([1.0, 0.0]))

    def test_inverse_zero_is_uniform(self):
        np.testing.assert_allclose(ilr_inverse(np.zeros(3), 4), np.full(4, 0.25))

    def test_large_magnitude_concentrates(self):
        p = ilr_inverse(np.array([50.0, 0.0]), 3)
        assert abs(p.sum() - 1) < 1e-12
        assert p.max() > 0.999


class TestSupportMoments:
    def test_point_mass(self):
        p = np.zeros(5)
        p[3] = 1.0
        assert mean_support(p) == 4.0
        assert std_support(p) == 0.0

    def test_uniform_d3(self):
        assert mean_support(np.full(3, 1 / 3)) == pytest.approx(2.0)

    def test_symmetric_mean(self):
        assert mean_support(np.array([0.5, 0.0, 0.5])) == pytest.approx(2.0)
        assert std_support(np.array([0.5, 0.0, 0.5])) == pytest.approx(1.0)

    def test_uniform_d2_std(self):
        assert std_support(np.array([0.5, 0.5])) == pytest.approx(0.5)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10**6), st.floats(0, 1))
def test_closure_fuzz(d, seed, lam):
    rng = np.random.default_rng(seed)
    raw = rng.gamma(0.5, 1.0, size=d) + 1e-12
    p = normalize(raw)
    q = normalize(rng.gamma(0.5, 1.0, size=d) + 1e-12)
    for v in [p, smooth(p, 1e-8), convex_mix(p, q, lam)]:
        assert np.all(v >= 0)
        assert abs(v.sum() - 1.0) <= 1e-9


class TestSimplexSeries:
    def test_default_mask(self):
        s = SimplexSeries("a", False, np.full((4, 3), 1 / 3))
        assert s.loss_mask.shape == (3,)
        assert s.loss_mask.all()

    def test_bad_mask_length(self):
        with pytest.raises(InvalidValue, match="^loss_mask length"):
            SimplexSeries("a", False, np.full((4, 3), 1 / 3), np.ones(2, dtype=bool))


class TestSequencePrimitives:
    def test_history_windows_pads_left(self):
        steps = np.array([[0.5, 0.5], [0.9, 0.1]])
        win = history_windows(steps, 3)[0]
        assert np.allclose(win, [0, 0, 0, 0, 0.5, 0.5])

    @pytest.mark.parametrize("t_len,w", [(1, 1), (1, 4), (3, 8), (6, 6), (12, 1), (12, 4)])
    def test_history_windows_equal_per_position_windows(self, rng, t_len, w):
        for d in range(2, 36):
            steps = rng.dirichlet(np.ones(d), size=t_len)
            got = history_windows(steps, w)
            assert got.shape == (t_len, w * d)
            for ref in (window_ref, descriptor_ref):
                assert np.array_equal(got, np.array([ref(steps, t, w) for t in range(t_len)]))
            assert np.array_equal(got, stacked_windows_ref(steps, w))

    def test_history_window_rows_are_causal(self, rng):
        steps = rng.dirichlet(np.ones(4), size=10)
        mutated = steps.copy()
        mutated[6:] = rng.dirichlet(np.ones(4), size=4)
        assert np.array_equal(history_windows(steps, 3)[:6], history_windows(mutated, 3)[:6])

    @pytest.mark.parametrize("t_len", [1, 2, 30])
    def test_block_ilr_equals_per_row_ilr(self, rng, t_len):
        for d in range(2, 36):
            steps = rng.dirichlet(np.full(d, 0.3), size=t_len)
            steps[0, 0] = 0.0  # smooth floors exact zeros
            steps[0] /= steps[0].sum()
            assert np.array_equal(ilr_forward(smooth(steps)), ilr_rows_ref(steps))

    @pytest.mark.parametrize("n", [1, 2, 30])
    def test_block_ilr_inverse_equals_per_row_inverse(self, rng, n):
        for d in range(2, 36):
            z = rng.standard_normal((n, d - 1)) * rng.uniform(0.01, 10, size=(n, 1))
            got = ilr_inverse(z, d)
            assert np.array_equal(got, np.array([ilr_inverse_row_ref(row) for row in z]))
            assert np.array_equal(ilr_inverse(z[0], d), got[0])

    def test_ilr_inverse_wrong_size(self):
        for z in (np.zeros(3), np.zeros((2, 3)), np.float64(0.0)):
            with pytest.raises(InvalidValue, match="^expected 2 coordinates, got"):
                ilr_inverse(z, 3)

    def test_block_ilr_zero_component(self):
        with pytest.raises(InvalidValue, match="^ilr requires strictly positive entries"):
            ilr_forward(np.array([[0.5, 0.5], [1.0, 0.0]]))

    @pytest.mark.parametrize("ew_beta", [0.0, 0.5, 0.75, 0.9, 0.95, 1.0])
    def test_levels_reproduce_encoder_ew_mean(self, rng, ew_beta):
        for d in (2, 6, 21, 35):
            for t_len in (1, 2, 17):
                steps = rng.dirichlet(np.ones(d), size=t_len)
                ew = np.empty_like(steps)
                ew[0] = steps[0]
                for t in range(1, t_len):
                    ew[t] = ew_beta * ew[t - 1] + (1.0 - ew_beta) * steps[t]
                assert np.array_equal(smoothed_levels(steps, 1.0 - ew_beta), ew)

    def test_levels_take_per_column_alphas(self, rng):
        z = rng.standard_normal((9, 3))
        alphas = np.array([0.05, 0.5, 0.95])
        levels = smoothed_levels(z, alphas)
        for c, alpha in enumerate(alphas):
            assert np.array_equal(levels[:, c], smoothed_levels(z[:, c], alpha))
        np.testing.assert_allclose(levels[1], alphas * z[1] + (1 - alphas) * z[0])
