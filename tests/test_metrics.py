import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from simplexcast import metrics
from simplexcast.errors import InvalidValue
from simplexcast.metrics import (
    bray_curtis,
    jsd,
    js_weighted,
    kl,
    l1,
    metric_report,
    w1_ordered,
)

from conftest import METRIC_REFS, pinsker_lower_bound, random_dist


def transport_lp(p, q):
    """Independent oracle: optimal-transport cost on the line with unit
    ground metric |i - j|, solved as an LP over the full coupling."""
    d = len(p)
    cost = np.abs(np.subtract.outer(np.arange(d), np.arange(d))).ravel().astype(float)
    a_eq = []
    for i in range(d):  # row marginals
        row = np.zeros((d, d))
        row[i, :] = 1
        a_eq.append(row.ravel())
    for j in range(d):  # column marginals
        col = np.zeros((d, d))
        col[:, j] = 1
        a_eq.append(col.ravel())
    res = linprog(cost, A_eq=np.array(a_eq), b_eq=np.concatenate([p, q]), method="highs")
    assert res.success
    return res.fun


class TestKL:
    def test_zero_on_equal(self, rng):
        p = random_dist(rng, 5)
        assert kl(p, p) == pytest.approx(0, abs=1e-12)

    def test_point_vs_uniform(self):
        # sum p ln(p/q) with p=[1,0], q=[0.5,0.5] is ln 2 up to smoothing
        assert kl(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(
            np.log(2), abs=1e-6
        )

    def test_hand_arithmetic(self):
        # 0.8 ln 4 + 0.2 ln(1/4) = 0.6 ln 4
        v = kl(np.array([0.8, 0.2]), np.array([0.2, 0.8]))
        assert v == pytest.approx(0.6 * np.log(4), abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidValue, match=r"^shapes \(2,\) and \(3,\) differ in D$"):
            kl(np.array([0.5, 0.5]), np.array([1 / 3] * 3))

    def test_nonnegative(self, rng):
        for _ in range(100):
            assert kl(random_dist(rng, 6), random_dist(rng, 6)) >= 0


class TestJSD:
    def test_zero_and_symmetry(self, rng):
        p, q = random_dist(rng, 4), random_dist(rng, 4)
        assert jsd(p, p) == pytest.approx(0, abs=1e-12)
        assert jsd(p, q) == pytest.approx(jsd(q, p), abs=1e-12)

    def test_maximal_disjoint(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert jsd(p, q) == pytest.approx(np.log(2), abs=1e-6)

    def test_bounded(self, rng):
        for _ in range(200):
            assert 0 <= jsd(random_dist(rng, 5), random_dist(rng, 5)) <= np.log(2) + 1e-12


class TestL1BrayCurtis:
    def test_zero_on_equal(self, rng):
        p = random_dist(rng, 4)
        assert l1(p, p) == 0
        assert bray_curtis(p, p) == 0

    def test_maximal(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert l1(p, q) == pytest.approx(2)
        assert bray_curtis(p, q) == pytest.approx(1)

    def test_half_identity_on_simplex(self, rng):
        for _ in range(50):
            p, q = random_dist(rng, 7), random_dist(rng, 7)
            assert bray_curtis(p, q) == pytest.approx(l1(p, q) / 2, abs=1e-12)


class TestW1:
    def test_zero_on_equal(self, rng):
        p = random_dist(rng, 6)
        assert w1_ordered(p, p) == 0

    def test_point_masses(self):
        p = np.array([1.0, 0.0, 0.0])
        q = np.array([0.0, 0.0, 1.0])
        assert w1_ordered(p, q) == pytest.approx(2)

    def test_matches_transport_lp(self, rng):
        for d in [2, 3, 4, 5, 6]:
            for _ in range(10):
                p, q = random_dist(rng, d), random_dist(rng, d)
                assert w1_ordered(p, q) == pytest.approx(transport_lp(p, q), abs=1e-9)


class TestJsWeighted:
    def test_identical(self, rng):
        p = random_dist(rng, 4)
        assert js_weighted([p, p, p], [0.2, 0.3, 0.5]) == pytest.approx(0, abs=1e-12)

    def test_equal_weights_reduce_to_jsd(self, rng):
        p, q = random_dist(rng, 5), random_dist(rng, 5)
        assert js_weighted([p, q], [0.5, 0.5]) == pytest.approx(jsd(p, q), abs=1e-12)

    def test_invalid_weights(self, rng):
        p = random_dist(rng, 3)
        with pytest.raises(InvalidValue, match="^weights must be nonnegative and sum to 1$"):
            js_weighted([p, p], [0.5, 0.6])
        with pytest.raises(InvalidValue, match="^weights must be nonnegative and sum to 1$"):
            js_weighted([p, p], [1.5, -0.5])

    def test_mixture_is_grid_minimum(self, rng):
        # brute-force oracle: minimize sum pi_z KL(u_z, q) over a simplex grid
        us = [random_dist(rng, 3) for _ in range(3)]
        pi = np.array([0.2, 0.5, 0.3])
        value = js_weighted(us, pi)
        step = 0.01
        best = np.inf
        for i, j in itertools.product(range(101), repeat=2):
            if i + j > 100:
                continue
            q = np.array([i, j, 100 - i - j]) * step
            best = min(best, sum(w * kl(u, q) for w, u in zip(pi, us)))
        assert value <= best + 1e-9
        assert value == pytest.approx(best, abs=1e-3)


class TestPinsker:
    def test_hand_value(self):
        p = np.array([0.8, 0.2])
        q = np.array([0.2, 0.8])
        assert pinsker_lower_bound(p, q) == pytest.approx(0.72)
        assert pinsker_lower_bound(p, q) <= kl(p, q)

    def test_fuzz_never_violated(self, rng):
        for _ in range(2000):
            d = int(rng.integers(2, 9))
            p, q = random_dist(rng, d), random_dist(rng, d)
            assert kl(p, q) >= pinsker_lower_bound(p, q) - 1e-12


def test_sqrt_jsd_triangle_inequality(rng):
    for _ in range(300):
        d = int(rng.integers(2, 7))
        p, q, r = (random_dist(rng, d) for _ in range(3))
        assert np.sqrt(jsd(p, q)) <= np.sqrt(jsd(p, r)) + np.sqrt(jsd(r, q)) + 1e-9
        assert l1(p, q) <= l1(p, r) + l1(r, q) + 1e-12
        assert w1_ordered(p, q) <= w1_ordered(p, r) + w1_ordered(r, q) + 1e-12


def test_metric_report(rng):
    p, q = random_dist(rng, 5), random_dist(rng, 5)
    rep = metric_report(p, q, ordered=True)
    assert rep["w1"] == pytest.approx(w1_ordered(p, q))
    assert list(rep) == ["kl", "jsd", "l1", "bray_curtis", "w1"]
    assert "w1" not in metric_report(p, q)


@pytest.mark.parametrize("name", sorted(METRIC_REFS))
def test_block_rows_equal_pair_reference(rng, name):
    """Rows of a block, and a (D,) query broadcast on either side, give the
    bytes of the one-pair formula, from D = 2 to 80 and n = 1 to 300."""
    metric, ref = getattr(metrics, name), METRIC_REFS[name]
    sizes = [(2, 1), (2, 300), (80, 1), (80, 300)]
    sizes += [(int(rng.integers(2, 81)), int(rng.integers(1, 301))) for _ in range(12)]
    for d, n in sizes:
        # small concentrations put many bins near zero, where the eps floor acts
        p, q = (rng.dirichlet(np.full(d, 0.3), size=n) for _ in range(2))
        query = rng.dirichlet(np.ones(d))
        assert np.array_equal(metric(p, q), [ref(a, b) for a, b in zip(p, q)])
        assert np.array_equal(metric(query, q), [ref(query, b) for b in q])
        assert np.array_equal(metric(p, query), [ref(a, query) for a in p])
        assert metric(p[0], q[0]) == ref(p[0], q[0])


@pytest.mark.parametrize("name", sorted(METRIC_REFS))
def test_block_dimension_mismatch_raises(name):
    metric = getattr(metrics, name)
    block = np.full((4, 3), 1 / 3)
    for other in (np.full(5, 0.2), np.full((4, 2), 0.5)):
        with pytest.raises(InvalidValue, match="differ in D$"):
            metric(block, other)
        with pytest.raises(InvalidValue, match="differ in D$"):
            metric(other, block)
