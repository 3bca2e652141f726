"""Divergences and distances between simplex points.

Every metric reduces over the last axis, as `simplex.smooth` does: it takes
one pair of distributions (D,) and returns a scalar, or a block (n, D) and
returns (n,) values; a (D,) query broadcasts against a block. Each row of a
block is summed as its own 1-D pair would be, so block and pair give the
same bytes. All logarithms are natural. KL smooths both arguments with the
same floor eps so that KL(p, p) == 0 exactly.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidValue
from .simplex import Dist, smooth

DEFAULT_EPS = 1e-8


def _check_same_dim(p, q):
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape[-1:] != q.shape[-1:]:
        raise InvalidValue(f"shapes {p.shape} and {q.shape} differ in D")
    return p, q


def kl(p: Dist, q: Dist, eps: float = DEFAULT_EPS):
    """KL(p || q) = sum p log(p/q), both arguments smoothed with eps."""
    p, q = _check_same_dim(p, q)
    ps = smooth(p, eps)
    qs = smooth(q, eps)
    return np.sum(ps * (np.log(ps) - np.log(qs)), axis=-1)


def jsd(p: Dist, q: Dist, eps: float = DEFAULT_EPS):
    """Jensen-Shannon divergence (natural log, in [0, ln 2])."""
    p, q = _check_same_dim(p, q)
    m = 0.5 * (p + q)
    return 0.5 * kl(p, m, eps) + 0.5 * kl(q, m, eps)


def l1(p: Dist, q: Dist):
    p, q = _check_same_dim(p, q)
    return np.abs(p - q).sum(axis=-1)


def bray_curtis(p: Dist, q: Dist):
    """l1(p, q) / Sum(p+q); equals l1/2 when both live on the simplex."""
    p, q = _check_same_dim(p, q)
    return l1(p, q) / (p + q).sum(axis=-1)


def w1_ordered(p: Dist, q: Dist):
    """1-D Wasserstein distance with unit ground metric on ordered bins:
    sum_j |cumsum(p - q)_j|."""
    p, q = _check_same_dim(p, q)
    return np.abs(np.cumsum(p - q, axis=-1)).sum(axis=-1)


def js_weighted(dists, weights, eps: float = DEFAULT_EPS) -> float:
    """Weighted Jensen-Shannon divergence: sum_z pi_z KL(u_z || mix)."""
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
        raise InvalidValue("weights must be nonnegative and sum to 1")
    ds = np.asarray([np.asarray(d, dtype=np.float64) for d in dists])
    if len(ds) != len(w):
        raise InvalidValue("one weight per distribution required")
    mix = w @ ds
    # the builtin sum adds the terms in order, as one pair at a time would
    return float(sum(w * kl(ds, mix, eps)))


def metric_report(p: Dist, q: Dist, ordered: bool = False, eps: float = DEFAULT_EPS) -> dict:
    """Every metric between targets p and predictions q, by name; "w1" only
    on ordered supports. Values are scalars for a pair, (n,) for a block."""
    report = {"kl": kl(p, q, eps), "jsd": jsd(p, q, eps), "l1": l1(p, q),
              "bray_curtis": bray_curtis(p, q)}
    if ordered:
        report["w1"] = w1_ordered(p, q)
    return report
