"""Reference solvers for the anchor-only bound over a general anchor hull.

The paper states the anchor-only separation for the no-transport class
{lambda p* + (1 - lambda) r : r in hull(anchor_set)} = hull(anchors + p*).
`simplexcast.theory.anchor_only_optimum` computes the one-point class
(anchor_set = [p*]) in closed form; these solvers handle any anchor set,
with scipy's HiGHS LP for the L1 gap and exponentiated gradient, an EM
polish and an SLSQP fallback for the KL projection. The tests use them to
check the general statement and the closed form against it.
"""
import numpy as np
from scipy.optimize import linprog, minimize

from simplexcast.errors import SimplexCastError
from simplexcast.metrics import DEFAULT_EPS, kl


class OptimizationNotConverged(SimplexCastError):
    """A reference solver stopped without converging."""


def l1_distance_to_hull(target: np.ndarray, points: np.ndarray) -> float:
    """Exact min_w ||points^T w - target||_1 over the simplex, as a linear
    program (weights w plus per-coordinate slack)."""
    m, d = points.shape
    c = np.concatenate([np.zeros(m), np.ones(d)])
    a_ub = np.block(
        [[points.T, -np.eye(d)], [-points.T, -np.eye(d)]]
    )
    b_ub = np.concatenate([target, -target])
    a_eq = np.concatenate([np.ones(m), np.zeros(d)])[None, :]
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
        bounds=[(0, None)] * m + [(None, None)] * d, method="highs",
    )
    if not res.success:
        raise OptimizationNotConverged(f"hull-distance LP failed: {res.message}")
    return float(res.fun)


def minimize_kl_over_hull(
    target: np.ndarray,
    points: np.ndarray,
    n_starts: int,
    seed: int,
    iters: int = 600,
    eta: float = 0.3,
) -> tuple[np.ndarray, float]:
    """Minimize KL(target || points^T w) over simplex weights w by
    exponentiated gradient with multistart; raises when starts disagree."""
    rng = np.random.default_rng(seed)
    m, d = points.shape
    eps = DEFAULT_EPS
    ts = (target + eps) / (1.0 + d * eps)
    w = rng.dirichlet(np.ones(m), size=n_starts)
    for _ in range(iters):
        q = w @ points
        qs = (q + eps) / (1.0 + d * eps)
        grad_w = -(ts[None, :] / qs) @ points.T
        step = -eta * (grad_w - (grad_w * w).sum(axis=1, keepdims=True))
        w_new = w * np.exp(np.clip(step, -50.0, 50.0))
        w_new /= w_new.sum(axis=1, keepdims=True)
        if np.abs(w_new - w).max() < 1e-15:
            w = w_new
            break
        w = w_new
    # multiplicative (EM-style) polish: monotone for this likelihood shape
    for _ in range(3000):
        q = w @ points
        qs = (q + eps) / (1.0 + d * eps)
        mult = (ts[None, :] / qs) @ points.T
        w_new = w * mult
        w_new /= w_new.sum(axis=1, keepdims=True)
        if np.abs(w_new - w).max() < 1e-16:
            w = w_new
            break
        w = w_new

    def grad_at(wi):
        qs = (wi @ points + eps) / (1.0 + d * eps)
        return -(ts / qs) @ points.T / (1.0 + d * eps)

    def obj_at(wi):
        qs = (wi @ points + eps) / (1.0 + d * eps)
        return float(-(ts * np.log(qs)).sum() + (ts * np.log(ts)).sum())

    # each start must certify optimality via the Frank-Wolfe duality gap
    # (suboptimality <= grad.w - min_i grad_i for a convex objective);
    # stragglers get a constrained-solver polish from where they stand
    for s in range(len(w)):
        gap = float(grad_at(w[s]) @ w[s] - grad_at(w[s]).min())
        if gap <= 1e-9:
            continue
        res = minimize(
            obj_at,
            w[s],
            jac=grad_at,
            method="SLSQP",
            bounds=[(0.0, 1.0)] * m,
            constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0,
                          "jac": lambda x: np.ones_like(x)}],
            options={"maxiter": 200, "ftol": 1e-14},
        )
        cand = np.clip(res.x, 0.0, None)
        cand /= cand.sum()
        if obj_at(cand) < obj_at(w[s]):
            w[s] = cand
    objs = np.array([kl(target, wi @ points) for wi in w])
    if objs.max() - objs.min() > 1e-6:
        raise OptimizationNotConverged(
            f"hull KL multistart spread {objs.max() - objs.min():.2e}"
        )
    best = int(np.argmin(objs))
    return w[best] @ points, float(objs[best])


def anchor_hull_optimum(scenario, anchor_set, n_starts: int = 20, seed: int = 0):
    """Best per-regime prediction in hull(anchor_set + p*), by the solvers
    above. Returns (per-regime predictions, excess risk, per-regime L1 gaps
    to the hull)."""
    points = np.vstack([scenario.p_star] + [np.asarray(a) for a in anchor_set])
    qs, kls, deltas = [], [], []
    for z, u in enumerate(scenario.successors()):
        deltas.append(l1_distance_to_hull(u, points))
        q, obj = minimize_kl_over_hull(u, points, n_starts, seed + z)
        qs.append(q)
        kls.append(obj)
    return qs, float(scenario.pis @ np.array(kls)), np.array(deltas)
