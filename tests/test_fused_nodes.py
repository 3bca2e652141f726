"""The hand-written reverse passes (retrieval, the gates, the kernel head,
the anchored-transport operator and its prior, the KL loss and the loss
reduction, run by `model.gradient` through `model.loss_var`'s one tape
node) against `tape_reference`, which builds the same forward pass from one
tape node per arithmetic operation.

Tolerances: the loss and p_hat within 1e-14, and every gradient within
1e-12 of the largest gradient magnitude over all parameters.
"""
import numpy as np
import pytest

from simplexcast.model import (
    VARIANTS,
    CastParams,
    ModelConfig,
    Split,
    _forward,
    gradient,
    make_batch,
)
from simplexcast.simplex import SimplexSeries
from simplexcast.transport import BudgetParams, cast_step

from tape_reference import (
    Var,
    as_ref_vars,
    cast_step_ref,
    loss_var_ref,
    operator_regularizer_ref,
)

# a budget so small that the mean-shift gate binds (gate < 1) on most rows
GATE_BINDS = dict(budget=BudgetParams(0.01, 0.0), rho_max=1.0)

CONFIGS = (
    [dict(variant=v, heads=h, ordered=o) for v in VARIANTS for h in (1, 2) for o in (True, False)]
    + [dict(heads=h, **GATE_BINDS) for h in (1, 2)]
    + [dict(feature_mode="current_only")]
)
N_BATCHES = 54  # two per configuration


def _random_batch(rng, cfg):
    """A batch over three sequences of unequal lengths: one t = 0 row with
    no memory and four rows with memories of different lengths."""
    seqs = [SimplexSeries(f"s{n}", cfg.ordered, rng.dirichlet(np.ones(cfg.dim), size=n))
            for n in (int(rng.integers(6, 10)), 5, 3)]
    positions = [(0, 0), (0, len(seqs[0].steps) - 2), (1, 3), (2, 1), (0, 2)]
    return make_batch(Split(seqs, cfg), positions)


def _assert_grads_close(got: dict, want: dict):
    scale = max(np.abs(g).max() for g in want.values())
    for k in want:
        assert np.abs(got[k] - want[k]).max() <= 1e-12 * scale, k


@pytest.mark.parametrize("i", range(N_BATCHES))
def test_fused_loss_and_gradients_match_reference(i):
    rng = np.random.default_rng(1000 + i)
    kw = CONFIGS[i % len(CONFIGS)]
    cfg = ModelConfig(dim=int(rng.integers(3, 8)),
                      **{"ordered": True, "window": 3, "d_r": 6, **kw})
    params = CastParams.init(cfg, seed=i)
    batch = _random_batch(rng, cfg)

    value, g = gradient(batch, params)
    pv_ref = as_ref_vars(params)
    ref, p_hat_ref = loss_var_ref(batch, pv_ref, cfg)
    ref.backward()

    assert abs(value - ref.item()) <= 1e-14
    p_hat, parts, _ = _forward(*batch[:3], params.values, cfg)
    assert np.abs(p_hat - p_hat_ref.data).max() <= 1e-14
    _assert_grads_close(CastParams(cfg, g).values, {k: v.grad for k, v in pv_ref.items()})
    if kw.get("budget") is GATE_BINDS["budget"]:
        assert np.any(parts["rho_eff"] < parts["rho"])  # the gate binds


@pytest.mark.parametrize("budget", [BudgetParams(), BudgetParams(0.01, 0.0)])
def test_operator_matches_reference_on_oracle_shapes(rng, budget):
    # theory.cast_oracle's call: one distribution, scalar lam and rho, and
    # per regime a (1, D, 3) batch of one kernel, computed as the one (D, 3)
    # kernel here is; the reference has every input on the tape, and
    # the step's one vjp of (w, 1) gives the gradients of
    # sum(w * p_hat) + prior for (r, lam, kernel, rho)
    weights = (0.1, 0.2, 0.3, 0.4)
    for _ in range(10):
        d = int(rng.integers(3, 9))
        p, r = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))
        inputs = (r, float(rng.uniform()), rng.dirichlet(np.ones(3), size=d),
                  float(rng.uniform(0.0, 1.0)))
        w = rng.normal(size=d)

        parts = cast_step(p, *inputs, budget, weights)
        got = float(np.sum(w * parts["p_hat"]) + parts["prior"])
        got_g = dict(enumerate(parts["vjp"](w, np.ones(()))))

        leaves = [Var(np.array(x)) for x in inputs]
        ref_parts = cast_step_ref(p, *leaves, budget)
        out = ((Var.lift(w) * ref_parts["p_hat"]).sum()
               + operator_regularizer_ref(ref_parts, weights))
        out.backward()
        want_g = {j: v.grad for j, v in enumerate(leaves)}

        assert abs(got - out.item()) <= 1e-14 * max(1.0, abs(out.item()))
        assert np.abs(parts["p_hat"] - ref_parts["p_hat"].data).max() <= 1e-14
        for j, g in got_g.items():
            assert np.shape(g) == np.shape(inputs[j])
        _assert_grads_close(got_g, want_g)
