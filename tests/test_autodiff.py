"""The tape: `simplexcast.autodiff.Var.backward` itself, the elementary
operators of the reference tape (`tape_reference.Var`) against finite
differences, and the contract every reverse pass keeps: the reference
tape's rules, the forecaster's stages and its one loss node."""
import numpy as np
import pytest

from simplexcast import autodiff
from simplexcast.model import (
    CastParams,
    ModelConfig,
    _gate,
    _kernel_head,
    _kl_term,
    Split,
    _retrieval,
    loss_var,
    make_batch,
    support_position_encoding,
)
from simplexcast.simplex import SimplexSeries
from simplexcast.transport import BudgetParams, cast_step

from conftest import pad_memory_ref
from tape_reference import Var, unbroadcast


def finite_diff(f, x, h=1e-6):
    g = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
    return g


def check_grad(build, x0, atol=1e-6):
    v = Var(x0.copy())
    out = build(v)
    out.backward()
    num = finite_diff(lambda x: build(Var(x)).item(), x0)
    np.testing.assert_allclose(v.grad, num, atol=atol, rtol=1e-4)


def test_elementwise_chain(rng):
    x0 = rng.normal(size=5)
    check_grad(lambda v: ((v * v + 2.0 * v + (-1.0)) / 3.0).sum(), x0)


def test_sigmoid(rng):
    x0 = rng.normal(size=4)
    check_grad(lambda v: (v.sigmoid() * v.sigmoid() + v.sigmoid()).sum(), x0)


def test_matmul_forms(rng):
    a = rng.normal(size=(3, 4))
    x0 = rng.normal(size=4)
    check_grad(lambda v: (Var(a, requires_grad=False) @ v).sum(), x0)
    check_grad(lambda v: (v @ a.T).sum(), x0)
    w0 = rng.normal(size=(4, 2))
    check_grad(lambda v: (Var(a) @ v).sum(), x0)
    v = Var(w0.copy())
    out = (Var(a, requires_grad=False) @ v).sum()
    out.backward()
    num = finite_diff(lambda w: (a @ w).sum(), w0)
    np.testing.assert_allclose(v.grad, num, atol=1e-6)


def test_batched_matmul_forms(rng):
    # (F, R) @ (B, R, 1), (B, T, F) @ (B, F, 1), (B, 1, T) @ (B, T, D), (B, D) @ (D,)
    w = rng.normal(size=(5, 3))
    check_grad(lambda v: (Var(w, requires_grad=False) @ v).sum(), rng.normal(size=(4, 3, 1)))
    x3 = rng.normal(size=(4, 3, 1))
    check_grad(lambda v: ((v @ x3) * (v @ x3)).sum(), rng.normal(size=(5, 3)))
    m = rng.normal(size=(4, 6, 5))
    mc = Var(m, requires_grad=False)
    check_grad(lambda v: ((mc @ v) * (mc @ v)).sum(), rng.normal(size=(4, 5, 1)))
    s = rng.normal(size=(4, 6, 2))
    check_grad(lambda v: ((v @ s) * (v @ s)).sum(), rng.normal(size=(4, 1, 6)))
    bins = np.arange(1.0, 4.0)
    check_grad(lambda v: ((v @ bins) * (v @ bins)).sum(), rng.normal(size=(4, 3)))


def test_reshape(rng):
    w = rng.normal(size=(2, 3, 2))
    check_grad(lambda v: (v.reshape(2, 3, 2) * Var(w, requires_grad=False)).sum()
               + (v.reshape(12) * v.reshape(12)).sum(), rng.normal(size=(4, 3)))


def test_constant_operand_gets_no_gradient(rng):
    const = Var(rng.normal(size=(4, 6, 5)), requires_grad=False)
    w = Var(rng.normal(size=(4, 5, 1)))
    out = const @ w
    assert out._backward(np.ones(out.shape))[0] is None
    out.sum().backward()
    assert const.grad is None
    np.testing.assert_allclose(w.grad, np.swapaxes(const.data, -1, -2).sum(axis=-1, keepdims=True))


def test_softmax(rng):
    x0 = rng.normal(size=6)
    t = rng.dirichlet(np.ones(6))
    check_grad(lambda v: (Var(t, requires_grad=False) * v.softmax() * v.softmax()).sum(), x0)


def test_softmax_rows(rng):
    x0 = rng.normal(size=(4, 3))
    w = rng.normal(size=(4, 3))
    check_grad(lambda v: (Var(w, requires_grad=False) * v.softmax(axis=-1)).sum(), x0)


def test_broadcast_add_mul(rng):
    x0 = rng.normal(size=3)
    m = rng.normal(size=(4, 3))
    check_grad(lambda v: ((Var(m, requires_grad=False) + v) * v).sum(), x0)


def test_shift_mass_matches_numpy_and_grads(rng):
    # shift_mass against its definition, and the vector-Jacobian product the
    # fused operator node applies against finite differences
    from simplexcast.transport import _shift_mass_vjp, shift_mass

    d = 6
    m = rng.dirichlet(np.ones(d))[:, None] * rng.dirichlet(np.ones(3), size=d)
    ref = np.zeros(d)
    for j in range(d):
        for o in range(3):
            ref[min(max(j + o - 1, 0), d - 1)] += m[j, o]
    np.testing.assert_allclose(shift_mass(m[:, 0], m[:, 1], m[:, 2]), ref, atol=1e-15)
    w = rng.normal(size=d)
    num = finite_diff(lambda x: w @ shift_mass(x[:, 0], x[:, 1], x[:, 2]), m)
    np.testing.assert_allclose(_shift_mass_vjp(w), num, atol=1e-6)
    # one row at a time on a batch
    ws = rng.normal(size=(3, d))
    for row, w in zip(_shift_mass_vjp(ws), ws):
        np.testing.assert_array_equal(row, _shift_mass_vjp(w))


def test_shared_subexpression(rng):
    x0 = rng.normal(size=3)

    def build(v):
        s = v.sum()
        return s * s + s

    check_grad(build, x0)


def test_backward_requires_scalar():
    v = autodiff.Var(np.ones(3))
    with pytest.raises(ValueError):
        v.backward()
    with pytest.raises(ValueError):
        autodiff.Var(2.0 * v.data, (v,), lambda g: (2.0 * g,)).backward()


# ------------------------------------- matmul with a matrix shared by a batch


def product_sum_matmul_grads(a, b, g):
    """The matmul gradients as the (batch, m, n) per-item products, summed
    over the batch axes afterwards: the reference for a matrix shared
    across a batched operand. Byte equality pins the summation order that
    the training checkpoints' goldens were recorded with."""
    a2 = a[None, :] if a.ndim == 1 else a
    b2 = b[:, None] if b.ndim == 1 else b
    if b.ndim == 1:
        g = g[..., None]
    if a.ndim == 1:
        g = np.expand_dims(g, -2)
    ga = unbroadcast(g @ np.swapaxes(b2, -1, -2), a2.shape).reshape(a.shape)
    gb = unbroadcast(np.swapaxes(a2, -1, -2) @ g, b2.shape).reshape(b.shape)
    return ga, gb


@pytest.mark.parametrize("f", [21, 212, 352])
@pytest.mark.parametrize("b", [1, 3, 8])
def test_shared_matrix_grad_bytes_on_model_shapes(rng, f, b):
    # a weight (F, d_r) applied to a batch of queries (B, d_r, 1), and the
    # mirrored form with the shared matrix on the right
    wk, q = rng.normal(size=(f, 64)), rng.normal(size=(b, 64, 1))
    out = Var(wk) @ Var(q)
    g = rng.normal(size=out.shape)
    for got, ref in zip(out._backward(g), product_sum_matmul_grads(wk, q, g)):
        assert np.array_equal(got, ref)
    x, w = rng.normal(size=(b, 1, 64)), rng.normal(size=(64, f))
    out = Var(x) @ Var(w)
    g = rng.normal(size=out.shape)
    for got, ref in zip(out._backward(g), product_sum_matmul_grads(x, w, g)):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize(
    "a_shape, b_shape",
    [
        ((4, 3), (5, 3, 2)),  # contraction over the batch and n = 2
        ((4, 3), (2, 5, 3, 2)),  # two leading batch axes
        ((3,), (2, 5, 3, 4)),  # a shared 1-D operand
        ((5, 4, 3), (3, 2)),  # the shared matrix on the right
        ((2, 5, 4, 3), (3, 2)),
        ((2, 5, 3), (3,)),  # a shared 1-D operand on the right
    ],
)
def test_shared_matrix_grad_general_shapes(rng, a_shape, b_shape):
    a0, b0 = rng.normal(size=a_shape), rng.normal(size=b_shape)
    out_shape = (a0 @ b0).shape
    w = rng.normal(size=out_shape)
    g = rng.normal(size=out_shape)
    ga, gb = (Var(a0) @ Var(b0))._backward(g)
    ref_a, ref_b = product_sum_matmul_grads(a0, b0, g)
    np.testing.assert_allclose(ga, ref_a, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gb, ref_b, rtol=0, atol=1e-12)

    wc, ac = Var(w, requires_grad=False), Var(a0, requires_grad=False)
    check_grad(lambda v: (wc * (v @ b0) * (v @ b0)).sum(), a0)
    check_grad(lambda v: (wc * (ac @ v) * (ac @ v)).sum(), b0)


# -------------------------------------------------- no-in-place contract


def _node(out):
    """A tape node as a rule case: its shape, rule and parents' shapes."""
    return out.shape, out._backward, [parent.shape for parent in out.parents]


def _rule_cases(rng):
    """One case per reverse pass: the output shape, the rule, and the shape
    of each input it returns a gradient for (None where it returns none).
    The cases are the reference tape's operators, the forecaster's stages
    on small random inputs, and the one loss node of a training step."""
    x = Var(rng.uniform(0.5, 2.0, size=(3, 4)))
    y = Var(rng.uniform(0.5, 2.0, size=(3, 4)))
    row = Var(rng.uniform(0.5, 2.0, size=4))
    batch = Var(rng.normal(size=(2, 4, 3)))
    vec = Var(rng.normal(size=4))

    # three transitions over D = 5, and one with the theory oracle's shapes
    # (scalar lam and rho, one (D, 3) kernel) whose budget gate binds, each
    # with its prior; the prior's reverse pass is the step's vjp from a zero
    # gradient of p_hat
    p, r = (rng.dirichlet(np.ones(5), size=3) for _ in range(2))
    lam, rho = rng.uniform(size=3), rng.uniform(0.0, 0.2, size=3)
    kernel, k_oracle = rng.dirichlet(np.ones(3), size=(3, 5)), rng.dirichlet(np.ones(3), size=5)
    weights = (0.1, 0.2, 0.3, 0.4)
    step = cast_step(p, r, lam, kernel, rho, BudgetParams(), weights)
    oracle = cast_step(p[0], r[0], np.float64(0.4), k_oracle, np.float64(0.9),
                       BudgetParams(0.01, 0.0), weights)
    step_inputs = [r.shape, lam.shape, kernel.shape, rho.shape]
    oracle_inputs = [(5,), (), (5, 3), ()]

    cfg = ModelConfig(dim=5, ordered=True, window=2, heads=2, d_r=4)
    lengths = (0, 2, 4)  # a row with no memory, and unequal memories
    memory = pad_memory_ref([rng.normal(size=(t, cfg.feature_dim)) for t in lengths],
                         [rng.dirichlet(np.ones(5), size=t) for t in lengths])
    h = rng.normal(size=(3, cfg.feature_dim))
    params = CastParams.init(cfg, 0)
    values = params.values
    retrieval, retrieval_back, _ = _retrieval(p, h, memory, values, cfg)
    kl, kl_back = _kl_term(rng.dirichlet(np.ones(5), size=3), p)
    gate, gate_back = _gate(h, values["w_gate"], values["b_gate"], cfg.lambda_min,
                            cfg.lambda_max)
    pe = support_position_encoding(5)
    kernel_head, kernel_head_back = _kernel_head(h, pe, values)
    seqs = [SimplexSeries(f"s{i}", True, rng.dirichlet(np.ones(5), size=6)) for i in range(2)]
    out = loss_var(make_batch(Split(seqs, cfg), [(0, 0), (0, 4), (1, 2)]), params)
    return {
        "add": _node(x + y),
        "add_broadcast": _node(x + row),
        "mul": _node(x * y),
        "mul_broadcast": _node(x * row),
        "truediv": _node(x / row),
        "matmul": _node(x @ Var(rng.normal(size=(4, 2)))),
        "matmul_batched": _node(batch @ Var(rng.normal(size=(2, 3, 5)))),
        "matmul_shared_left": _node(x @ batch),
        "matmul_shared_right": _node(batch @ x),
        "matmul_vector": _node(x @ vec),
        "reshape": _node(x.reshape(12)),
        "sum_all": _node(x.sum()),
        "sum_axis": _node(x.sum(axis=0)),
        "sigmoid": _node(x.sigmoid()),
        "softmax": _node(x.softmax(axis=0)),
        "cast_step_anchor": ((3, 5), cast_step(p, r, lam, None, None, BudgetParams())["vjp"],
                             [r.shape, lam.shape, None, None]),
        "cast_step": ((3, 5), step["vjp"], step_inputs),
        "cast_step_oracle_shapes": ((5,), oracle["vjp"], oracle_inputs),
        "cast_step_prior": (step["prior"].shape,
                            lambda g: step["vjp"](np.zeros_like(p), g), step_inputs),
        "cast_step_prior_oracle_shapes": (np.shape(oracle["prior"]),
                                          lambda g: oracle["vjp"](np.zeros(5), g),
                                          oracle_inputs),
        "retrieval": (retrieval.shape, retrieval_back,
                      [values[k].shape for k in ("w_qk", "w_eta")]),
        "kl": (kl.shape, lambda g: (kl_back(g),), [p.shape]),
        "gate": (gate.shape, gate_back, [values["w_gate"].shape, values["b_gate"].shape]),
        "kernel_head": (kernel_head.shape, kernel_head_back,
                        [values[k].shape for k in ("wt_h", "wt_pe", "bt")]),
        "loss": _node(out),
    }


def test_rules_leave_incoming_gradient_unchanged(rng):
    # backward stores a first contribution as-is, so one array may be a
    # parent's gradient and a child's at once: no rule may write into it
    for name, (shape, back, _) in _rule_cases(rng).items():
        g = rng.normal(size=shape)
        g.setflags(write=False)
        before = g.copy()
        back(g)
        assert np.array_equal(g, before), name


def test_rules_return_parent_shapes(rng):
    # backward stores a first contribution without broadcasting it
    for name, (shape, back, inputs) in _rule_cases(rng).items():
        grads = back(rng.normal(size=shape))
        assert len(grads) == len(inputs), name
        for g, want in zip(grads, inputs):
            assert (g is None) if want is None else np.shape(g) == want, name


def test_accumulating_onto_a_shared_first_contribution(rng):
    # b's rule hands its incoming gradient to a and y unchanged, so a's first
    # contribution is the very array that is b's and y's gradient; adding a's
    # second contribution, through s, must leave those unchanged
    V = autodiff.Var
    x, y = V(rng.normal(size=4)), V(rng.normal(size=4))
    a = V(2.0 * x.data, (x,), lambda g: (2.0 * g,))
    b = V(a.data + y.data, (a, y), lambda g: (g, g))
    s = V(a.data.sum(), (a,), lambda g: (np.full(4, g),))
    out = V(b.data @ b.data + s.data, (b, s), lambda g: (2.0 * g * b.data, g))
    out.backward()
    assert y.grad is b.grad
    np.testing.assert_array_equal(y.grad, 2.0 * b.data)
    np.testing.assert_array_equal(b.grad, 2.0 * b.data)
    np.testing.assert_array_equal(x.grad, 2.0 * (2.0 * b.data + 1.0))
