import numpy as np
import pytest

from simplexcast.autodiff import Var, shift_mass_var


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
    check_grad(lambda v: ((v * v + 2.0 * v - 1.0) / 3.0).sum(), x0)


def test_log_sigmoid_sqrt(rng):
    x0 = rng.uniform(0.5, 2.0, size=4)
    check_grad(lambda v: (v.log() + v.sigmoid() + v.sqrt()).sum(), x0)


def test_matmul_forms(rng):
    a = rng.normal(size=(3, 4))
    x0 = rng.normal(size=4)
    check_grad(lambda v: (a @ v).sum(), x0)
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
    check_grad(lambda v: ((m @ v) * (m @ v)).sum(), rng.normal(size=(4, 5, 1)))
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
    check_grad(lambda v: -(Var(t, requires_grad=False) * v.softmax().log()).sum(), x0)


def test_softmax_rows(rng):
    x0 = rng.normal(size=(4, 3))
    w = rng.normal(size=(4, 3))
    check_grad(lambda v: (Var(w, requires_grad=False) * v.softmax(axis=-1)).sum(), x0)


def test_abs_and_clip(rng):
    x0 = rng.normal(size=5) + 0.1
    check_grad(lambda v: (v.abs() + v.clip_max(0.3)).sum(), x0)


def test_broadcast_add_mul(rng):
    x0 = rng.normal(size=3)
    m = rng.normal(size=(4, 3))
    check_grad(lambda v: ((Var(m, requires_grad=False) + v) * v).sum(), x0)


def test_getitem(rng):
    x0 = rng.normal(size=6)
    check_grad(lambda v: (v[1:4] * v[1:4]).sum() + v[0], x0)
    # an advanced index may repeat an element; its gradients add up
    check_grad(lambda v: (v[[0, 0, 3]] * v[[0, 0, 3]]).sum(), x0)
    x2 = rng.normal(size=(3, 4))
    check_grad(lambda v: (v[..., 1:] * v[:, 0:1]).sum() + (v[..., 2] * v[..., 2]).sum(), x2)


def test_shift_mass_matches_numpy_and_grads(rng):
    from simplexcast.transport import shift_mass

    d = 6
    a0 = rng.dirichlet(np.ones(d))
    k0 = rng.dirichlet(np.ones(3), size=d)

    def build(v):
        m = v
        left = m * Var(k0[:, 0], requires_grad=False)
        stay = m * Var(k0[:, 1], requires_grad=False)
        right = m * Var(k0[:, 2], requires_grad=False)
        out = shift_mass_var(left, stay, right)
        w = np.arange(1, d + 1, dtype=float)
        return (Var(w, requires_grad=False) * out).sum()

    v = Var(a0.copy())
    out = build(v)
    ref = shift_mass(a0 * k0[:, 0], a0 * k0[:, 1], a0 * k0[:, 2])
    assert out.item() == pytest.approx(np.arange(1, d + 1) @ ref)
    out.backward()
    num = finite_diff(lambda x: build(Var(x)).item(), a0)
    np.testing.assert_allclose(v.grad, num, atol=1e-6)


def test_shared_subexpression(rng):
    x0 = rng.normal(size=3)

    def build(v):
        s = v.sum()
        return s * s + s

    check_grad(build, x0)


def test_backward_requires_scalar():
    v = Var(np.ones(3))
    with pytest.raises(ValueError):
        (v * 2.0).backward()


# ---------------------------------------------- shared-matrix matmul rule


def product_sum_matmul_grads(a, b, g):
    """The matmul gradients as the (batch, m, n) per-item products, summed
    over the batch axes afterwards: the reference for the shared-matrix
    rule."""
    from simplexcast.autodiff import _unbroadcast

    a2 = a[None, :] if a.ndim == 1 else a
    b2 = b[:, None] if b.ndim == 1 else b
    if b.ndim == 1:
        g = g[..., None]
    if a.ndim == 1:
        g = np.expand_dims(g, -2)
    ga = _unbroadcast(g @ np.swapaxes(b2, -1, -2), a2.shape).reshape(a.shape)
    gb = _unbroadcast(np.swapaxes(a2, -1, -2) @ g, b2.shape).reshape(b.shape)
    return ga, gb


@pytest.mark.parametrize("f", [21, 212, 352])
@pytest.mark.parametrize("b", [1, 3, 8])
def test_shared_matrix_grad_bytes_on_model_shapes(rng, f, b):
    # the retrieval keys wk (F, d_r) @ q (B, d_r, 1), and the mirrored form
    # with the shared matrix on the right
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

    wc = Var(w, requires_grad=False)
    check_grad(lambda v: (wc * (v @ b0) * (v @ b0)).sum(), a0)
    check_grad(lambda v: (wc * (a0 @ v) * (a0 @ v)).sum(), b0)


# -------------------------------------------------- no-in-place contract


def _rule_cases(rng):
    """One output node per backward rule, its inputs all requiring a
    gradient."""
    x = Var(rng.uniform(0.5, 2.0, size=(3, 4)))
    y = Var(rng.uniform(0.5, 2.0, size=(3, 4)))
    row = Var(rng.uniform(0.5, 2.0, size=4))
    batch = Var(rng.normal(size=(2, 4, 3)))
    vec = Var(rng.normal(size=4))
    left, stay, right = (Var(rng.uniform(size=(3, 5))) for _ in range(3))
    return {
        "add": x + y,
        "add_broadcast": x + row,
        "neg": -x,
        "mul": x * y,
        "mul_broadcast": x * row,
        "truediv": x / row,
        "matmul": x @ Var(rng.normal(size=(4, 2))),
        "matmul_batched": batch @ Var(rng.normal(size=(2, 3, 5))),
        "matmul_shared_left": x @ batch,
        "matmul_shared_right": batch @ x,
        "matmul_vector": x @ vec,
        "getitem_basic": x[1:, ::2],
        "getitem_advanced": x[[0, 0, 2]],
        "reshape": x.reshape(12),
        "sum_all": x.sum(),
        "sum_axis": x.sum(axis=0),
        "log": x.log(),
        "sqrt": x.sqrt(),
        "abs": x.abs(),
        "sigmoid": x.sigmoid(),
        "softmax": x.softmax(axis=0),
        "clip_max": x.clip_max(1.0),
        "shift_mass": shift_mass_var(left, stay, right),
    }


def test_rules_leave_incoming_gradient_unchanged(rng):
    # backward stores a first contribution as-is, so one array may be a
    # parent's gradient and a child's at once: no rule may write into it
    for name, out in _rule_cases(rng).items():
        g = rng.normal(size=out.shape)
        g.setflags(write=False)
        before = g.copy()
        grads = out._backward(g)
        assert len(grads) == len(out.parents), name
        assert np.array_equal(g, before), name


def test_rules_return_parent_shapes(rng):
    # backward stores a first contribution without broadcasting it
    for name, out in _rule_cases(rng).items():
        grads = out._backward(rng.normal(size=out.shape))
        for parent, g in zip(out.parents, grads):
            assert g.shape == parent.shape, name


def test_accumulating_onto_a_shared_first_contribution(rng):
    # a's first contribution comes from the add, the same array as y's and
    # b's; adding a's second contribution must leave those unchanged
    x, y = Var(rng.normal(size=4)), Var(rng.normal(size=4))
    a = x * 2.0
    b = a + y
    ((b * b).sum() + a.sum()).backward()
    np.testing.assert_array_equal(y.grad, 2.0 * b.data)
    np.testing.assert_array_equal(b.grad, 2.0 * b.data)
    np.testing.assert_array_equal(x.grad, 2.0 * (2.0 * b.data + 1.0))
