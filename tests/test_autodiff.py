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
