"""Finite-difference checks and unit tests for the autodiff kernels."""

import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from absorb_diffuse import autodiff as ad

from helpers import check_gradient, numeric_gradient, rel_err

TOL_F32 = 1e-3
TOL_F64 = 1e-4
RNG = np.random.default_rng(20240817)


def _p(shape, scale=1.0, dtype=np.float32):
    return (RNG.standard_normal(shape) * scale).astype(dtype)


# ---------------------------------------------------------------------------
# elementwise and structural kernels


def test_add_broadcast_gradient():
    params = {"a": _p((3, 4)), "b": _p((4,))}
    ones_r = np.ones((4, 1), dtype=np.float32)
    ones_l = np.ones((1, 3), dtype=np.float32)

    def build(n):
        s = ad.add(n["a"], n["b"])
        return ad.reshape(ad.matmul(ad.matmul(ad.constant(ones_l), s), ad.constant(ones_r)), ())

    check_gradient(build, params, TOL_F32)


def test_mul_gradient():
    params = {"a": _p((2, 5)), "b": _p((2, 5))}
    w = ad.constant(_p((2, 5)))

    def build(n):
        prod = ad.mul(ad.mul(n["a"], n["b"]), w)
        flat = ad.reshape(prod, (1, 10))
        return ad.reshape(ad.matmul(flat, ad.constant(np.ones((10, 1), np.float32))), ())

    check_gradient(build, params, TOL_F32)


def test_matmul_gradient():
    params = {"a": _p((3, 4)), "b": _p((4, 2))}

    def build(n):
        out = ad.matmul(n["a"], n["b"])
        flat = ad.reshape(out, (1, 6))
        return ad.reshape(ad.matmul(flat, ad.constant(np.ones((6, 1), np.float32))), ())

    check_gradient(build, params, TOL_F32)


def test_matmul_batched_gradient():
    params = {"a": _p((2, 3, 4)), "b": _p((2, 4, 3))}

    def build(n):
        out = ad.matmul(n["a"], n["b"])  # [2, 3, 3]
        flat = ad.reshape(out, (1, 18))
        return ad.reshape(ad.matmul(flat, ad.constant(np.ones((18, 1), np.float32))), ())

    check_gradient(build, params, TOL_F32)


def test_matmul_nd_by_2d_gradient():
    params = {"a": _p((2, 3, 4)), "w": _p((4, 5))}

    def build(n):
        out = ad.matmul(n["a"], n["w"])  # [2, 3, 5]
        flat = ad.reshape(out, (1, 30))
        return ad.reshape(ad.matmul(flat, ad.constant(np.ones((30, 1), np.float32))), ())

    check_gradient(build, params, TOL_F32)


def test_matmul_shape_errors_name_both_shapes():
    a = ad.constant(np.zeros((2, 3), np.float32))
    b = ad.constant(np.zeros((4, 2), np.float32))
    with pytest.raises(ValueError) as exc:
        ad.matmul(a, b)
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


def test_narrow_and_concat_roundtrip_gradient():
    params = {"a": _p((4, 6))}

    def build(n):
        left = ad.narrow(n["a"], 1, 0, 2)
        right = ad.narrow(n["a"], 1, 2, 4)
        back = ad.concat([left, right], axis=1)
        flat = ad.reshape(back, (1, 24))
        return ad.reshape(ad.matmul(flat, ad.constant(np.ones((24, 1), np.float32))), ())

    check_gradient(build, params, TOL_F32)
    node = ad.parameter(params["a"])
    sliced = ad.narrow(node, 0, 1, 2)
    assert sliced.value.shape == (2, 6)
    np.testing.assert_array_equal(sliced.value, params["a"][1:3])


def test_transpose_reshape_gradient():
    params = {"a": _p((3, 4))}

    def build(n):
        t = ad.transpose(n["a"], (1, 0))
        r = ad.reshape(t, (2, 6))
        flat = ad.reshape(r, (1, 12))
        w = ad.constant(np.arange(12, dtype=np.float32).reshape(12, 1) / 6.0)
        return ad.reshape(ad.matmul(flat, w), ())

    check_gradient(build, params, TOL_F32)


def test_gelu_gradient_and_values():
    params = {"a": _p((3, 7), scale=2.0)}

    def build(n):
        g = ad.gelu(n["a"])
        flat = ad.reshape(g, (1, 21))
        return ad.reshape(ad.matmul(flat, ad.constant(np.ones((21, 1), np.float32))), ())

    check_gradient(build, params, TOL_F32)
    # tanh approximation at 0 gives exactly 0; large positive x passes through
    node = ad.constant(np.array([0.0, 10.0, -10.0], np.float32))
    out = ad.gelu(node).value
    assert abs(out[0]) < 1e-7
    assert abs(out[1] - 10.0) < 1e-3
    assert abs(out[2]) < 1e-3


def test_layer_norm_gradient():
    params = {
        "x": _p((4, 8), scale=3.0),
        "gain": (1.0 + 0.1 * RNG.standard_normal(8)).astype(np.float32),
        "bias": _p((8,), scale=0.2),
    }

    def build(n):
        y = ad.layer_norm(n["x"], n["gain"], n["bias"])
        flat = ad.reshape(y, (1, 32))
        w = ad.constant((RNG.standard_normal((32, 1)) * 0).astype(np.float32) + 1.0)
        return ad.reshape(ad.matmul(flat, w), ())

    check_gradient(build, params, TOL_F32)


def test_layer_norm_statistics():
    x = ad.constant(_p((5, 16), scale=4.0))
    gain = ad.constant(np.ones(16, np.float32))
    bias = ad.constant(np.zeros(16, np.float32))
    y = ad.layer_norm(x, gain, bias).value
    assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-5)
    assert np.allclose(y.var(axis=-1), 1.0, atol=1e-3)


def test_softmax_gradient_and_normalization():
    params = {"a": _p((3, 5), scale=2.0)}
    pick = ad.constant(_p((5, 1)))

    def build(n):
        s = ad.softmax(n["a"])
        return ad.reshape(ad.matmul(ad.matmul(ad.constant(np.ones((1, 3), np.float32)), s), pick), ())

    check_gradient(build, params, TOL_F32)
    sm = ad.softmax(ad.constant(_p((4, 9), scale=5.0))).value
    assert np.allclose(sm.sum(axis=-1), 1.0, atol=1e-5)


def test_embedding_lookup_gradient_accumulates_repeated_ids():
    table = _p((6, 4))
    ids = np.array([1, 3, 1, 1], dtype=np.int64)
    node = ad.parameter(table)
    out = ad.embedding_lookup(node, ids)
    flat = ad.reshape(out, (1, 16))
    loss = ad.reshape(ad.matmul(flat, ad.constant(np.ones((16, 1), np.float32))), ())
    loss.backward()
    # row 1 used three times -> gradient 3, row 3 once, others zero
    expect = np.zeros_like(table)
    expect[1] = 3.0
    expect[3] = 1.0
    np.testing.assert_allclose(node.grad, expect, rtol=0, atol=1e-6)


def test_diamond_graph_accumulates_both_paths():
    # y = a*a + a  (two paths into a): dy/da = 2a + 1
    a = ad.parameter(np.array(3.0, np.float32))
    y = ad.add(ad.mul(a, a), a)
    y.backward()
    assert abs(float(a.grad) - 7.0) < 1e-6


def _shared_leaf_graph(params=None):
    """Parameters (w, b, a), new unless given, and a scalar loss that reaches
    w twice and a through an embedding lookup with a repeated id. Its own
    rng leaves RNG's stream to the other tests."""
    rng = np.random.default_rng(11)
    head, w, b, a = (rng.standard_normal(s).astype(np.float32)
                     for s in ((4, 6), (4, 3), (3,), (5, 4)))
    w, b, a = params or (ad.parameter(w), ad.parameter(b), ad.parameter(a))
    x = ad.embedding_lookup(a, np.array([0, 2, 2]))
    h = ad.add(ad.matmul(x, w), b)
    h = ad.matmul(ad.gelu(h), ad.transpose(w, (1, 0)))
    logits = ad.matmul(h, ad.constant(head))
    loss = ad.softmax_cross_entropy(logits, np.array([1, 5, 0]), np.array([0.5, 1.0, 2.0]))
    return (w, b, a), loss


def test_backward_into_a_dict_leaves_grad_alone():
    params, loss = _shared_leaf_graph()
    grads = {}
    loss.backward(grads)
    assert set(grads) == set(params)
    assert all(p.grad is None for p in params)
    loss.backward()  # the same graph, into .grad
    for p in params:
        assert grads[p].dtype == p.value.dtype and grads[p].shape == p.value.shape
        np.testing.assert_array_equal(grads[p], p.grad)


def test_backward_without_a_dict_accumulates_into_grad():
    params, loss = _shared_leaf_graph()
    loss.backward()
    once = [p.grad.copy() for p in params]
    loss.backward()
    for p, g in zip(params, once):
        np.testing.assert_allclose(p.grad, 2 * g, rtol=1e-6, atol=0)
    # a second backward into a dict adds up there too, and leaves .grad as it was
    grads = {}
    loss.backward(grads)
    loss.backward(grads)
    for p, g in zip(params, once):
        np.testing.assert_allclose(grads[p], 2 * g, rtol=1e-6, atol=0)
        np.testing.assert_allclose(p.grad, 2 * g, rtol=1e-6, atol=0)


def test_concurrent_backwards_into_dicts_do_not_interfere():
    # graphs that share their leaves, run backward on more threads than
    # cores with a short switch interval, as training shards do
    params, loss = _shared_leaf_graph()
    want = {}
    loss.backward(want)

    def worker():
        out = []
        for _ in range(30):
            grads = {}
            _shared_leaf_graph(params)[1].backward(grads)
            out.append(grads)
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(worker) for _ in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(p.grad is None for p in params)
    for grads in itertools.chain.from_iterable(results):
        assert set(grads) == set(params)
        for p in params:
            np.testing.assert_array_equal(grads[p], want[p])


def test_backward_requires_a_scalar_root():
    a = ad.parameter(np.ones(3, np.float32))
    with pytest.raises(ValueError, match="scalar"):
        ad.add(a, a).backward()


# ---------------------------------------------------------------------------
# loss kernels


def test_cross_entropy_matches_manual_formula():
    logits = _p((7, 11), scale=3.0)
    targets = RNG.integers(0, 11, size=7)
    weights = RNG.random(7)
    node = ad.parameter(logits)
    loss = ad.softmax_cross_entropy(node, targets, weights)
    # independent reference with the same reduction order: shift in storage
    # precision, accumulate in float64
    z = (logits - logits.max(axis=-1, keepdims=True)).astype(np.float64)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    want = -(weights * logp[np.arange(7), targets]).sum()
    assert abs(float(loss.value) - want) < 1e-10
    assert loss.value.dtype == np.float64


def test_cross_entropy_gradient():
    logits = _p((6, 5), scale=2.0)
    targets = RNG.integers(0, 5, size=6)
    weights = RNG.random(6)
    params = {"logits": logits}

    def build(n):
        return ad.softmax_cross_entropy(n["logits"], targets, weights)

    check_gradient(build, params, TOL_F32)


def test_cross_entropy_zero_weight_annihilates():
    logits = _p((4, 6), scale=2.0)
    targets = np.array([0, 1, 2, 3])
    weights = np.array([1.0, 0.0, 2.0, 0.0])
    node = ad.parameter(logits)
    loss = ad.softmax_cross_entropy(node, targets, weights)
    loss.backward()
    assert np.all(node.grad[1] == 0.0)
    assert np.all(node.grad[3] == 0.0)
    # value equals the two-row weighted sum
    u = ad.token_log_losses(logits, targets)
    assert abs(float(loss.value) - (1.0 * u[0] + 2.0 * u[2])) < 1e-12


def test_cross_entropy_rejects_bad_shapes_and_targets():
    node = ad.constant(np.zeros((3, 4), np.float32))
    with pytest.raises(ValueError):
        ad.softmax_cross_entropy(node, np.array([0, 1]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        ad.softmax_cross_entropy(node, np.array([0, 1, 4]), np.ones(3))
    with pytest.raises(ValueError):
        ad.token_log_losses(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ValueError):
        ad.softmax_focal_cross_entropy(node, np.array([0, 1, -1]), np.ones(3), 1.0, 2.0)
    with pytest.raises(ValueError):
        ad.softmax_focal_cross_entropy(node, np.array([0, 1, 2]), np.ones(2), 1.0, 2.0)
    with pytest.raises(ValueError):
        ad.softmax_cross_entropy(node, np.array([0, 1, 2]), np.ones(3), logp=np.zeros((3, 5)))


def test_cross_entropy_with_given_log_probs_is_bit_identical():
    logits = _p((9, 13), scale=2.5)
    targets = RNG.integers(0, 13, size=9)
    weights = RNG.random(9)
    logp = ad.log_softmax(logits)
    for kernel in (ad.softmax_cross_entropy,
                   lambda *a, **k: ad.softmax_focal_cross_entropy(*a, 0.5, 2.0, **k)):
        a = ad.parameter(logits.copy())
        b = ad.parameter(logits.copy())
        own = kernel(a, targets, weights)
        given = kernel(b, targets, weights, logp=logp)
        assert float(own.value) == float(given.value)
        own.backward()
        given.backward()
        np.testing.assert_array_equal(a.grad, b.grad)


def test_focal_beta_zero_matches_plain_ce_bitwise():
    logits = _p((9, 13), scale=2.5)
    targets = RNG.integers(0, 13, size=9)
    weights = RNG.random(9)
    a = ad.parameter(logits.copy())
    b = ad.parameter(logits.copy())
    plain = ad.softmax_cross_entropy(a, targets, weights)
    focal = ad.softmax_focal_cross_entropy(b, targets, weights, alpha=1.0, beta=0.0)
    assert float(plain.value) == float(focal.value)
    plain.backward()
    focal.backward()
    np.testing.assert_array_equal(a.grad, b.grad)


def test_focal_gradient_full():
    logits = _p((5, 7), scale=2.0)
    targets = RNG.integers(0, 7, size=5)
    weights = RNG.random(5)
    params = {"logits": logits}

    def build(n):
        return ad.softmax_focal_cross_entropy(n["logits"], targets, weights,
                                              alpha=0.5, beta=2.0)

    check_gradient(build, params, TOL_F32)


def test_token_log_losses_public_view_matches_kernel():
    logits = _p((8, 6), scale=4.0)
    targets = RNG.integers(0, 6, size=8)
    u = ad.token_log_losses(logits, targets)
    node = ad.parameter(logits)
    loss = ad.softmax_cross_entropy(node, targets, np.ones(8))
    assert float(loss.value) == float(u.sum(dtype=np.float64))


# ---------------------------------------------------------------------------
# float64 test mode: same kernels, tighter tolerance


def test_kernels_under_float64_mode():
    with ad.using_dtype(np.float64):
        params = {
            "x": RNG.standard_normal((3, 8)).astype(np.float64),
            "gain": np.ones(8),
            "bias": np.zeros(8),
        }

        def build(n):
            y = ad.layer_norm(n["x"], n["gain"], n["bias"])
            g = ad.gelu(y)
            flat = ad.reshape(g, (1, 24))
            return ad.reshape(ad.matmul(flat, ad.constant(np.ones((24, 1)))), ())

        check_gradient(build, params, TOL_F64, eps=1e-5)


def test_float64_mode_keeps_float64_throughout():
    with ad.using_dtype(np.float64):
        a = ad.constant(np.ones((2, 2)))
        b = ad.constant(np.ones((2, 2)))
        assert ad.matmul(a, b).value.dtype == np.float64
        assert ad.add(a, b).value.dtype == np.float64
        assert ad.gelu(a).value.dtype == np.float64
    # restored afterwards
    assert ad.constant(np.ones(2)).value.dtype == np.float32


# ---------------------------------------------------------------------------
# optimizer


def test_adam_single_step_closed_form():
    w0 = np.array([1.0, -2.0], np.float32)
    p = ad.parameter(w0.copy())
    opt = ad.Adam({"w": p}, lr=0.1)
    g = np.array([0.5, -0.25], np.float32)
    p.grad = g.copy()
    opt.step()
    # bias-corrected first step reduces to w - lr * g / (|g| + eps)
    expect = w0 - 0.1 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p.value, expect, rtol=1e-6)
    assert p.grad is None
    assert opt.t == 1


def test_adam_state_roundtrip_bit_identical():
    rng = np.random.default_rng(7)
    w = rng.standard_normal(5).astype(np.float32)
    p1 = ad.parameter(w.copy())
    p2 = ad.parameter(w.copy())
    o1 = ad.Adam({"w": p1}, lr=0.05)
    o2 = ad.Adam({"w": p2}, lr=0.05)
    grads = [rng.standard_normal(5).astype(np.float32) for _ in range(4)]
    for g in grads[:2]:
        p1.grad = g.copy()
        o1.step()
    state = o1.state_dict()
    # fresh optimizer restored from state must continue identically
    for g in grads[:2]:
        p2.grad = g.copy()
        o2.step()
    o2.load_state_dict(state)
    p3 = ad.parameter(p1.value.copy())
    o3 = ad.Adam({"w": p3}, lr=0.05)
    o3.load_state_dict(state)
    for g in grads[2:]:
        p1.grad = g.copy()
        o1.step()
        p3.grad = g.copy()
        o3.step()
    np.testing.assert_array_equal(p1.value, p3.value)


def test_adam_skips_parameters_without_gradients():
    p = ad.parameter(np.ones(3, np.float32))
    q = ad.parameter(np.ones(3, np.float32))
    opt = ad.Adam({"p": p, "q": q}, lr=0.1)
    p.grad = np.ones(3, np.float32)
    opt.step()
    np.testing.assert_array_equal(q.value, np.ones(3, np.float32))
    assert not np.allclose(p.value, np.ones(3))


def test_set_default_dtype_rejects_others():
    with pytest.raises(ValueError):
        ad.set_default_dtype(np.int32)
    assert ad.default_dtype() == np.float32
