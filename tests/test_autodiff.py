"""Finite-difference checks and unit tests for the autodiff kernels."""

import itertools
import math
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from absorb_diffuse import autodiff as ad
from absorb_diffuse.model import NEG_INF

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


@pytest.mark.parametrize("a_shape", [(3, 4)])
def test_matmul_bias_gradient_float64(a_shape):
    params = {"a": _p(a_shape, dtype=np.float64), "w": _p((4, 5), dtype=np.float64),
              "c": _p((5,), dtype=np.float64)}
    n = int(np.prod(a_shape[:-1])) * 5
    probe = _p((n, 1), dtype=np.float64)

    def build(nodes):
        out = ad.matmul(nodes["a"], nodes["w"], nodes["c"])
        flat = ad.reshape(out, (1, n))
        return ad.reshape(ad.matmul(flat, ad.constant(probe, np.float64)), ())

    with ad.using_dtype(np.float64):
        check_gradient(build, params, TOL_F64, eps=1e-6)
        got = ad.matmul(ad.constant(params["a"]), ad.constant(params["w"]),
                        ad.constant(params["c"])).value
    np.testing.assert_array_equal(got, params["a"] @ params["w"] + params["c"])


def test_matmul_rejects_a_bias_that_is_not_one_output_row():
    a = ad.constant(np.zeros((2, 3), np.float32))
    w = ad.constant(np.zeros((3, 4), np.float32))
    with pytest.raises(ValueError, match="bias"):
        ad.matmul(a, w, ad.constant(np.zeros((2, 4), np.float32)))


def test_matmul_shape_errors_name_both_shapes():
    # inner dims that differ, and an N-D @ 2-D product (leading dims differ)
    for a_shape, b_shape in (((2, 3), (4, 2)), ((2, 3, 4), (4, 5))):
        a = ad.constant(np.zeros(a_shape, np.float32))
        b = ad.constant(np.zeros(b_shape, np.float32))
        with pytest.raises(ValueError) as exc:
            ad.matmul(a, b)
        assert str(a_shape) in str(exc.value) and str(b_shape) in str(exc.value)


@pytest.mark.parametrize("k, n", [(96, 96), (96, 384), (384, 96), (96, 13)])
def test_a_one_row_matmul_equals_the_first_row_of_that_row_stacked(k, n):
    # the desk's wq/wo, w1, w2 and head shapes: BLAS alone rounds the one-row
    # product differently from the same row of a taller one
    rng = np.random.default_rng(k + n)
    a = rng.normal(size=(1, k)).astype(np.float32)
    w = ad.constant(rng.normal(0.0, 0.02, size=(k, n)).astype(np.float32))
    bias = ad.constant(rng.normal(size=n).astype(np.float32))
    for b in (None, bias):
        want = ad.matmul(ad.constant(np.concatenate([a, a, a])), w, b).value[:1]
        got = ad.matmul(ad.constant(a), w, b).value
        assert got.shape == (1, n) and got.dtype == np.float32
        np.testing.assert_array_equal(got, want)


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
        s = ad.softmax(n["a"], 0.0)
        return ad.reshape(ad.matmul(ad.matmul(ad.constant(np.ones((1, 3), np.float32)), s), pick), ())

    check_gradient(build, params, TOL_F32)
    sm = ad.softmax(ad.constant(_p((4, 9), scale=5.0)), 0.0).value
    assert np.allclose(sm.sum(axis=-1), 1.0, atol=1e-5)


def _weighted_sum(node, seed=0):
    """Scalar sum of node's entries under fixed random weights."""
    n = node.value.size
    w = np.random.default_rng(seed).standard_normal((n, 1)).astype(node.value.dtype)
    return ad.reshape(ad.matmul(ad.reshape(node, (1, n)), ad.constant(w)), ())


def _attention_mask(shape, rng):
    """NEG_INF on about a third of the cells, but never on a whole row."""
    allowed = rng.random(shape) > 0.35
    allowed[..., 0] = True
    return np.where(allowed, 0.0, NEG_INF).astype(np.float32)


def test_softmax_with_a_bias_matches_a_float64_reference():
    rng = np.random.default_rng(5)
    x = _p((2, 3, 4, 6), scale=3.0)
    bias = _attention_mask((2, 3, 4, 6), rng)
    p = ad.softmax(ad.constant(x), bias).value
    z = x.astype(np.float64) + bias.astype(np.float64)
    ref = np.exp(z - z.max(axis=-1, keepdims=True))
    ref /= ref.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(p, ref, rtol=1e-5, atol=1e-7)
    # the fold changes no bits against adding the mask first
    np.testing.assert_array_equal(p, ad.softmax(ad.add(ad.constant(x), ad.constant(bias)), 0.0).value)
    check_gradient(lambda n: _weighted_sum(ad.softmax(n["a"], bias)), {"a": x}, TOL_F32)


def test_softmax_gives_masked_keys_exactly_zero():
    rng = np.random.default_rng(6)
    x = _p((5, 7), scale=4.0)
    bias = _attention_mask((5, 7), rng)
    p = ad.softmax(ad.constant(x), bias).value
    masked = bias == NEG_INF
    assert masked.any() and (p[masked] == 0.0).all()
    assert (p[~masked] > 0.0).all()
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-6)
    check_gradient(lambda n: _weighted_sum(ad.softmax(n["a"], bias)), {"a": x}, TOL_F32)


def test_softmax_bias_broadcasts_over_heads():
    rng = np.random.default_rng(7)
    x = _p((2, 3, 4, 5), scale=2.0)  # [B, H, R, S]
    bias = _attention_mask((2, 1, 4, 5), rng)
    p = ad.softmax(ad.constant(x), bias).value
    for h in range(3):
        np.testing.assert_array_equal(p[:, h], ad.softmax(ad.constant(x[:, h]), bias[:, 0]).value)
    check_gradient(lambda n: _weighted_sum(ad.softmax(n["a"], bias)), {"a": x}, TOL_F32)


def _gelu_one_pass(x):
    k = x.dtype.type(math.sqrt(2.0 / math.pi))
    c = x.dtype.type(0.044715)
    t = np.tanh((c * x * x * x + x) * k)
    return (t + 1.0) * x * 0.5


@pytest.mark.parametrize("shape", [(300, 7), (2, 130, 3)])
def test_gelu_matches_a_one_pass_evaluation(shape):
    x = _p(shape, scale=2.0)
    np.testing.assert_array_equal(ad.gelu(ad.constant(x)).value, _gelu_one_pass(x))
    with ad.no_grad():
        np.testing.assert_array_equal(ad.gelu(ad.constant(x)).value, _gelu_one_pass(x))
    # float64, so that finite differences of a sum over hundreds of rows stay exact enough
    with ad.using_dtype(np.float64):
        check_gradient(lambda n: _weighted_sum(ad.gelu(n["a"])), {"a": x.astype(np.float64)},
                       TOL_F64, eps=1e-5)


@pytest.mark.parametrize("recording", [True, False])
def test_kernels_leave_their_input_unchanged(recording):
    x = _p((4, 3, 8), scale=2.0)
    gain, bias = _p((8,)), _p((8,))
    mask = _attention_mask((4, 1, 3, 8), np.random.default_rng(8))[:, 0]
    ops = {
        "gelu": ad.gelu,
        "layer_norm": lambda a: ad.layer_norm(a, ad.constant(gain), ad.constant(bias)),
        "softmax": lambda a: ad.softmax(a, 0.0),
        "softmax+bias": lambda a: ad.softmax(a, mask),
    }
    for name, op in ops.items():
        a = ad.parameter(x.copy())
        if recording:
            _weighted_sum(op(a)).backward()
        else:
            with ad.no_grad():
                op(a)
        np.testing.assert_array_equal(a.value, x, err_msg=name)


def test_layer_norm_accumulates_in_float64():
    # a large offset: float32 sums of these rows lose the low bits the
    # variance is made of, float64 sums keep them (max error 1.3e-4 with
    # float64 sums, 4.1e-4 with float32 pairwise sums)
    rng = np.random.default_rng(0)
    x = (3e3 + rng.standard_normal((256, 96))).astype(np.float32)
    ones, zeros = np.ones(96, np.float32), np.zeros(96, np.float32)
    y = ad.layer_norm(ad.constant(x), ad.constant(ones), ad.constant(zeros)).value
    x64 = x.astype(np.float64)
    ref = (x64 - x64.mean(-1, keepdims=True)) / np.sqrt(x64.var(-1, keepdims=True) + 1e-5)
    assert np.abs(y - ref).max() < 2.5e-4


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


@pytest.mark.parametrize("ids", [np.array([[1, 3, 1], [1, 0, 5]]), np.arange(2, 6)],
                         ids=["repeated", "arange"])
def test_embedding_backward_matches_an_add_at_oracle(ids):
    # token ids repeat; pos_emb looks up arange(m, n)
    rng = np.random.default_rng(5)
    with ad.using_dtype(np.float64):
        table = ad.parameter(rng.standard_normal((7, 4)))
    out = ad.embedding_lookup(table, ids)
    g = rng.standard_normal(out.value.shape)
    want = np.zeros_like(table.value)
    np.add.at(want, ids, g)
    (got,) = out._backward(g)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_add_and_mul_build_no_piece_for_a_constant_parent():
    a = ad.parameter(_p((2, 3)))
    mask = ad.constant(_p((2, 3)))
    g = np.ones((2, 3), np.float32)
    for op in (ad.add, ad.mul):
        # one piece per parent, in parent order; None for the constant
        assert [piece is not None for piece in op(a, mask)._backward(g)] == [True, False]
        assert [piece is not None for piece in op(mask, a)._backward(g)] == [False, True]


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
    _shared_leaf_graph(params)[1].backward()  # the same graph rebuilt, into .grad
    for p in params:
        assert grads[p].dtype == p.value.dtype and grads[p].shape == p.value.shape
        np.testing.assert_array_equal(grads[p], p.grad)


def test_backward_without_a_dict_accumulates_into_grad():
    params, loss = _shared_leaf_graph()
    loss.backward()
    once = [p.grad.copy() for p in params]
    _shared_leaf_graph(params)[1].backward()
    for p, g in zip(params, once):
        np.testing.assert_allclose(p.grad, 2 * g, rtol=1e-6, atol=0)
    # a second backward into a dict adds up there too, and leaves .grad as it was
    grads = {}
    _shared_leaf_graph(params)[1].backward(grads)
    _shared_leaf_graph(params)[1].backward(grads)
    for p, g in zip(params, once):
        np.testing.assert_allclose(grads[p], 2 * g, rtol=1e-6, atol=0)
        np.testing.assert_allclose(p.grad, 2 * g, rtol=1e-6, atol=0)


def test_a_second_backward_on_one_graph_raises():
    params, loss = _shared_leaf_graph()
    loss.backward()
    once = [p.grad.copy() for p in params]
    for grads in (None, {}):
        with pytest.raises(ValueError, match="already consumed"):
            loss.backward(grads)
    for p, g in zip(params, once):
        np.testing.assert_array_equal(p.grad, g)
    # so does a new graph over a node of a consumed one
    a = ad.parameter(np.ones(3, np.float32))
    h = ad.scale(a, 2.0)
    ad.reshape(ad.narrow(h, 0, 0, 1), ()).backward()
    with pytest.raises(ValueError, match="already consumed"):
        ad.reshape(ad.narrow(h, 0, 1, 1), ()).backward()
    # a leaf root is no graph to consume: its seed accumulates each time
    leaf = ad.parameter(np.array(2.0))
    leaf.backward()
    leaf.backward()
    assert float(leaf.grad) == 2.0


def test_backward_frees_intermediate_values_while_the_root_is_held():
    # the head of _shared_leaf_graph, with its input kept in hand
    rng = np.random.default_rng(11)
    w, a = (ad.parameter(rng.standard_normal(s).astype(np.float32)) for s in ((4, 3), (5, 4)))
    h = ad.gelu(ad.matmul(ad.embedding_lookup(a, np.array([0, 2, 2])), w))
    hidden = weakref.ref(h.value)
    logits = ad.matmul(h, ad.transpose(w, (1, 0)))
    del h
    loss = ad.softmax_cross_entropy(logits, np.array([1, 3, 0]), rng.random(3))
    del logits
    assert hidden() is not None  # the head matmul's backward saved it
    loss.backward()
    assert hidden() is None
    assert loss.value.ndim == 0 and loss._tape.parents == ()
    assert all(p.value is not None and p.grad is not None for p in (w, a))


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


def test_backward_rejects_a_root_that_does_not_require_grad():
    a = ad.parameter(np.ones((1, 3), np.float32))
    ones = np.ones((3, 1), np.float32)
    with ad.no_grad():
        loss = ad.reshape(ad.matmul(a, ad.constant(ones)), ())
    with pytest.raises(ValueError, match="requires grad"):
        loss.backward()
    consts = ad.reshape(ad.matmul(ad.constant(np.ones((1, 3), np.float32)), ad.constant(ones)), ())
    with pytest.raises(ValueError, match="requires grad"):
        consts.backward({})
    assert a.grad is None


# ---------------------------------------------------------------------------
# no_grad


def _small_graph():
    """(leaf, output Node) of a graph through the model's elementwise and
    matmul kernels."""
    rng = np.random.default_rng(12)
    a = ad.parameter(rng.standard_normal((3, 4)).astype(np.float32))
    w = ad.parameter(rng.standard_normal((4, 4)).astype(np.float32))
    gain, bias = ad.parameter(np.ones(4)), ad.parameter(np.zeros(4))
    x = ad.reshape(ad.embedding_lookup(a, np.array([[0, 2], [2, 1]])), (4, 4))
    h = ad.gelu(ad.matmul(x, w, bias))
    h = ad.layer_norm(ad.add(h, ad.constant(np.ones(4))), gain, bias)
    return a, ad.softmax(ad.scale(h, 0.5), 0.0)


def test_no_grad_nodes_keep_no_parents_and_no_backward():
    _, want = _small_graph()
    assert want._tape.parents and want._backward is not None and want.requires_grad
    with ad.no_grad():
        a, out = _small_graph()
        leaf = ad.parameter(np.zeros(2))
    assert out._tape is None and out._backward is None and not out.requires_grad
    assert a.requires_grad and leaf.requires_grad  # leaves stay trainable
    np.testing.assert_array_equal(out.value, want.value)
    # recording resumes on exit
    _, again = _small_graph()
    assert again._tape.parents and again._backward is not None


def test_no_grad_is_per_thread():
    inside, done = threading.Event(), threading.Event()

    def hold():
        with ad.no_grad():
            inside.set()
            done.wait(timeout=30)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert inside.wait(timeout=30)
        with ThreadPoolExecutor(1) as pool:  # a third thread records while hold() is inside
            a, out = pool.submit(_small_graph).result(timeout=30)
        assert out._backward is not None
        ad.reshape(ad.narrow(ad.reshape(out, (-1,)), 0, 0, 1), ()).backward()
        assert a.grad is not None and np.abs(a.grad).sum() > 0
    finally:
        done.set()
        holder.join(timeout=30)
    assert not holder.is_alive()


def test_no_grad_nests_and_is_restored_after_an_exception():
    a = ad.parameter(np.ones(2))

    def recording():
        return ad.add(a, a)._backward is not None

    with ad.no_grad():
        with ad.no_grad():
            assert not recording()
        assert not recording()
    assert recording()
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            with ad.no_grad():
                raise RuntimeError("inside")
    assert recording()


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
    opt = ad.Adam({"w": p})
    g = np.array([0.5, -0.25], np.float32)
    p.grad = g.copy()
    opt.step(0.1)
    # bias-corrected first step reduces to w - lr * g / (|g| + eps)
    expect = w0 - 0.1 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p.value, expect, rtol=1e-6)
    assert p.grad is None
    assert opt.t == 1


def test_adam_step_needs_a_learning_rate():
    opt = ad.Adam({"w": ad.parameter(np.ones(2, np.float32))})
    with pytest.raises(TypeError):
        opt.step()


def test_adam_state_roundtrip_bit_identical():
    rng = np.random.default_rng(7)
    w = rng.standard_normal(5).astype(np.float32)
    p1 = ad.parameter(w.copy())
    p2 = ad.parameter(w.copy())
    o1 = ad.Adam({"w": p1})
    o2 = ad.Adam({"w": p2})
    grads = [rng.standard_normal(5).astype(np.float32) for _ in range(4)]
    for g in grads[:2]:
        p1.grad = g.copy()
        o1.step(0.05)
    state = o1.state_dict()
    # fresh optimizer restored from state must continue identically
    for g in grads[:2]:
        p2.grad = g.copy()
        o2.step(0.05)
    o2.load_state_dict(state)
    p3 = ad.parameter(p1.value.copy())
    o3 = ad.Adam({"w": p3})
    o3.load_state_dict(state)
    for g in grads[2:]:
        p1.grad = g.copy()
        o1.step(0.05)
        p3.grad = g.copy()
        o3.step(0.05)
    np.testing.assert_array_equal(p1.value, p3.value)


def test_adam_skips_parameters_without_gradients():
    p = ad.parameter(np.ones(3, np.float32))
    q = ad.parameter(np.ones(3, np.float32))
    opt = ad.Adam({"p": p, "q": q})
    p.grad = np.ones(3, np.float32)
    opt.step(0.1)
    np.testing.assert_array_equal(q.value, np.ones(3, np.float32))
    assert not np.allclose(p.value, np.ones(3))


def test_using_dtype_rejects_others():
    with pytest.raises(ValueError):
        with ad.using_dtype(np.int32):
            pass
    assert ad.parameter(np.ones(2)).value.dtype == np.float32
