"""Reverse-mode automatic differentiation over numpy arrays.

Small tape-based engine: each op builds a Node holding the forward value and
a closure that routes the output gradient to its parents. Values are stored
in float32 by default; reductions (layer norm statistics, softmax
normalizers, loss sums) accumulate in float64 so that finite-difference
gradient checks stay meaningful at float32 storage. Loss scalars are always
reported in float64. Building the whole graph in float64 (for tighter
gradient checks) just requires float64 inputs: ops never downcast.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

_DEFAULT_DTYPE = np.float32


def default_dtype():
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> None:
    """Set the storage dtype used for new parameters and constants."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}, expected float32 or float64")
    _DEFAULT_DTYPE = dtype.type


@contextlib.contextmanager
def using_dtype(dtype):
    """Temporarily switch the default storage dtype (used by float64 test mode)."""
    prev = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(prev)


class Node:
    """A value in the computation graph plus the plumbing for backprop."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad=False, parents=(), backward=None):
        self.value = value
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g.astype(self.value.dtype, copy=False)

    def backward(self, seed=None):
        """Backpropagate from this node. Scalar nodes default to seed 1."""
        if seed is None:
            if self.value.ndim != 0:
                raise ValueError(
                    f"backward() without a seed needs a scalar, got shape {self.value.shape}"
                )
            seed = np.ones((), dtype=self.value.dtype)
        order = _toposort(self)
        grads: dict[int, np.ndarray] = {id(self): np.asarray(seed, dtype=self.value.dtype)}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and node._backward is None:
                node._accumulate(g)
            if node._backward is None:
                continue
            for parent, piece in node._backward(g):
                if not parent.requires_grad:
                    continue
                pid = id(parent)
                if parent._backward is None:
                    parent._accumulate(piece)
                elif pid in grads:
                    grads[pid] = grads[pid] + piece
                else:
                    grads[pid] = piece

    def detach(self) -> np.ndarray:
        return self.value


def _toposort(root: Node) -> list[Node]:
    # Iterative DFS; graphs from deep unrolled decodes overflow recursion limits.
    seen: set[int] = set()
    order: list[Node] = []
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    order.reverse()
    return order


def parameter(value, name=None) -> Node:
    """Wrap an array as a trainable leaf in the default storage dtype."""
    arr = np.asarray(value, dtype=_DEFAULT_DTYPE)
    return Node(arr, requires_grad=True)


def constant(value, dtype=None) -> Node:
    arr = np.asarray(value, dtype=dtype if dtype is not None else _DEFAULT_DTYPE)
    return Node(arr, requires_grad=False)


def _as_node(x) -> Node:
    return x if isinstance(x, Node) else constant(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)
    out = a.value + b.value

    def backward(g):
        return ((a, _unbroadcast(g, a.value.shape)), (b, _unbroadcast(g, b.value.shape)))

    return Node(out, parents=(a, b), backward=backward)


def mul(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)
    out = a.value * b.value

    def backward(g):
        return (
            (a, _unbroadcast(g * b.value, a.value.shape)),
            (b, _unbroadcast(g * a.value, b.value.shape)),
        )

    return Node(out, parents=(a, b), backward=backward)


def scale(a: Node, s: float) -> Node:
    out = a.value * a.value.dtype.type(s)

    def backward(g):
        return ((a, g * a.value.dtype.type(s)),)

    return Node(out, parents=(a,), backward=backward)


def transpose(a: Node, axes) -> Node:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = a.value.transpose(axes)

    def backward(g):
        return ((a, g.transpose(inv)),)

    return Node(out, parents=(a,), backward=backward)


def reshape(a: Node, shape) -> Node:
    shape = tuple(shape)
    orig = a.value.shape
    out = a.value.reshape(shape)

    def backward(g):
        return ((a, g.reshape(orig)),)

    return Node(out, parents=(a,), backward=backward)


def narrow(a: Node, axis: int, start: int, length: int) -> Node:
    """Slice `length` elements from `start` along one axis."""
    idx = [slice(None)] * a.value.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = a.value[idx]

    def backward(g):
        ga = np.zeros_like(a.value)
        ga[idx] = g
        return ((a, ga),)

    return Node(out, parents=(a,), backward=backward)


def concat(nodes, axis: int) -> Node:
    nodes = [_as_node(n) for n in nodes]
    sizes = [n.value.shape[axis] for n in nodes]
    out = np.concatenate([n.value for n in nodes], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        pieces = []
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            pieces.append((node, g[tuple(idx)]))
        return tuple(pieces)

    return Node(out, parents=tuple(nodes), backward=backward)


def matmul(a: Node, b: Node) -> Node:
    """Matrix product. Supports 2-D @ 2-D, batched with identical leading
    dims, and N-D @ 2-D; anything else is rejected so a silent broadcast
    never produces a wrong gradient."""
    av, bv = a.value, b.value
    if av.ndim < 2 or bv.ndim < 2:
        raise ValueError(f"matmul needs >=2-D operands, got {av.shape} and {bv.shape}")
    if av.shape[-1] != bv.shape[-2]:
        raise ValueError(f"matmul inner dimensions differ: {av.shape} vs {bv.shape}")
    if bv.ndim > 2 and av.shape[:-2] != bv.shape[:-2]:
        raise ValueError(f"matmul batch dimensions differ: {av.shape} vs {bv.shape}")
    out = av @ bv

    def backward(g):
        if bv.ndim == 2 and av.ndim > 2:
            k, n = bv.shape
            ga = g @ bv.T
            gb = av.reshape(-1, k).T @ g.reshape(-1, n)
        else:
            ga = g @ np.swapaxes(bv, -1, -2)
            gb = np.swapaxes(av, -1, -2) @ g
        return ((a, ga), (b, gb))

    return Node(out, parents=(a, b), backward=backward)


def embedding_lookup(table: Node, ids) -> Node:
    """Gather rows of an embedding table by integer id."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.value.shape[0]):
        raise ValueError(
            f"embedding ids out of range [0, {table.value.shape[0]}): "
            f"min {ids.min()}, max {ids.max()}"
        )
    out = table.value[ids]

    def backward(g):
        gt = np.zeros_like(table.value)
        np.add.at(gt, ids, g)
        return ((table, gt),)

    return Node(out, parents=(table,), backward=backward)


def gelu(a: Node) -> Node:
    """Gaussian error linear unit, tanh approximation."""
    x = a.value
    k = x.dtype.type(math.sqrt(2.0 / math.pi))
    c = x.dtype.type(0.044715)
    inner = k * (x + c * x * x * x)
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)
    out = out.astype(x.dtype, copy=False)

    def backward(g):
        sech2 = 1.0 - t * t
        dinner = k * (1.0 + 3.0 * c * x * x)
        dx = 0.5 * (1.0 + t) + 0.5 * x * sech2 * dinner
        return ((a, g * dx.astype(x.dtype, copy=False)),)

    return Node(out, parents=(a,), backward=backward)


def layer_norm(a: Node, gain: Node, bias: Node, eps: float = 1e-5) -> Node:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x = a.value
    mean = x.mean(axis=-1, keepdims=True, dtype=np.float64)
    var = np.square(x.astype(np.float64) - mean).mean(axis=-1, keepdims=True)
    inv = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
    xhat = ((x - mean.astype(x.dtype)) * inv).astype(x.dtype, copy=False)
    out = xhat * gain.value + bias.value

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=lead)
        gbias = g.sum(axis=lead)
        gd = g * gain.value
        m1 = gd.mean(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)
        m2 = (gd * xhat).mean(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)
        dx = inv * (gd - m1 - xhat * m2)
        return ((a, dx), (gain, ggain), (bias, gbias))

    return Node(out, parents=(a, gain, bias), backward=backward)


def softmax(a: Node, axis: int = -1) -> Node:
    x = a.value
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    denom = e.sum(axis=axis, keepdims=True, dtype=np.float64).astype(x.dtype)
    p = (e / denom).astype(x.dtype, copy=False)

    def backward(g):
        dot = (g * p).sum(axis=axis, keepdims=True)
        return ((a, p * (g - dot)),)

    return Node(p, parents=(a,), backward=backward)


def log_softmax(values: np.ndarray) -> np.ndarray:
    """Stable log softmax over the last axis, returned in float64.

    The max is subtracted in the storage dtype before the upcast. The loss
    kernels, reporting code and decoders all call this one function, so
    they see identical float64 bits for the same logits.
    """
    m = values.max(axis=-1, keepdims=True)
    z = (values - m).astype(np.float64)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _check_targets(targets: np.ndarray, k: int) -> None:
    if targets.size and (targets.min() < 0 or targets.max() >= k):
        raise ValueError(
            f"targets out of range [0, {k}): min {targets.min()}, max {targets.max()}"
        )


def token_log_losses(logits, targets) -> np.ndarray:
    """Public detached view of per-token cross entropy (float64)."""
    values = logits.value if isinstance(logits, Node) else np.asarray(logits)
    targets = np.asarray(targets)
    _check_targets(targets, values.shape[-1])
    return -np.take_along_axis(log_softmax(values), targets[..., None], axis=-1)[..., 0]


def _ce_inputs(logits: Node, targets, weights):
    """Validate [n, k] logits, int [n] targets and float [n] weights, and
    compute the float64 log-probs and token losses u once."""
    targets = np.asarray(targets)
    weights = np.asarray(weights, dtype=np.float64)
    values = logits.value
    if values.ndim != 2:
        raise ValueError(f"cross entropy expects [n, k] logits, got {values.shape}")
    if targets.shape != (values.shape[0],) or weights.shape != (values.shape[0],):
        raise ValueError(
            f"targets/weights shape mismatch: logits {values.shape}, "
            f"targets {targets.shape}, weights {weights.shape}"
        )
    _check_targets(targets, values.shape[1])
    logp = log_softmax(values)
    u = -logp[np.arange(len(targets)), targets]
    return targets, weights, logp, u


def _ce_node(logits: Node, targets, logp, total, coef) -> Node:
    """Scalar loss node whose gradient row i is coef_i * (softmax_i -
    onehot(target_i)); the softmax is rebuilt from the forward's log-probs."""
    values = logits.value

    def backward(g):
        c = coef.astype(values.dtype)
        grad = np.exp(logp).astype(values.dtype) * c[:, None]
        grad[np.arange(len(targets)), targets] -= c
        return ((logits, grad * values.dtype.type(g)),)

    return Node(np.asarray(total, dtype=np.float64), parents=(logits,), backward=backward)


def softmax_cross_entropy(logits: Node, targets, weights) -> Node:
    """Weighted sum of per-token cross entropies, accumulated in float64.

    logits: [n, k]; targets: int [n]; weights: float [n]. Zero-weight tokens
    contribute exactly zero to both the value and the gradient. The scalar
    output stays float64 regardless of storage dtype.
    """
    targets, weights, logp, u = _ce_inputs(logits, targets, weights)
    return _ce_node(logits, targets, logp, (weights * u).sum(dtype=np.float64), weights)


def softmax_focal_cross_entropy(
    logits: Node, targets, weights, alpha: float, beta: float
) -> Node:
    """Focal-style cross entropy: sum_i w_i * alpha * (1 - p_i)^beta * u_i
    where u_i is the token cross entropy and p_i = exp(-u_i).

    Unlike the detached-weight path this differentiates through the
    (1 - p)^beta factor, so hard tokens also feel the pull of the modifier.
    """
    targets, weights, logp, u = _ce_inputs(logits, targets, weights)
    p = np.exp(-u)
    onemp = 1.0 - p
    total = (weights * alpha * np.power(onemp, beta) * u).sum(dtype=np.float64)
    # d/du [a (1-p)^b u] = a [(1-p)^b + b (1-p)^(b-1) p u], p = exp(-u)
    safe = np.maximum(onemp, 1e-12)
    du = alpha * (np.power(onemp, beta) + beta * np.power(safe, beta - 1.0) * p * u)
    return _ce_node(logits, targets, logp, total, weights * du)


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adam with bias correction. State is serializable for checkpoints."""

    def __init__(self, params: dict, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.value) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.value) for k, p in params.items()}

    def step(self, lr=None) -> None:
        """Apply one update using accumulated gradients, then clear them."""
        lr = self.lr if lr is None else lr
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            mhat = m / bc1
            vhat = v / bc2
            p.value -= (lr * mhat / (np.sqrt(vhat) + self.eps)).astype(p.value.dtype)
            p.grad = None

    def state_dict(self) -> dict:
        return {
            "t": self.t,
            "m": {k: a.copy() for k, a in self.m.items()},
            "v": {k: a.copy() for k, a in self.v.items()},
        }

    def load_state_dict(self, state: dict) -> None:
        self.t = int(state["t"])
        for k in self.m:
            self.m[k][...] = state["m"][k]
            self.v[k][...] = state["v"][k]


def zero_grads(params: dict) -> None:
    for p in params.values():
        p.grad = None
