"""Reverse-mode automatic differentiation over numpy arrays.

Small tape-based engine: each op builds a Node holding the forward value and
a closure that routes the output gradient to its parents. Under `no_grad()`
an op's Node keeps neither, so a forward-only caller frees each temporary as
soon as it moves past it. An op writes in place only into arrays it
allocated itself: never into an input's value, a view of one, or the
incoming gradient, which `add` hands to both of its parents. Under
`no_grad()`, where no backward reads a temporary, `gelu` returns its tanh
buffer as the output. Values are stored in float32 by default; reductions
(layer norm statistics, softmax normalizers, loss sums) accumulate in
float64 so that finite-difference gradient checks stay meaningful at
float32 storage. The row sums go through one helper, `_row_sum`, which
casts through a small buffer and never makes a float64 copy of its input.
Loss scalars are always reported in float64. Building the whole graph in
float64 (for tighter gradient checks) just requires float64 inputs: ops
never downcast.
"""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

_DEFAULT_DTYPE = np.float32
LN_EPS = 1e-5
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@contextlib.contextmanager
def using_dtype(dtype):
    """Store new parameters and constants in dtype, float32 or float64, for
    the body (float64 is the gradient-check mode)."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}, expected float32 or float64")
    prev, _DEFAULT_DTYPE = _DEFAULT_DTYPE, dtype.type
    try:
        yield
    finally:
        _DEFAULT_DTYPE = prev


class _GradMode(threading.local):
    enabled = True


_GRAD_MODE = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Build no graph on this thread: new op Nodes keep no parents and no
    backward closure, and do not require grad. Leaves made by parameter()
    still do. Forward values are bit for bit those of a recording forward.
    The mode is per thread; a worker thread must enter it itself."""
    prev = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = prev


class Node:
    """A value in the computation graph plus the plumbing for backprop."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad=False, parents=(), backward=None):
        self.value = value
        self.grad = None
        if not _GRAD_MODE.enabled:
            parents, backward = (), None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = tuple(parents)
        self._backward = backward

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g.astype(self.value.dtype, copy=False)

    def backward(self, grads: dict | None = None):
        """Backpropagate from this scalar node with seed 1.

        Leaf gradients accumulate into each leaf's .grad, or, when grads is
        given, into grads[leaf], a dict the caller owns; the leaves' .grad
        are then left alone, so graphs that share leaves can run backward
        on several threads at once.
        """
        if self.value.ndim != 0:
            raise ValueError(f"backward() needs a scalar, got shape {self.value.shape}")
        if not self.requires_grad:
            raise ValueError("backward() needs a root that requires grad; this one was "
                             "built under no_grad() or from constants only")

        def accumulate(leaf, g):
            if grads is None:
                leaf._accumulate(g)
            elif leaf in grads:
                grads[leaf] += g.astype(leaf.value.dtype, copy=False)
            else:
                grads[leaf] = g.astype(leaf.value.dtype)  # a copy: g may be shared

        order = _toposort(self)
        pending: dict[int, np.ndarray] = {id(self): np.ones((), dtype=self.value.dtype)}
        for node in order:
            g = pending.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and node._backward is None:
                accumulate(node, g)
            if node._backward is None:
                continue
            for parent, piece in node._backward(g):
                if not parent.requires_grad:
                    continue
                pid = id(parent)
                if parent._backward is None:
                    accumulate(parent, piece)
                elif pid in pending:
                    pending[pid] = pending[pid] + piece
                else:
                    pending[pid] = piece


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


def parameter(value) -> Node:
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
        # no piece for a constant parent
        return tuple((p, _unbroadcast(g, p.value.shape)) for p in (a, b) if p.requires_grad)

    return Node(out, parents=(a, b), backward=backward)


def mul(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)
    out = a.value * b.value

    def backward(g):
        return tuple((p, _unbroadcast(g * other.value, p.value.shape))
                     for p, other in ((a, b), (b, a)) if p.requires_grad)

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


def matmul(a: Node, b: Node, bias: Node | None = None) -> Node:
    """Matrix product, plus an optional bias row added over the last axis.

    Both operands have the same leading dims (none for 2-D @ 2-D); anything
    else is rejected so a silent broadcast never produces a wrong gradient.
    The bias is added into the product's own fresh array."""
    av, bv = a.value, b.value
    if av.ndim < 2 or bv.ndim < 2:
        raise ValueError(f"matmul needs >=2-D operands, got {av.shape} and {bv.shape}")
    if av.shape[-1] != bv.shape[-2]:
        raise ValueError(f"matmul inner dimensions differ: {av.shape} vs {bv.shape}")
    if av.shape[:-2] != bv.shape[:-2]:
        raise ValueError(f"matmul batch dimensions differ: {av.shape} vs {bv.shape}")
    n = bv.shape[-1]
    if bias is not None and bias.value.shape != (n,):
        raise ValueError(f"matmul bias must have shape ({n},), got {bias.value.shape}")
    out = av @ bv
    if bias is not None:
        out += bias.value

    def backward(g):
        ga = g @ np.swapaxes(bv, -1, -2)
        gb = np.swapaxes(av, -1, -2) @ g
        if bias is None:
            return ((a, ga), (b, gb))
        return ((a, ga), (b, gb), (bias, g.reshape(-1, n).sum(axis=0)))

    parents = (a, b) if bias is None else (a, b, bias)
    return Node(out, parents=parents, backward=backward)


def embedding_lookup(table: Node, ids) -> Node:
    """Gather rows of an embedding table by integer id."""
    ids = np.asarray(ids)
    rows = table.value.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= rows):
        raise ValueError(
            f"embedding ids out of range [0, {rows}): min {ids.min()}, max {ids.max()}"
        )
    out = table.value[ids]

    def backward(g):
        # one-hot [rows, n] @ g [n, width] sums each row's gradients in one product
        flat = ids.reshape(-1)
        onehot = (np.arange(rows)[:, None] == flat).astype(g.dtype)
        gt = onehot @ g.reshape(flat.size, math.prod(table.value.shape[1:]))
        return ((table, gt.reshape(table.value.shape)),)

    return Node(out, parents=(table,), backward=backward)


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, accumulated in float64, with the axis kept.
    einsum casts through a small buffer; it makes no float64 copy of x."""
    return np.einsum("...i->...", x, dtype=np.float64)[..., None]


def gelu(a: Node) -> Node:
    """Gaussian error linear unit, tanh approximation. The backward keeps
    only tanh(inner); under no_grad() that buffer becomes the output."""
    x = a.value
    k = x.dtype.type(math.sqrt(2.0 / math.pi))
    c = x.dtype.type(0.044715)
    t = c * x
    t *= x
    t *= x
    t += x
    t *= k
    np.tanh(t, out=t)  # tanh(k (x + c x^3))
    out = np.add(t, 1.0, out=None if _GRAD_MODE.enabled else t)
    out *= x
    out *= 0.5

    def backward(g):
        # 0.5 (1 + t) + 0.5 x (1 - t^2) k (1 + 3 c x^2)
        dx = x * x
        dx *= 3.0 * c
        dx += 1.0
        dx *= k
        dx *= x
        sech2 = t * t
        np.subtract(1.0, sech2, out=sech2)
        dx *= sech2
        dx += t
        dx += 1.0
        dx *= 0.5
        dx *= g
        return ((a, dx),)

    return Node(out, parents=(a,), backward=backward)


def layer_norm(a: Node, gain: Node, bias: Node) -> Node:
    """Normalize the last axis to zero mean / unit variance, then affine.
    The mean and variance accumulate in float64 over the stored values."""
    x = a.value
    n = x.shape[-1]
    xhat = x - (_row_sum(x) / n).astype(x.dtype)
    out = np.square(xhat)
    inv = (1.0 / np.sqrt(_row_sum(out) / n + LN_EPS)).astype(x.dtype)
    xhat *= inv
    np.multiply(xhat, gain.value, out=out)
    out += bias.value

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        gbias = g.sum(axis=lead)
        t = g * xhat
        ggain = t.sum(axis=lead)
        t *= gain.value  # gd * xhat
        m2 = (_row_sum(t) / n).astype(x.dtype)
        dx = g * gain.value  # gd
        m1 = (_row_sum(dx) / n).astype(x.dtype)
        np.multiply(xhat, m2, out=t)
        dx -= m1
        dx -= t
        dx *= inv
        return ((a, dx), (gain, ggain), (bias, gbias))

    return Node(out, parents=(a, gain, bias), backward=backward)


def softmax(a: Node, bias: np.ndarray) -> Node:
    """Softmax over the last axis of a.value + bias. The bias is a constant
    that broadcasts against a, such as an attention mask with NEG_INF on
    forbidden keys; it is added into softmax's own fresh array and gets no
    gradient."""
    x = a.value
    p = x + bias
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= _row_sum(p).astype(x.dtype)

    def backward(g):
        ga = g * p
        dot = ga.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=ga)
        ga *= p
        return ((a, ga),)

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


def _ce_inputs(logits: Node, targets, weights, logp):
    """Validate [n, k] logits, int [n] targets and float [n] weights, and
    compute the float64 log-probs (unless given) and token losses u once."""
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
    if logp is None:
        logp = log_softmax(values)
    elif logp.shape != values.shape:
        raise ValueError(f"log-probs {logp.shape} do not match logits {values.shape}")
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


def softmax_cross_entropy(logits: Node, targets, weights, logp=None) -> Node:
    """Weighted sum of per-token cross entropies, accumulated in float64.

    logits: [n, k]; targets: int [n]; weights: float [n]. Zero-weight tokens
    contribute exactly zero to both the value and the gradient. The scalar
    output stays float64 regardless of storage dtype. A caller that already
    holds log_softmax(logits.value) passes it as logp to skip recomputing it.
    """
    targets, weights, logp, u = _ce_inputs(logits, targets, weights, logp)
    return _ce_node(logits, targets, logp, (weights * u).sum(dtype=np.float64), weights)


def softmax_focal_cross_entropy(
    logits: Node, targets, weights, alpha: float, beta: float, logp=None
) -> Node:
    """Focal-style cross entropy: sum_i w_i * alpha * (1 - p_i)^beta * u_i
    where u_i is the token cross entropy and p_i = exp(-u_i).

    Unlike the detached-weight path this differentiates through the
    (1 - p)^beta factor, so hard tokens also feel the pull of the modifier.
    logp is as in softmax_cross_entropy.
    """
    targets, weights, logp, u = _ce_inputs(logits, targets, weights, logp)
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

    def __init__(self, params: dict):
        self.params = params
        self.t = 0
        self.m = {k: np.zeros_like(p.value) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.value) for k, p in params.items()}

    def step(self, lr: float) -> None:
        """Apply one update at learning rate lr using the accumulated
        gradients, then clear them."""
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
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
            p.value -= (lr * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(p.value.dtype)
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
