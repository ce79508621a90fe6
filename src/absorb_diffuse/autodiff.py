"""Reverse-mode automatic differentiation over numpy arrays.

Small tape-based engine. Each op returns a Node holding its forward value
and, while recording, a small tape record: a link to each parent's record
(a parameter leaf is linked as its Node) and a closure that routes the
output gradient to them. The tape holds no op's output as such: a closure
keeps only the arrays its backward reads (matmul's operands, layer_norm's
normalized input, softmax's output, gelu's derivative, the loss's
log-probs) plus shapes and dtypes as plain values. An op's output therefore
dies when the caller drops its Node, unless a backward saved it. Under
`no_grad()` an op's Node keeps no record, so a forward-only caller frees
each temporary as soon as it moves past it. `backward()` consumes its
graph: each record drops its closure and its links once it has routed its
gradient, so the saved arrays are freed as backward passes them, and a
graph runs backward once (a second call raises; rebuild the graph
instead). An op writes in place only into arrays it allocated itself:
never into an input's value, a view of one, or the incoming gradient,
which `add` hands to both of its parents. `gelu` computes its derivative in
a recording forward and saves that instead of its input; under
`no_grad()` its tanh buffer becomes the output. Values are stored in
float32 by default; reductions (layer norm statistics, softmax
normalizers, loss sums) accumulate in float64 so that finite-difference
gradient checks stay meaningful at float32 storage. The row sums go
through one helper, `_row_sum`, which casts through a small buffer and
never makes a float64 copy of its input. Loss scalars are always reported
in float64. Building the whole graph in float64 (for tighter gradient
checks) just requires float64 inputs: ops never downcast.
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


def is_grad_enabled() -> bool:
    """Whether ops on this thread record a tape: False inside no_grad()."""
    return _GRAD_MODE.enabled


class _Tape:
    """One op's record on the tape: a link per parent and the closure that
    maps the output's gradient to one piece per parent. A link is the
    parent's own record, the parent Node when it is a leaf that requires
    grad, or None when the parent needs no gradient (its piece, if any, is
    ignored). Nothing here refers to an op's output Node."""

    __slots__ = ("parents", "backward")

    def __init__(self, parents: tuple, backward):
        self.parents = parents
        self.backward = backward


class Node:
    """A value in the computation graph plus its record on the tape."""

    __slots__ = ("value", "grad", "requires_grad", "_tape")

    def __init__(self, value, requires_grad=False, parents=(), backward=None):
        self.value = value
        self.grad = None
        self._tape = None
        if _GRAD_MODE.enabled and backward is not None:
            links = tuple(p._link() for p in parents)
            if any(link is not None for link in links):
                self._tape = _Tape(links, backward)
        self.requires_grad = requires_grad or self._tape is not None

    def _link(self):
        """What a child's record links to for this Node as a parent."""
        if self._tape is not None:
            return self._tape
        return self if self.requires_grad else None

    @property
    def _backward(self):
        """The backward closure of the op that made this Node; None for a
        leaf, a constant or a Node built under no_grad(). Assigning it
        replaces the closure that backward() calls."""
        return None if self._tape is None else self._tape.backward

    @_backward.setter
    def _backward(self, fn):
        self._tape.backward = fn

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g.astype(self.value.dtype, copy=False)

    def backward(self, grads: dict | None = None):
        """Backpropagate from this scalar node with seed 1, consuming its graph.

        Leaf gradients accumulate into each leaf's .grad, or, when grads is
        given, into grads[leaf], a dict the caller owns; the leaves' .grad
        are then left alone, so graphs that share leaves can run backward
        on several threads at once.

        Each record drops its links and its backward closure once it has
        routed its gradient, so the arrays that only it saved are freed
        while backward runs. A graph therefore runs backward once; to
        backpropagate again, build it again.
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

        seed = np.ones((), dtype=self.value.dtype)
        if self._tape is None:  # a leaf root
            accumulate(self, seed)
            return
        order = _toposort(self._tape)
        pending: dict[_Tape, np.ndarray] = {self._tape: seed}
        for i, rec in enumerate(order):
            # rec's children all came earlier and dropped their links to it,
            # so this slot is its last reference unless the caller holds its Node
            order[i] = None
            for link, piece in zip(rec.parents, rec.backward(pending.pop(rec))):
                if link is None:
                    continue
                if type(link) is Node:  # a leaf
                    accumulate(link, piece)
                elif link in pending:
                    pending[link] = pending[link] + piece
                else:
                    pending[link] = piece
            rec.parents, rec.backward = (), _consumed


def _consumed(g):
    """The backward of a node whose graph already ran backward: a second
    backward() from it, or from a graph built over it, reaches this."""
    raise ValueError("backward() needs a graph that has not run backward: this one was "
                     "already consumed and must be rebuilt")


def _toposort(root: _Tape) -> list[_Tape]:
    """The records reachable from root, each after every record that links
    to it. Leaves are left out: backward accumulates into them directly."""
    # Iterative DFS; graphs from deep unrolled decodes overflow recursion limits.
    seen: set[int] = set()
    order: list[_Tape] = []
    stack: list[tuple[_Tape, bool]] = [(root, False)]
    while stack:
        rec, expanded = stack.pop()
        if expanded:
            order.append(rec)
            continue
        if id(rec) in seen:
            continue
        seen.add(id(rec))
        stack.append((rec, True))
        for p in rec.parents:
            if type(p) is _Tape and id(p) not in seen:
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
    # no piece for a constant parent
    shapes = tuple(p.value.shape if p.requires_grad else None for p in (a, b))

    def backward(g):
        return tuple(None if shape is None else _unbroadcast(g, shape) for shape in shapes)

    return Node(out, parents=(a, b), backward=backward)


def mul(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)
    av, bv = a.value, b.value
    out = av * bv
    need_a, need_b = a.requires_grad, b.requires_grad  # no piece for a constant parent

    def backward(g):
        return (_unbroadcast(g * bv, av.shape) if need_a else None,
                _unbroadcast(g * av, bv.shape) if need_b else None)

    return Node(out, parents=(a, b), backward=backward)


def scale(a: Node, s: float) -> Node:
    factor = a.value.dtype.type(s)
    out = a.value * factor

    def backward(g):
        return (g * factor,)

    return Node(out, parents=(a,), backward=backward)


def transpose(a: Node, axes) -> Node:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = a.value.transpose(axes)

    def backward(g):
        return (g.transpose(inv),)

    return Node(out, parents=(a,), backward=backward)


def reshape(a: Node, shape) -> Node:
    shape = tuple(shape)
    orig = a.value.shape
    out = a.value.reshape(shape)

    def backward(g):
        return (g.reshape(orig),)

    return Node(out, parents=(a,), backward=backward)


def narrow(a: Node, axis: int, start: int, length: int) -> Node:
    """Slice `length` elements from `start` along one axis."""
    shape, dtype = a.value.shape, a.value.dtype
    idx = [slice(None)] * len(shape)
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = a.value[idx]

    def backward(g):
        ga = np.zeros(shape, dtype)
        ga[idx] = g
        return (ga,)

    return Node(out, parents=(a,), backward=backward)


def concat(nodes, axis: int) -> Node:
    nodes = [_as_node(n) for n in nodes]
    sizes = [n.value.shape[axis] for n in nodes]
    out = np.concatenate([n.value for n in nodes], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        pieces = []
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            pieces.append(g[tuple(idx)])
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
    # BLAS rounds a one-row product differently from the same row of a taller
    # one, so a 2-D one-row forward runs that row stacked twice and keeps the
    # first: a row's values do not depend on how many rows share its product
    # (backward, and a [1, k] @ [k, 1] dot product, run as they come)
    one_row = av.ndim == 2 and av.shape[0] == 1 and n > 1
    out = (np.concatenate((av, av)) @ bv)[:1] if one_row else av @ bv
    has_bias = bias is not None
    if has_bias:
        out += bias.value

    def backward(g):
        ga = g @ np.swapaxes(bv, -1, -2)
        gb = np.swapaxes(av, -1, -2) @ g
        if not has_bias:
            return (ga, gb)
        return (ga, gb, g.reshape(-1, n).sum(axis=0))

    parents = (a, b, bias) if has_bias else (a, b)
    return Node(out, parents=parents, backward=backward)


def embedding_lookup(table: Node, ids) -> Node:
    """Gather rows of an embedding table by integer id."""
    ids = np.asarray(ids)
    shape = table.value.shape
    rows = shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= rows):
        raise ValueError(
            f"embedding ids out of range [0, {rows}): min {ids.min()}, max {ids.max()}"
        )
    out = table.value[ids]

    def backward(g):
        # one-hot [rows, n] @ g [n, width] sums each row's gradients in one product
        flat = ids.reshape(-1)
        onehot = (np.arange(rows)[:, None] == flat).astype(g.dtype)
        gt = onehot @ g.reshape(flat.size, math.prod(shape[1:]))
        return (gt.reshape(shape),)

    return Node(out, parents=(table,), backward=backward)


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, accumulated in float64, with the axis kept.
    einsum casts through a small buffer; it makes no float64 copy of x."""
    return np.einsum("...i->...", x, dtype=np.float64)[..., None]


def gelu(a: Node) -> Node:
    """Gaussian error linear unit, tanh approximation. While recording it
    computes its derivative with the output and saves only that, so its
    input dies with the input's Node and backward is one multiply. Under
    no_grad() the tanh buffer becomes the output."""
    x = a.value
    k = x.dtype.type(math.sqrt(2.0 / math.pi))
    c = x.dtype.type(0.044715)
    t = c * x
    t *= x
    t *= x
    t += x
    t *= k
    np.tanh(t, out=t)  # tanh(k (x + c x^3))
    if not (_GRAD_MODE.enabled and a.requires_grad):
        out = np.add(t, 1.0, out=t)
        out *= x
        out *= 0.5
        return Node(out)
    # 0.5 (1 + t) + 0.5 x (1 - t^2) k (1 + 3 c x^2)
    dx = x * x
    dx *= 3.0 * c
    dx += 1.0
    dx *= k
    dx *= x
    out = t * t  # 1 - t^2 here first, then the output
    np.subtract(1.0, out, out=out)
    dx *= out
    np.add(t, 1.0, out=out)
    out *= x
    out *= 0.5
    dx += t
    dx += 1.0
    dx *= 0.5

    def backward(g):
        return (np.multiply(dx, g, out=dx),)

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
    gv, dtype = gain.value, x.dtype

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        gbias = g.sum(axis=lead)
        t = g * xhat
        ggain = t.sum(axis=lead)
        t *= gv  # gd * xhat
        m2 = (_row_sum(t) / n).astype(dtype)
        dx = g * gv  # gd
        m1 = (_row_sum(dx) / n).astype(dtype)
        np.multiply(xhat, m2, out=t)
        dx -= m1
        dx -= t
        dx *= inv
        return (dx, ggain, gbias)

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
        return (ga,)

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
    dtype = logits.value.dtype

    def backward(g):
        c = coef.astype(dtype)
        grad = np.exp(logp).astype(dtype) * c[:, None]
        grad[np.arange(len(targets)), targets] -= c
        return (grad * dtype.type(g),)

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
