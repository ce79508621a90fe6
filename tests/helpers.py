"""Shared test utilities: finite-difference gradient checking, tiny fixtures,
and reference implementations that the library's fast paths are checked
against."""

from __future__ import annotations

from collections import defaultdict
import itertools
import tracemalloc

import numpy as np

from absorb_diffuse import autodiff as ad
from absorb_diffuse.data import Batch, pack_ids
from absorb_diffuse.diffusion import NoiseSchedule
from absorb_diffuse.harness.metrics import WALL_CLOCK_FIELDS
from absorb_diffuse.tasks.planning import parse_input


def rel_err(got: np.ndarray, want: np.ndarray, floor: float = 1.0) -> float:
    """Max elementwise |got-want| / max(|want|, floor).

    The unit floor keeps near-zero reference entries from blowing up the
    ratio; for gradients of order 1 this behaves like a relative error.
    """
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = np.maximum(np.abs(want), floor)
    return float(np.max(np.abs(got - want) / denom))


def numeric_gradient(f, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central finite differences of scalar-valued f at x, elementwise."""
    x = np.asarray(x)
    grad = np.zeros(x.shape, dtype=np.float64)
    flat = x.reshape(-1)
    g = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f(x))
        flat[i] = orig - eps
        lo = float(f(x))
        flat[i] = orig
        g[i] = (hi - lo) / (2.0 * eps)
    return grad


def zero_grads(params: dict) -> None:
    """Clear every parameter's .grad before a fresh backward pass."""
    for p in params.values():
        p.grad = None


def check_gradient(build, params: dict[str, np.ndarray], tol: float,
                   eps: float = 1e-3) -> None:
    """Compare autodiff gradients of `build` against finite differences.

    build(nodes: dict[str, Node]) -> scalar Node. Each parameter is
    perturbed independently; failure names the offending parameter.
    """
    nodes = {k: ad.parameter(v.copy()) for k, v in params.items()}
    loss = build(nodes)
    zero_grads(nodes)
    loss.backward()
    analytic = {k: n.grad.copy() for k, n in nodes.items()}

    for key in params:
        def scalar(x, key=key):
            trial = {k: ad.constant(params[k] if k != key else x)
                     for k in params}
            return float(build(trial).value)

        fd = numeric_gradient(scalar, params[key].copy(), eps=eps)
        err = rel_err(analytic[key], fd)
        assert err < tol, f"gradient mismatch for {key!r}: rel err {err:.3e} >= {tol}"


def traced_peak(fn) -> int:
    """Bytes at tracemalloc's high-water mark while fn() runs, after one
    untraced warm-up call (first-call caches and lazy imports stay out)."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_logits(rng: np.random.Generator, shape, scale: float = 2.0,
                  dtype=np.float32) -> np.ndarray:
    return (rng.standard_normal(shape) * scale).astype(dtype)


# ---------------------------------------------------------------------------
# closed forms of the absorbing chain


def beta(schedule: NoiseSchedule, t) -> np.ndarray:
    """Per-step masking probability beta_t = 1 - alpha_t / alpha_{t-1}."""
    t = schedule._check_t(t)
    prev = schedule.alpha[t - 1]
    return np.where(prev > 0, 1.0 - schedule.alpha[t] / np.where(prev > 0, prev, 1.0), 1.0)


def forward_marginal(schedule: NoiseSchedule, t: int, x0: int, vocab: int, mask_id: int) -> np.ndarray:
    """Distribution of x_t given x_0, as a length-`vocab` probability vector."""
    _check_token(x0, vocab, mask_id, "x0")
    t = int(schedule._check_t(t))
    out = np.zeros(vocab, dtype=np.float64)
    a = schedule.alpha[t]
    out[x0] = a
    out[mask_id] += 1.0 - a
    return out


def posterior(schedule: NoiseSchedule, t: int, xt: int, x0: int, vocab: int, mask_id: int) -> np.ndarray:
    """Distribution of x_{t-1} given x_t and x_0.

    Two cases only: a surviving token pins x_{t-1} to itself, and a masked
    token was either still alive at t-1 (prob lam_t, value x_0) or already
    masked. Any other (xt, x0) pair has zero forward probability.
    """
    _check_token(x0, vocab, mask_id, "x0")
    t = int(schedule._check_t(t))
    out = np.zeros(vocab, dtype=np.float64)
    if xt == mask_id:
        lam = float(schedule.survival(t))
        out[x0] = lam
        out[mask_id] = 1.0 - lam
    elif xt == x0:
        out[x0] = 1.0
    else:
        raise ValueError(
            f"impossible forward event: xt={xt} is neither mask ({mask_id}) nor x0={x0}"
        )
    return out


def kl_term(schedule: NoiseSchedule, t: int, x0: int, xt: int, model_probs, mask_id: int) -> float:
    """KL(q(x_{t-1}|x_t,x_0) || p(x_{t-1}|x_t)) for one position.

    p is the posterior with x_0 marginalized under the model's content
    distribution `model_probs` (which never scores the mask), so the mask
    branch cancels and only -log p(x_0) survives, scaled by lam_t. A
    surviving token pins both posteriors to the same point mass: zero.
    """
    t = int(schedule._check_t(t))
    if xt != mask_id:
        if xt != x0:
            raise ValueError(f"impossible forward event: xt={xt}, x0={x0}")
        return 0.0
    probs = np.asarray(model_probs, dtype=np.float64)
    lam = float(schedule.survival(t))
    return lam * -np.log(probs[x0])


def _check_token(tok: int, vocab: int, mask_id: int, name: str) -> None:
    if not 0 <= tok < vocab:
        raise ValueError(f"{name}={tok} outside vocab [0, {vocab})")
    if tok == mask_id and name == "x0":
        raise ValueError("x0 cannot be the mask token")


# ---------------------------------------------------------------------------
# the bound by exhaustive enumeration


def elbo_exact(model, batch, schedule: NoiseSchedule, mask_id: int) -> float:
    """Negative ELBO in nats summed over the batch, by enumerating every
    corruption pattern of each row's targets (2^L forwards per row, so only
    for L <= 16). Requires alpha_T = 0, so the terminal state carries no
    information."""
    if schedule.alpha[-1] != 0.0:
        raise ValueError("elbo requires alpha[T] == 0 (fully absorbed terminal state)")
    lam = schedule.survival(np.arange(1, schedule.T + 1))
    masked_prob = 1.0 - schedule.alpha[1:]  # P(token masked at t)
    total = 0.0
    for i in range(batch.size):
        row = batch.take(slice(i, i + 1))
        positions = np.flatnonzero(row.target_mask[0])
        L = positions.size
        if L > 16:
            raise ValueError(f"exact elbo enumerates 2^L patterns; L={L} is too long")
        for pattern in itertools.product((False, True), repeat=L):
            pat = np.array(pattern)
            if not pat.any():
                continue
            tokens = row.tokens.copy()
            masked = positions[pat]
            tokens[0, masked] = mask_id
            logits = model.forward(tokens, row.pad_mask)
            u = ad.token_log_losses(logits.value[0, masked], row.tokens[0, masked])
            # weight of this pattern at each t, times lam_t, summed over t
            for ti in range(1, schedule.T + 1):
                p_mask = masked_prob[ti - 1]
                w = (p_mask ** pat.sum()) * ((1.0 - p_mask) ** (L - pat.sum()))
                total += lam[ti - 1] * w * u.sum()
    return total


# ---------------------------------------------------------------------------
# planning with a bounded lookahead


def lookahead_solve(input_text: str, lookahead: int) -> str | None:
    """Greedy left-to-right walk with a bounded peek.

    At a fork, a candidate edge qualifies if the goal is reachable within
    `lookahead` edges counting the candidate itself; the walk proceeds only
    when exactly one candidate qualifies. Returns the emitted path text, or
    None when the walk stalls. An instance at planning distance pd is
    solvable exactly when lookahead >= pd.
    """
    edges, start, goal = parse_input(input_text)
    adj = defaultdict(list)
    for a, b in edges:
        adj[a].append(b)

    def reachable(node: str, depth: int) -> bool:
        if node == goal:
            return True
        if depth == 0:
            return False
        return any(reachable(b, depth - 1) for b in adj[node])

    node = start
    visited = {start}
    path = []
    while node != goal and len(path) < len(edges):
        cands = [b for b in adj[node] if b not in visited]
        if not cands:
            return None
        if len(cands) > 1:
            cands = [b for b in cands if lookahead >= 1 and reachable(b, lookahead - 1)]
            if len(cands) != 1:
                return None
        path.append((node, cands[0]))
        node = cands[0]
        visited.add(node)
    if node != goal:
        return None
    return "/".join(f"{a},{b}" for a, b in path)


# ---------------------------------------------------------------------------
# left-to-right decoding without a key/value cache


def ar_decode_full_canvas(model, batch, cfg, pad_id: int, rng) -> np.ndarray:
    """`decoding.ar_decode` as a full-canvas loop: every step runs the
    model over the whole canvas and reads the logits one slot before the
    position being generated. Same arguments, sampling order and output."""
    w = batch.cond_width
    lengths = batch.target_lengths()

    x = batch.tokens.copy()
    pad_mask = batch.pad_mask & ~batch.target_mask
    emitted = np.zeros(len(lengths), dtype=np.int64)
    for j in range(int(lengths.max(initial=0))):
        pos = w + j
        logits = model.forward(x, pad_mask).value[:, pos - 1]
        logp = ad.log_softmax(logits / cfg.temperature)
        sampled = np.argmax(logp + rng.gumbel(size=logp.shape), axis=-1)
        active = j < lengths
        x[active, pos] = sampled[active]
        pad_mask[active, pos] = True
        emitted[active] += 1

    out = np.full((x.shape[0], x.shape[1] - w), pad_id, dtype=x.dtype)
    for i in range(x.shape[0]):
        out[i, :emitted[i]] = x[i, w:w + emitted[i]]
    return out


# ---------------------------------------------------------------------------
# reveal order of the parallel decoder


def reveals_per_step(canvases, out, batch, mask_id: int) -> list:
    """Revealed target slots after each step of `decoding.diffusion_decode`,
    each bool [B, target_width]. canvases are copies of the canvas that each
    forward received, in call order: the one before step s + 1 shows step
    s's reveals, and the output shows the last step's."""
    w = batch.cond_width
    target = batch.target_mask[:, w:]
    return [(c[:, w:] != mask_id) & target for c in canvases[1:]] + [(out != mask_id) & target]


# ---------------------------------------------------------------------------
# metrics records compared across runs


def strip_wall_clock(records) -> list[dict]:
    """Records minus the fields that legitimately differ across runs."""
    return [{k: v for k, v in r.items() if k not in WALL_CLOCK_FIELDS} for r in records]


def pack_rows(cond_rows, target_rows, cond_width: int, target_width: int, pad_id: int) -> Batch:
    """Assemble a Batch from per-row condition / target id lists."""
    def joined(rows):
        ids = np.array(list(itertools.chain.from_iterable(rows)), dtype=np.int64)
        return ids, np.array([len(r) for r in rows], dtype=np.int64)

    return pack_ids(*joined(cond_rows), *joined(target_rows), cond_width, target_width, pad_id)
