"""Decoding: parallel refinement for the denoiser, left-to-right for the baseline.

The parallel decoder starts from an all-mask target region and runs a fixed
number of refinement steps. Each step samples a full candidate output at the
given temperature, keeps the most confident ceil(s * L / steps) positions
(so the final step keeps everything), and re-masks the rest. Because the
reverse model is the forward posterior evaluated at the network's prediction,
already-revealed positions carry over as point masses (confidence 1); the
keep set is still recomputed from scratch every step. Under "topk" a
revealed position holds the highest possible confidence, so it stays
revealed (barring exact ties at log 1, which break toward the lowest index).
Under "random" the keep set is redrawn every step, so a revealed position
can be re-masked and sampled again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import log_softmax, no_grad
from .data import Batch

STRATEGIES = ("topk", "random")


@dataclass
class DecodeConfig:
    steps: int = 20
    temperature: float = 0.5
    strategy: str = "topk"
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")


def _sample(logits: np.ndarray, temperature: float, rng: np.random.Generator):
    """Gumbel-max draw from softmax(logits / temperature) over the last axis.

    -> (ids, log-probability of each drawn id).
    """
    logp = log_softmax(logits / temperature)
    ids = np.argmax(logp + rng.gumbel(size=logp.shape), axis=-1)
    return ids, np.take_along_axis(logp, ids[..., None], axis=-1)[..., 0]


def diffusion_decode(model, batch: Batch, cfg: DecodeConfig, mask_id: int, pad_id: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Fill the target region of `batch` by parallel refinement.

    Target lengths come from the batch layout; every target slot is decoded
    (the model cannot emit pad or mask, so output length is fixed up front).
    Returns int32 [B, target_width] with pad_id beyond each row's length.
    """
    w = batch.cond_width
    target = batch.target_mask[:, w:]
    x = batch.tokens.copy()
    x[batch.target_mask] = mask_id
    xt = x[:, w:]  # a view: writing it writes x
    lengths = batch.target_lengths()

    for s in range(1, cfg.steps + 1):
        # the model scores, and the sampler draws for, the target columns only
        with no_grad():  # on the thread that decodes: the mode is per thread
            logits = model.forward(x, batch.pad_mask, queries_from=w).value
        sampled, conf = _sample(logits, cfg.temperature, rng)
        # The reverse model is the forward posterior with the network's
        # prediction in place of the clean sequence, so at positions already
        # revealed the predictive distribution is a point mass on the current
        # token: the draw returns it and its confidence is log 1 = 0.
        visible = target & (xt != mask_id)
        sampled = np.where(visible, xt, sampled)
        conf = np.where(visible, 0.0, conf)
        if cfg.strategy == "random":
            conf = rng.random(conf.shape)
        conf = np.where(target, conf, -np.inf)

        keep = np.ceil(s * lengths / cfg.steps).astype(np.int64)
        order = np.argsort(-conf, axis=1, kind="stable")  # ties: lowest index first
        ranks = np.argsort(order, axis=1)  # the inverse permutation: each slot's rank
        chosen = (ranks < keep[:, None]) & target

        xt[target] = mask_id
        xt[chosen] = sampled[chosen]

    return np.where(target, xt, pad_id)


def ar_decode(model, batch: Batch, cfg: DecodeConfig, pad_id: int,
              rng: np.random.Generator) -> np.ndarray:
    """Sample each row's target region left to right with a causal model.

    The first forward runs the condition prefix and fills a key/value
    cache; each later forward feeds only the token sampled last. The last
    logits row of each forward scores the next token. The cache lives for
    this call only.

    Returns int32 [B, target_width] with pad_id beyond each row's length.
    """
    if model.config.attention != "causal":
        raise ValueError("ar_decode requires a causal model")
    w = batch.cond_width
    lengths = batch.target_lengths()

    x = batch.tokens.copy()
    pad_mask = batch.pad_mask & ~batch.target_mask
    cache = {}
    for pos in range(w, w + int(lengths.max(initial=0))):
        # only the last position's logits are read: the prefill runs one query
        with no_grad():
            logits = model.forward(x[:, :pos], pad_mask[:, :pos], cache=cache,
                                   queries_from=pos - 1).value[:, -1]
        # a row past its length draws too; the slot stays a pad key and is not returned
        x[:, pos], _ = _sample(logits, cfg.temperature, rng)
        pad_mask[:, pos] = batch.target_mask[:, pos]
    return np.where(batch.target_mask[:, w:], x[:, w:], pad_id)
