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
    # no defaults: ExperimentConfig.decode_config() is the one source of these
    steps: int
    temperature: float
    strategy: str
    seed: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")


def _sample(logits: np.ndarray, temperature: float, gumbel: np.ndarray):
    """Gumbel-max draw from softmax(logits / temperature) over the last
    axis, with the standard Gumbel noise `gumbel` of the logits' shape.

    -> (ids, log-probability of each drawn id).
    """
    logp = log_softmax(logits / temperature)
    ids = np.argmax(logp + gumbel, axis=-1)
    return ids, np.take_along_axis(logp, ids[..., None], axis=-1)[..., 0]


def diffusion_decode(model, batch: Batch, cfg: DecodeConfig,
                     rng: np.random.Generator) -> np.ndarray:
    """Fill the target slots of a copy of the canvas by parallel refinement.

    Target lengths come from the batch layout; every target slot starts as
    the model config's mask id and is decoded (the model cannot emit pad or
    mask, so output length is fixed up front).
    Each forward reads only the still-masked slots and keeps layer 0's
    q/k/v table in a per-call cache; Gumbel noise is drawn at every target
    column, so the random stream does not depend on which slots are masked.
    Returns the copy's target columns, [B, target_width] in the canvas
    dtype: the canvas's pad stays beyond each row's length.
    """
    if model.config.attention != "bidirectional":
        raise ValueError("diffusion_decode requires a bidirectional model")
    w = batch.cond_width
    mask_id = model.config.mask_id
    target = batch.target_mask[:, w:]
    x = batch.tokens.copy()
    xt = x[:, w:]  # a view: writing it writes x
    xt[target] = mask_id
    lengths = target.sum(axis=1)
    cache = {}

    for s in range(1, cfg.steps + 1):
        read = x == mask_id  # no condition or pad slot holds the mask id
        with no_grad():  # on the thread that decodes: the mode is per thread
            logits = model.forward(x, read, cache).value
        masked = read[:, w:]
        # The reverse model is the forward posterior with the network's
        # prediction in place of the clean sequence, so at positions already
        # revealed the predictive distribution is a point mass on the current
        # token: the draw returns it and its confidence is log 1 = 0.
        sampled, conf = xt.copy(), np.zeros(xt.shape)
        sampled[masked], conf[masked] = _sample(
            logits, cfg.temperature, rng.gumbel(size=(*xt.shape, logits.shape[-1]))[masked])
        if cfg.strategy == "random":
            conf = rng.random(conf.shape)
        conf = np.where(target, conf, -np.inf)

        keep = np.ceil(s * lengths / cfg.steps).astype(np.int64)
        order = np.argsort(-conf, axis=1, kind="stable")  # ties: lowest index first
        ranks = np.argsort(order, axis=1)  # the inverse permutation: each slot's rank
        chosen = (ranks < keep[:, None]) & target

        xt[target] = mask_id
        xt[chosen] = sampled[chosen]

    return xt


def ar_decode(model, batch: Batch, cfg: DecodeConfig, rng: np.random.Generator) -> np.ndarray:
    """Fill the target slots of a copy of the canvas left to right, causally.

    The first forward runs the condition prefix and fills a key/value
    cache; each later forward feeds only the token sampled last. The last
    column of each forward, the only one it reads, scores the next token.
    Every row draws at each column, so the random stream does not depend
    on the lengths, but a draw is written only into rows whose target
    reaches that column; past a row's length its canvas keeps the pad,
    which the forward reads as padding. The cache, layer 0's q/k/v table
    with it, lives for this call only.

    Returns the copy's target columns, [B, target_width] in the canvas
    dtype: the canvas's pad stays beyond each row's length.
    """
    if model.config.attention != "causal":
        raise ValueError("ar_decode requires a causal model")
    w = batch.cond_width
    target = batch.target_mask
    lengths = target[:, w:].sum(axis=1)

    x = batch.tokens.copy()
    cache = {}
    for pos in range(w, w + int(lengths.max(initial=0))):
        # only the last position's logits are read: the prefill runs one query
        read = np.zeros((x.shape[0], pos), dtype=bool)
        read[:, -1] = True
        with no_grad():
            logits = model.forward(x[:, :pos], read, cache).value
        sampled, _ = _sample(logits, cfg.temperature, rng.gumbel(size=logits.shape))
        active = target[:, pos]
        x[active, pos] = sampled[active]
    return x[:, w:]
