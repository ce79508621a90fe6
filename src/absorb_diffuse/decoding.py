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

import time
from dataclasses import dataclass

import numpy as np

from .autodiff import log_softmax
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


def default_steps(avg_output_len: float) -> int:
    """House rule: 20 refinement steps for long outputs, 10 for short ones."""
    return 20 if avg_output_len > 20 else 10


def diffusion_decode(model, batch: Batch, cfg: DecodeConfig, mask_id: int, pad_id: int,
                     rng: np.random.Generator | None = None,
                     trace: list | None = None) -> np.ndarray:
    """Fill the target region of `batch` by parallel refinement.

    Target lengths come from the batch layout; every target slot is decoded
    (the model cannot emit pad or mask, so output length is fixed up front).
    Returns int32 [B, target_width] with pad_id beyond each row's length.
    If `trace` is a list, one bool [B, S] array of revealed positions is
    appended per step.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    x = batch.tokens.copy()
    x[batch.target_mask] = mask_id
    lengths = batch.target_lengths()

    for s in range(1, cfg.steps + 1):
        logits = model.forward(x, batch.pad_mask).value
        logp = log_softmax(logits / cfg.temperature)
        gumbel = rng.gumbel(size=logp.shape)
        sampled = np.argmax(logp + gumbel, axis=-1)
        conf = np.take_along_axis(logp, sampled[..., None], axis=-1)[..., 0]
        # The reverse model is the forward posterior with the network's
        # prediction in place of the clean sequence, so at positions already
        # revealed the predictive distribution is a point mass on the current
        # token: the draw returns it and its confidence is log 1 = 0.
        visible = batch.target_mask & (x != mask_id)
        sampled = np.where(visible, x, sampled)
        conf = np.where(visible, 0.0, conf)
        if cfg.strategy == "random":
            conf = rng.random(conf.shape)
        conf = np.where(batch.target_mask, conf, -np.inf)

        keep = np.ceil(s * lengths / cfg.steps).astype(np.int64)
        order = np.argsort(-conf, axis=1, kind="stable")  # ties: lowest index first
        ranks = np.empty_like(order)
        np.put_along_axis(ranks, order, np.arange(x.shape[1])[None, :].repeat(x.shape[0], 0), axis=1)
        chosen = (ranks < keep[:, None]) & batch.target_mask

        x = np.where(batch.target_mask, mask_id, x).astype(x.dtype)
        x = np.where(chosen, sampled, x).astype(x.dtype)
        if trace is not None:
            trace.append(chosen.copy())

    out = x[:, batch.cond_width:].copy()
    out[~batch.target_mask[:, batch.cond_width:]] = pad_id
    return out


def ar_decode(model, batch: Batch, cfg: DecodeConfig, pad_id: int,
              max_new=None, eos_id: int | None = None,
              rng: np.random.Generator | None = None) -> np.ndarray:
    """Sample the target region left to right with a causal model.

    max_new: per-row token budget (defaults to each row's target length).
    An emitted eos_id, when given, ends a row without being written.
    Returns int32 [B, target_width] with pad_id beyond what was generated.
    """
    if model.config.attention != "causal":
        raise ValueError("ar_decode requires a causal model")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    b, s = batch.tokens.shape
    w = batch.cond_width
    if max_new is None:
        max_new = batch.target_lengths()
    max_new = np.minimum(np.asarray(max_new, dtype=np.int64), s - w)

    x = batch.tokens.copy()
    pad_mask = batch.pad_mask & ~batch.target_mask
    done = max_new <= 0
    emitted = np.zeros(b, dtype=np.int64)
    for j in range(int(max_new.max()) if b else 0):
        pos = w + j
        logits = model.forward(x, pad_mask).value[:, pos - 1]
        logp = log_softmax(logits / cfg.temperature)
        gumbel = rng.gumbel(size=logp.shape)
        sampled = np.argmax(logp + gumbel, axis=-1)
        active = ~done & (j < max_new)
        if eos_id is not None:
            hit = active & (sampled == eos_id)
            done |= hit
            active &= ~hit
        x[active, pos] = sampled[active]
        pad_mask[active, pos] = True
        emitted[active] += 1
        done |= emitted >= max_new
        if done.all():
            break

    out = np.full((b, s - w), pad_id, dtype=x.dtype)
    for i in range(b):
        n = int(emitted[i])
        out[i, :n] = x[i, w:w + n]
    return out


def throughput_probe(model, batch: Batch, steps_grid, cfg: DecodeConfig,
                     mask_id: int, pad_id: int, repeats: int = 1,
                     scorer=None) -> list[dict]:
    """Time parallel decoding across a grid of refinement-step counts.

    Returns one row per grid point: steps, wall seconds, samples/sec, and
    (when a scorer callback is given) accuracy over the decoded batch.
    """
    rows = []
    for steps in steps_grid:
        c = DecodeConfig(steps=int(steps), temperature=cfg.temperature,
                         strategy=cfg.strategy, seed=cfg.seed)
        t0 = time.perf_counter()
        decoded = None
        for _ in range(repeats):
            decoded = diffusion_decode(model, batch, c, mask_id, pad_id)
        dt = time.perf_counter() - t0
        row = {
            "steps": int(steps),
            "seconds": dt,
            "samples_per_sec": batch.size * repeats / dt,
        }
        if scorer is not None:
            row["accuracy"] = float(scorer(decoded))
        rows.append(row)
    return rows
