"""Absorbing-state discrete diffusion: corruption process and training losses.

The forward process replaces tokens with a dedicated mask id and never
un-masks: under the cumulative schedule alpha, a token survives to step t
with probability alpha_t and shows the mask otherwise. All closed forms
below (marginal, posterior, KL) are the absorbing-chain specializations and
are validated in the tests against brute-force chain enumeration.

Notation used throughout: alpha[t] is the survival probability after t
steps (alpha[0] = 1), and lam[t] = (alpha[t-1] - alpha[t]) / (1 - alpha[t])
is the probability that a token masked at step t was unmasked at t-1, i.e.
the coefficient on the reconstruction term at level t.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import itertools

import numpy as np

from . import autodiff as ad
from .data import Batch

SEQUENCE_MODES = ("none", "original", "linear")


@dataclass(frozen=True)
class NoiseSchedule:
    """Cumulative survival probabilities alpha[0..T] with alpha[0] = 1."""

    alpha: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=np.float64)
        object.__setattr__(self, "alpha", a)
        if a.ndim != 1 or a.size < 2:
            raise ValueError(f"schedule needs alpha[0..T] with T >= 1, got shape {a.shape}")
        if a[0] != 1.0:
            raise ValueError(f"alpha[0] must be 1, got {a[0]}")
        if (a < 0).any() or (a > 1).any():
            raise ValueError("alpha values must lie in [0, 1]")
        if (np.diff(a) >= 0).any():
            raise ValueError("alpha must be strictly decreasing")

    @property
    def T(self) -> int:
        return self.alpha.size - 1

    @classmethod
    def linear(cls, T: int) -> "NoiseSchedule":
        if T < 1:
            raise ValueError(f"T must be >= 1, got {T}")
        return cls(1.0 - np.arange(T + 1, dtype=np.float64) / T)

    def beta(self, t) -> np.ndarray:
        """Per-step masking probability beta_t = 1 - alpha_t / alpha_{t-1}."""
        t = self._check_t(t)
        prev = self.alpha[t - 1]
        return np.where(prev > 0, 1.0 - self.alpha[t] / np.where(prev > 0, prev, 1.0), 1.0)

    def survival(self, t) -> np.ndarray:
        """lam_t: prob. a token masked at t carried a real value at t-1."""
        t = self._check_t(t)
        denom = 1.0 - self.alpha[t]
        return (self.alpha[t - 1] - self.alpha[t]) / denom

    def _check_t(self, t):
        t = np.asarray(t)
        if t.size and (t.min() < 1 or t.max() > self.T):
            raise ValueError(f"t out of range [1, {self.T}]: min {t.min()}, max {t.max()}")
        return t


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
# batch corruption


@dataclass
class CorruptedBatch:
    tokens: np.ndarray        # int32 [B, S], canvas with masked target tokens
    x0: np.ndarray            # int32 [B, S], clean canvas
    corrupted: np.ndarray     # bool [B, S]
    t: np.ndarray             # int [B], noise level per row
    target_mask: np.ndarray   # bool [B, S]
    pad_mask: np.ndarray      # bool [B, S]
    cond_width: int

    @property
    def n_corrupted(self) -> int:
        return int(self.corrupted.sum())


def sample_xt(schedule: NoiseSchedule, batch: Batch, t, rng: np.random.Generator,
              mask_id: int) -> CorruptedBatch:
    """Corrupt target positions of a batch at per-row noise levels t.

    Each real target token is independently replaced by the mask with
    probability 1 - alpha_t; condition and pad positions pass through. One
    uniform is drawn per canvas slot so the stream position never depends
    on masking outcomes.
    """
    t = np.asarray(t, dtype=np.int64)
    if t.ndim == 0:
        t = np.full(batch.size, int(t))
    schedule._check_t(t)
    keep = schedule.alpha[t]
    u = rng.random(batch.tokens.shape)
    corrupted = batch.target_mask & (u >= keep[:, None])
    tokens = np.where(corrupted, mask_id, batch.tokens).astype(batch.tokens.dtype)
    return CorruptedBatch(tokens, batch.tokens.copy(), corrupted, t,
                          batch.target_mask, batch.pad_mask, batch.cond_width)


def draw_t(schedule: NoiseSchedule, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform noise levels in [1, T], one per row."""
    return rng.integers(1, schedule.T + 1, size=n)


# ---------------------------------------------------------------------------
# losses


@dataclass
class ReweightConfig:
    """Weights applied to the per-token reconstruction losses.

    sequence_mode scales whole rows by their noise level: "none" trains the
    plain average, "original" uses lam_t (the exact bound coefficient),
    "linear" ramps from 1 at t=1 down to 1/T at t=T. token_alpha/beta shape
    the per-token factor v = alpha * (1 - p)^beta with p the model's current
    probability of the true token, so confidently-denoised tokens fade and
    hard tokens dominate. v multiplies the loss as data (no gradient flows
    through it) unless full_gradient is set.
    """

    sequence_mode: str = "original"
    token_alpha: float = 1.0
    token_beta: float = 0.0
    full_gradient: bool = False

    def __post_init__(self):
        if self.sequence_mode not in SEQUENCE_MODES:
            raise ValueError(
                f"sequence_mode must be one of {SEQUENCE_MODES}, got {self.sequence_mode!r}"
            )
        if self.token_alpha <= 0:
            raise ValueError(f"token_alpha must be positive, got {self.token_alpha}")
        if self.token_beta < 0:
            raise ValueError(f"token_beta must be >= 0, got {self.token_beta}")


def sequence_weight(schedule: NoiseSchedule, t, mode: str) -> np.ndarray:
    t = np.asarray(t)
    if mode == "none":
        return np.ones(t.shape, dtype=np.float64)
    if mode == "original":
        return schedule.survival(t)
    if mode == "linear":
        return (schedule.T - t + 1).astype(np.float64) / schedule.T
    raise ValueError(f"unknown sequence_mode {mode!r}")


def token_weight(u: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """v = alpha * (1 - exp(-u))^beta, bounded in [0, alpha], rising in u."""
    return alpha * np.power(1.0 - np.exp(-np.asarray(u, dtype=np.float64)), beta)


@dataclass
class LossReport:
    """Detached per-token diagnostics from one loss evaluation."""

    loss: float
    t: np.ndarray             # [B]
    u: np.ndarray             # [B, S] float64, token NLL at corrupted slots, else 0
    v: np.ndarray             # [B, S] float64, token weight at corrupted slots, else 0
    seq_weight: np.ndarray    # [B]
    corrupted: np.ndarray     # [B, S] bool
    n_corrupted: int


def diffusion_loss(model, cbatch: CorruptedBatch, schedule: NoiseSchedule,
                   reweight: ReweightConfig) -> tuple[ad.Node, LossReport]:
    """Reweighted denoising loss over the corrupted target positions.

    Per corrupted token: u = -log f(x_t)_{x0}; contribution w(t) * v * u,
    normalized by the number of corrupted tokens in the batch. With
    sequence_mode "original" and v = 1 this is the per-token exact bound
    coefficient, so the scalar equals the simplified KL objective.
    """
    b, s = cbatch.tokens.shape
    logits = model.forward(cbatch.tokens, cbatch.pad_mask)
    k = logits.value.shape[-1]
    flat = ad.reshape(logits, (b * s, k))
    mask = cbatch.corrupted.reshape(-1)
    targets = np.where(mask, cbatch.x0.reshape(-1), 0)
    if mask.any() and targets[mask].max() >= k:
        raise ValueError("corrupted positions must hold content tokens")

    u_flat = ad.token_log_losses(flat.value, targets)
    seq_w = sequence_weight(schedule, cbatch.t, reweight.sequence_mode)
    base = np.where(mask, np.repeat(seq_w, s), 0.0)
    n = int(mask.sum())
    v_flat = np.where(mask, token_weight(u_flat, reweight.token_alpha, reweight.token_beta), 0.0)
    denom = max(n, 1)  # base is all zero when nothing is corrupted: the loss is 0
    if reweight.full_gradient:
        loss = ad.softmax_focal_cross_entropy(
            flat, targets, base / denom, reweight.token_alpha, reweight.token_beta)
    else:
        loss = ad.softmax_cross_entropy(flat, targets, base * v_flat / denom)

    report = LossReport(
        loss=float(loss.value),
        t=cbatch.t,
        u=np.where(mask, u_flat, 0.0).reshape(b, s),
        v=v_flat.reshape(b, s),
        seq_weight=seq_w,
        corrupted=cbatch.corrupted,
        n_corrupted=n,
    )
    return loss, report


# ---------------------------------------------------------------------------
# evidence bound


def elbo(model, batch: Batch, schedule: NoiseSchedule, mask_id: int,
         n_samples: int = 0, rng: np.random.Generator | None = None) -> float:
    """Negative evidence lower bound in nats, summed over the batch.

    An upper bound on the exact negative log likelihood of the targets given
    the conditions. n_samples = 0 enumerates every corruption pattern
    exactly (only sensible for short targets); otherwise Monte Carlo with
    n_samples draws per noise level. Requires alpha_T = 0 so the terminal
    state carries no information.
    """
    if schedule.alpha[-1] != 0.0:
        raise ValueError("elbo requires alpha[T] == 0 (fully absorbed terminal state)")
    total = 0.0
    for i in range(batch.size):
        row = batch.take(slice(i, i + 1))
        if n_samples == 0:
            total += _elbo_exact_row(model, row, schedule, mask_id)
        else:
            if rng is None:
                raise ValueError("Monte Carlo elbo needs an rng")
            total += _elbo_mc_row(model, row, schedule, mask_id, n_samples, rng)
    return total


def _row_term(model, row: Batch, tokens: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """u at the given masked positions for one corrupted canvas."""
    logits = model.forward(tokens, row.pad_mask)
    x0 = row.tokens[0, positions]
    u = ad.token_log_losses(logits.value[0, positions], x0)
    return u


def _elbo_exact_row(model, row: Batch, schedule: NoiseSchedule, mask_id: int) -> float:
    positions = np.flatnonzero(row.target_mask[0])
    L = positions.size
    if L > 16:
        raise ValueError(f"exact elbo enumerates 2^L patterns; L={L} is too long")
    lam = schedule.survival(np.arange(1, schedule.T + 1))
    masked_prob = 1.0 - schedule.alpha[1:]  # P(token masked at t)
    total = 0.0
    for pattern in itertools.product((False, True), repeat=L):
        pat = np.array(pattern)
        if not pat.any():
            continue
        tokens = row.tokens.copy()
        tokens[0, positions[pat]] = mask_id
        u = _row_term(model, row, tokens, positions[pat])
        # weight of this pattern at each t, times lam_t, summed over t
        for ti in range(1, schedule.T + 1):
            p_mask = masked_prob[ti - 1]
            w = (p_mask ** pat.sum()) * ((1.0 - p_mask) ** (L - pat.sum()))
            total += lam[ti - 1] * w * u.sum()
    return total


def _elbo_mc_row(model, row: Batch, schedule: NoiseSchedule, mask_id: int,
                 n_samples: int, rng: np.random.Generator) -> float:
    lam = schedule.survival(np.arange(1, schedule.T + 1))
    total = 0.0
    for ti in range(1, schedule.T + 1):
        acc = 0.0
        for _ in range(n_samples):
            cb = sample_xt(schedule, row, ti, rng, mask_id)
            pos = np.flatnonzero(cb.corrupted[0])
            if pos.size:
                acc += _row_term(model, row, cb.tokens, pos).sum()
        total += lam[ti - 1] * acc / n_samples
    return total


# ---------------------------------------------------------------------------
# diagnostics


def subgoal_loss_profile(model, batch: Batch, schedule: NoiseSchedule, mask_id: int,
                         rng: np.random.Generator, n_samples: int = 4,
                         segments: np.ndarray | None = None) -> dict:
    """Mean reconstruction loss per noise level (and per output segment).

    For each t, corrupt the batch n_samples times and average u over the
    corrupted positions. With a [B, S] integer segment map (e.g. equation
    index within each target), also break the average out by segment.
    Returns {"t": [T], "mean_u": [T], "segments": sorted ids or None,
    "per_segment": [T, n_segments] or None}.
    """
    T = schedule.T
    seg_ids = None
    if segments is not None:
        segments = np.asarray(segments)
        if segments.shape != batch.tokens.shape:
            raise ValueError(
                f"segment map shape {segments.shape} != batch shape {batch.tokens.shape}"
            )
        seg_ids = np.unique(segments[batch.target_mask])
    mean_u = np.zeros(T)
    per_seg = np.zeros((T, seg_ids.size)) if seg_ids is not None else None
    for ti in range(1, T + 1):
        num = 0.0
        den = 0
        seg_num = np.zeros(seg_ids.size) if seg_ids is not None else None
        seg_den = np.zeros(seg_ids.size) if seg_ids is not None else None
        for _ in range(n_samples):
            cb = sample_xt(schedule, batch, ti, rng, mask_id)
            if cb.n_corrupted == 0:
                continue
            logits = model.forward(cb.tokens, cb.pad_mask)
            flat = logits.value.reshape(-1, logits.value.shape[-1])
            mask = cb.corrupted.reshape(-1)
            targets = np.where(mask, cb.x0.reshape(-1), 0)
            u = ad.token_log_losses(flat, targets)
            num += u[mask].sum()
            den += int(mask.sum())
            if seg_ids is not None:
                segs = segments.reshape(-1)[mask]
                for j, sid in enumerate(seg_ids):
                    pick = segs == sid
                    seg_num[j] += u[mask][pick].sum()
                    seg_den[j] += int(pick.sum())
        mean_u[ti - 1] = num / max(den, 1)
        if seg_ids is not None:
            per_seg[ti - 1] = seg_num / np.maximum(seg_den, 1)
    return {
        "t": np.arange(1, T + 1),
        "mean_u": mean_u,
        "segments": seg_ids,
        "per_segment": per_seg,
    }
