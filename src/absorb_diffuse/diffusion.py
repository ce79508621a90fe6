"""Absorbing-state discrete diffusion: corruption process, training losses,
per-level loss profile and Monte Carlo ELBO.

The forward process replaces tokens with a dedicated mask id and never
un-masks: under the cumulative schedule alpha, a token survives to step t
with probability alpha_t and shows the mask otherwise. The chain's
closed-form marginal, posterior and KL live in tests/helpers.py as oracles
for the loss and ELBO below, and are themselves checked against brute-force
chain enumeration.

Notation used throughout: alpha[t] is the survival probability after t
steps (alpha[0] = 1), and lam[t] = (alpha[t-1] - alpha[t]) / (1 - alpha[t])
is the probability that a token masked at step t was unmasked at t-1, i.e.
the coefficient on the reconstruction term at level t.
"""

from __future__ import annotations

from dataclasses import dataclass

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


# ---------------------------------------------------------------------------
# batch corruption


@dataclass
class CorruptedBatch(Batch):
    """A Batch whose tokens hold the mask at its corrupted target slots."""

    x0: np.ndarray            # int32 [B, S], clean canvas
    corrupted: np.ndarray     # bool [B, S]
    t: np.ndarray             # int [B], noise level per row


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
    return CorruptedBatch(tokens=tokens, target_mask=batch.target_mask,
                          pad_mask=batch.pad_mask, cond_width=batch.cond_width,
                          x0=batch.tokens.copy(), corrupted=corrupted, t=t)


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
    """Detached per-token diagnostics from one loss evaluation, each [B, S]
    float64 and zero outside the corrupted slots."""

    u: np.ndarray             # token NLL
    v: np.ndarray             # token weight


def diffusion_loss(model, cbatch: CorruptedBatch, schedule: NoiseSchedule,
                   reweight: ReweightConfig) -> tuple[ad.Node, LossReport]:
    """Reweighted denoising loss over the corrupted target positions.

    Per corrupted token: u = -log f(x_t)_{x0}; contribution w(t) * v * u,
    normalized by the number of corrupted tokens in the batch. With
    sequence_mode "original" and v = 1 this is the per-token exact bound
    coefficient, so the scalar equals the simplified KL objective.
    """
    b, s = cbatch.tokens.shape
    w = cbatch.cond_width
    if cbatch.corrupted[:, :w].any():
        raise ValueError("corrupted positions must lie in the target region")
    logits = model.forward(cbatch.tokens, cbatch.pad_mask, queries_from=w)
    k = logits.value.shape[-1]
    st = s - w  # the target columns, the only ones the model scores here
    flat = ad.reshape(logits, (b * st, k))
    mask = cbatch.corrupted[:, w:].reshape(-1)
    targets = np.where(mask, cbatch.x0[:, w:].reshape(-1), 0)
    if mask.any() and targets[mask].max() >= k:
        raise ValueError("corrupted positions must hold content tokens")

    logp = ad.log_softmax(flat.value)  # shared with the loss kernel below
    u_flat = -logp[np.arange(b * st), targets]
    seq_w = sequence_weight(schedule, cbatch.t, reweight.sequence_mode)
    base = np.where(mask, np.repeat(seq_w, st), 0.0)
    n = int(mask.sum())
    v_flat = np.where(mask, token_weight(u_flat, reweight.token_alpha, reweight.token_beta), 0.0)
    denom = max(n, 1)  # base is all zero when nothing is corrupted: the loss is 0
    if reweight.full_gradient:
        loss = ad.softmax_focal_cross_entropy(
            flat, targets, base / denom, reweight.token_alpha, reweight.token_beta, logp=logp)
    else:
        loss = ad.softmax_cross_entropy(flat, targets, base * v_flat / denom, logp=logp)

    def canvas(a):  # [B * st] -> [B, S], zero in the condition columns
        return np.pad(a.reshape(b, st), ((0, 0), (w, 0)))

    return loss, LossReport(u=canvas(np.where(mask, u_flat, 0.0)), v=canvas(v_flat))


# ---------------------------------------------------------------------------
# diagnostics


def subgoal_loss_profile(model, batch: Batch, schedule: NoiseSchedule, mask_id: int,
                         rng: np.random.Generator, segments: np.ndarray,
                         n_samples: int = 4) -> dict:
    """Mean reconstruction loss per noise level and per output segment, and
    the Monte Carlo negative ELBO.

    For each t, corrupt the batch n_samples times and read u at the
    corrupted positions from `diffusion_loss`; the [B, S] integer array
    `segments` (e.g. equation index within each target) breaks the average
    out by segment. The NELBO, in nats summed over the batch, is
    sum_t lam_t * E[sum of u at level t]: an upper bound on the targets'
    negative log likelihood given the conditions when alpha_T = 0 (the
    terminal state carries no information), else None.
    Returns {"t": [T], "mean_u": [T], "segments": sorted ids,
    "per_segment": [T, n_segments], "nelbo": float or None}.
    """
    T = schedule.T
    seg_ids = np.unique(segments[batch.target_mask])
    seg_sum = np.zeros((T, seg_ids.size))
    seg_count = np.zeros((T, seg_ids.size))
    u_sum = np.zeros(T)
    count = np.zeros(T, dtype=np.int64)
    plain_bound = ReweightConfig()
    for ti in range(1, T + 1):
        for _ in range(n_samples):
            cb = sample_xt(schedule, batch, ti, rng, mask_id)
            if not cb.corrupted.any():
                continue
            with ad.no_grad():
                report = diffusion_loss(model, cb, schedule, plain_bound)[1]
            u = report.u[cb.corrupted]
            u_sum[ti - 1] += u.sum()
            count[ti - 1] += u.size
            j = np.searchsorted(seg_ids, segments[cb.corrupted])
            seg_sum[ti - 1] += np.bincount(j, weights=u, minlength=seg_ids.size)
            seg_count[ti - 1] += np.bincount(j, minlength=seg_ids.size)
    lam = schedule.survival(np.arange(1, T + 1))
    return {
        "t": np.arange(1, T + 1),
        "mean_u": u_sum / np.maximum(count, 1),
        "segments": seg_ids,
        "per_segment": seg_sum / np.maximum(seg_count, 1),
        # a running total in t order (np.sum would pair the terms)
        "nelbo": float(sum(lam * u_sum / n_samples)) if schedule.alpha[-1] == 0.0 else None,
    }
