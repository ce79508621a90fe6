"""Training loop: data order, corruption, optimization, checkpoints, metrics.

All randomness flows from the experiment seed through named SeedSequence
children (init / data order / corruption / eval), and the generator states
are stored in the checkpoint manifest, so a resumed run continues the exact
step sequence of an uninterrupted one.

Each step is data-parallel: the batch is corrupted once, split into row
shards, and the shards' gradients are summed, as data-parallel workers
accumulate theirs. Two shards run on two threads when two CPUs are allowed.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import time

import numpy as np

from .. import autodiff as ad
from .. import checkpoint as ckpt
from ..autodiff import Adam
from ..diffusion import NoiseSchedule, diffusion_loss, draw_t, sample_xt
from ..model import DenoiserModel, ModelConfig, ar_nll
from ..tasks import Vocabulary, encode_instances, get_task, read_instances
from .config import ExperimentConfig, run_jobs
from .evaluate import evaluate_model
from .metrics import append_record


# Every step runs as SHARDS row shards, whatever the number of workers, and
# sums their gradients in shard order: a step's result then depends neither
# on the core count nor on thread timing.
SHARDS = 2


class TrainingDiverged(RuntimeError):
    """Raised when the loss or a gradient stops being finite; a snapshot of
    the model as it was before the step, and the step context, is written first."""


@dataclasses.dataclass
class TrainResult:
    out_dir: str
    checkpoint_dir: str
    metrics_path: str
    steps: int
    final_loss: float
    final_eval: dict | None


class _Sampler:
    """Epoch-shuffled batch index stream with a resumable cursor. It owns
    the data rng; its state keeps that rng's state from before the current
    epoch's shuffle, so a restore draws the same permutation again."""

    def __init__(self, n: int, batch_size: int, rng: np.random.Generator):
        self.n = n
        self.batch_size = min(batch_size, n)
        self.rng = rng
        self.epoch = 0
        self._shuffle()

    def _shuffle(self) -> None:
        self.rng_before = self.rng.bit_generator.state
        self.perm = self.rng.permutation(self.n)
        self.pos = 0

    def next_batch(self) -> np.ndarray:
        if self.pos + self.batch_size > self.n:
            self._shuffle()
            self.epoch += 1
        out = self.perm[self.pos:self.pos + self.batch_size]
        self.pos += self.batch_size
        return out

    def state(self) -> dict:
        return {"epoch": self.epoch, "pos": self.pos, "rng": self.rng_before}

    def restore(self, state: dict) -> None:
        self.rng.bit_generator.state = state["rng"]
        self._shuffle()
        self.epoch = int(state["epoch"])
        self.pos = int(state["pos"])


def _rows(batch, lo: int, hi: int):
    """Rows [lo, hi) of a Batch or CorruptedBatch, as views."""
    return dataclasses.replace(batch, **{
        f.name: getattr(batch, f.name)[lo:hi] for f in dataclasses.fields(batch)
        if isinstance(getattr(batch, f.name), np.ndarray)})


def _shard_step(model, kind: str, shard, share: float, schedule, reweight):
    """Forward and backward of one shard, its loss weighted by its share of
    the batch's scored tokens. -> (weighted loss value, {parameter: grad})."""
    loss = (diffusion_loss(model, shard, schedule, reweight) if kind == "diffusion"
            else ar_nll(model, shard))[0]
    loss = ad.scale(loss, share)
    grads: dict = {}
    loss.backward(grads)
    return float(loss.value), grads


def _run_shards(model, kind: str, batch, schedule, reweight) -> list:
    """Forward and backward of each row shard of a CorruptedBatch (diffusion)
    or Batch (AR), in shard order: -> [(weighted loss value, {param: grad})].

    Each shard's loss is weighted by its share of the tokens the loss scores
    in the whole batch, so the weighted losses and their gradients add up
    to the whole batch's. A shard that scores nothing adds nothing and is
    not run; the rest run through `run_jobs`.
    """
    scored = batch.corrupted if kind == "diffusion" else batch.target_mask[:, 1:]
    per_row = scored.sum(axis=1)
    total = int(per_row.sum())
    cuts = [-(-len(per_row) * i // SHARDS) for i in range(SHARDS + 1)]
    jobs = [functools.partial(_shard_step, model, kind, _rows(batch, lo, hi),
                              int(per_row[lo:hi].sum()) / total, schedule, reweight)
            for lo, hi in zip(cuts, cuts[1:]) if per_row[lo:hi].any()]
    return run_jobs(jobs)


def _gather_grads(params: dict, shard_grads: list) -> float:
    """Set each parameter's .grad to the sum of its shard gradients, added
    in shard order, and return the global gradient norm, in float64."""
    sq = 0.0
    for p in params.values():
        pieces = [grads[p] for grads in shard_grads if p in grads]
        if pieces:
            p.grad = functools.reduce(np.add, pieces)
            sq += float(np.square(p.grad, dtype=np.float64).sum())
    return math.sqrt(sq)


def load_model(checkpoint_dir: str):
    """-> (model, vocab, config) from a harness checkpoint."""
    loaded = ckpt.load_checkpoint(checkpoint_dir)
    extra = loaded.manifest["extra"]
    cfg = ExperimentConfig.from_dict(extra["experiment"])
    vocab = Vocabulary(extra["vocab_chars"])
    model = DenoiserModel(ModelConfig(**loaded.model_config), params=loaded.params)
    return model, vocab, cfg


def train(cfg: ExperimentConfig, resume_from: str | None = None,
          log=print, quiet: bool = True) -> TrainResult:
    task = get_task(cfg.task)
    vocab = task.vocabulary()
    metrics_path = os.path.join(cfg.out_dir, "metrics.jsonl")
    ckpt_dir = os.path.join(cfg.out_dir, "checkpoint")

    instances = read_instances(cfg.train_path)
    if not instances:
        raise ValueError(f"empty training set {cfg.train_path}")
    dataset = encode_instances(task, instances, vocab)
    eval_instances = (read_instances(cfg.eval_path)[: cfg.eval_limit or None]
                      if cfg.eval_path else [])

    seeds = np.random.SeedSequence(cfg.seed).generate_state(4)
    model_cfg = cfg.model_config(vocab.size)
    model = DenoiserModel(model_cfg, seed=int(seeds[0]))
    noise_rng = np.random.default_rng(int(seeds[2]))
    opt = Adam(model.params)
    schedule = NoiseSchedule.linear(cfg.schedule_T)
    reweight = cfg.reweight_config()
    sampler = _Sampler(dataset.size, cfg.batch_size, np.random.default_rng(int(seeds[1])))
    start_step = 0

    if resume_from is not None:
        loaded = ckpt.load_checkpoint(resume_from)
        try:
            saved, now = loaded.manifest["extra"]["experiment"], cfg.to_dict()
            # a resumed run may write elsewhere and train further, nothing else
            differ = sorted(k for k in now.keys() | saved.keys() if k not in
                            ("out_dir", "train_steps") and now.get(k) != saved.get(k))
            if differ:
                raise ValueError(f"{resume_from}: config differs from the checkpoint's in {differ}")
            for name, p in model.params.items():
                p.value[...] = loaded.params[name]
            opt.load_state_dict(loaded.optimizer_state)
            noise_rng.bit_generator.state = loaded.rng_state["noise"]
            sampler.restore(loaded.rng_state["sampler"])
        except KeyError as e:
            raise ValueError(f"{resume_from}: checkpoint lacks resume key {e}") from None
        start_step = loaded.step
        if cfg.train_steps <= start_step:
            raise ValueError(f"{resume_from}: train_steps {cfg.train_steps} leaves nothing to "
                             f"train past the checkpoint's step {start_step}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    head = {"task": task.name, "model_kind": cfg.model_kind, "seed": cfg.seed}

    def save(to_dir: str, step: int) -> None:
        ckpt.save_checkpoint(
            to_dir, model.params, dataclasses.asdict(model_cfg), opt.state_dict(),
            {"noise": noise_rng.bit_generator.state, "sampler": sampler.state()}, step,
            {"experiment": cfg.to_dict(), "vocab_chars": vocab.chars, "task": task.name},
        )

    def run_eval(step: int) -> dict | None:
        if not eval_instances:
            return None
        t0 = time.perf_counter()
        res = evaluate_model(model, cfg.model_kind, task, vocab, eval_instances, cfg.decode_config())
        dt = time.perf_counter() - t0
        append_record(metrics_path, {
            **head, "kind": "eval", "step": step, **res.to_metrics(),
            "wall_time": dt, "samples_per_sec": res.n / dt if dt > 0 else None})
        if not quiet:
            log(f"step {step}: eval accuracy {res.accuracy:.3f} "
                + (f"per_pd {res.per_pd}" if res.per_pd else ""))
        return res.to_metrics()

    def diverged(step: int, reason: str, loss_val: float, batch_idx: np.ndarray):
        snap = os.path.join(cfg.out_dir, "diverged")
        save(snap, step)
        with open(os.path.join(snap, "context.json"), "w") as f:
            json.dump({"step": step, "reason": reason, "loss": loss_val,
                       "batch_indices": batch_idx.tolist()}, f, indent=2)
        raise TrainingDiverged(f"{reason} at step {step}; snapshot written to {snap}")

    loss_val = float("nan")
    # each train_step record times the interval since the previous one
    last_log, rows_trained = time.perf_counter(), 0
    for step in range(start_step, cfg.train_steps):
        idx = sampler.next_batch()
        rows = dataset.take(idx)
        rows_trained += rows.size
        if cfg.model_kind == "diffusion":
            t = draw_t(schedule, rows.size, noise_rng)
            batch = sample_xt(schedule, rows, t, noise_rng, vocab.mask_id)
        else:
            batch = rows
        shards = _run_shards(model, cfg.model_kind, batch, schedule, reweight)
        loss_val = sum((value for value, _ in shards), 0.0)
        if not np.isfinite(loss_val):
            diverged(step, f"non-finite loss {loss_val}", loss_val, idx)
        lr_t = cfg.lr * min(1.0, (step + 1) / cfg.warmup_steps) if cfg.warmup_steps else cfg.lr
        grad_norm = None
        if shards:
            grad_norm = _gather_grads(model.params, [grads for _, grads in shards])
            if not math.isfinite(grad_norm):
                bad = [k for k, p in model.params.items()
                       if p.grad is not None and not np.isfinite(p.grad).all()]
                diverged(step, f"non-finite gradient in {bad}", loss_val, idx)
            opt.step(lr_t)
        if (step + 1) % cfg.log_every == 0 or step + 1 == cfg.train_steps:
            now = time.perf_counter()
            dt = now - last_log
            append_record(metrics_path, {
                **head, "kind": "train_step", "step": step + 1, "loss": loss_val,
                "lr": lr_t, "grad_norm": grad_norm, "epoch": sampler.epoch,
                "wall_time": dt, "samples_per_sec": rows_trained / dt if dt > 0 else None})
            last_log, rows_trained = now, 0
            if not quiet:
                log(f"step {step + 1}/{cfg.train_steps}: loss {loss_val:.4f}")
        if cfg.eval_every and (step + 1) % cfg.eval_every == 0 and step + 1 < cfg.train_steps:
            run_eval(step + 1)
            # long runs stay resumable: the eval cadence bounds lost work
            save(ckpt_dir, step + 1)

    final_eval = run_eval(cfg.train_steps)
    save(ckpt_dir, cfg.train_steps)
    append_record(metrics_path, {**head, "kind": "final", "step": cfg.train_steps,
                                 "loss": loss_val, **(final_eval or {})})
    return TrainResult(cfg.out_dir, ckpt_dir, metrics_path, cfg.train_steps,
                       loss_val, final_eval)
