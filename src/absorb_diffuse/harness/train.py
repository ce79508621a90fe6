"""Training loop: data order, corruption, optimization, checkpoints, metrics.

All randomness flows from the experiment seed through SeedSequence words
(init, data order, corruption), and each step's draws are a pure function
of those words and the step: step s trains slice s mod per_epoch of the
permutation seeded by (data word, epoch s // per_epoch), corrupted by a
generator seeded by (noise word, s). A checkpoint then holds no generator
state, and a resumed run continues the exact step sequence of an
uninterrupted one from its parameters, Adam state and step alone.

Each step is data-parallel: the batch is corrupted once, split into twelve
row shards, and the shards' gradients are summed, as data-parallel workers
accumulate theirs. The shards run on one thread per allowed CPU, up to
twelve, and each thread holds the tape of one shard at a time: a twelfth
of the batch per thread. That tape is most of a training process's memory.
Each shard's gradients are added in place into the running sum as soon as
it and every earlier shard have finished, so a step holds one running sum,
not twelve gradient sets.
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
from .metrics import append_record, rewind_records


# Every step runs as SHARDS row shards, whatever the number of workers, and
# sums their gradients in shard order: a step's result then depends neither
# on the core count nor on thread timing. Twelve shards, not one per worker,
# bound the tape that each worker keeps alive to a twelfth of the batch (10
# or 11 rows on the desk profile); twelve took the desk profile's peak RSS
# from 92 to about 82 MB at no measurable cost in step time. Sixteen shards
# (8 rows) held less again but cost about 11% of step time on two threads,
# though nothing on one.
SHARDS = 12


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


def _shard_step(model, kind: str, shard, share: float, schedule, reweight):
    """Forward and backward of one shard, its loss weighted by its share of
    the batch's scored tokens. -> (weighted loss value, {parameter: grad})."""
    loss = (diffusion_loss(model, shard, schedule, reweight) if kind == "diffusion"
            else ar_nll(model, shard))[0]
    loss = ad.scale(loss, share)
    grads: dict = {}
    loss.backward(grads)
    return float(loss.value), grads


def _run_shards(model, kind: str, batch, schedule, reweight) -> tuple[float, float | None]:
    """Forward and backward of each row shard of a CorruptedBatch (diffusion)
    or Batch (AR); sets each parameter's .grad to the sum of its shard
    gradients. -> (batch loss, global gradient norm in float64, or None when
    no shard ran).

    Each shard's loss is weighted by its share of the tokens the loss scores
    in the whole batch, so the weighted losses and their gradients add up
    to the whole batch's. A shard that scores nothing adds nothing and is
    not run; the rest run through `run_jobs`. Losses and gradients are added
    in shard order, ((g0 + g1) + g2) + ..., as each shard and every earlier
    one have finished; the sum is built in place, in the first added
    shard's arrays, and a later shard's gradients are dropped once added.
    """
    scored = batch.corrupted if kind == "diffusion" else batch.target_mask[:, 1:]
    per_row = scored.sum(axis=1)
    total = int(per_row.sum())
    cuts = [-(-len(per_row) * i // SHARDS) for i in range(SHARDS + 1)]
    jobs = [functools.partial(_shard_step, model, kind, batch.take(slice(lo, hi)),
                              int(per_row[lo:hi].sum()) / total, schedule, reweight)
            for lo, hi in zip(cuts, cuts[1:]) if per_row[lo:hi].any()]
    loss, summed = 0.0, {}
    for value, grads in run_jobs(jobs):
        loss += value
        for p, g in grads.items():
            if p in summed:
                summed[p] += g
            else:
                summed[p] = g  # the shard's own copy (Node.backward's), so it can be added into
        del grads  # not held while the next shard is awaited
    sq = 0.0
    for p in model.params.values():
        if p in summed:
            p.grad = summed.pop(p)
            sq += float(np.square(p.grad, dtype=np.float64).sum())
    return loss, math.sqrt(sq) if jobs else None


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
    del instances  # nothing reads them once encoded; a long run need not hold them
    eval_instances = (read_instances(cfg.eval_path)[: cfg.eval_limit or None]
                      if cfg.eval_path else [])

    seeds = np.random.SeedSequence(cfg.seed).generate_state(3)
    init_seed, data_seed, noise_seed = seeds.tolist()
    model_cfg = cfg.model_config(vocab.size)
    model = DenoiserModel(model_cfg, seed=init_seed)
    opt = Adam(model.params)
    schedule = NoiseSchedule.linear(cfg.schedule_T)
    reweight = cfg.reweight_config()
    # epoch-shuffled batches that drop the remainder of each epoch
    batch_rows = min(cfg.batch_size, dataset.size)
    per_epoch = dataset.size // batch_rows
    start_step = 0

    if resume_from is not None:
        loaded = ckpt.load_checkpoint(resume_from)
        try:
            saved, now = loaded.manifest["extra"]["experiment"], dataclasses.asdict(cfg)
            # a resumed run may write elsewhere and train further, nothing else
            differ = sorted(k for k in now.keys() | saved.keys() if k not in
                            ("out_dir", "train_steps") and now.get(k) != saved.get(k))
            if differ:
                raise ValueError(f"{resume_from}: config differs from the checkpoint's in {differ}")
            for name, p in model.params.items():
                p.value[...] = loaded.params[name]
            opt.load_state_dict(loaded.optimizer_state)
        except KeyError as e:
            raise ValueError(f"{resume_from}: checkpoint lacks resume key {e}") from None
        start_step = loaded.step
        if cfg.train_steps <= start_step:
            raise ValueError(f"{resume_from}: train_steps {cfg.train_steps} leaves nothing to "
                             f"train past the checkpoint's step {start_step}")
        in_out_dir = os.path.dirname(os.path.realpath(resume_from)) == os.path.realpath(cfg.out_dir)
        if in_out_dir and os.path.exists(metrics_path):
            rewind_records(metrics_path, start_step)
    os.makedirs(cfg.out_dir, exist_ok=True)
    head = {"task": task.name, "model_kind": cfg.model_kind, "seed": cfg.seed}

    def save(to_dir: str, step: int) -> None:
        ckpt.save_checkpoint(
            to_dir, model.params, dataclasses.asdict(model_cfg), opt.state_dict(), step,
            {"experiment": dataclasses.asdict(cfg), "vocab_chars": vocab.chars},
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
    perm_epoch = None
    for step in range(start_step, cfg.train_steps):
        epoch, slot = divmod(step, per_epoch)
        if epoch != perm_epoch:
            perm = np.random.default_rng((data_seed, epoch)).permutation(dataset.size)
            perm_epoch = epoch
        idx = perm[slot * batch_rows:(slot + 1) * batch_rows]
        rows = dataset.take(idx)
        rows_trained += rows.size
        if cfg.model_kind == "diffusion":
            noise_rng = np.random.default_rng((noise_seed, step))
            t = draw_t(schedule, rows.size, noise_rng)
            batch = sample_xt(schedule, rows, t, noise_rng, vocab.mask_id)
        else:
            batch = rows
        loss_val, grad_norm = _run_shards(model, cfg.model_kind, batch, schedule, reweight)
        if not np.isfinite(loss_val):
            diverged(step, f"non-finite loss {loss_val}", loss_val, idx)
        lr_t = cfg.lr * min(1.0, (step + 1) / cfg.warmup_steps) if cfg.warmup_steps else cfg.lr
        if grad_norm is not None:
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
                "lr": lr_t, "grad_norm": grad_norm, "epoch": epoch,
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
