"""Training loop: data order, corruption, optimization, checkpoints, metrics.

All randomness flows from the experiment seed through named SeedSequence
children (init / data order / corruption / eval), and the generator states
are stored in the checkpoint manifest, so a resumed run continues the exact
step sequence of an uninterrupted one.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from .. import checkpoint as ckpt
from ..autodiff import Adam
from ..diffusion import NoiseSchedule, diffusion_loss, draw_t, sample_xt
from ..model import DenoiserModel, ModelConfig, ar_nll
from ..tasks import Vocabulary, encode_instances, get_task, read_instances
from .config import ExperimentConfig
from .evaluate import evaluate_model
from .metrics import MetricsRecord, append_record


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite; a diagnostic snapshot of the
    model and step context is written before raising."""


@dataclass
class TrainResult:
    out_dir: str
    checkpoint_dir: str
    metrics_path: str
    steps: int
    final_loss: float
    final_eval: dict | None


class _Sampler:
    """Epoch-shuffled batch index stream with a resumable cursor."""

    def __init__(self, n: int, batch_size: int, rng: np.random.Generator):
        self.n = n
        self.batch_size = min(batch_size, n)
        self.rng = rng
        self.epoch = 0
        self.pos = 0
        self.perm = rng.permutation(n)

    def next_batch(self) -> np.ndarray:
        if self.pos + self.batch_size > self.n:
            self.perm = self.rng.permutation(self.n)
            self.pos = 0
            self.epoch += 1
        out = self.perm[self.pos:self.pos + self.batch_size]
        self.pos += self.batch_size
        return out

    def state(self) -> dict:
        return {"epoch": self.epoch, "pos": self.pos, "perm": self.perm.tolist()}

    def restore(self, state: dict) -> None:
        self.epoch = int(state["epoch"])
        self.pos = int(state["pos"])
        self.perm = np.asarray(state["perm"], dtype=np.int64)


def _rng_state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state

def _restore_rng(state: dict) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    return rng


def load_model(checkpoint_dir: str):
    """-> (model, vocab, config) from a harness checkpoint."""
    loaded = ckpt.load_checkpoint(checkpoint_dir)
    extra = loaded.manifest["extra"]
    cfg = ExperimentConfig.from_dict(extra["experiment"])
    vocab = Vocabulary(extra["vocab_chars"])
    model = DenoiserModel(ModelConfig.from_dict(loaded.model_config), params=loaded.params)
    return model, vocab, cfg


def train(cfg: ExperimentConfig, resume_from: str | None = None,
          log=print, quiet: bool = True) -> TrainResult:
    task = get_task(cfg.task)
    vocab = task.vocabulary()
    os.makedirs(cfg.out_dir, exist_ok=True)
    metrics_path = os.path.join(cfg.out_dir, "metrics.jsonl")
    ckpt_dir = os.path.join(cfg.out_dir, "checkpoint")

    instances = read_instances(cfg.train_path)
    if not instances:
        raise ValueError(f"empty training set {cfg.train_path}")
    dataset = encode_instances(task, instances, vocab)
    eval_instances = read_instances(cfg.eval_path) if cfg.eval_path else []

    seeds = np.random.SeedSequence(cfg.seed).generate_state(4)
    model_cfg = cfg.model_config(vocab.size)
    model = DenoiserModel(model_cfg, seed=int(seeds[0]))
    data_rng = np.random.default_rng(int(seeds[1]))
    noise_rng = np.random.default_rng(int(seeds[2]))
    opt = Adam(model.params, lr=cfg.lr)
    schedule = NoiseSchedule.linear(cfg.schedule_T)
    reweight = cfg.reweight_config()
    sampler = _Sampler(dataset.size, cfg.batch_size, data_rng)
    start_step = 0

    if resume_from is not None:
        loaded = ckpt.load_checkpoint(resume_from)
        for name, arr in loaded.params.items():
            model.params[name].value[...] = arr
        if loaded.optimizer_state is not None:
            opt.load_state_dict(loaded.optimizer_state)
        rs = loaded.rng_state or {}
        if "data" in rs:
            data_rng = _restore_rng(rs["data"])
            sampler.rng = data_rng
        if "noise" in rs:
            noise_rng = _restore_rng(rs["noise"])
        if "sampler" in rs:
            sampler.restore(rs["sampler"])
        start_step = int(loaded.step or 0)

    def save(to_dir: str, step: int) -> None:
        ckpt.save_checkpoint(
            to_dir, model.params,
            model_config=model_cfg.to_dict(),
            optimizer_state=opt.state_dict(),
            rng_state={"data": _rng_state(data_rng), "noise": _rng_state(noise_rng),
                       "sampler": sampler.state()},
            seed=cfg.seed, step=step,
            extra={"experiment": cfg.to_dict(), "vocab_chars": vocab.chars,
                   "task": task.name},
        )

    def run_eval(step: int) -> dict | None:
        if not eval_instances:
            return None
        subset = eval_instances[: cfg.eval_limit] if cfg.eval_limit else eval_instances
        t0 = time.perf_counter()
        res = evaluate_model(model, cfg.model_kind, task, vocab, subset, cfg.decode_config())
        dt = time.perf_counter() - t0
        append_record(metrics_path, MetricsRecord(
            kind="eval", step=step, task=task.name, model_kind=cfg.model_kind,
            seed=cfg.seed, accuracy=res.accuracy, per_pd=res.per_pd, n_eval=res.n,
            wall_time=dt, samples_per_sec=res.n / dt if dt > 0 else None))
        if not quiet:
            log(f"step {step}: eval accuracy {res.accuracy:.3f} "
                + (f"per_pd {res.per_pd}" if res.per_pd else ""))
        return res.to_metrics()

    def diverged(step: int, loss_val: float, batch_idx: np.ndarray):
        snap = os.path.join(cfg.out_dir, "diverged")
        save(snap, step)
        with open(os.path.join(snap, "context.json"), "w") as f:
            json.dump({"step": step, "loss": loss_val, "batch_indices": batch_idx.tolist()},
                      f, indent=2)
        raise TrainingDiverged(
            f"non-finite loss {loss_val} at step {step}; snapshot written to {snap}")

    loss_val = float("nan")
    final_eval = None
    for step in range(start_step, cfg.train_steps):
        idx = sampler.next_batch()
        rows = dataset.take(idx)
        if cfg.model_kind == "diffusion":
            t = draw_t(schedule, rows.size, noise_rng)
            cb = sample_xt(schedule, rows, t, noise_rng, vocab.mask_id)
            loss, report = diffusion_loss(model, cb, schedule, reweight)
            skip = report.n_corrupted == 0
        else:
            loss, _ = ar_nll(model, rows)
            skip = False
        loss_val = float(loss.value)
        if not np.isfinite(loss_val):
            diverged(step, loss_val, idx)
        lr_t = cfg.lr * min(1.0, (step + 1) / cfg.warmup_steps) if cfg.warmup_steps else cfg.lr
        if not skip:
            loss.backward()
            opt.step(lr_t)
        if (step + 1) % cfg.log_every == 0 or step + 1 == cfg.train_steps:
            append_record(metrics_path, MetricsRecord(
                kind="train_step", step=step + 1, task=task.name,
                model_kind=cfg.model_kind, seed=cfg.seed, loss=loss_val,
                lr=lr_t,
                epoch=sampler.epoch))
            if not quiet:
                log(f"step {step + 1}/{cfg.train_steps}: loss {loss_val:.4f}")
        if cfg.eval_every and (step + 1) % cfg.eval_every == 0 and step + 1 < cfg.train_steps:
            run_eval(step + 1)
            # long runs stay resumable: the eval cadence bounds lost work
            save(ckpt_dir, step + 1)

    final_eval = run_eval(cfg.train_steps)
    save(ckpt_dir, cfg.train_steps)
    append_record(metrics_path, MetricsRecord(
        kind="final", step=cfg.train_steps, task=task.name, model_kind=cfg.model_kind,
        seed=cfg.seed, loss=loss_val,
        accuracy=None if final_eval is None else final_eval["accuracy"],
        per_pd=None if final_eval is None else final_eval["per_pd"],
        n_eval=None if final_eval is None else final_eval["n_eval"]))
    return TrainResult(cfg.out_dir, ckpt_dir, metrics_path, cfg.train_steps,
                       loss_val, final_eval)
