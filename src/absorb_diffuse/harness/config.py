"""Experiment configuration."""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

from ..decoding import DecodeConfig
from ..diffusion import ReweightConfig
from ..model import ModelConfig
from ..tasks import get_task

THREADS_ENV = "ABSORB_DIFFUSE_THREADS"
MODEL_KINDS = ("diffusion", "ar")


def resolve_threads() -> int:
    """Worker cap for batched evaluation, from the environment."""
    raw = os.environ.get(THREADS_ENV, "")
    if raw:
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
        if n < 1:
            raise ValueError(f"{THREADS_ENV} must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1


@dataclass
class ExperimentConfig:
    task: str
    out_dir: str
    train_path: str = ""
    eval_path: str = ""
    model_kind: str = "diffusion"
    seed: int = 0
    # model size
    n_layers: int = 3
    n_heads: int = 4
    hidden_dim: int = 128
    # corruption process and loss shaping
    schedule_T: int = 20
    sequence_mode: str = "original"
    token_alpha: float = 1.0
    token_beta: float = 0.0
    full_gradient: bool = False
    # optimization
    lr: float = 1e-3
    warmup_steps: int = 100
    batch_size: int = 128
    train_steps: int = 4000
    log_every: int = 50
    eval_every: int = 0       # 0: only the final evaluation
    eval_limit: int = 200
    # decoding
    decode_steps: int = 0     # 0: task default rule
    temperature: float = 0.5
    strategy: str = "topk"

    def __post_init__(self):
        get_task(self.task)
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"model_kind must be one of {MODEL_KINDS}, got {self.model_kind!r}")
        for f in ("schedule_T", "batch_size", "train_steps", "log_every"):
            if getattr(self, f) < 1:
                raise ValueError(f"{f} must be >= 1")
        if not self.lr > 0:
            raise ValueError("lr must be positive")
        if self.warmup_steps < 0 or self.eval_every < 0 or self.decode_steps < 0:
            raise ValueError("warmup_steps, eval_every and decode_steps must be >= 0")
        # the loss and decoder settings are checked by the configs built from them
        self.reweight_config()
        self.decode_config()

    def model_config(self, vocab_size: int) -> ModelConfig:
        task = get_task(self.task)
        attention = "causal" if self.model_kind == "ar" else "bidirectional"
        return ModelConfig(vocab_size=vocab_size, max_seq_len=task.seq_len,
                           attention=attention, n_layers=self.n_layers,
                           n_heads=self.n_heads, hidden_dim=self.hidden_dim)

    def reweight_config(self) -> ReweightConfig:
        return ReweightConfig(sequence_mode=self.sequence_mode,
                              token_alpha=self.token_alpha,
                              token_beta=self.token_beta,
                              full_gradient=self.full_gradient)

    def decode_config(self) -> DecodeConfig:
        steps = self.decode_steps or get_task(self.task).default_decode_steps()
        return DecodeConfig(steps=steps, temperature=self.temperature,
                            strategy=self.strategy, seed=self.seed)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def replace(self, **kw) -> "ExperimentConfig":
        return dataclasses.replace(self, **kw)
