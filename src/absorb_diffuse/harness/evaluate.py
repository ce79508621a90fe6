"""Verifier-based evaluation: decode, check, aggregate."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..data import Batch
from ..decoding import DecodeConfig, ar_decode, diffusion_decode
from ..tasks import TaskSpec, encode_instances
from ..tasks import planning as planning_task
from .config import run_jobs

EVAL_CHUNK = 64


@dataclass
class EvalResult:
    accuracy: float
    n: int
    per_pd: dict | None       # planning only: {"0": acc, ...}
    outputs: list
    verdicts: list

    def to_metrics(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_pd": self.per_pd,
            "n_eval": self.n,
        }


def _decode_chunk(model, model_kind: str, batch: Batch, cfg: DecodeConfig,
                  vocab, chunk_seed: int) -> list:
    rng = np.random.default_rng(np.random.SeedSequence([chunk_seed, cfg.seed]))
    if model_kind == "diffusion":
        ids = diffusion_decode(model, batch, cfg, vocab.mask_id, vocab.pad_id, rng)
    else:
        ids = ar_decode(model, batch, cfg, vocab.pad_id, rng)
    return vocab.decode(ids)


def evaluate_model(model, model_kind: str, task: TaskSpec, vocab, instances,
                   decode_cfg: DecodeConfig, chunk: int = EVAL_CHUNK) -> EvalResult:
    """Decode all instances (target length taken from each reference output)
    and score them with the task verifier.

    Decoding is chunked and the chunks run through `run_jobs`; chunk
    results are deterministic functions of the chunk index, so the worker
    count never changes the outcome.
    """
    instances = list(instances)
    if not instances:
        raise ValueError("no instances to evaluate")
    decoded = run_jobs([
        functools.partial(_decode_chunk, model, model_kind,
                          encode_instances(task, instances[lo:lo + chunk], vocab),
                          decode_cfg, vocab, i)
        for i, lo in enumerate(range(0, len(instances), chunk))])
    outputs = [text for block in decoded for text in block]

    verdicts = [task.verify(inst.input_text, out)
                for inst, out in zip(instances, outputs)]
    oks = np.array([v.ok for v in verdicts])
    per_pd = None
    if task.name == "planning":
        pds = [inst.meta.get("pd") for inst in instances]
        pds = [pd if pd is not None else planning_task.find_pd(inst.input_text)
               for pd, inst in zip(pds, instances)]
        per_pd = {}
        for pd in sorted(set(pds)):
            sel = np.array([p == pd for p in pds])
            per_pd[str(pd)] = float(oks[sel].mean())
    return EvalResult(float(oks.mean()), len(instances), per_pd, outputs, verdicts)
