"""Verifier-based evaluation: decode, check, aggregate."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..data import Batch
from ..decoding import DecodeConfig, ar_decode, diffusion_decode
from ..tasks import TaskSpec, encode_instances
from ..tasks import planning as planning_task
from .config import blas_threads, resolve_threads

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
        ids = diffusion_decode(model, batch, cfg, vocab.mask_id, vocab.pad_id, rng=rng)
    else:
        ids = ar_decode(model, batch, cfg, vocab.pad_id, rng=rng)
    return [vocab.decode(row) for row in ids]


def evaluate_model(model, model_kind: str, task: TaskSpec, vocab, instances,
                   decode_cfg: DecodeConfig, threads: int | None = None,
                   chunk: int = EVAL_CHUNK) -> EvalResult:
    """Decode all instances (target length taken from each reference output)
    and score them with the task verifier.

    Decoding is chunked; chunk results are deterministic functions of the
    chunk index, so the worker count never changes the outcome.

    With more than one worker over more than one chunk, BLAS runs one thread
    per worker while the pool runs (see `blas_threads`). That count is global
    to the process, so this must not run beside another BLAS user.
    """
    instances = list(instances)
    if not instances:
        raise ValueError("no instances to evaluate")
    chunks = [instances[i:i + chunk] for i in range(0, len(instances), chunk)]
    batches = [encode_instances(task, c, vocab) for c in chunks]

    def run(i: int) -> list:
        return _decode_chunk(model, model_kind, batches[i], decode_cfg, vocab, i)

    n_workers = threads if threads is not None else resolve_threads()
    if n_workers > 1 and len(batches) > 1:
        with blas_threads(1), ThreadPoolExecutor(max_workers=n_workers) as pool:
            decoded = list(pool.map(run, range(len(batches))))
    else:
        decoded = [run(i) for i in range(len(batches))]
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
