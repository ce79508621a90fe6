"""Verifier-based evaluation: decode, check, aggregate.

Every aggregation of verifier verdicts lives here: accuracy and per-PD
accuracy in `evaluate_model`, and the error taxonomy in `error_taxonomy`.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..data import Batch
from ..decoding import DecodeConfig, ar_decode, diffusion_decode
from ..tasks import TaskSpec, encode_instances
from ..tasks import planning as planning_task
from ..tasks.base import VALID
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
    decode = diffusion_decode if model_kind == "diffusion" else ar_decode
    return vocab.decode(decode(model, batch, cfg, rng))


def evaluate_model(model, model_kind: str, task: TaskSpec, vocab, instances,
                   decode_cfg: DecodeConfig) -> EvalResult:
    """Decode all instances (target length taken from each reference output)
    and score them with the task verifier.

    Decoding runs in chunks of EVAL_CHUNK instances through `run_jobs`; chunk
    results are deterministic functions of the chunk index, so the worker
    count never changes the outcome.
    """
    instances = list(instances)
    if not instances:
        raise ValueError("no instances to evaluate")
    pds = None
    if task.name == "planning":  # read before decoding, so a bad input costs no decode work
        pds = np.empty(len(instances), dtype=np.int64)
        for i, inst in enumerate(instances):
            try:
                pds[i] = planning_task.find_pd(inst.input_text)
            except ValueError as e:
                raise ValueError(f"instance {i}: {e}") from None
    decoded = run_jobs([
        functools.partial(_decode_chunk, model, model_kind,
                          encode_instances(task, instances[lo:lo + EVAL_CHUNK], vocab),
                          decode_cfg, vocab, i)
        for i, lo in enumerate(range(0, len(instances), EVAL_CHUNK))])
    outputs = [text for block in decoded for text in block]

    verdicts = [task.verify(inst.input_text, out)
                for inst, out in zip(instances, outputs)]
    oks = np.array([v.ok for v in verdicts])
    # not np.unique, whose first call imports numpy.ma (about 9 ms and 1.2 MB)
    per_pd = None if pds is None else {
        str(pd): float(oks[pds == pd].mean()) for pd in sorted(set(pds.tolist()))}
    return EvalResult(float(oks.mean()), len(instances), per_pd, outputs, verdicts)


@dataclass
class TaxonomyRow:
    kind: str
    step: int | None
    count: int
    rate: float


def error_taxonomy(verdicts) -> list[TaxonomyRow]:
    """Aggregate verdicts into (kind, step) buckets with rates over the total.

    Valid outcomes collapse into a single row; failing kinds are broken out
    by the 1-based step where the verifier stopped.
    """
    verdicts = list(verdicts)
    n = len(verdicts)
    if n == 0:
        raise ValueError("no verdicts to aggregate")
    buckets = Counter()
    for v in verdicts:
        key = (VALID, None) if v.ok else (v.kind, v.step)
        buckets[key] += 1
    rows = [
        TaxonomyRow(kind, step, count, count / n)
        for (kind, step), count in buckets.items()
    ]
    rows.sort(key=lambda r: (r.kind != VALID, r.kind, r.step if r.step is not None else -1))
    return rows
