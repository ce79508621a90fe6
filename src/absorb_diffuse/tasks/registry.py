"""Task registry: canvas widths, vocab, generation and verification hooks.

Canvas widths are fixed per task so checkpoints stay shape-compatible with
any dataset of that task. decode_steps is the task's default number of
refinement steps: 20 where outputs average over 20 characters, else 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..data import Batch, pack_rows
from . import countdown, planning, sat, sudoku
from .base import split_segments
from .vocab import Vocabulary


@dataclass(frozen=True)
class TaskSpec:
    name: str
    charset: str
    cond_width: int
    target_width: int
    decode_steps: int
    generate: object        # (n_train, n_test, seed, **kw) -> (train, test)
    verify: object          # (input_text, output_text) -> Verdict
    segments: object        # output_text -> list[int]

    def vocabulary(self) -> Vocabulary:
        return Vocabulary(sorted(self.charset))

    @property
    def seq_len(self) -> int:
        return self.cond_width + self.target_width


def _gen_planning_pools(n_train, n_test, seed, pds=(0, 1, 2, 3, 4, 5)):
    def pool(n, s):
        out = []
        share, extra = divmod(n, len(pds))
        for i, pd in enumerate(pds):
            out.extend(planning.gen_planning(share + (1 if i < extra else 0), pd, s))
        # interleave the per-distance blocks so any prefix is balanced
        np.random.default_rng(np.random.SeedSequence([s, len(out)])).shuffle(out)
        return out
    return pool(n_train, seed), pool(n_test, seed + 1)


def _gen_sudoku_pools(n_train, n_test, seed):
    return sudoku.gen_sudoku(n_train, seed), sudoku.gen_sudoku(n_test, seed + 1)


def _gen_sat_pools(n_vars, n_train, n_test, seed):
    return sat.gen_sat(n_vars, n_train, seed), sat.gen_sat(n_vars, n_test, seed + 1)


def _sat_widths(n_vars):
    m = sat.clause_count(n_vars)
    # worst case clause text "-9,-9,-9" is 8 chars; assignment "-1,...,-9"
    cond = m * 8 + (m - 1)
    tgt = 3 * n_vars - 1
    return cond, tgt


_by_slash = partial(split_segments, sep="/")
_by_comma = partial(split_segments, sep=",")

TASKS = {
    "planning": TaskSpec(
        "planning", planning.CHARSET, 49, 23, 20,
        _gen_planning_pools, planning.verify_planning, _by_slash),
    "countdown3": TaskSpec(
        "countdown3", countdown.CHARSET, 12, 22, 10,
        partial(countdown.gen_countdown, 3), countdown.verify_countdown, _by_comma),
    "countdown4": TaskSpec(
        "countdown4", countdown.CHARSET, 15, 35, 20,
        partial(countdown.gen_countdown, 4), countdown.verify_countdown, _by_comma),
    "countdown5": TaskSpec(
        "countdown5", countdown.CHARSET, 18, 52, 20,
        partial(countdown.gen_countdown, 5), countdown.verify_countdown, _by_comma),
    "sudoku": TaskSpec(
        "sudoku", sudoku.CHARSET, 81, 81, 20,
        _gen_sudoku_pools, sudoku.verify_sudoku, sudoku.output_segments),
    "sat5": TaskSpec(
        "sat5", sat.CHARSET, *_sat_widths(5), 10,
        partial(_gen_sat_pools, 5), sat.verify_sat, _by_comma),
    "sat7": TaskSpec(
        "sat7", sat.CHARSET, *_sat_widths(7), 10,
        partial(_gen_sat_pools, 7), sat.verify_sat, _by_comma),
    "sat9": TaskSpec(
        "sat9", sat.CHARSET, *_sat_widths(9), 10,
        partial(_gen_sat_pools, 9), sat.verify_sat, _by_comma),
}


def get_task(name: str) -> TaskSpec:
    if name not in TASKS:
        raise ValueError(f"unknown task {name!r}, choose from {sorted(TASKS)}")
    return TASKS[name]


def encode_instances(task: TaskSpec, instances, vocab: Vocabulary | None = None) -> Batch:
    """Tokenize instances onto the task's canvas."""
    vocab = vocab or task.vocabulary()
    conds = [vocab.encode(inst.input_text) for inst in instances]
    tgts = [vocab.encode(inst.output_text) for inst in instances]
    return pack_rows(conds, tgts, task.cond_width, task.target_width, vocab.pad_id)


def encode_conditions(task: TaskSpec, inputs, target_lengths, vocab: Vocabulary | None = None) -> Batch:
    """Canvas with known condition text and target slots reserved by length."""
    vocab = vocab or task.vocabulary()
    conds = [vocab.encode(text) for text in inputs]
    dummies = [[0] * int(n) for n in target_lengths]
    return pack_rows(conds, dummies, task.cond_width, task.target_width, vocab.pad_id)


def segment_map(task: TaskSpec, batch: Batch, instances) -> np.ndarray:
    """[B, S] segment ids aligned to the batch canvas (-1 off target)."""
    seg = np.full(batch.tokens.shape, -1, dtype=np.int64)
    for i, inst in enumerate(instances):
        ids = task.segments(inst.output_text)
        seg[i, batch.cond_width:batch.cond_width + len(ids)] = ids
    return seg
