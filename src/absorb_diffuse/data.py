"""Batch layout shared by the model, losses, and decoders.

A batch row is a fixed-width canvas: the condition (task input) right-aligned
in the first `cond_width` slots, the target (task output) left-aligned in the
remaining slots, everything else filled with the pad id. Attention never
reads pad positions; losses only ever score real target positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Batch:
    tokens: np.ndarray       # int32 [B, S], full canvas
    target_mask: np.ndarray  # bool [B, S], True at real target tokens
    pad_mask: np.ndarray     # bool [B, S], True everywhere except padding
    cond_width: int          # canvas column where targets begin

    def __post_init__(self):
        if self.tokens.shape != self.target_mask.shape or self.tokens.shape != self.pad_mask.shape:
            raise ValueError(
                f"batch mask shapes differ: tokens {self.tokens.shape}, "
                f"target {self.target_mask.shape}, pad {self.pad_mask.shape}"
            )
        if (self.target_mask & ~self.pad_mask).any():
            raise ValueError("target positions must not be padding")

    @property
    def size(self) -> int:
        return self.tokens.shape[0]

    def target_lengths(self) -> np.ndarray:
        return self.target_mask.sum(axis=1)

    def take(self, idx) -> "Batch":
        return Batch(self.tokens[idx], self.target_mask[idx], self.pad_mask[idx], self.cond_width)


def pack_ids(cond_ids, cond_lengths, target_ids, target_lengths,
             cond_width: int, target_width: int, pad_id: int) -> Batch:
    """Assemble a Batch from the rows' condition ids laid end to end, each
    row's condition length, and the same for the targets.

    Each region's occupied slots are one boolean mask: a row's last
    `cond_lengths[i]` condition columns and first `target_lengths[i]` target
    columns. A boolean assignment fills a mask's True slots in row-major
    order, which is the order of the ids laid end to end, so no per-id row
    or column index is built."""
    if len(cond_lengths) != len(target_lengths):
        raise ValueError(f"row count mismatch: {len(cond_lengths)} conditions, "
                         f"{len(target_lengths)} targets")
    too_long = (cond_lengths > cond_width) | (target_lengths > target_width)
    if too_long.any():
        i = int(too_long.argmax())
        if cond_lengths[i] > cond_width:
            raise ValueError(f"row {i}: condition length {cond_lengths[i]} exceeds width {cond_width}")
        raise ValueError(f"row {i}: target length {target_lengths[i]} exceeds width {target_width}")
    cond = np.arange(cond_width) >= cond_width - cond_lengths[:, None]
    target = np.arange(target_width) < target_lengths[:, None]
    pad_mask = np.concatenate([cond, target], axis=1)
    target_mask = np.zeros_like(pad_mask)
    target_mask[:, cond_width:] = target
    tokens = np.full(pad_mask.shape, pad_id, dtype=np.int32)
    tokens[:, :cond_width][cond] = cond_ids
    tokens[:, cond_width:][target] = target_ids
    return Batch(tokens, target_mask, pad_mask, cond_width)
