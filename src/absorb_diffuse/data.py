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


def pack_rows(cond_rows, target_rows, cond_width: int, target_width: int, pad_id: int) -> Batch:
    """Assemble a Batch from per-row condition / target id lists."""
    if len(cond_rows) != len(target_rows):
        raise ValueError(f"row count mismatch: {len(cond_rows)} conditions, {len(target_rows)} targets")
    b = len(cond_rows)
    s = cond_width + target_width
    tokens = np.full((b, s), pad_id, dtype=np.int32)
    target_mask = np.zeros((b, s), dtype=bool)
    pad_mask = np.zeros((b, s), dtype=bool)
    for i, (cond, tgt) in enumerate(zip(cond_rows, target_rows)):
        if len(cond) > cond_width:
            raise ValueError(f"row {i}: condition length {len(cond)} exceeds width {cond_width}")
        if len(tgt) > target_width:
            raise ValueError(f"row {i}: target length {len(tgt)} exceeds width {target_width}")
        lo = cond_width - len(cond)
        tokens[i, lo:cond_width] = cond
        pad_mask[i, lo:cond_width] = True
        hi = cond_width + len(tgt)
        tokens[i, cond_width:hi] = tgt
        pad_mask[i, cond_width:hi] = True
        target_mask[i, cond_width:hi] = True
    return Batch(tokens, target_mask, pad_mask, cond_width)
