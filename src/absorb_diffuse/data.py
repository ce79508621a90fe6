"""Batch layout shared by the model, losses, and decoders.

A batch row is a fixed-width canvas: the condition (task input) right-aligned
in the first `cond_width` slots, the target (task output) left-aligned in the
remaining slots, everything else filled with the pad id. The model reads
padding off the canvas, so attention never reads pad positions; losses only
ever score real target positions.

The canvas is the only array a Batch stores, one TOKEN_DTYPE byte a slot:
the pad id marks padding, so the target mask is derived from it and the
cond width.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

# A Vocabulary holds at most the 128 ASCII characters, so its ids, mask and
# pad included, fit in one byte.
TOKEN_DTYPE = np.uint8


@dataclass
class Batch:
    """Rows of the canvas above. Its target mask is computed from the canvas
    on each read, so a caller that reads it repeatedly keeps the array."""

    tokens: np.ndarray       # TOKEN_DTYPE [B, S], full canvas
    cond_width: int          # canvas column where targets begin
    pad_id: int              # the id of every padding slot, and of no other

    @property
    def target_mask(self) -> np.ndarray:
        """bool [B, S], True at real target tokens."""
        mask = self.tokens != self.pad_id
        mask[:, :self.cond_width] = False
        return mask

    @property
    def size(self) -> int:
        return self.tokens.shape[0]

    def take(self, idx) -> Batch:
        """The rows `idx` of every array field, views for a slice, in a batch
        of this one's kind."""
        return replace(self, **{
            f.name: v[idx] for f in fields(self)
            if isinstance(v := getattr(self, f.name), np.ndarray)})


def pack_ids(cond_ids, cond_lengths, target_ids, target_lengths,
             cond_width: int, target_width: int, pad_id: int) -> Batch:
    """Assemble a Batch from the rows' condition ids laid end to end, each
    row's condition length, and the same for the targets. No id may be the
    pad id, and every id must fit in TOKEN_DTYPE.

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
    tokens = np.full((len(cond_lengths), cond_width + target_width), pad_id, dtype=TOKEN_DTYPE)
    tokens[:, :cond_width][np.arange(cond_width) >= cond_width - cond_lengths[:, None]] = cond_ids
    tokens[:, cond_width:][np.arange(target_width) < target_lengths[:, None]] = target_ids
    return Batch(tokens, cond_width, pad_id)
