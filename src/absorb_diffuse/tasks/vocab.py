"""Character-level vocabulary with mask and pad specials.

Content tokens are ASCII characters and take ids 0..n-1 in sorted character
order; mask and pad sit at the top of the id range so the model's output
head (which scores content only) can use a contiguous [0, n) target space.
At most 128 characters give at most 130 ids, so every id fits in the canvas
dtype.
"""

from __future__ import annotations

import numpy as np

from ..data import TOKEN_DTYPE


class Vocabulary:
    def __init__(self, chars):
        chars = list(chars)
        if len(set(chars)) != len(chars):
            raise ValueError("duplicate characters in vocabulary")
        if any(len(c) != 1 for c in chars):
            raise ValueError("content tokens must be single characters")
        if not "".join(chars).isascii():
            raise ValueError("content tokens must be ASCII characters")
        self.chars = sorted(chars)
        # byte of each content id, and the id of each byte value: the mask id
        # (which no character has) where none, so at every byte of UTF-8 that
        # is not an ASCII character
        self._bytes = np.frombuffer("".join(self.chars).encode("ascii"), dtype=np.uint8)
        self._ids = np.full(256, self.mask_id, dtype=TOKEN_DTYPE)
        self._ids[self._bytes] = np.arange(len(self.chars))

    @property
    def mask_id(self) -> int:
        return len(self.chars)

    @property
    def pad_id(self) -> int:
        return len(self.chars) + 1

    @property
    def size(self) -> int:
        """Full vocabulary size including mask and pad."""
        return len(self.chars) + 2

    def encode_texts(self, texts) -> tuple[np.ndarray, np.ndarray]:
        """-> (the texts' ids laid end to end as TOKEN_DTYPE, each text's length)."""
        lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
        joined = "".join(texts)
        ids = self._ids[np.frombuffer(joined.encode(), dtype=np.uint8)]
        bad = ids == self.mask_id
        if bad.any():
            # every byte before the first bad one is an ASCII character's own
            raise ValueError(f"character {joined[bad.argmax()]!r} not in vocabulary")
        return ids, lengths

    def decode(self, ids) -> list[str]:
        """A [rows, width] chunk of content ids to one text per row, from a
        single lookup over every row's ids; pad ids are skipped. A mask or
        out-of-range id raises for the first one in row-major order."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 2:
            raise ValueError(f"ids must be [rows, width], got shape {ids.shape}")
        kept = ids != self.pad_id
        flat = ids[kept]  # row-major: the rows' ids laid end to end
        bad = (flat < 0) | (flat >= len(self.chars))
        if bad.any():
            i = int(flat[bad.argmax()])
            if i == self.mask_id:
                raise ValueError("mask id in decoded sequence")
            raise ValueError(f"id {i} outside vocabulary of size {self.size}")
        text = self._bytes[flat].tobytes().decode("ascii")
        # one character per id, so each row's text ends at its running id count
        ends = np.cumsum(kept.sum(axis=1)).tolist()
        return [text[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]
