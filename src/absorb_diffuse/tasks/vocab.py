"""Character-level vocabulary with mask and pad specials.

Content tokens take ids 0..n-1 in sorted character order; mask and pad sit
at the top of the id range so the model's output head (which scores content
only) can use a contiguous [0, n) target space.
"""

from __future__ import annotations

import numpy as np


class Vocabulary:
    def __init__(self, chars):
        chars = list(chars)
        if len(set(chars)) != len(chars):
            raise ValueError("duplicate characters in vocabulary")
        if any(len(c) != 1 for c in chars):
            raise ValueError("content tokens must be single characters")
        self.chars = sorted(chars)
        # id of each code point up to the largest content one, -1 where none;
        # the trailing -1 stands for every larger code point
        codes = [ord(c) for c in self.chars]
        self._ids = np.full(max(codes, default=-1) + 2, -1, dtype=np.int32)
        self._ids[codes] = np.arange(len(codes))
        self._codes = np.array(codes, dtype="<u4")  # code point of each content id

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
        """-> (the texts' ids laid end to end as int32, each text's length)."""
        lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
        joined = "".join(texts).encode("utf-32-le", "surrogatepass")
        codes = np.frombuffer(joined, dtype="<u4")
        ids = np.take(self._ids, codes, mode="clip")
        bad = ids < 0
        if bad.any():
            raise ValueError(f"character {chr(codes[bad.argmax()])!r} not in vocabulary")
        return ids, lengths

    def decode(self, ids) -> str:
        """Content ids to text; pad ids are skipped."""
        ids = np.asarray(ids, dtype=np.int64)
        ids = ids[ids != self.pad_id]
        bad = (ids < 0) | (ids >= len(self.chars))
        if bad.any():
            i = int(ids[bad.argmax()])
            if i == self.mask_id:
                raise ValueError("mask id in decoded sequence")
            raise ValueError(f"id {i} outside vocabulary of size {self.size}")
        return self._codes[ids].tobytes().decode("utf-32-le", "surrogatepass")
