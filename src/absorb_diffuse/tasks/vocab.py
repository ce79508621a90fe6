"""Character-level vocabulary with mask and pad specials.

Content tokens take ids 0..n-1 in sorted character order; mask and pad sit
at the top of the id range so the model's output head (which scores content
only) can use a contiguous [0, n) target space.
"""

from __future__ import annotations


class Vocabulary:
    def __init__(self, chars):
        chars = list(chars)
        if len(set(chars)) != len(chars):
            raise ValueError("duplicate characters in vocabulary")
        if any(len(c) != 1 for c in chars):
            raise ValueError("content tokens must be single characters")
        self.chars = sorted(chars)
        self._to_id = {c: i for i, c in enumerate(self.chars)}

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

    def encode(self, text: str) -> list[int]:
        try:
            return [self._to_id[c] for c in text]
        except KeyError as e:
            raise ValueError(f"character {e.args[0]!r} not in vocabulary") from None

    def decode(self, ids) -> str:
        """Content ids to text; pad ids are skipped."""
        out = []
        for i in ids:
            i = int(i)
            if i == self.pad_id:
                continue
            if i == self.mask_id:
                raise ValueError("mask id in decoded sequence")
            if not 0 <= i < len(self.chars):
                raise ValueError(f"id {i} outside vocabulary of size {self.size}")
            out.append(self.chars[i])
        return "".join(out)

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self.chars == other.chars
