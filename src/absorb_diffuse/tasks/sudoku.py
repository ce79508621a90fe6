"""9x9 sudoku completion, row-major digit strings, 0 for a blank cell.

Instances are built by masking cells of a complete valid grid, so every
puzzle is solvable by construction (not necessarily uniquely; the verifier
accepts any valid completion that preserves the givens).
"""

from __future__ import annotations

import numpy as np

from .base import FORMAT_ERROR, INVALID, VALID, TaskInstance, Verdict

CHARSET = "0123456789"
GRID = 81
GIVENS_RANGE = (30, 50)


def _full_grid(rng: np.random.Generator) -> np.ndarray:
    """Complete valid grid: shifted base pattern, then relabel digits and
    permute rows/columns within and across bands."""
    base = np.array([[(r * 3 + r // 3 + c) % 9 for c in range(9)] for r in range(9)])
    digits = rng.permutation(9) + 1
    grid = digits[base]
    bands = rng.permutation(3)
    rows = np.concatenate([band * 3 + rng.permutation(3) for band in bands])
    stacks = rng.permutation(3)
    cols = np.concatenate([stack * 3 + rng.permutation(3) for stack in stacks])
    return grid[rows][:, cols]


def gen_sudoku(n: int, seed: int) -> list[TaskInstance]:
    lo, hi = GIVENS_RANGE
    out = []
    for idx in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([seed, idx]))
        grid = _full_grid(rng)
        n_givens = int(rng.integers(lo, hi + 1))
        keep = np.zeros(GRID, dtype=bool)
        keep[rng.permutation(GRID)[:n_givens]] = True
        flat = grid.reshape(-1)
        inp = "".join(str(v) if k else "0" for v, k in zip(flat, keep))
        outp = "".join(str(v) for v in flat)
        out.append(TaskInstance(inp, outp, {"givens": n_givens}))
    return out


def verify_sudoku(input_text: str, output_text: str) -> Verdict:
    if len(input_text) != GRID or not input_text.isdigit():
        return Verdict(FORMAT_ERROR, detail="input is not 81 digits")
    if len(output_text) != GRID or not output_text.isdigit():
        return Verdict(FORMAT_ERROR, detail="output is not 81 digits")
    if "0" in output_text:
        return Verdict(INVALID, detail="output leaves blanks")
    for i, (a, b) in enumerate(zip(input_text, output_text)):
        if a != "0" and a != b:
            return Verdict(INVALID, detail=f"given overwritten at cell {i}")
    grid = np.frombuffer(output_text.encode(), dtype=np.uint8).reshape(9, 9) - ord("0")
    want = set(range(1, 10))
    for r in range(9):
        if set(grid[r]) != want:
            return Verdict(INVALID, detail=f"row {r} is not a permutation")
    for c in range(9):
        if set(grid[:, c]) != want:
            return Verdict(INVALID, detail=f"column {c} is not a permutation")
    for br in range(3):
        for bc in range(3):
            box = grid[br * 3:br * 3 + 3, bc * 3:bc * 3 + 3]
            if set(box.reshape(-1)) != want:
                return Verdict(INVALID, detail=f"box {br},{bc} is not a permutation")
    return Verdict(VALID)


def output_segments(output_text: str) -> list[int]:
    """Per-character grid row index."""
    return [i // 9 for i in range(len(output_text))]
