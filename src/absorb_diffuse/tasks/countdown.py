"""Countdown arithmetic: combine every operand once to hit a target value.

Input lists the operands and the target, comma separated ("15,44,79,50"
means operands 15,44,79 with target 50). The output is a chain of
equations, one per combination step ("44-15=29,79-29=50"); each equation
must draw both operands from the current pool (original numbers plus
earlier results), and the final result must equal the target with no
operand left unused.

Verification distinguishes arithmetic slips from planning failures: an
equation whose operands are unavailable is a plan error at that step, one
that computes the wrong value is a calculation error, and a chain that ends
somewhere other than the target (or strands operands) is a plan error at
the final step.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .base import CALC_ERROR, FORMAT_ERROR, PLAN_ERROR, VALID, TaskInstance, Verdict

CHARSET = "0123456789+-*/=,"
TARGET_RANGE = (10, 100)
TEST_TARGET_FRAC = 0.2    # share of target values held out for the test pool
MAX_INTERMEDIATE = 9999
OPS = "+-*/"


def _feasible_ops(a: int, b: int) -> list[tuple[str, int, int, int]]:
    """All (op, lhs, rhs, result) combinations of a pair, results kept in
    [1, MAX_INTERMEDIATE]. Subtraction and division always put the larger
    operand first."""
    hi, lo = max(a, b), min(a, b)
    out = []
    if a + b <= MAX_INTERMEDIATE:
        out.append(("+", a, b, a + b))
    if hi > lo:
        out.append(("-", hi, lo, hi - lo))
    if a * b <= MAX_INTERMEDIATE:
        out.append(("*", a, b, a * b))
    if lo >= 1 and hi % lo == 0:
        out.append(("/", hi, lo, hi // lo))
    return out


def _build_instance(n_operands: int, rng: np.random.Generator) -> TaskInstance | None:
    operands = [int(x) for x in rng.integers(1, 100, size=n_operands)]
    items = list(operands)
    steps = []
    for _ in range(n_operands - 1):
        i, j = rng.choice(len(items), size=2, replace=False)
        a, b = items[i], items[j]
        cands = _feasible_ops(a, b)
        if not cands:
            return None
        op, lhs, rhs, res = cands[rng.integers(len(cands))]
        steps.append(f"{lhs}{op}{rhs}={res}")
        items = [v for k, v in enumerate(items) if k not in (i, j)] + [res]
    target = items[0]
    if not TARGET_RANGE[0] <= target <= TARGET_RANGE[1]:
        return None
    inp = ",".join(str(x) for x in operands) + f",{target}"
    return TaskInstance(inp, ",".join(steps), {"target": target})


def gen_countdown(n_operands: int, n_train: int, n_test: int,
                  seed: int) -> tuple[list[TaskInstance], list[TaskInstance]]:
    """Generate disjoint train/test pools split by held-out target values."""
    if n_operands < 2:
        raise ValueError(f"need at least 2 operands, got {n_operands}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, n_operands]))
    targets = np.arange(TARGET_RANGE[0], TARGET_RANGE[1] + 1)
    targets = targets[rng.permutation(targets.size)]
    n_held = max(1, int(round(TEST_TARGET_FRAC * targets.size)))
    test_targets = set(int(x) for x in targets[:n_held])
    train, test = [], []
    seen = set()
    budget = 400 * (n_train + n_test) + 1000
    while (len(train) < n_train or len(test) < n_test) and budget > 0:
        budget -= 1
        inst = _build_instance(n_operands, rng)
        if inst is None or inst.input_text in seen:
            continue
        pool, want = (test, n_test) if inst.meta["target"] in test_targets else (train, n_train)
        if len(pool) >= want:
            continue
        seen.add(inst.input_text)
        pool.append(inst)
    if len(train) < n_train or len(test) < n_test:
        raise RuntimeError(
            f"countdown generation stalled: {len(train)}/{n_train} train, "
            f"{len(test)}/{n_test} test"
        )
    return train, test


def _parse_equation(eq: str):
    for op in OPS:
        # split on the operator; '-' only valid between digits here
        k = eq.find(op, 1)
        if k > 0:
            rest = eq[k + 1:]
            lhs, sep, rhs = rest.partition("=")
            if sep and eq[:k].isdigit() and lhs.isdigit() and rhs.isdigit():
                return int(eq[:k]), op, int(lhs), int(rhs)
    raise ValueError(f"malformed equation {eq!r}")


def _apply(a: int, op: str, b: int):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b == 0 or a % b != 0:
        return None
    return a // b


def verify_countdown(input_text: str, output_text: str) -> Verdict:
    parts = input_text.split(",")
    if len(parts) < 3 or not all(p.isdigit() for p in parts):
        return Verdict(FORMAT_ERROR, detail="malformed input")
    operands = [int(p) for p in parts[:-1]]
    target = int(parts[-1])
    pool = Counter(operands)
    steps = output_text.split(",")
    result = None
    for k, eq in enumerate(steps, 1):
        try:
            a, op, b, claimed = _parse_equation(eq)
        except ValueError as e:
            return Verdict(FORMAT_ERROR, step=k, detail=str(e))
        for operand in (a, b):
            if pool[operand] <= 0:
                return Verdict(PLAN_ERROR, step=k, detail=f"{operand} not available")
            pool[operand] -= 1
        true_val = _apply(a, op, b)
        if true_val != claimed:
            return Verdict(CALC_ERROR, step=k, detail=f"{a}{op}{b} is not {claimed}")
        pool[claimed] += 1
        result = claimed
    last = len(steps)
    if result != target:
        return Verdict(PLAN_ERROR, step=last, detail=f"final {result} != target {target}")
    pool[result] -= 1
    if +pool:
        leftover = sorted(pool.elements())
        return Verdict(PLAN_ERROR, step=last, detail=f"unused operands {leftover}")
    return Verdict(VALID)
