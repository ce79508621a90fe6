"""Random 3-SAT at the satisfiability threshold.

The clause count for n variables follows the threshold scaling
m = round(4.258 n + 58.26 n^(-2/3)), which keeps instances near the
hard region. Clauses are drawn independently (three distinct variables,
each negated with probability 1/2) and unsatisfiable draws are rejected,
so every instance ships with a reference satisfying assignment.

Input:  clauses joined by "/", literals comma separated ("1,-3,5/...").
Output: a full assignment as signed variable ids ("1,-2,3,-4,5").
"""

from __future__ import annotations

import numpy as np

from .base import FORMAT_ERROR, INVALID, VALID, TaskInstance, Verdict

CHARSET = "0123456789-,/"


def clause_count(n_vars: int) -> int:
    if n_vars < 3:
        raise ValueError(f"need at least 3 variables, got {n_vars}")
    return int(round(4.258 * n_vars + 58.26 * n_vars ** (-2.0 / 3.0)))


def _satisfying_assignments(clauses: np.ndarray, n_vars: int) -> np.ndarray:
    """Bool matrix of all satisfying assignments, rows ordered by bitmask
    (variable 1 is the lowest bit)."""
    masks = np.arange(2 ** n_vars)
    assign = (masks[:, None] >> np.arange(n_vars)) & 1  # [2^n, n] in {0,1}
    var = np.abs(clauses) - 1                           # [m, 3]
    pos = clauses > 0
    lit_true = assign[:, var] == pos[None, :, :]        # [2^n, m, 3]
    sat = lit_true.any(axis=2).all(axis=1)
    return assign[sat].astype(bool)


def gen_sat(n_vars: int, n: int, seed: int) -> list[TaskInstance]:
    m = clause_count(n_vars)
    rng = np.random.default_rng(np.random.SeedSequence([seed, n_vars]))
    out = []
    seen = set()
    budget = 2000 * n + 1000
    while len(out) < n and budget > 0:
        budget -= 1
        vars_ = np.array([rng.choice(n_vars, size=3, replace=False) for _ in range(m)]) + 1
        signs = np.where(rng.random((m, 3)) < 0.5, 1, -1)
        clauses = vars_ * signs
        sats = _satisfying_assignments(clauses, n_vars)
        if sats.size == 0:
            continue
        inp = "/".join(",".join(str(l) for l in cl) for cl in clauses)
        if inp in seen:
            continue
        seen.add(inp)
        ref = sats[0]
        outp = ",".join(str(i + 1) if ref[i] else str(-(i + 1)) for i in range(n_vars))
        out.append(TaskInstance(inp, outp))
    if len(out) < n:
        raise RuntimeError(f"sat generation stalled at {len(out)}/{n} instances")
    return out


def verify_sat(input_text: str, output_text: str) -> Verdict:
    try:
        clauses = [[int(l) for l in cl.split(",")] for cl in input_text.split("/")]
    except ValueError:
        return Verdict(FORMAT_ERROR, detail="malformed clause list")
    if any(len(cl) != 3 or 0 in cl for cl in clauses):
        return Verdict(FORMAT_ERROR, detail="clauses must hold three nonzero literals")
    try:
        lits = [int(l) for l in output_text.split(",")]
    except ValueError:
        return Verdict(FORMAT_ERROR, detail="malformed assignment")
    n_vars = max(abs(l) for cl in clauses for l in cl)
    seen = {abs(l) for l in lits}
    if 0 in seen or len(lits) != n_vars or seen != set(range(1, n_vars + 1)):
        return Verdict(INVALID, detail="assignment must set each variable exactly once")
    truth = {abs(l): l > 0 for l in lits}
    for k, cl in enumerate(clauses, 1):
        if not any(truth[abs(l)] == (l > 0) for l in cl):
            return Verdict(INVALID, step=k, detail=f"clause {k} unsatisfied")
    return Verdict(VALID)
