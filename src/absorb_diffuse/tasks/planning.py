"""Path-planning task on a tiny directed graph.

Each instance is a pair of 5-edge directed paths that cross at exactly one
shared node: the true path runs start -> goal, the distractor crosses it and
dead-ends. The planning distance `pd` is the number of edges from the
crossing to the goal, so pd = 0 puts the fork right at the goal (trivial to
resolve while reading left to right) and pd = 5 puts it at the start (the
whole path must be resolved before the first move). Reversing every edge
maps pd to 5 - pd.

Input:  all ten edges shuffled, "a,b/c,d/...-start,goal".
Output: the true path's edges in order, "a,b/c,d/...".
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .base import FORMAT_ERROR, PLAN_ERROR, VALID, TaskInstance, Verdict

CHARSET = "0123456789,-/"
N_LABELS = 12          # label alphabet 0..11
PATH_EDGES = 5
MAX_PD = PATH_EDGES


def gen_planning(n: int, pd: int, seed: int) -> list[TaskInstance]:
    """Generate n instances at one planning distance."""
    if not 0 <= pd <= MAX_PD:
        raise ValueError(f"pd must be in [0, {MAX_PD}], got {pd}")
    out = []
    for idx in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([seed, pd, idx]))
        labels = rng.permutation(N_LABELS)[: 2 * PATH_EDGES + 1]
        true_nodes = [str(x) for x in labels[: PATH_EDGES + 1]]
        cross = PATH_EDGES - pd
        fresh = iter(str(x) for x in labels[PATH_EDGES + 1:])
        dis_nodes = [true_nodes[cross] if j == cross else next(fresh)
                     for j in range(PATH_EDGES + 1)]
        edges = [(a, b) for a, b in zip(true_nodes, true_nodes[1:])]
        edges += [(a, b) for a, b in zip(dis_nodes, dis_nodes[1:])]
        order = rng.permutation(len(edges))
        shuffled = [edges[i] for i in order]
        inp = "/".join(f"{a},{b}" for a, b in shuffled)
        inp += f"-{true_nodes[0]},{true_nodes[-1]}"
        outp = "/".join(f"{a},{b}" for a, b in zip(true_nodes, true_nodes[1:]))
        out.append(TaskInstance(inp, outp))
    return out


def parse_input(input_text: str):
    """-> (edges as list of (a, b), start, goal). Raises ValueError on junk."""
    body, sep, ends = input_text.rpartition("-")
    if not sep or not body:
        raise ValueError("missing -start,goal suffix")
    start, goal = _pair(ends)
    edges = [_pair(e) for e in body.split("/")]
    return edges, start, goal


def _pair(text: str):
    a, sep, b = text.partition(",")
    if not sep or not a or not b or not (a + b).isdigit():
        raise ValueError(f"malformed pair {text!r}")
    return a, b


def verify_planning(input_text: str, output_text: str) -> Verdict:
    """A valid output is a simple path start -> goal using input edges only."""
    try:
        edges, start, goal = parse_input(input_text)
    except ValueError as e:
        return Verdict(FORMAT_ERROR, detail=f"input: {e}")
    try:
        path = [_pair(e) for e in output_text.split("/")]
    except ValueError as e:
        return Verdict(FORMAT_ERROR, detail=str(e))
    available = set(edges)
    if path[0][0] != start:
        return Verdict(PLAN_ERROR, step=1, detail="does not start at start")
    seen = {start}
    for k, (a, b) in enumerate(path, 1):
        if (a, b) not in available:
            return Verdict(PLAN_ERROR, step=k, detail=f"edge {a},{b} not in graph")
        if k > 1 and a != path[k - 2][1]:
            return Verdict(PLAN_ERROR, step=k, detail="edges do not chain")
        if b in seen:
            return Verdict(PLAN_ERROR, step=k, detail=f"revisits node {b}")
        seen.add(b)
    if path[-1][1] != goal:
        return Verdict(PLAN_ERROR, step=len(path), detail="does not reach goal")
    return Verdict(VALID)


def find_pd(input_text: str) -> int:
    """Recover the planning distance of a well-formed instance."""
    edges, start, goal = parse_input(input_text)
    true_path = _solve(edges, start, goal)
    if true_path is None:
        raise ValueError("instance has no start->goal path")
    true_nodes = [true_path[0][0]] + [b for _, b in true_path]
    dis = [e for e in edges if e not in set(true_path)]
    heads = {a for a, _ in dis}
    tails = {b for _, b in dis}
    sources = heads - tails
    if len(sources) != 1:
        raise ValueError("distractor edges do not form a single path")
    nxt = dict(dis)
    node = sources.pop()
    chain = [node]
    while node in nxt:
        node = nxt[node]
        chain.append(node)
    shared = [n for n in chain if n in true_nodes]
    if len(shared) != 1:
        raise ValueError(f"expected one crossing node, found {len(shared)}")
    return PATH_EDGES - true_nodes.index(shared[0])


def _solve(edges, start, goal):
    """Unique simple path via DFS, or None."""
    adj = defaultdict(list)
    for a, b in edges:
        adj[a].append(b)
    stack = [(start, [])]
    while stack:
        node, path = stack.pop()
        if node == goal and path:
            return path
        if len(path) >= len(edges):
            continue
        for b in adj[node]:
            if b not in {a for a, _ in path} and (not path or b != path[0][0]):
                stack.append((b, path + [(node, b)]))
    return None
