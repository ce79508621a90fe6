"""Task generators, verifiers, and encodings against hand-checked rows."""

import re

import numpy as np
import pytest

from absorb_diffuse.tasks.base import (
    CALC_ERROR,
    FORMAT_ERROR,
    INVALID,
    PLAN_ERROR,
    VALID,
    TaskInstance,
    read_instances,
    write_instances,
)
from absorb_diffuse.tasks import countdown, planning, sat, sudoku
from absorb_diffuse.tasks.registry import (
    TASKS,
    encode_conditions,
    encode_instances,
    get_task,
    segment_map,
)
from absorb_diffuse.tasks.vocab import Vocabulary

from helpers import lookahead_solve, traced_peak

# hand-checked reference rows, one per task
GOLD_PLANNING = ("2,10/10,4/11,5/2,0/8,2/0,11/6,2/1,9/5,3/4,1-8,3",
                 "8,2/2,0/0,11/11,5/5,3")
GOLD_CD3 = ("15,44,79,50", "44-15=29,79-29=50")
GOLD_CD4 = ("86,28,13,31,96", "86+28=114,31-13=18,114-18=96")
GOLD_CD5 = ("50,36,82,44,31,51", "44-36=8,82*31=2542,8+2542=2550,2550/50=51")
GOLD_SUDOKU = (
    "080050060460907108005000029970006500000872031300049000004025003010000480603100007",
    "789251364462937158135468729978316542546872931321549876894725613217693485653184297",
)
GOLD_SAT5 = (
    "1,4,5/1,-4,-5/2,-4,5/-1,-2,5/3,4,5/-2,-4,-5/2,3,-4/-2,-3,5/1,2,4/1,-2,3/"
    "-1,3,5/1,-2,-4/1,4,-5/1,-2,-5/1,2,-5/-1,-3,-4/-1,3,-5/-1,3,4/2,-4,-5/"
    "-1,-4,5/1,-3,-5/1,3,-5/1,-3,-4/-2,3,5/1,2,5/-1,2,-4/1,-2,4/1,-4,5/"
    "3,4,-5/-1,2,-3/1,-3,5/-2,4,5/1,-2,5/-1,2,5/1,3,-4/-1,-4,-5/-2,-3,-4/"
    "2,4,5/-2,3,-4/-3,4,5/2,-3,5",
    "1,2,3,-4,5",
)
GOLD_SAT7 = (
    "-2,-3,-7/2,-4,-7/-3,4,-5/1,2,-3/1,5,-7/-5,-6,-7/2,-5,6/2,-5,-6/-3,-4,6/"
    "-1,2,-4/-3,6,7/-2,-5,6/2,3,-7/-1,2,3/-2,3,-4/-1,3,7/1,-2,-7/2,4,6/1,2,-7/"
    "2,-3,-6/1,-2,6/-1,5,7/3,-6,-7/2,6,7/-2,-6,-7/-2,3,-5/3,5,-6/-2,6,-7/"
    "-1,-2,-7/5,-6,-7/2,-6,-7/-2,5,7/-3,-4,5/2,3,-4/-3,5,-7/3,-4,5/-2,3,-6/"
    "1,2,-6/1,4,-7/1,4,7/2,4,5/1,5,-6/1,3,4/2,3,7/1,-2,4",
    "1,2,3,4,5,6,-7",
)
GOLD_SAT9 = (
    "3,-4,-6/1,3,5/2,-7,8/1,-3,6/2,-3,-8/-4,-5,-7/1,-6,-9/1,8,-9/2,3,-9/"
    "3,-5,9/-3,7,9/-2,-3,9/-1,-5,-9/-2,-7,-9/-1,3,5/2,-5,-9/4,-7,-9/-2,3,-8/"
    "2,3,7/2,-4,6/-2,3,5/-2,-6,-8/-3,-4,-8/-2,6,7/-3,4,6/-3,-6,9/2,7,-9/"
    "2,4,-5/-3,-5,8/-4,5,-7/-4,-6,-8/2,-6,9/2,-5,9/1,4,-9/5,8,9/1,-6,7/"
    "-3,6,-9/1,4,-5/4,-6,9/-1,2,6/1,-2,-5/1,-2,-9/-4,7,9/-1,-4,-7/-3,5,-8/"
    "-1,-3,6/-2,-3,6/-3,6,9/-1,-5,8/1,-5,-9/1,4,8",
    "1,2,3,4,-5,6,-7,-8,9",
)


def test_reference_rows_verify_valid():
    assert planning.verify_planning(*GOLD_PLANNING).ok
    assert countdown.verify_countdown(*GOLD_CD3).ok
    assert countdown.verify_countdown(*GOLD_CD4).ok
    assert countdown.verify_countdown(*GOLD_CD5).ok
    assert sudoku.verify_sudoku(*GOLD_SUDOKU).ok
    assert sat.verify_sat(*GOLD_SAT5).ok
    assert sat.verify_sat(*GOLD_SAT7).ok
    assert sat.verify_sat(*GOLD_SAT9).ok


def test_reference_rows_fit_canvases():
    rows = {
        "planning": GOLD_PLANNING, "countdown3": GOLD_CD3,
        "countdown4": GOLD_CD4, "countdown5": GOLD_CD5,
        "sudoku": GOLD_SUDOKU, "sat5": GOLD_SAT5, "sat7": GOLD_SAT7,
        "sat9": GOLD_SAT9,
    }
    for name, (inp, outp) in rows.items():
        task = get_task(name)
        assert len(inp) <= task.cond_width, name
        assert len(outp) <= task.target_width, name
        batch = encode_instances(task, [TaskInstance(inp, outp)])
        assert batch.tokens.shape == (1, task.seq_len)


# ---------------------------------------------------------------------------
# planning


def test_planning_reference_row_distance():
    assert planning.find_pd(GOLD_PLANNING[0]) == 4


def test_planning_reference_lookahead_property():
    for la in range(6):
        got = lookahead_solve(GOLD_PLANNING[0], la)
        if la >= 4:
            assert got == GOLD_PLANNING[1]
        else:
            assert got is None


@pytest.mark.parametrize("pd", [0, 1, 2, 3, 4, 5])
def test_planning_generator_invariants(pd):
    insts = planning.gen_planning(20, pd, seed=11)
    assert len(insts) == 20
    for inst in insts:
        assert planning.verify_planning(inst.input_text, inst.output_text).ok
        assert planning.find_pd(inst.input_text) == pd
        edges, start, goal = planning.parse_input(inst.input_text)
        assert len(edges) == 10
        assert len(set(edges)) == 10
        assert inst.output_text.split("/")[0].split(",")[0] == start
        assert inst.output_text.split("/")[-1].split(",")[1] == goal


@pytest.mark.parametrize("pd", [0, 2, 5])
def test_planning_lookahead_threshold(pd):
    for inst in planning.gen_planning(6, pd, seed=7):
        for la in range(6):
            got = lookahead_solve(inst.input_text, la)
            if la >= pd:
                assert got == inst.output_text
            else:
                assert got is None


def test_planning_distance_reverses():
    for pd in range(6):
        inst = planning.gen_planning(1, pd, seed=3)[0]
        edges, start, goal = planning.parse_input(inst.input_text)
        flipped = "/".join(f"{b},{a}" for a, b in edges) + f"-{goal},{start}"
        assert planning.find_pd(flipped) == 5 - pd


def test_planning_verifier_rejections():
    inp = GOLD_PLANNING[0]
    v = planning.verify_planning(inp, "2,0/0,11/11,5/5,3")
    assert v.kind == PLAN_ERROR and v.step == 1          # starts off start
    v = planning.verify_planning(inp, "8,2/2,7/7,3")
    assert v.kind == PLAN_ERROR and v.step == 2          # edge not in graph
    v = planning.verify_planning(inp, "8,2/0,11/11,5/5,3")
    assert v.kind == PLAN_ERROR and v.step == 2          # edges do not chain
    v = planning.verify_planning(inp, "8,2/2,0/0,11/11,5")
    assert v.kind == PLAN_ERROR                          # stops short of goal
    v = planning.verify_planning(inp, "8,2/2,10/10,4/4,1/1,9")
    assert v.kind == PLAN_ERROR                          # wanders off, misses goal
    v = planning.verify_planning(inp, "8,2/2,,0")
    assert v.kind == FORMAT_ERROR
    v = planning.verify_planning("no dash here", "8,2")
    assert v.kind == FORMAT_ERROR


def test_planning_rejects_revisit():
    # instance with a cycle-completing edge available: 0->1->2 and 2->1
    inp = "0,1/1,2/2,1/2,3-0,3"
    v = planning.verify_planning(inp, "0,1/1,2/2,1/1,2/2,3")
    assert v.kind == PLAN_ERROR and "revisit" in v.detail


def test_planning_segments():
    assert get_task("planning").segments("8,2/2,0") == [0, 0, 0, 0, 1, 1, 1]


# ---------------------------------------------------------------------------
# countdown


CASE_STUDY = [
    # (input, prediction, expected kind, expected step)
    ("64,36,52,42,14", "64/36=2,52/2=26,42-26=14", CALC_ERROR, 1),
    ("9,73,99,75,81", "99+75=174,174/9=16,73+16=81", CALC_ERROR, 2),
    ("2,52,20,73,57", "2*20=40,73-52=21,40+21=57", CALC_ERROR, 3),
    ("9,80,4,5,89", "9-5=4,4/4=1,80+1=81", PLAN_ERROR, 3),
    ("65,2,61,22,96", "65-61=4,22*4=88,2+88=90", PLAN_ERROR, 3),
    ("42,47,9,14,81", "47-42=5,14*5=70,9+70=89", CALC_ERROR, 3),
    ("41,4,48,20,96", "48-41=7,20-7=13,4*13=92", CALC_ERROR, 3),
    ("21,36,3,42,39", "36-21=15,15/3=5,42-5=37", PLAN_ERROR, 3),
    ("42,47,9,14,81", "47-42=5,14*5=70,9+70=81", CALC_ERROR, 3),
    ("41,4,48,20,96", "4*20=80,41-40=2,48*2=96", PLAN_ERROR, 2),
    ("21,36,3,42,39", "42-21=21,36/3=12,21-12=39", CALC_ERROR, 3),
]


def test_countdown_case_study_verdicts():
    for inp, pred, kind, step in CASE_STUDY:
        v = countdown.verify_countdown(inp, pred)
        assert (v.kind, v.step) == (kind, step), (inp, pred, v)


def test_countdown_case_study_references_valid():
    refs = [
        ("64,36,52,42,14", "64-52=12,36/12=3,42/3=14"),
        ("9,73,99,75,81", "75-73=2,9*2=18,99-18=81"),
        ("2,52,20,73,57", "52-20=32,32/2=16,73-16=57"),
        ("9,80,4,5,89", "9+80=89,5-4=1,89*1=89"),
        ("65,2,61,22,96", "65-61=4,2+22=24,4*24=96"),
        ("42,47,9,14,81", "47-42=5,14-5=9,9*9=81"),
        ("41,4,48,20,96", "41*4=164,48+20=68,164-68=96"),
        ("21,36,3,42,39", "42-36=6,3*6=18,21+18=39"),
    ]
    for inp, outp in refs:
        assert countdown.verify_countdown(inp, outp).ok, (inp, outp)


def test_countdown_verifier_more_rejections():
    # operand reused
    v = countdown.verify_countdown("2,3,4,9", "2+3=5,5+4=9,2+3=5")
    assert v.kind == PLAN_ERROR
    # unused operand
    v = countdown.verify_countdown("2,3,4,5", "2+3=5")
    assert v.kind == PLAN_ERROR and "unused" in v.detail
    # inexact division is a calculation error
    v = countdown.verify_countdown("7,3,4,14", "7/3=2,3*4=14")
    assert v.kind == CALC_ERROR and v.step == 1
    v = countdown.verify_countdown("x,3,4", "3+4=7")
    assert v.kind == FORMAT_ERROR
    v = countdown.verify_countdown("2,3,5", "2=3+5")
    assert v.kind == FORMAT_ERROR and v.step == 1


@pytest.mark.parametrize("n_ops", [3, 4, 5])
def test_countdown_generator_invariants(n_ops):
    train, test = countdown.gen_countdown(n_ops, 40, 10, seed=5)
    assert len(train) == 40 and len(test) == 10
    train_targets = {int(i.input_text.split(",")[-1]) for i in train}
    test_targets = {int(i.input_text.split(",")[-1]) for i in test}
    assert not train_targets & test_targets          # held-out target values
    seen = set()
    for inst in train + test:
        assert countdown.verify_countdown(inst.input_text, inst.output_text).ok
        parts = inst.input_text.split(",")
        assert len(parts) == n_ops + 1
        assert 10 <= int(parts[-1]) <= 100
        assert len(inst.output_text.split(",")) == n_ops - 1
        assert inst.input_text not in seen
        seen.add(inst.input_text)


def test_countdown_segments():
    for name in ("countdown3", "countdown4", "countdown5"):
        assert get_task(name).segments("1+2=3,3*4=12") == [0] * 6 + [1] * 6


# ---------------------------------------------------------------------------
# sudoku


def test_sudoku_generator_invariants():
    insts = sudoku.gen_sudoku(8, seed=2)
    for inst in insts:
        assert len(inst.input_text) == 81 and len(inst.output_text) == 81
        assert sudoku.verify_sudoku(inst.input_text, inst.output_text).ok
        givens = sum(c != "0" for c in inst.input_text)
        assert 30 <= givens <= 50
        assert givens == inst.meta["givens"]


def test_sudoku_verifier_rejections():
    inp, outp = GOLD_SUDOKU
    v = sudoku.verify_sudoku(inp, outp[:-1] + "0")
    assert v.kind == INVALID and "blank" in v.detail
    # overwrite a given (first given is the 8 at cell 1)
    v = sudoku.verify_sudoku(inp, outp[:1] + "9" + outp[2:])
    assert v.kind == INVALID and "overwritten" in v.detail
    # swap two non-given cells in one row: row stays a permutation, column breaks
    row0 = list(outp[:9])
    row0[0], row0[2] = row0[2], row0[0]  # cells 0 and 2 are blanks in the input
    v = sudoku.verify_sudoku(inp, "".join(row0) + outp[9:])
    assert v.kind == INVALID and "column" in v.detail
    # cyclic latin square: rows/columns fine, boxes broken
    cyc = "".join(str((r + c) % 9 + 1) for r in range(9) for c in range(9))
    v = sudoku.verify_sudoku("0" * 81, cyc)
    assert v.kind == INVALID and "box" in v.detail
    v = sudoku.verify_sudoku(inp, "12345")
    assert v.kind == FORMAT_ERROR


def test_sudoku_segments():
    seg = get_task("sudoku").segments("1" * 81)
    assert seg[:9] == [0] * 9 and seg[-9:] == [8] * 9


# ---------------------------------------------------------------------------
# 3-SAT


def test_sat_clause_counts_at_threshold():
    assert sat.clause_count(5) == 41
    assert sat.clause_count(7) == 46
    assert sat.clause_count(9) == 52
    # the 5v reference row sits exactly at the threshold count; the larger
    # printed rows carry one clause fewer (45/51) — the verifier accepts any
    # clause count, so they remain usable as verification references
    assert GOLD_SAT5[0].count("/") + 1 == 41
    assert GOLD_SAT7[0].count("/") + 1 == 45
    assert GOLD_SAT9[0].count("/") + 1 == 51
    with pytest.raises(ValueError):
        sat.clause_count(2)


@pytest.mark.parametrize("n_vars", [5, 7])
def test_sat_generator_invariants(n_vars):
    insts = sat.gen_sat(n_vars, 6, seed=9)
    m = sat.clause_count(n_vars)
    for inst in insts:
        assert sat.verify_sat(inst.input_text, inst.output_text).ok
        clauses = [cl.split(",") for cl in inst.input_text.split("/")]
        assert len(clauses) == m
        for cl in clauses:
            vars_ = [abs(int(l)) for l in cl]
            assert len(set(vars_)) == 3
            assert all(1 <= v <= n_vars for v in vars_)
        assert inst.meta["n_sat"] >= 1


def test_sat_verifier_rejections():
    inp, outp = GOLD_SAT5
    v = sat.verify_sat(inp, "1,2,3,4,5")       # flips x4: some clause fails
    assert v.kind == INVALID and v.step is not None
    v = sat.verify_sat(inp, "1,2,3,-4")
    assert v.kind == INVALID and "exactly once" in v.detail
    v = sat.verify_sat(inp, "1,2,3,-4,-4")
    assert v.kind == INVALID
    v = sat.verify_sat(inp, "1,2,3,-4,x")
    assert v.kind == FORMAT_ERROR
    v = sat.verify_sat("1,2/3,4,5", outp)
    assert v.kind == FORMAT_ERROR


def test_sat_unsat_clause_step_is_first_failure():
    # single-variable instance text crafted so clause 2 is the unsatisfied one
    v = sat.verify_sat("1,2,3/-1,-2,-3/1,-2,3", "1,2,3")
    assert v.kind == INVALID and v.step == 2


def test_sat_segments():
    for name in ("sat5", "sat7", "sat9"):
        assert get_task(name).segments("1,-2,3") == [0, 0, 1, 1, 1, 2]


# ---------------------------------------------------------------------------
# vocabulary


def test_vocab_roundtrip_and_specials():
    v = Vocabulary(sorted("0123456789,-/"))
    text = GOLD_PLANNING[0]
    ids, lengths = v.encode_texts([text])
    assert v.decode(ids) == text and lengths.tolist() == [len(text)]
    assert v.mask_id == 13 and v.pad_id == 14 and v.size == 15
    assert len(v.chars) == 13
    with pytest.raises(ValueError):
        v.encode_texts(["x"])
    with pytest.raises(ValueError):
        v.decode([v.mask_id])
    assert v.decode([0, v.pad_id, 1]) == v.chars[0] + v.chars[1]


def _decode_per_id(vocab, ids):
    """Reference: Vocabulary.decode as a loop over ids."""
    out = []
    for i in map(int, ids):
        if i == vocab.pad_id:
            continue
        if i == vocab.mask_id:
            raise ValueError("mask id in decoded sequence")
        if not 0 <= i < len(vocab.chars):
            raise ValueError(f"id {i} outside vocabulary of size {vocab.size}")
        out.append(vocab.chars[i])
    return "".join(out)


def test_vocab_decode_matches_the_per_id_reference():
    rng = np.random.default_rng(4)
    for vocab in (get_task("planning").vocabulary(), Vocabulary("ab\u00e9\U0001f600")):
        rows = rng.integers(0, vocab.size, size=(200, 23))
        rows[rows == vocab.mask_id] = vocab.pad_id  # pads anywhere, no mask
        rows[:50, 10:] = vocab.pad_id
        want = [_decode_per_id(vocab, row) for row in rows]
        for dtype in (np.int32, np.int64):
            assert [vocab.decode(row) for row in rows.astype(dtype)] == want
            assert vocab.decode(rows.astype(dtype)) == want  # a chunk: one lookup
        assert vocab.decode([]) == "" and vocab.decode([vocab.pad_id] * 3) == ""
        assert vocab.decode(np.zeros((0, 23), dtype=np.int64)) == []
        assert vocab.decode(np.full((2, 3), vocab.pad_id)) == ["", ""]
    with pytest.raises(ValueError, match="a row or"):
        vocab.decode(np.zeros((2, 2, 2), dtype=np.int64))


@pytest.mark.parametrize("ids, message", [
    ([0, "mask", 1], "mask id in decoded sequence"),
    ([0, "pad", 99, "mask"], "id 99 outside vocabulary of size 15"),
    ([0, "mask", 99], "mask id in decoded sequence"),
    ([-1, "mask"], "id -1 outside vocabulary of size 15"),
    (["pad", 13], "mask id in decoded sequence"),
])
def test_vocab_decode_reports_the_first_bad_id_as_the_reference_does(ids, message):
    vocab = get_task("planning").vocabulary()
    specials = {"mask": vocab.mask_id, "pad": vocab.pad_id}
    row = np.array([specials.get(i, i) for i in ids])
    for decode in (vocab.decode, lambda r: _decode_per_id(vocab, r)):
        with pytest.raises(ValueError, match=re.escape(message)):
            decode(row)
    # in a chunk the first bad row reports, as a per-row loop would
    chunk = np.stack([np.full_like(row, vocab.pad_id), row, np.full_like(row, -2)])
    with pytest.raises(ValueError, match=re.escape(message)):
        vocab.decode(chunk)


def test_vocab_rejects_duplicates_and_strings():
    with pytest.raises(ValueError):
        Vocabulary(["a", "a"])
    with pytest.raises(ValueError):
        Vocabulary(["ab"])


# ---------------------------------------------------------------------------
# registry


def test_get_task_unknown():
    with pytest.raises(ValueError):
        get_task("chess")


def test_registry_default_steps():
    # 20 refinement steps where outputs average over 20 characters, else 10
    assert {name: task.decode_steps for name, task in TASKS.items()} == {
        "planning": 20, "countdown3": 10, "countdown4": 20, "countdown5": 20,
        "sudoku": 20, "sat5": 10, "sat7": 10, "sat9": 10}


def test_planning_pool_prefix_is_balanced():
    task = get_task("planning")
    train, test = task.generate(240, 60, seed=31, pds=(0, 1, 2, 3))
    assert len(train) == 240 and len(test) == 60
    head = [planning.find_pd(i.input_text) for i in train[:60]]
    counts = {pd: head.count(pd) for pd in (0, 1, 2, 3)}
    assert all(c >= 6 for c in counts.values()), counts
    train_in = {i.input_text for i in train}
    assert not train_in & {i.input_text for i in test}


def test_planning_generation_refuses_a_repeated_distance():
    with pytest.raises(ValueError, match=re.escape("distinct, got [2, 1, 2]")):
        get_task("planning").generate(8, 2, seed=0, pds=(2, 1, 2))


def test_encode_instances_layout():
    task = get_task("countdown3")
    batch = encode_instances(task, [TaskInstance(*GOLD_CD3)])
    vocab = task.vocabulary()
    s = batch.tokens[0]
    assert batch.cond_width == 12
    # right-aligned condition: one leading pad for the 11-char reference input
    assert s[0] == vocab.pad_id
    assert vocab.decode(s[1:12]) == GOLD_CD3[0]
    n = len(GOLD_CD3[1])
    assert vocab.decode(s[12:12 + n]) == GOLD_CD3[1]
    assert batch.target_lengths()[0] == n
    assert not batch.pad_mask[0, 0]
    assert batch.pad_mask[0, 1:12 + n].all()
    assert not batch.pad_mask[0, 12 + n:].any()


def _encode_per_row(task, instances, vocab):
    """Reference: encode_instances as a loop over rows and characters."""
    to_id = {c: i for i, c in enumerate(vocab.chars)}
    for field in ("input_text", "output_text"):
        for inst in instances:
            for c in getattr(inst, field):
                if c not in to_id:
                    raise ValueError(f"character {c!r} not in vocabulary")
    shape = (len(instances), task.seq_len)
    tokens = np.full(shape, vocab.pad_id, dtype=np.int32)
    target_mask = np.zeros(shape, dtype=bool)
    pad_mask = np.zeros(shape, dtype=bool)
    w = task.cond_width
    for i, inst in enumerate(instances):
        cond = [to_id[c] for c in inst.input_text]
        tgt = [to_id[c] for c in inst.output_text]
        if len(cond) > w:
            raise ValueError(f"row {i}: condition length {len(cond)} exceeds width {w}")
        if len(tgt) > task.target_width:
            raise ValueError(f"row {i}: target length {len(tgt)} exceeds width {task.target_width}")
        tokens[i, w - len(cond):w] = cond
        pad_mask[i, w - len(cond):w] = True
        tokens[i, w:w + len(tgt)] = tgt
        pad_mask[i, w:w + len(tgt)] = True
        target_mask[i, w:w + len(tgt)] = True
    return tokens, target_mask, pad_mask


def test_encode_instances_matches_the_per_row_reference():
    task = get_task("planning")
    vocab = task.vocabulary()
    rng = np.random.default_rng(0)
    chars = np.array(list(task.charset))

    def text(n):
        return "".join(rng.choice(chars, n))

    insts = [TaskInstance("", ""), TaskInstance(text(3), ""), TaskInstance("", text(5)),
             TaskInstance(text(task.cond_width), text(task.target_width))]
    insts += [TaskInstance(text(rng.integers(task.cond_width + 1)),
                           text(rng.integers(task.target_width + 1))) for _ in range(40)]
    batch = encode_instances(task, insts, vocab)
    want = _encode_per_row(task, insts, vocab)
    for got, ref in zip((batch.tokens, batch.target_mask, batch.pad_mask), want):
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)
    assert batch.cond_width == task.cond_width
    empty = encode_instances(task, [], vocab)
    assert empty.tokens.shape == (0, task.seq_len) and empty.tokens.dtype == np.int32


@pytest.mark.parametrize("rows, message", [
    ([("1", "2"), ("1" * 50, "2")], "row 1: condition length 50 exceeds width 49"),
    ([("1", "2" * 24), ("1" * 50, "2")], "row 0: target length 24 exceeds width 23"),
    ([("1" * 50, "2" * 24)], "row 0: condition length 50 exceeds width 49"),
    ([("1" * 50, "2"), ("1", "x")], "character 'x' not in vocabulary"),
    ([("1", "\u00e9"), ("1.", "2")], "character '.' not in vocabulary"),
    ([("1", "2\U0001f600")], "character '\U0001f600' not in vocabulary"),
])
def test_encode_instances_reports_what_the_per_row_reference_does(rows, message):
    task = get_task("planning")
    insts = [TaskInstance(*r) for r in rows]
    for encode in (encode_instances, _encode_per_row):
        with pytest.raises(ValueError, match=re.escape(message)):
            encode(task, insts, task.vocabulary())


def test_encode_instances_peak_stays_near_its_output():
    # 12000 planning rows: the Batch (tokens and two masks) is 5.2 MB. Per-id
    # int64 row, offset and column arrays took the peak to about 28 MB;
    # boolean region masks hold it near 10 MB.
    task = get_task("planning")
    vocab = task.vocabulary()
    instances = task.generate(12000, 0, seed=5)[0]
    peak = traced_peak(lambda: encode_instances(task, instances, vocab))
    assert encode_instances(task, instances, vocab).tokens.shape == (12000, task.seq_len)
    assert peak < 15e6, f"peak {peak / 1e6:.1f} MB"


def test_encode_conditions_reserves_lengths():
    task = get_task("planning")
    batch = encode_conditions(task, [GOLD_PLANNING[0]], [21])
    assert batch.target_lengths()[0] == 21
    assert batch.target_mask[0, batch.cond_width:batch.cond_width + 21].all()


def test_segment_map_alignment():
    task = get_task("countdown3")
    inst = TaskInstance(*GOLD_CD3)
    batch = encode_instances(task, [inst])
    seg = segment_map(task, batch, [inst])
    assert seg.shape == batch.tokens.shape
    assert (seg[0, :batch.cond_width] == -1).all()
    ids = seg[0, batch.cond_width:batch.cond_width + len(GOLD_CD3[1])]
    assert ids[0] == 0 and ids[-1] == 1
    assert (seg[0, batch.cond_width + len(GOLD_CD3[1]):] == -1).all()


def test_all_tasks_generate_and_encode():
    small = {"planning": {}, "countdown3": {}, "sudoku": {}, "sat5": {}}
    for name, kw in small.items():
        task = get_task(name)
        train, test = task.generate(4, 2, seed=1, **kw)
        assert len(train) == 4 and len(test) == 2
        for inst in train + test:
            assert task.verify(inst.input_text, inst.output_text).ok
        batch = encode_instances(task, train)
        assert batch.tokens.shape == (4, task.seq_len)


# ---------------------------------------------------------------------------
# instance file IO


def test_instance_io_roundtrip(tmp_path):
    path = str(tmp_path / "data.tsv")
    # spaces, empty fields and characters that are not line breaks on read
    insts = [TaskInstance(*GOLD_CD3), TaskInstance(*GOLD_PLANNING),
             TaskInstance(" a  b ", "\u00e9 \x0b\x0c"), TaskInstance("", "")]
    write_instances(path, insts)
    back = read_instances(path)
    assert [(i.input_text, i.output_text) for i in back] == \
           [(i.input_text, i.output_text) for i in insts]


def test_instance_io_rejects_tabs(tmp_path):
    with pytest.raises(ValueError):
        write_instances(str(tmp_path / "x.tsv"), [TaskInstance("a\tb", "c")])


@pytest.mark.parametrize("input_text, output_text", [
    ("a", "b\tc"),   # read back as three fields
    ("a\rb", "c"),   # CR ends a line on read, splitting the record
    ("a", "b\rc"),
    ("a", "b\nc"),
])
def test_instance_io_refuses_what_would_not_read_back(tmp_path, input_text, output_text):
    path = tmp_path / "x.tsv"
    with pytest.raises(ValueError, match="tabs or line breaks"):
        write_instances(str(path), [TaskInstance("ok", "ok"), TaskInstance(input_text, output_text)])
    assert not path.exists()  # refused before anything is written


def test_read_instances_rejects_bad_lines(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("only-one-field\n")
    with pytest.raises(ValueError):
        read_instances(str(p))
