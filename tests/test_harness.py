"""Experiment harness: config, metrics, evaluation, training loop, CLI."""

import csv
import dataclasses
import functools
import importlib
import importlib.resources
import io
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

from absorb_diffuse import autodiff as ad
from absorb_diffuse.checkpoint import load_checkpoint
from absorb_diffuse.data import Batch
from absorb_diffuse.decoding import DecodeConfig
from absorb_diffuse.diffusion import NoiseSchedule, diffusion_loss, draw_t, sample_xt
from absorb_diffuse.harness import config as config_mod
from absorb_diffuse.harness import evaluate as evaluate_mod
from absorb_diffuse.harness import sweep as sweep_mod
from absorb_diffuse.harness.cli import build_parser, main as cli_main
from absorb_diffuse.harness.config import (
    THREADS_ENV,
    WORKER_PREFIX,
    ExperimentConfig,
    blas_threads,
    resolve_threads,
)
from absorb_diffuse.harness.evaluate import error_taxonomy, evaluate_model
from absorb_diffuse.harness.metrics import (
    append_record,
    read_records,
    rewind_records,
    validate_record,
    write_table,
)
from absorb_diffuse.harness.sweep import data_scaling_sweep, reweight_ablation
from absorb_diffuse.harness.train import TrainingDiverged, load_model, train
from absorb_diffuse.model import DenoiserModel, ModelConfig, ar_nll
from absorb_diffuse.tasks import TASKS, TaskInstance, get_task
from absorb_diffuse.tasks.base import (
    CALC_ERROR,
    PLAN_ERROR,
    VALID,
    Verdict,
    read_instances,
    write_instances,
)
from absorb_diffuse.tasks.planning import find_pd, gen_planning
from absorb_diffuse.tasks.registry import encode_instances

from helpers import StubDenoiser, strip_wall_clock, traced_peak, zero_grads

# the harness package re-exports a train() that shadows this module's name
train_mod = importlib.import_module("absorb_diffuse.harness.train")
REPO = pathlib.Path(__file__).resolve().parents[1]
PROFILES = REPO / "src" / "absorb_diffuse" / "profiles"


# ---------------------------------------------------------------------------
# configuration


def test_config_roundtrip(tmp_path):
    cfg = ExperimentConfig(task="planning", out_dir="/tmp/x", lr=2e-3,
                           sequence_mode="linear", token_beta=1.0)
    assert ExperimentConfig.from_dict(dataclasses.asdict(cfg)) == cfg
    p = str(tmp_path / "cfg.json")
    pathlib.Path(p).write_text(json.dumps(dataclasses.asdict(cfg)))
    assert ExperimentConfig.from_json(p) == cfg


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown config fields"):
        ExperimentConfig.from_dict({"task": "planning", "out_dir": "x", "nope": 1})


@pytest.mark.parametrize("field, value", [
    ("full_gradient", "false"),  # a non-empty string is true: the focal objective
    ("eval_every", True),        # JSON true is an int: an eval every step
    ("n_heads", True),           # one head
    ("batch_size", 128.0),
    ("seed", "7"),
    ("lr", "1e-3"),
])
def test_config_from_dict_rejects_a_value_of_the_wrong_type(field, value):
    with pytest.raises(ValueError, match=f"config field {field} must be of type"):
        ExperimentConfig.from_dict({"task": "planning", "out_dir": "x", field: value})


def test_config_from_dict_takes_an_int_for_a_float_field():
    cfg = ExperimentConfig.from_dict({"task": "planning", "out_dir": "x", "lr": 1,
                                      "token_alpha": 2})
    assert (cfg.lr, cfg.token_alpha) == (1, 2)
    assert {f.type for f in dataclasses.fields(ExperimentConfig)} <= set(config_mod.FIELD_TYPES)


@pytest.mark.parametrize("name", sorted(p.name for p in PROFILES.glob("*.json")) + ["cd3.json"])
def test_every_shipped_config_loads(name, tmp_path):
    # a shipped config of the wrong type fails here, not in a run
    path = PROFILES / name
    if name == "cd3.json":
        # the README walkthrough's config, as its heredoc writes it
        readme = (REPO / "README.md").read_text()
        path = tmp_path / name
        path.write_text(readme.split("cat > cd3.json <<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0])
    cfg = ExperimentConfig.from_json(str(path))
    assert cfg == ExperimentConfig.from_dict(dataclasses.asdict(cfg))


@pytest.mark.parametrize("kw", [
    {"task": "chess"},
    {"model_kind": "rnn"},
    {"sequence_mode": "quadratic"},
    {"strategy": "beam"},
    {"lr": 0.0},
    {"batch_size": 0},
    {"schedule_T": 0},
    {"warmup_steps": -1},
    {"token_beta": -1.0},
    {"hidden_dim": 100, "n_heads": 3},
    {"n_layers": 0},
    {"n_heads": 0},
])
def test_config_validation(kw):
    base = dict(task="planning", out_dir="/tmp/x")
    base.update(kw)
    with pytest.raises(ValueError):
        ExperimentConfig(**base)


def test_config_rejects_a_negative_eval_limit():
    # a negative limit would slice the last instances off the eval set
    with pytest.raises(ValueError, match="eval_limit must be >= 0"):
        ExperimentConfig(task="planning", out_dir="/tmp/x", eval_limit=-3)
    assert ExperimentConfig(task="planning", out_dir="/tmp/x", eval_limit=0).eval_limit == 0


def test_config_model_attention_follows_kind():
    base = dict(task="countdown3", out_dir="/tmp/x")
    assert ExperimentConfig(model_kind="ar", **base).model_config(18).attention == "causal"
    assert ExperimentConfig(model_kind="diffusion", **base).model_config(18).attention == "bidirectional"


def test_config_decode_steps_default_rule():
    cfg = ExperimentConfig(task="planning", out_dir="/tmp/x")
    assert cfg.decode_config().steps == 20
    assert cfg.replace(decode_steps=7).decode_config().steps == 7
    assert ExperimentConfig(task="countdown3", out_dir="/tmp/x").decode_config().steps == 10


def test_resolve_threads(monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "3")
    assert resolve_threads() == 3
    monkeypatch.setenv(THREADS_ENV, "zero")
    with pytest.raises(ValueError):
        resolve_threads()
    monkeypatch.setenv(THREADS_ENV, "0")
    with pytest.raises(ValueError):
        resolve_threads()
    monkeypatch.delenv(THREADS_ENV)
    assert resolve_threads() >= 1
    # only the CPUs this process may run on count
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert resolve_threads() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert resolve_threads() == 4


def _blas_count():
    """numpy's OpenBLAS thread-count getter; skips where numpy links another BLAS."""
    fns = config_mod._openblas()
    if fns is None:
        pytest.skip("numpy does not bundle scipy-openblas here")
    return fns[0]


def test_blas_threads_restores_the_previous_count():
    get = _blas_count()
    with blas_threads(2):
        outer = get()
        with blas_threads(1):
            assert get() == 1
        assert get() == outer
        with pytest.raises(RuntimeError):
            with blas_threads(1):
                assert get() == 1
                raise RuntimeError("body failed")
        assert get() == outer


def test_blas_threads_is_a_no_op_without_the_symbols(monkeypatch):
    get = _blas_count()
    before = get()
    monkeypatch.setattr(config_mod, "OPENBLAS_SYMBOLS", ("absent_get", "absent_set"))
    config_mod._openblas.cache_clear()
    try:
        assert config_mod._openblas() is None
        with blas_threads(before + 1):
            assert get() == before
    finally:
        monkeypatch.undo()
        config_mod._openblas.cache_clear()
    assert config_mod._openblas() is not None


def test_tune_malloc_is_a_no_op_without_mallopt(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    libc = type("Libc", (), {"mallopt": staticmethod(mallopt)})()
    monkeypatch.setattr(config_mod.ctypes, "CDLL", lambda name: libc)
    assert config_mod.tune_malloc()
    assert calls == list(config_mod.MALLOC_OPTIONS)
    monkeypatch.setattr(config_mod.ctypes, "CDLL", lambda name: object())
    assert config_mod.tune_malloc() is False


def test_run_jobs_keeps_job_order_and_restores_blas(monkeypatch):
    get = _blas_count()
    before = get()
    seen = []

    def job(i):
        seen.append((threading.current_thread().name, get()))
        if i == 3:
            raise RuntimeError("job failed")
        return i

    monkeypatch.setenv(THREADS_ENV, "1")
    assert list(config_mod.run_jobs([lambda i=i: job(i) for i in range(3)])) == [0, 1, 2]
    assert seen == [("MainThread", before)] * 3
    monkeypatch.setenv(THREADS_ENV, "2")
    seen.clear()
    assert list(config_mod.run_jobs([lambda i=i: job(i) for i in range(3)])) == [0, 1, 2]
    assert len(seen) == 3 and all(n.startswith(WORKER_PREFIX) and c == 1 for n, c in seen)
    with pytest.raises(RuntimeError, match="job failed"):
        list(config_mod.run_jobs([lambda i=i: job(i) for i in range(5)]))
    assert len(seen) == 3 + 5  # the other jobs ran to the end
    assert get() == before
    # a caller that stops early still waits for every job, then restores BLAS
    results = config_mod.run_jobs([lambda i=i: job(i) for i in range(3)])
    assert next(results) == 0 and get() == 1
    results.close()
    assert len(seen) == 8 + 3 and get() == before


def test_run_jobs_yields_and_releases_each_result_while_later_jobs_run(monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "2")
    first_taken, third_ran = threading.Event(), threading.Event()

    class Result:
        pass

    def first():
        return Result()

    def second():  # holds its worker until the caller has the first result
        return first_taken.wait(timeout=30)

    def third():  # runs on the first job's worker, once that has let go of it
        third_ran.set()
        return True

    results = config_mod.run_jobs([first, second, third])
    held = weakref.ref(next(results))
    assert third_ran.wait(timeout=30)
    assert held() is None  # neither run_jobs nor the pool keeps a yielded result
    first_taken.set()
    assert list(results) == [True, True]


# ---------------------------------------------------------------------------
# metrics


def test_metrics_append_and_read(tmp_path):
    path = str(tmp_path / "m.jsonl")
    append_record(path, {"kind": "train_step", "step": 1, "task": "planning",
                         "model_kind": "diffusion", "seed": 0, "loss": 1.5})
    append_record(path, {"kind": "eval", "step": 2, "task": "planning",
                         "model_kind": "diffusion", "seed": 0, "accuracy": 0.5,
                         "per_pd": {"0": 0.5}, "n_eval": 10, "wall_time": 0.1})
    recs = read_records(path)
    assert [r["kind"] for r in recs] == ["train_step", "eval"]
    assert recs[1]["per_pd"] == {"0": 0.5}


def test_read_records_rejects_malformed_record(tmp_path):
    path = str(tmp_path / "m.jsonl")
    append_record(path, {"kind": "train_step", "step": 1, "task": "planning",
                         "model_kind": "diffusion", "seed": 0, "loss": 1.5})
    with open(path, "a") as f:
        f.write(json.dumps({"kind": "eval", "step": "two", "task": "planning",
                            "model_kind": "diffusion", "seed": 0}) + "\n")
    with pytest.raises(ValueError, match=r"m\.jsonl:2"):
        read_records(path)


def test_read_records_names_the_file_and_line_of_a_line_that_is_not_json(tmp_path):
    # a run killed inside append_record leaves a record cut short
    path = str(tmp_path / "m.jsonl")
    append_record(path, {"kind": "train_step", "step": 1, "task": "planning",
                         "model_kind": "diffusion", "seed": 0, "loss": 1.5})
    with open(path, "a") as f:
        f.write('{"kind": "tra')
    with pytest.raises(ValueError, match=r"m\.jsonl:2: not JSON: Unterminated string"):
        read_records(path)


def test_read_records_rejects_a_record_kind_no_code_writes(tmp_path):
    path = str(tmp_path / "m.jsonl")
    with open(path, "w") as f:
        f.write(json.dumps({"kind": "probe", "step": 0, "task": "planning",
                            "model_kind": "diffusion", "seed": 0}) + "\n")
    with pytest.raises(ValueError, match=r"m\.jsonl:1"):
        read_records(path)


def test_metrics_schema_rejects_bad_records():
    with pytest.raises(ValueError):
        validate_record({"kind": "train_step"})  # missing required fields
    with pytest.raises(ValueError):
        validate_record({"kind": "nonsense", "step": 1, "task": "planning",
                         "model_kind": "diffusion", "seed": 0})
    with pytest.raises(ValueError):
        validate_record({"kind": "eval", "step": "two", "task": "planning",
                         "model_kind": "diffusion", "seed": 0})


def test_append_record_writes_every_schema_property(tmp_path):
    path = tmp_path / "m.jsonl"
    append_record(str(path), {"kind": "final", "step": 3, "task": "planning",
                              "model_kind": "ar", "seed": 7})
    assert path.read_text() == (
        '{"accuracy": null, "epoch": null, "grad_norm": null, "kind": "final", '
        '"loss": null, "lr": null, "model_kind": "ar", "n_eval": null, '
        '"per_pd": null, "samples_per_sec": null, "seed": 7, "step": 3, '
        '"task": "planning", "wall_time": null}\n')


def test_append_record_rejects_a_misspelt_key(tmp_path):
    path = tmp_path / "m.jsonl"
    with pytest.raises(ValueError, match="accuracyy"):
        append_record(str(path), {"kind": "eval", "step": 1, "task": "planning",
                                  "model_kind": "diffusion", "seed": 0, "accuracyy": 0.5})
    assert not path.exists()


def test_metrics_schema_shape():
    ref = importlib.resources.files("absorb_diffuse") / "schemas" / "metrics.schema.json"
    schema = json.loads(ref.read_text())
    assert schema["type"] == "object"
    assert "kind" in schema["required"]


def test_strip_wall_clock():
    rows = [{"kind": "eval", "wall_time": 1.0, "samples_per_sec": 2.0, "step": 1}]
    out = strip_wall_clock(rows)
    assert out == [{"kind": "eval", "step": 1}]
    assert "wall_time" in rows[0]  # input untouched


# ---------------------------------------------------------------------------
# evaluation with lookup oracles


class LookupOracle(StubDenoiser):
    """Scores the true canvas for any batch row, keyed by its condition."""

    def __init__(self, task, instances, vocab, causal=False, p=0.999):
        super().__init__(vocab.size, "causal" if causal else "bidirectional")
        batch = encode_instances(task, instances, vocab)
        self.w = batch.cond_width
        self.truth = {batch.tokens[i, :self.w].tobytes(): batch.tokens[i]
                      for i in range(batch.size)}
        self.k = len(vocab.chars)
        self.p = p
        self.causal = causal

    def logits(self, tokens):
        b, s = tokens.shape
        logits = np.full((b, s, self.k), np.log((1 - self.p) / (self.k - 1)))
        for i in range(b):
            row = self.truth[tokens[i, :self.w].tobytes()]
            for pos in range(s):
                if self.causal and pos + 1 >= len(row):
                    continue
                want = row[pos + 1] if self.causal else row[pos]
                if want < self.k:
                    logits[i, pos, want] = np.log(self.p)
        return logits


@pytest.fixture(scope="module")
def planning_eval_set():
    task = get_task("planning")
    return task, [inst for pd in (0, 1, 2) for inst in gen_planning(4, pd, seed=21)]


def test_evaluate_oracle_reaches_full_accuracy(planning_eval_set, monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "1")
    task, insts = planning_eval_set
    vocab = task.vocabulary()
    model = LookupOracle(task, insts, vocab)
    res = evaluate_model(model, "diffusion", task, vocab, insts,
                         DecodeConfig(steps=5, temperature=0.5, strategy="topk", seed=0))
    assert res.accuracy == 1.0
    assert res.n == len(insts)
    assert set(res.per_pd) == {"0", "1", "2"}
    assert all(v == 1.0 for v in res.per_pd.values())
    assert all(v.ok for v in res.verdicts)


def test_evaluate_chunking_is_worker_invariant(planning_eval_set, monkeypatch):
    task, insts = planning_eval_set
    vocab = task.vocabulary()
    model = LookupOracle(task, insts, vocab, p=0.7)  # noisy: outputs vary
    cfg = DecodeConfig(steps=5, temperature=0.5, strategy="topk", seed=3)
    monkeypatch.setattr(evaluate_mod, "EVAL_CHUNK", 5)
    monkeypatch.setenv(THREADS_ENV, "1")
    a = evaluate_model(model, "diffusion", task, vocab, insts, cfg)
    monkeypatch.setenv(THREADS_ENV, "4")
    b = evaluate_model(model, "diffusion", task, vocab, insts, cfg)
    assert a.outputs == b.outputs
    assert a.accuracy == b.accuracy


def test_evaluate_scores_generated_and_read_back_instances_alike(planning_eval_set, tmp_path,
                                                                 monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "1")
    task, generated = planning_eval_set
    path = str(tmp_path / "eval.tsv")
    write_instances(path, generated)
    read_back = read_instances(path)
    vocab = task.vocabulary()
    model = LookupOracle(task, generated, vocab, p=0.7)  # noisy: accuracy differs by distance
    cfg = DecodeConfig(steps=5, temperature=0.5, strategy="topk", seed=3)
    want = evaluate_model(model, "diffusion", task, vocab, generated, cfg)
    got = evaluate_model(model, "diffusion", task, vocab, read_back, cfg)
    assert got == want
    assert len(set(want.per_pd.values())) > 1


@pytest.mark.parametrize("threads,expect_one", [(2, True), (1, False)])
def test_evaluate_pool_runs_one_blas_thread_per_worker(planning_eval_set, monkeypatch,
                                                       threads, expect_one):
    get = _blas_count()
    default = get()
    task, insts = planning_eval_set
    vocab = task.vocabulary()
    seen = []

    def recording(*a, _real=evaluate_mod._decode_chunk, **kw):
        seen.append(get())
        return _real(*a, **kw)

    monkeypatch.setattr(evaluate_mod, "_decode_chunk", recording)
    monkeypatch.setattr(evaluate_mod, "EVAL_CHUNK", 5)
    monkeypatch.setenv(THREADS_ENV, str(threads))
    evaluate_model(LookupOracle(task, insts, vocab), "diffusion", task, vocab, insts,
                   DecodeConfig(steps=2, temperature=0.5, strategy="topk", seed=0))
    assert seen == [1 if expect_one else default] * 3
    assert get() == default


@pytest.mark.parametrize("kind", ["diffusion", "ar"])
def test_evaluate_outputs_do_not_depend_on_the_blas_thread_count(kind, monkeypatch):
    """One worker decodes at the default BLAS count, two at one BLAS thread
    per worker; a real float32 model must decode the same either way."""
    task = get_task("planning")
    vocab = task.vocabulary()
    insts = [inst for pd in (1, 2) for inst in gen_planning(12, pd, seed=5)]
    model = DenoiserModel(ModelConfig(
        vocab_size=vocab.size, max_seq_len=task.seq_len, n_layers=2, n_heads=4,
        hidden_dim=96, attention="causal" if kind == "ar" else "bidirectional"), seed=3)
    cfg = DecodeConfig(steps=4, temperature=1.0, strategy="topk", seed=2)
    monkeypatch.setattr(evaluate_mod, "EVAL_CHUNK", 8)
    monkeypatch.setenv(THREADS_ENV, "1")
    a = evaluate_model(model, kind, task, vocab, insts, cfg)
    monkeypatch.setenv(THREADS_ENV, "2")
    b = evaluate_model(model, kind, task, vocab, insts, cfg)
    assert a.outputs == b.outputs
    assert len(set(a.outputs)) > 1


@pytest.mark.parametrize("kind", ["diffusion", "ar"])
def test_evaluate_decodes_without_a_graph_on_worker_threads(kind, monkeypatch):
    # the grad mode is per thread, so each decoder enters no_grad() itself
    task = get_task("planning")
    vocab = task.vocabulary()
    insts = gen_planning(6, 1, seed=7)
    model = DenoiserModel(ModelConfig(
        vocab_size=vocab.size, max_seq_len=task.seq_len, n_layers=1, n_heads=2,
        hidden_dim=16, attention="causal" if kind == "ar" else "bidirectional"), seed=3)
    seen = []

    def forward(*a, _real=model.forward, **kw):
        out = _real(*a, **kw)
        seen.append((threading.current_thread().name, out._backward, out.requires_grad))
        return out

    model.forward = forward
    monkeypatch.setattr(evaluate_mod, "EVAL_CHUNK", 3)
    monkeypatch.setenv(THREADS_ENV, "2")
    evaluate_model(model, kind, task, vocab, insts,
                   DecodeConfig(steps=2, temperature=0.5, strategy="topk", seed=0))
    assert seen and all(name.startswith(WORKER_PREFIX) for name, *_ in seen)
    assert all(back is None and not grad for _, back, grad in seen)


def test_evaluate_ar_path(planning_eval_set, monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "1")
    task, insts = planning_eval_set
    vocab = task.vocabulary()
    model = LookupOracle(task, insts, vocab, causal=True)
    res = evaluate_model(model, "ar", task, vocab, insts,
                         DecodeConfig(steps=1, temperature=0.1, strategy="topk", seed=0))
    assert res.accuracy == 1.0


def test_evaluate_rejects_empty():
    task = get_task("planning")
    with pytest.raises(ValueError):
        evaluate_model(None, "diffusion", task, task.vocabulary(), [],
                       DecodeConfig(steps=1, temperature=0.5, strategy="topk", seed=0))


def test_evaluate_names_an_unreadable_planning_input_before_decoding(planning_eval_set,
                                                                      monkeypatch):
    # the planning distances are read before any chunk decodes, so a bad
    # input costs no decode work and its error names the instance
    task, insts = planning_eval_set
    bad = [*insts[:3], TaskInstance("1,2/2,3", insts[3].output_text)]
    calls = []
    monkeypatch.setattr(evaluate_mod, "_decode_chunk", lambda *a: calls.append(a))
    monkeypatch.setattr(evaluate_mod, "EVAL_CHUNK", 2)
    with pytest.raises(ValueError, match=r"^instance 3: missing -start,goal suffix$"):
        evaluate_model(None, "diffusion", task, task.vocabulary(), bad,
                       DecodeConfig(steps=1, temperature=0.5, strategy="topk", seed=0))
    assert calls == []


# ---------------------------------------------------------------------------
# error taxonomy


def test_error_taxonomy_buckets():
    verdicts = [
        Verdict(VALID), Verdict(VALID),
        Verdict(CALC_ERROR, step=3), Verdict(CALC_ERROR, step=3),
        Verdict(CALC_ERROR, step=1), Verdict(PLAN_ERROR, step=2),
    ]
    rows = error_taxonomy(verdicts)
    assert rows[0].kind == VALID and rows[0].count == 2
    assert rows[0].rate == pytest.approx(2 / 6)
    by_key = {(r.kind, r.step): r for r in rows}
    assert by_key[(CALC_ERROR, 3)].count == 2
    assert by_key[(CALC_ERROR, 1)].count == 1
    assert by_key[(PLAN_ERROR, 2)].rate == pytest.approx(1 / 6)
    assert sum(r.count for r in rows) == 6
    assert sum(r.rate for r in rows) == pytest.approx(1.0)


def test_error_taxonomy_empty_raises():
    with pytest.raises(ValueError):
        error_taxonomy([])


# ---------------------------------------------------------------------------
# CSV tables


def test_write_table_writes_the_header_then_one_line_per_row(tmp_path):
    rows = error_taxonomy([Verdict(VALID), Verdict(PLAN_ERROR, step=1)])
    path = str(tmp_path / "tax.csv")
    write_table(path, ["kind", "step", "count", "rate"],
                ([r.kind, r.step, r.count, f"{r.rate:.6f}"] for r in rows))
    lines = pathlib.Path(path).read_text().strip().splitlines()
    assert lines[0] == "kind,step,count,rate"
    assert len(lines) == 3


def test_write_table_writes_none_as_an_empty_cell(tmp_path):
    path = tmp_path / "t.csv"
    write_table(str(path), ["a", "b", "c"], [[None, 1, None]])
    assert path.read_bytes() == b"a,b,c\r\n,1,\r\n"


def test_write_table_writes_a_generators_rows_in_order(tmp_path):
    path = tmp_path / "t.csv"
    write_table(str(path), ["i", "sq"], ([i, i * i] for i in range(3)))
    assert path.read_text().splitlines() == ["i,sq", "0,0", "1,1", "2,4"]


def test_write_table_bytes_are_those_of_the_default_csv_writer(tmp_path):
    header = ["name", "x", "note"]
    rows = [["a", 0.1, 'say "hi", twice'], ["b\nc", 3, True], ["", 1e-20, None]]
    want = io.StringIO(newline="")
    w = csv.writer(want)
    w.writerow(header)
    w.writerows(rows)
    path = tmp_path / "t.csv"
    write_table(str(path), header, rows)
    assert path.read_bytes() == want.getvalue().encode()


# ---------------------------------------------------------------------------
# training loop


def _tiny_cfg(tmp_path, **kw):
    task = get_task("countdown3")
    train_insts, test_insts = task.generate(16, 4, seed=13)
    train_p = str(tmp_path / "train.tsv")
    eval_p = str(tmp_path / "eval.tsv")
    write_instances(train_p, train_insts)
    write_instances(eval_p, test_insts)
    base = dict(
        task="countdown3", out_dir=str(tmp_path / "run"),
        train_path=train_p, eval_path=eval_p,
        model_kind="diffusion", seed=4,
        n_layers=1, n_heads=2, hidden_dim=32,
        schedule_T=5, lr=2e-3, warmup_steps=5,
        batch_size=8, train_steps=12, log_every=4,
        eval_every=0, eval_limit=4, decode_steps=2,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_train_smoke_diffusion(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    res = train(cfg)
    assert res.steps == 12
    assert np.isfinite(res.final_loss)
    recs = read_records(res.metrics_path)
    kinds = [r["kind"] for r in recs]
    assert kinds.count("train_step") == 3
    assert kinds[-1] == "final"
    assert recs[-1]["accuracy"] is not None  # final eval ran
    model, vocab, cfg2 = load_model(res.checkpoint_dir)
    assert cfg2 == cfg
    assert model.config.attention == "bidirectional"
    assert vocab.chars == get_task("countdown3").vocabulary().chars
    manifest_path = pathlib.Path(res.checkpoint_dir) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert set(manifest["extra"]) == {"experiment", "vocab_chars"}  # the experiment names the task
    # a manifest that also names the task in `extra`, as older ones did, still loads
    manifest["extra"]["task"] = cfg.task
    manifest_path.write_text(json.dumps(manifest))
    assert load_model(res.checkpoint_dir)[2] == cfg


def test_train_drops_its_instances_once_encoded(tmp_path, monkeypatch):
    # the encoded dataset is all that training reads; the TaskInstance list
    # would otherwise stay bound for the whole run
    cfg = _tiny_cfg(tmp_path, eval_path="", train_steps=2, log_every=1)
    refs, alive = [], []

    class Tracked(TaskInstance):
        __slots__ = ("__weakref__",)  # a slotted TaskInstance takes no weak reference

    def read(path, _real=train_mod.read_instances):
        out = [Tracked(inst.input_text, inst.output_text) for inst in _real(path)]
        refs.extend(weakref.ref(inst) for inst in out)
        return out

    def sample(*args, _real=train_mod.sample_xt, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        return _real(*args, **kwargs)

    monkeypatch.setattr(train_mod, "read_instances", read)
    monkeypatch.setattr(train_mod, "sample_xt", sample)
    train(cfg)
    assert len(refs) == 16 and alive == [0, 0]


def test_train_smoke_ar(tmp_path):
    cfg = _tiny_cfg(tmp_path, model_kind="ar", out_dir=str(tmp_path / "ar_run"))
    res = train(cfg)
    assert np.isfinite(res.final_loss)
    model, _, _ = load_model(res.checkpoint_dir)
    assert model.config.attention == "causal"


def test_train_loss_decreases(tmp_path):
    cfg = _tiny_cfg(tmp_path, train_steps=60, log_every=10, eval_every=0,
                    eval_path="")
    res = train(cfg)
    losses = [r["loss"] for r in read_records(res.metrics_path)
              if r["kind"] == "train_step"]
    assert losses[-1] < losses[0]


def test_train_step_records_time_their_interval(tmp_path):
    cfg = _tiny_cfg(tmp_path, eval_path="")  # 12 steps of 8 rows, a record every 4
    recs = [r for r in read_records(train(cfg).metrics_path) if r["kind"] == "train_step"]
    assert len(recs) == 3
    for r in recs:
        assert r["wall_time"] > 0 and r["samples_per_sec"] > 0
        assert r["samples_per_sec"] * r["wall_time"] == pytest.approx(4 * 8)


def _assert_resume_is_bit_identical(tmp_path, split: int):
    """12 steps in one run, and `split` steps then a resume to 12, end in
    the same parameters, Adam state and step records."""
    one = _tiny_cfg(tmp_path, out_dir=str(tmp_path / "one"), train_steps=12,
                    eval_path="", eval_every=0)
    res_one = train(one)

    two_a = _tiny_cfg(tmp_path, out_dir=str(tmp_path / "two"), train_steps=split,
                      eval_path="", eval_every=0)
    train(two_a)
    two_b = two_a.replace(train_steps=12)
    res_two = train(two_b, resume_from=os.path.join(two_a.out_dir, "checkpoint"))

    a = load_checkpoint(res_one.checkpoint_dir)
    b = load_checkpoint(res_two.checkpoint_dir)
    assert set(a.params) == set(b.params)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name], b.params[name], err_msg=name)
        np.testing.assert_array_equal(a.optimizer_state["m"][name], b.optimizer_state["m"][name])
        np.testing.assert_array_equal(a.optimizer_state["v"][name], b.optimizer_state["v"][name])
    assert a.optimizer_state["t"] == b.optimizer_state["t"]
    assert res_one.final_loss == res_two.final_loss

    def records_after_split(path):
        return [r for r in strip_wall_clock(read_records(path))
                if r["kind"] == "train_step" and r["step"] > split]

    assert records_after_split(res_two.metrics_path) == records_after_split(res_one.metrics_path)


def test_resume_is_bit_identical(tmp_path):
    # 16 rows in batches of 8: step 6 starts an epoch
    _assert_resume_is_bit_identical(tmp_path, 6)


def test_resume_mid_epoch_is_bit_identical(tmp_path):
    # step 5 is the second batch of epoch 2
    _assert_resume_is_bit_identical(tmp_path, 5)


class _Killed(Exception):
    pass


def test_resume_in_the_out_dir_writes_each_record_once(tmp_path):
    """A run killed between checkpoints, and a finished run trained further,
    each resumed in their out_dir, leave the metrics of an uninterrupted run."""
    def cfg(name, steps):
        # checkpoints (and evals) at steps 4 and 8, and 12 in a 16-step run
        return _tiny_cfg(tmp_path, out_dir=str(tmp_path / name), train_steps=steps,
                         log_every=2, eval_every=4)

    def records(res):
        return strip_wall_clock(read_records(res.metrics_path))

    def kill_after_step_10(message):
        if message.startswith("step 10/"):
            raise _Killed

    whole_12, whole_16 = records(train(cfg("w12", 12))), records(train(cfg("w16", 16)))
    part = cfg("part", 12)
    with pytest.raises(_Killed):
        train(part, log=kill_after_step_10, quiet=False)
    ckpt = os.path.join(part.out_dir, "checkpoint")
    assert load_checkpoint(ckpt).step == 8
    assert [r["step"] for r in read_records(part.out_dir + "/metrics.jsonl")][-1] == 10
    assert records(train(part, resume_from=ckpt)) == whole_12
    # the finished run's `final` record is dropped; its final eval is step 12's
    assert records(train(part.replace(train_steps=16), resume_from=ckpt)) == whole_16
    assert sorted(os.listdir(part.out_dir)) == ["checkpoint", "metrics.jsonl"]


def test_rewinding_the_metrics_syncs_the_new_file_then_its_rename(tmp_path, monkeypatch):
    path = tmp_path / "metrics.jsonl"
    lines = [json.dumps({"kind": "train_step", "step": s}) + "\n" for s in (2, 4, 6)]
    path.write_text("".join(lines))
    events = []  # (call, inode of the file or directory it acts on)
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_ino))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    rewind_records(str(path), 4)
    new = path.stat().st_ino
    assert events == [("fsync", new), ("replace", new), ("fsync", tmp_path.stat().st_ino)]
    assert path.read_text() == "".join(lines[:2])
    assert os.listdir(tmp_path) == ["metrics.jsonl"]


def test_batches_are_epoch_shuffles_that_drop_the_remainder(tmp_path, monkeypatch):
    taken = []
    real_take = Batch.take

    def recording(self, idx):
        if not isinstance(idx, slice):  # a slice cuts a step's batch into shards
            taken.append(np.asarray(idx).copy())
        return real_take(self, idx)

    monkeypatch.setattr(Batch, "take", recording)
    # 16 rows in batches of 6: two batches an epoch, four rows left out of each
    cfg = _tiny_cfg(tmp_path, batch_size=6, train_steps=6, log_every=1, eval_path="")
    recs = [r for r in read_records(train(cfg).metrics_path) if r["kind"] == "train_step"]
    assert [r["epoch"] for r in recs] == [0, 0, 1, 1, 2, 2]
    assert [len(idx) for idx in taken] == [6] * 6
    epochs = [np.concatenate(taken[i:i + 2]) for i in range(0, 6, 2)]
    for rows in epochs:
        assert len(set(rows.tolist())) == 12 and rows.min() >= 0 and rows.max() < 16
    assert len({tuple(rows) for rows in epochs}) == 3


def test_corruption_is_drawn_from_the_seed_and_the_step(tmp_path, monkeypatch):
    # the training loop reaches draw_t through its module, where a tracer may wrap it
    drawn = []
    real = train_mod.draw_t

    def recording(schedule, n, rng):
        t = real(schedule, n, rng)
        drawn.append(t.tolist())
        return t

    monkeypatch.setattr(train_mod, "draw_t", recording)
    runs = {}
    for seed in (4, 5):
        drawn.clear()
        train(_tiny_cfg(tmp_path, seed=seed, train_steps=3, eval_path=""))
        runs[seed] = list(drawn)
    for step in range(3):
        assert runs[4][step] != runs[5][step], step
    assert runs[4][0] != runs[4][1] != runs[4][2]


def test_checkpoint_holds_no_generator_state_and_refuses_schema_2(tmp_path):
    first = _tiny_cfg(tmp_path, train_steps=2, eval_path="")
    train(first)
    ckpt = os.path.join(first.out_dir, "checkpoint")
    manifest_path = pathlib.Path(ckpt) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["schema_version"] == 3
    assert "rng_state" not in manifest
    # schema 2 carried the generator states that a resume restored
    manifest.update(schema_version=2, rng_state={"noise": {}, "sampler": {}})
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="unsupported checkpoint schema 2"):
        train(first.replace(train_steps=4), resume_from=ckpt)


def test_resume_refuses_a_changed_config(tmp_path):
    first = _tiny_cfg(tmp_path, train_steps=4, eval_path="", eval_every=0)
    train(first)
    ckpt = os.path.join(first.out_dir, "checkpoint")
    changed = first.replace(train_steps=8, lr=first.lr * 2)
    with pytest.raises(ValueError, match=r"\['lr'\]"):
        train(changed, resume_from=ckpt)


@pytest.mark.parametrize("steps", [6, 12])
def test_resume_refuses_fewer_steps_than_the_checkpoint_and_writes_nothing(tmp_path, steps):
    first = _tiny_cfg(tmp_path, train_steps=12, eval_path="", eval_every=0)
    train(first)
    ckpt = os.path.join(first.out_dir, "checkpoint")
    names = sorted(os.listdir(ckpt))
    paths = [os.path.join(ckpt, f) for f in names] + [first.out_dir + "/metrics.jsonl"]
    before = [pathlib.Path(p).read_bytes() for p in paths]
    with pytest.raises(ValueError, match=rf"train_steps {steps} leaves nothing .* step 12"):
        train(first.replace(train_steps=steps), resume_from=ckpt)
    assert sorted(os.listdir(ckpt)) == names
    assert [pathlib.Path(p).read_bytes() for p in paths] == before


def _count_steps(monkeypatch) -> list:
    """Count the training steps begun, by their one draw_t call each;
    -> a one-item list holding the count."""
    real = train_mod.draw_t
    begun = [0]

    def counting(*a, **kw):
        begun[0] += 1
        return real(*a, **kw)

    monkeypatch.setattr(train_mod, "draw_t", counting)
    return begun


def test_train_divergence_abort(tmp_path, monkeypatch):
    real = train_mod.diffusion_loss
    begun = _count_steps(monkeypatch)

    def tripwire(*a, **kw):
        loss, report = real(*a, **kw)
        if begun[0] > 2:  # every shard from step 2 (the third) on
            loss = ad.scale(loss, float("nan"))  # still on the graph: backward() needs that
        return loss, report

    monkeypatch.setattr(train_mod, "diffusion_loss", tripwire)
    cfg = _tiny_cfg(tmp_path, train_steps=40, eval_path="", eval_every=0)
    with pytest.raises(TrainingDiverged):
        train(cfg)
    snap = os.path.join(cfg.out_dir, "diverged")
    assert os.path.isdir(snap)
    with open(os.path.join(snap, "context.json")) as f:
        ctx = json.load(f)
    assert ctx["step"] == 2
    assert len(ctx["batch_indices"]) == cfg.batch_size
    loaded = load_checkpoint(snap)
    assert loaded.step == 2


def test_train_stops_on_non_finite_gradient(tmp_path, monkeypatch):
    models = []
    real_model = train_mod.DenoiserModel

    def capture(*a, **kw):
        models.append(real_model(*a, **kw))
        return models[-1]

    real_backward = ad.Node.backward
    begun = _count_steps(monkeypatch)
    calls = itertools.count()  # next() is atomic: the shards call from two threads
    state = {}

    def poisoned(self, grads=None):
        real_backward(self, grads)
        if begun[0] == 3 and next(calls) == 0:  # one shard of step 2 (the third)
            params = models[0].params
            state["before"] = {k: p.value.copy() for k, p in params.items()}
            grads[params["h0.mlp.w1"]][0, 0] = np.nan

    monkeypatch.setattr(train_mod, "DenoiserModel", capture)
    monkeypatch.setattr(ad.Node, "backward", poisoned)
    cfg = _tiny_cfg(tmp_path, train_steps=40, eval_path="", eval_every=0)
    with pytest.raises(TrainingDiverged, match=r"non-finite gradient in \['h0.mlp.w1'\]"):
        train(cfg)
    snap = os.path.join(cfg.out_dir, "diverged")
    with open(os.path.join(snap, "context.json")) as f:
        ctx = json.load(f)
    assert ctx["step"] == 2 and "gradient" in ctx["reason"]
    loaded = load_checkpoint(snap)
    assert loaded.step == 2
    for name, arr in state["before"].items():
        np.testing.assert_array_equal(loaded.params[name], arr, err_msg=name)


def _desk_cfg(kind: str) -> ExperimentConfig:
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return ExperimentConfig.from_json(os.path.join(
        repo, "src", "absorb_diffuse", "profiles", f"desk_planning_{kind}.json"))


@pytest.mark.parametrize("kind", ["diffusion", "ar"])
def test_shard_gradients_sum_to_the_full_batch_gradient(kind, monkeypatch):
    cfg = _desk_cfg(kind)
    task = get_task("planning")
    vocab = task.vocabulary()
    instances, _ = task.generate(24, 0, 7)  # twelve shards of 2 rows
    rows = encode_instances(task, instances, vocab)
    with ad.using_dtype(np.float64):
        model = DenoiserModel(cfg.model_config(vocab.size), seed=3)
    schedule = NoiseSchedule.linear(cfg.schedule_T)
    reweight = cfg.reweight_config()
    if kind == "diffusion":
        assert reweight.token_beta > 0  # per-token weights v are part of the loss
        rng = np.random.default_rng(5)
        batch = sample_xt(schedule, rows, draw_t(schedule, rows.size, rng), rng, vocab.mask_id)
        full = diffusion_loss(model, batch, schedule, reweight)[0]
    else:
        batch = rows
        full = ar_nll(model, rows)[0]
    real_step, ran = train_mod._shard_step, []

    def counted(*a):
        ran.append(a[2].size)
        return real_step(*a)

    monkeypatch.setattr(train_mod, "_shard_step", counted)
    loss, norm = train_mod._run_shards(model, kind, batch, schedule, reweight)
    assert sorted(ran) == [2] * 12  # every shard scores some token here
    summed = {k: p.grad for k, p in model.params.items()}
    zero_grads(model.params)
    full.backward()
    assert loss == pytest.approx(float(full.value), rel=1e-12)
    full_norm = np.sqrt(sum(np.square(p.grad).sum() for p in model.params.values()))
    assert norm == pytest.approx(full_norm, rel=1e-10)
    for name, p in model.params.items():
        if name.endswith(".attn.bk"):
            continue  # its exact gradient is 0: a key bias shifts a query's scores evenly
        scale = np.abs(p.grad).max()
        assert scale > 0, name
        assert np.abs(summed[name] - p.grad).max() <= 1e-10 * scale, name


def test_a_desk_training_step_holds_two_ten_or_eleven_row_shard_tapes(monkeypatch):
    # 128 rows in twelve shards on two threads: each thread holds one 10- or
    # 11-row shard's tape at a time, and finished shards' gradients (1 MB a
    # set) are added into one sum. Eight shards peaked at about 27.5 MB,
    # four at about 55 MB.
    monkeypatch.setenv(THREADS_ENV, "2")
    cfg = _desk_cfg("diffusion")
    task = get_task("planning")
    vocab = task.vocabulary()
    rows = encode_instances(task, task.generate(cfg.batch_size, 0, 3)[0], vocab)
    model = DenoiserModel(cfg.model_config(vocab.size), seed=3)
    schedule = NoiseSchedule.linear(cfg.schedule_T)
    rng = np.random.default_rng(3)
    batch = sample_xt(schedule, rows, draw_t(schedule, rows.size, rng), rng, vocab.mask_id)
    assert batch.tokens.shape == (128, 72)
    scores = 32 * 4 * 72 * 72 * 4  # bytes of one float32 [32, 4, 72, 72] score array
    peak = traced_peak(lambda: train_mod._run_shards(model, "diffusion", batch, schedule,
                                                     cfg.reweight_config()))
    # twelve shards peak at about 7.5 score arrays, eight at about 11
    assert peak < 9 * scores, f"peak {peak / scores:.2f} score arrays"


def _shard_0_last(monkeypatch) -> list:
    """Make each step's shard 0 wait until all its other shards have finished;
    -> one list per step of its shards' indices in the order they finished."""
    real = train_mod.run_jobs
    orders = []

    def run(jobs):
        order, rest_done = [], threading.Semaphore(0)
        orders.append(order)

        def first():
            for _ in jobs[1:]:
                assert rest_done.acquire(timeout=60)
            out = jobs[0]()
            order.append(0)
            return out

        def other(i):
            out = jobs[i]()
            order.append(i)
            rest_done.release()
            return out

        return real([first] + [functools.partial(other, i) for i in range(1, len(jobs))])

    monkeypatch.setattr(train_mod, "run_jobs", run)
    return orders


@pytest.mark.parametrize("kind", ["diffusion", "ar"])
def test_train_does_not_depend_on_which_shard_finishes_last(tmp_path, monkeypatch, kind):
    monkeypatch.setenv(THREADS_ENV, "2")
    real_step, grads = ad.Adam.step, []

    def recording_step(self, lr):
        grads.append({k: p.grad.copy() for k, p in self.params.items() if p.grad is not None})
        real_step(self, lr)

    monkeypatch.setattr(ad.Adam, "step", recording_step)
    runs = {}
    for delayed in (False, True):
        orders = _shard_0_last(monkeypatch) if delayed else []
        grads.clear()
        res = train(_tiny_cfg(tmp_path, model_kind=kind, out_dir=str(tmp_path / str(delayed))))
        runs[delayed] = (strip_wall_clock(read_records(res.metrics_path)),
                         _checkpoint_arrays(res.checkpoint_dir), list(grads))
    assert len(orders) == 12 and all(len(o) > 1 and o[-1] == 0 for o in orders)
    (recs, arrays, step_grads), (recs_d, arrays_d, step_grads_d) = runs[False], runs[True]
    assert recs == recs_d
    assert all(r["grad_norm"] > 0 for r in recs if r["kind"] == "train_step")
    assert arrays.keys() == arrays_d.keys()
    for name in arrays:
        np.testing.assert_array_equal(arrays[name], arrays_d[name], err_msg=name)
    assert len(step_grads) == len(step_grads_d) == 12
    for step, (g, g_d) in enumerate(zip(step_grads, step_grads_d)):
        assert g.keys() == g_d.keys(), step
        for name in g:
            np.testing.assert_array_equal(g[name], g_d[name], err_msg=f"{step} {name}")


def _record_shard_calls(monkeypatch, kind: str) -> list:
    """Wrap the loss that each shard calls; -> list of (thread name, BLAS
    thread count or None) per call."""
    attr = "diffusion_loss" if kind == "diffusion" else "ar_nll"
    real = getattr(train_mod, attr)
    fns = config_mod._openblas()
    calls = []

    def recorded(*a, **kw):
        calls.append((threading.current_thread().name, fns and fns[0]()))
        return real(*a, **kw)

    monkeypatch.setattr(train_mod, attr, recorded)
    return calls


def _checkpoint_arrays(checkpoint_dir: str) -> dict:
    loaded = load_checkpoint(checkpoint_dir)
    out = {f"param:{k}": v for k, v in loaded.params.items()}
    for moment in ("m", "v"):
        out.update({f"{moment}:{k}": v for k, v in loaded.optimizer_state[moment].items()})
    return out


@pytest.mark.parametrize("kind", ["diffusion", "ar"])
def test_train_does_not_depend_on_the_worker_count(tmp_path, monkeypatch, kind):
    calls = _record_shard_calls(monkeypatch, kind)
    runs = {}
    for workers in ("1", "2"):
        monkeypatch.setenv(THREADS_ENV, workers)
        calls.clear()
        res = train(_tiny_cfg(tmp_path, model_kind=kind, batch_size=7,
                              out_dir=str(tmp_path / f"w{workers}")))
        runs[workers] = (strip_wall_clock(read_records(res.metrics_path)),
                         _checkpoint_arrays(res.checkpoint_dir))
        threads = {name for name, _ in calls}
        if workers == "1":
            assert threads == {"MainThread"}
        else:
            assert threads and all(n.startswith(WORKER_PREFIX) for n in threads)
            assert {count for _, count in calls} <= {1, None}
    (recs_1, arrays_1), (recs_2, arrays_2) = runs["1"], runs["2"]
    assert recs_1 == recs_2
    steps = [r for r in recs_1 if r["kind"] == "train_step"]
    assert steps and all(r["grad_norm"] > 0 for r in steps)
    assert arrays_1.keys() == arrays_2.keys()
    for name in arrays_1:
        np.testing.assert_array_equal(arrays_1[name], arrays_2[name], err_msg=name)


@pytest.mark.parametrize("kind", ["diffusion", "ar"])
@pytest.mark.parametrize("batch_size", [7, 1])
def test_train_runs_odd_and_single_row_batches(tmp_path, monkeypatch, kind, batch_size):
    monkeypatch.setenv(THREADS_ENV, "2")
    calls = _record_shard_calls(monkeypatch, kind)
    cfg = _tiny_cfg(tmp_path, model_kind=kind, batch_size=batch_size, eval_path="")
    res = train(cfg)
    assert np.isfinite(res.final_loss)
    steps = [r for r in read_records(res.metrics_path) if r["kind"] == "train_step"]
    assert len(steps) == cfg.train_steps // cfg.log_every
    for r in steps:
        assert np.isfinite(r["loss"])
        assert r["grad_norm"] is None or np.isfinite(r["grad_norm"])
    # one row leaves the second shard empty: at most one shard runs per step
    assert len(calls) <= cfg.train_steps * (1 if batch_size == 1 else train_mod.SHARDS)


def test_train_restores_the_blas_thread_count(tmp_path, monkeypatch):
    get = _blas_count()
    before = get()
    monkeypatch.setenv(THREADS_ENV, "2")
    train(_tiny_cfg(tmp_path, train_steps=3, eval_path=""))
    assert get() == before
    real = train_mod.diffusion_loss
    calls = itertools.count(1)

    def failing(*a, **kw):
        if next(calls) == 3:
            raise RuntimeError("shard failed")
        return real(*a, **kw)

    monkeypatch.setattr(train_mod, "diffusion_loss", failing)
    with pytest.raises(RuntimeError, match="shard failed"):
        train(_tiny_cfg(tmp_path, out_dir=str(tmp_path / "fails"), eval_path=""))
    assert get() == before


def test_desk_checkpoint_is_two_files_with_a_small_manifest(tmp_path):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = ExperimentConfig.from_json(os.path.join(
        repo, "src", "absorb_diffuse", "profiles", "desk_planning_diffusion.json"))
    cfg = cfg.replace(out_dir=str(tmp_path / "desk"), train_steps=1, eval_path="",
                      train_path=os.path.join(repo, cfg.train_path))
    res = train(cfg)
    files = os.listdir(res.checkpoint_dir)
    assert len(files) == 2 and "manifest.json" in files
    assert os.path.getsize(os.path.join(res.checkpoint_dir, "manifest.json")) < 4096


def test_train_rejects_empty_dataset(tmp_path):
    p = tmp_path / "empty.tsv"
    p.write_text("")
    cfg = ExperimentConfig(task="countdown3", out_dir=str(tmp_path / "r"),
                           train_path=str(p), train_steps=1)
    with pytest.raises(ValueError, match="empty training set"):
        train(cfg)


# ---------------------------------------------------------------------------
# sweeps


def test_reweight_ablation_smoke(tmp_path, monkeypatch):
    base = _tiny_cfg(tmp_path, train_steps=4, log_every=2, eval_path="",
                     out_dir=str(tmp_path / "grid"))
    out_csv = str(tmp_path / "grid.csv")
    monkeypatch.setattr(sweep_mod, "SEQUENCE_MODES", ("none",))
    monkeypatch.setattr(sweep_mod, "TOKEN_SETTINGS", ((1.0, 0.0), (1.0, 1.0)))
    rows = reweight_ablation(base, out_csv, log=lambda *a: None)
    assert len(rows) == 2
    assert {(r["sequence_mode"], r["token_beta"]) for r in rows} == {("none", 0.0), ("none", 1.0)}
    lines = pathlib.Path(out_csv).read_text().strip().splitlines()
    assert lines[0] == "sequence_mode,token_alpha,token_beta,accuracy,loss"
    assert len(lines) == 3


def test_data_scaling_sweep_smoke(tmp_path, monkeypatch):
    base = _tiny_cfg(tmp_path, task="planning", train_steps=3, log_every=3)
    monkeypatch.setattr(sweep_mod, "N_TEST", 4)

    def sweep(threshold, name):
        cfg = base.replace(out_dir=str(tmp_path / name))
        out_csv = str(tmp_path / f"{name}.csv")
        rows = data_scaling_sweep(cfg, pds=(1,), sizes=(16, 8), threshold=threshold,
                                  out_csv=out_csv, log=lambda *a: None)
        return rows, pathlib.Path(out_csv).read_text().strip().splitlines()

    # a 3-step model never reaches accuracy 1: both sizes run, smallest first
    rows, lines = sweep(1.0, "unmet")
    assert [(r["pd"], r["size"], r["met"]) for r in rows] == [
        (1, 8, False), (1, 16, False), (1, None, False)]
    assert all(0.0 <= r["accuracy"] < 1.0 for r in rows[:2])
    assert rows[-1]["accuracy"] is None
    assert lines[0] == "pd,size,accuracy,met"
    assert len(lines) == 4 and lines[-1] == "1,,,False"
    # every size clears threshold 0: the sweep stops at the smallest one
    rows, lines = sweep(0.0, "met")
    assert [(r["pd"], r["size"], r["met"]) for r in rows] == [(1, 8, True), (1, 8, True)]
    assert len(lines) == 3 and lines[-1] == "1,8,,True"


# ---------------------------------------------------------------------------
# command line


def test_cli_generate_and_files(tmp_path, capsys):
    rc = cli_main(["generate", "--task", "countdown3", "--out-dir", str(tmp_path),
                   "--n-train", "6", "--n-test", "2", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote 6 train" in out
    task = get_task("countdown3")
    from absorb_diffuse.tasks import read_instances
    tr = read_instances(str(tmp_path / "countdown3_train.tsv"))
    assert len(tr) == 6
    assert all(task.verify(i.input_text, i.output_text).ok for i in tr)


def test_cli_generate_pd_restriction(tmp_path):
    rc = cli_main(["generate", "--task", "planning", "--out-dir", str(tmp_path),
                   "--n-train", "4", "--n-test", "2", "--pd", "2"])
    assert rc == 0
    from absorb_diffuse.tasks import read_instances
    tr = read_instances(str(tmp_path / "planning_train.tsv"))
    assert all(find_pd(i.input_text) == 2 for i in tr)
    with pytest.raises(SystemExit):
        cli_main(["generate", "--task", "countdown3", "--out-dir", str(tmp_path),
                  "--pd", "1"])


@pytest.mark.parametrize("flags", [["--task", "planning", "--pd", "9"],
                                   ["--task", "planning", "--pd", "-1"],
                                   ["--task", "countdown3", "--n-train", "-4"],
                                   ["--task", "countdown3", "--n-test", "-1"],
                                   ["--task", "planning", "--pd", "2", "--pd", "2"]])
def test_cli_generate_rejects_an_out_of_range_count_or_pd_before_writing(tmp_path, flags):
    out_dir = tmp_path / "data"
    with pytest.raises(SystemExit) as exc:
        cli_main(["generate", "--out-dir", str(out_dir), "--n-train", "4", "--n-test", "2",
                  *flags])
    assert exc.value.code == 2
    assert not out_dir.exists()


def test_cli_generate_rejects_an_unknown_task_before_writing(tmp_path, capsys):
    out_dir = tmp_path / "data"
    with pytest.raises(SystemExit) as exc:
        cli_main(["generate", "--task", "nope", "--out-dir", str(out_dir)])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_train_eval_sample_analyze(tmp_path, capsys):
    cfg = _tiny_cfg(tmp_path, train_steps=4, log_every=2)
    cfg_path = str(tmp_path / "cfg.json")
    pathlib.Path(cfg_path).write_text(json.dumps(dataclasses.asdict(cfg)))

    rc = cli_main(["train", "--config", cfg_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "trained 4 steps" in out
    ckpt = os.path.join(cfg.out_dir, "checkpoint")

    rc = cli_main(["eval", "--checkpoint", ckpt, "--data", cfg.eval_path,
                   "--limit", "2", "--steps", "2",
                   "--metrics-out", str(tmp_path / "ev.jsonl")])
    assert rc == 0
    assert "accuracy" in capsys.readouterr().out
    recs = read_records(str(tmp_path / "ev.jsonl"))
    assert recs[0]["kind"] == "eval" and recs[0]["n_eval"] == 2

    rc = cli_main(["sample", "--checkpoint", ckpt, "--data", cfg.eval_path,
                   "--n", "2", "--steps", "2"])
    assert rc == 0
    assert "output:" in capsys.readouterr().out

    tax_csv = str(tmp_path / "tax.csv")
    rc = cli_main(["analyze", "--what", "taxonomy", "--checkpoint", ckpt,
                   "--data", cfg.eval_path, "--out", tax_csv, "--steps", "2"])
    assert rc == 0
    capsys.readouterr()
    assert pathlib.Path(tax_csv).read_text().startswith("kind,step")

    prof_csv = str(tmp_path / "prof.csv")
    rc = cli_main(["analyze", "--what", "profile", "--checkpoint", ckpt,
                   "--data", cfg.eval_path, "--out", prof_csv, "--limit", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert re.search(r"^NELBO \d+\.\d{4} nats per instance$", out, re.M), out
    header, *rows = pathlib.Path(prof_csv).read_text().strip().splitlines()
    assert header == "t,mean_u,segment_0,segment_1" and len(rows) == cfg.schedule_T

    thr_csv = str(tmp_path / "thr.csv")
    rc = cli_main(["analyze", "--what", "throughput", "--checkpoint", ckpt,
                   "--data", cfg.eval_path, "--out", thr_csv, "--limit", "4",
                   "--grid", "1,2"])
    assert rc == 0
    capsys.readouterr()
    lines = pathlib.Path(thr_csv).read_text().strip().splitlines()
    assert lines[0] == "steps,seconds,samples_per_sec,accuracy"
    assert len(lines) == 3


@pytest.fixture(scope="module")
def ar_checkpoint(tmp_path_factory):
    """A 2-step AR countdown3 checkpoint whose config has seed 7 and 3 decode steps."""
    root = tmp_path_factory.mktemp("ar_ckpt")
    cfg = _tiny_cfg(root, model_kind="ar", seed=7, train_steps=2, decode_steps=3)
    train(cfg)
    return os.path.join(cfg.out_dir, "checkpoint"), cfg.eval_path


def test_cli_decode_flags_override_the_checkpoint_config(ar_checkpoint, tmp_path, capsys):
    ckpt, data = ar_checkpoint
    rec = str(tmp_path / "ev.jsonl")
    cli_main(["eval", "--checkpoint", ckpt, "--data", data, "--seed", "0", "--metrics-out", rec])
    assert "(steps=3)" in capsys.readouterr().out
    assert read_records(rec)[0]["seed"] == 0
    # the checkpoint does not exist: a bad decode flag must fail parsing first
    for flag, value in (("--temperature", "0"), ("--temperature", "nan"), ("--steps", "0")):
        with pytest.raises(SystemExit) as exc:
            cli_main(["eval", "--checkpoint", "missing", "--data", "missing", flag, value])
        assert exc.value.code == 2, (flag, value)


@pytest.mark.parametrize("argv", [
    ["eval"], ["sample"],
    ["analyze", "--what", "taxonomy"], ["analyze", "--what", "profile"],
    ["analyze", "--what", "throughput"],
])
def test_cli_refuses_an_empty_data_file(tmp_path, argv):
    # the checkpoint does not exist: the data file is read first
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    out = tmp_path / "out.csv"
    extra = ["--out", str(out)] if argv[0] == "analyze" else []
    with pytest.raises(SystemExit) as exc:
        cli_main(argv[:1] + ["--checkpoint", "missing", "--data", str(empty)] + argv[1:] + extra)
    assert "holds no instances" in str(exc.value.code)  # a message: exit status 1
    assert not out.exists()


def test_decoding_never_imports_jsonschema(tmp_path):
    # the metrics validator is built on first use: an eval-only process
    # writes no record, so it never pays for jsonschema; nor for numpy.ma,
    # which the first np.unique imports, on planning's per-PD path
    code = """
import sys
import absorb_diffuse.harness as h
from absorb_diffuse.decoding import DecodeConfig
from absorb_diffuse.model import DenoiserModel, ModelConfig
from absorb_diffuse.tasks import get_task
cfg = DecodeConfig(steps=2, temperature=0.5, strategy="topk", seed=0)
for name in ("countdown3", "planning"):
    task = get_task(name)
    vocab = task.vocabulary()
    model = DenoiserModel(ModelConfig(vocab.size, task.seq_len, 1, 2, 16), seed=0)
    res = h.evaluate_model(model, "diffusion", task, vocab, task.generate(0, 3, seed=1)[1], cfg)
    assert res.n == 3 and (res.per_pd is not None) == (name == "planning")
print(sorted(m for m in sys.modules
             if m.split(".")[0] == "jsonschema" or m.split(".")[:2] == ["numpy", "ma"]))
"""
    src = os.path.dirname(os.path.dirname(ad.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    res = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_perfbench_tracer_installs_and_traces_a_training_step(tmp_path):
    # perfbench patches library names from outside the library, so a rename
    # or removal breaks its traced runs: install it as its worker does, then
    # check that a diffusion step reaches the patched names
    perfbench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    code = f"""
import sys
sys.path.insert(0, {str(perfbench)!r})
import numpy as np
import worker
from absorb_diffuse.data import Batch
from absorb_diffuse.diffusion import CorruptedBatch, NoiseSchedule, ReweightConfig
from absorb_diffuse.model import DenoiserModel, ModelConfig
from absorb_diffuse.tasks import encode_instances, get_task
tracer = worker.Tracer()
tracer.install()
assert CorruptedBatch.take is Batch.take
train_mod = sys.modules["absorb_diffuse.harness.train"]
task = get_task("countdown3")
vocab = task.vocabulary()
batch = encode_instances(task, task.generate(4, 0, seed=1)[0], vocab)
model = DenoiserModel(ModelConfig(vocab.size, task.seq_len, 1, 2, 16), seed=0)
schedule = NoiseSchedule.linear(4)
rng = np.random.default_rng(0)
cb = train_mod.sample_xt(schedule, batch, train_mod.draw_t(schedule, 4, rng), rng, vocab.mask_id)
train_mod._run_shards(model, "diffusion", cb, schedule, ReweightConfig())
print(" ".join(sorted(tracer.fired())))
"""
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    fired = set(res.stdout.split())
    assert {"data.take", "diffusion.loss", "model.forward", "autodiff.tape",
            "autodiff.matmul.fwd", "autodiff.matmul.bwd"} <= fired, sorted(fired)


def test_perfbench_worker_calls_into_the_library(tmp_path):
    # perfbench's worker calls evaluate_model, encode_instances, the model
    # config, sample_xt, diffusion_loss and ar_nll positionally and reads
    # p.grad: run its gradient check and the set-up of each workload
    perfbench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    code = f"""
import sys
sys.path.insert(0, {str(perfbench)!r})
import worker
from absorb_diffuse.tasks import get_task
rows = get_task("planning").generate(8, 0, 5)[0]
for kind in ("diffusion", "ar"):
    err = worker._grad_check(kind, worker._profile(kind), rows, 5)
    assert err < worker.GRAD_CHECK_TOL, (kind, err)
    assert "setup_end" in worker.run_train(kind, 5, 1.0, 0, True, True, {str(tmp_path)!r})
assert "setup_end" in worker.run_decode(5, 1.0, 0, True, 0, 1)
print("ok")
"""
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["ok"]


def test_perfbench_tracer_installs_and_traces_a_decode_pass(tmp_path):
    # the decoders' q/k/v table moves layer 0's embedding_lookup and
    # layer_norm calls: install perfbench's tracer as its worker does, run
    # one evaluate_model pass per decoder, and check that every op, forward
    # and decoder span that perfbench's decode self-check expects fires
    perfbench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    code = f"""
import sys
sys.path.insert(0, {str(perfbench)!r})
import worker
from absorb_diffuse.decoding import DecodeConfig
from absorb_diffuse.harness import evaluate_model
from absorb_diffuse.model import DenoiserModel, ModelConfig
from absorb_diffuse.tasks import get_task
tracer = worker.Tracer()
tracer.install()
task = get_task("planning")
vocab = task.vocabulary()
instances = task.generate(0, 4, 1)[1]
dcfg = DecodeConfig(steps=2, temperature=0.5, strategy="topk", seed=0)
for kind, attention in (("diffusion", "bidirectional"), ("ar", "causal")):
    model = DenoiserModel(ModelConfig(vocab.size, task.seq_len, 2, 2, 16, attention), seed=0)
    evaluate_model(model, kind, task, vocab, instances, dcfg)
print(" ".join(sorted(tracer.fired())))
print(" ".join(sorted(worker.EXPECTED_SPANS["decode"])))
"""
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    fired, expected = (set(line.split()) for line in res.stdout.splitlines())
    spans = {s for s in expected if s.startswith(("autodiff.", "decoding.")) or s == "model.forward"}
    assert {"autodiff.embedding_lookup.fwd", "autodiff.layer_norm.fwd", "decoding.diffusion",
            "decoding.ar", "model.forward"} <= spans
    assert spans <= fired, sorted(spans - fired)


def test_cli_rejects_a_negative_limit(capsys):
    # a negative limit would slice the last instances off the data; the
    # checkpoint does not exist, so parsing must fail before it is loaded
    paths = ["--checkpoint", "missing", "--data", "missing"]
    for argv in (["eval", "--limit"], ["sample", "--n"],
                 ["analyze", "--what", "throughput", "--out", "missing.csv", "--limit"]):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv[:1] + paths + argv[1:] + ["-1"])
        assert exc.value.code == 2, argv
        assert "-1 is not in [0, inf]" in capsys.readouterr().err


def test_cli_list_flags_reject_a_bad_entry_before_any_work(tmp_path):
    # the checkpoint, data and config do not exist: parsing must fail first
    out = str(tmp_path / "out.csv")
    analyze = ["analyze", "--checkpoint", "missing", "--data", "missing",
               "--what", "throughput", "--out", out, "--grid"]
    sweep = ["sweep", "--mode", "data-scaling", "--config", "missing", "--out", out]
    for argv in (analyze + ["0,2"], analyze + ["1,x"], sweep + ["--pds", "9"],
                 sweep + ["--sizes", "0"]):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2, argv


def test_cli_sweep_threshold_must_be_a_fraction(tmp_path, capsys):
    # NaN or a value above 1 is never met and a negative one always is, so
    # the sweep would run for hours before the mistake shows; the config
    # does not exist, so parsing must fail first
    sweep = ["sweep", "--mode", "data-scaling", "--config", "missing",
             "--out", str(tmp_path / "out.csv"), "--threshold"]
    for value in ("nan", "1.5", "-0.1", "x"):
        with pytest.raises(SystemExit) as exc:
            cli_main(sweep + [value])
        assert exc.value.code == 2, value
    assert "is not in [0, 1]" in capsys.readouterr().err
    for value, want in (("0", 0.0), ("1", 1.0), ("0.9", 0.9)):
        assert build_parser().parse_args(sweep + [value]).threshold == want


def test_analyze_throughput_decodes_an_ar_checkpoint_with_ar_decode(
        ar_checkpoint, tmp_path, capsys, monkeypatch):
    import importlib
    evaluate_mod = importlib.import_module("absorb_diffuse.harness.evaluate")
    calls = {"ar_decode": 0, "diffusion_decode": 0}
    for name in calls:
        def counted(*a, _name=name, _real=getattr(evaluate_mod, name), **kw):
            calls[_name] += 1
            return _real(*a, **kw)
        monkeypatch.setattr(evaluate_mod, name, counted)
    # an untrained model solves nothing; this verifier's accuracy depends on the outputs
    def by_parity(inp, out):
        return Verdict(VALID if sum(map(ord, out)) % 2 else PLAN_ERROR)
    monkeypatch.setitem(TASKS, "countdown3",
                        dataclasses.replace(TASKS["countdown3"], verify=by_parity))
    ckpt, data = ar_checkpoint
    out_csv = str(tmp_path / "thr.csv")
    cli_main(["analyze", "--what", "throughput", "--checkpoint", ckpt, "--data", data,
              "--out", out_csv, "--grid", "1,2", "--seed", "5"])
    # one untimed warm-up pass, then one pass per grid row
    assert calls == {"ar_decode": 3, "diffusion_decode": 0}
    capsys.readouterr()
    # same seed and steps: the accuracy column is what eval reports
    cli_main(["eval", "--checkpoint", ckpt, "--data", data, "--seed", "5", "--steps", "2"])
    accuracy = capsys.readouterr().out.split()[1]
    last = pathlib.Path(out_csv).read_text().strip().splitlines()[-1].split(",")
    assert last[0] == "2" and f"{float(last[3]):.4f}" == accuracy
    assert 0 < float(accuracy) < 1
    with pytest.raises(SystemExit) as exc:
        cli_main(["analyze", "--what", "throughput", "--checkpoint", ckpt, "--data", data,
                  "--out", out_csv, "--repeats", "0"])
    assert exc.value.code == 2
    assert "--repeats: 0 is not in [1, inf]" in capsys.readouterr().err


def test_analyze_profile_refuses_an_ar_checkpoint(ar_checkpoint, tmp_path):
    ckpt, data = ar_checkpoint
    with pytest.raises(SystemExit, match="model_kind 'ar'"):
        cli_main(["analyze", "--what", "profile", "--checkpoint", ckpt, "--data", data,
                  "--out", str(tmp_path / "prof.csv")])
