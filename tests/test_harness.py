"""Experiment harness: config, metrics, evaluation, training loop, CLI."""

import json
import os

import numpy as np
import pytest

from absorb_diffuse import autodiff as ad
from absorb_diffuse.checkpoint import load_checkpoint
from absorb_diffuse.decoding import DecodeConfig
from absorb_diffuse.harness.cli import main as cli_main
from absorb_diffuse.harness.config import (
    THREADS_ENV,
    ExperimentConfig,
    resolve_threads,
)
from absorb_diffuse.harness.evaluate import evaluate_model
from absorb_diffuse.harness.metrics import (
    MetricsRecord,
    append_record,
    metrics_schema,
    read_records,
    strip_wall_clock,
    validate_record,
)
from absorb_diffuse.harness.sweep import reweight_ablation
from absorb_diffuse.harness.taxonomy import error_taxonomy, taxonomy_csv
from absorb_diffuse.harness.train import TrainingDiverged, load_model, train
from absorb_diffuse.tasks import get_task
from absorb_diffuse.tasks.base import (
    CALC_ERROR,
    PLAN_ERROR,
    VALID,
    TaskInstance,
    Verdict,
    write_instances,
)
from absorb_diffuse.tasks.planning import find_pd, gen_planning
from absorb_diffuse.tasks.registry import encode_instances


# ---------------------------------------------------------------------------
# configuration


def test_config_roundtrip(tmp_path):
    cfg = ExperimentConfig(task="planning", out_dir="/tmp/x", lr=2e-3,
                           sequence_mode="linear", token_beta=1.0)
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    p = str(tmp_path / "cfg.json")
    cfg.to_json(p)
    assert ExperimentConfig.from_json(p) == cfg


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown config fields"):
        ExperimentConfig.from_dict({"task": "planning", "out_dir": "x", "nope": 1})


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
])
def test_config_validation(kw):
    base = dict(task="planning", out_dir="/tmp/x")
    base.update(kw)
    with pytest.raises(ValueError):
        ExperimentConfig(**base)


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


# ---------------------------------------------------------------------------
# metrics


def test_metrics_append_and_read(tmp_path):
    path = str(tmp_path / "m.jsonl")
    append_record(path, MetricsRecord(kind="train_step", step=1, task="planning",
                                      model_kind="diffusion", seed=0, loss=1.5))
    append_record(path, MetricsRecord(kind="eval", step=2, task="planning",
                                      model_kind="diffusion", seed=0, accuracy=0.5,
                                      per_pd={"0": 0.5}, n_eval=10, wall_time=0.1))
    recs = read_records(path)
    assert [r["kind"] for r in recs] == ["train_step", "eval"]
    assert recs[1]["per_pd"] == {"0": 0.5}


def test_read_records_rejects_malformed_record(tmp_path):
    path = str(tmp_path / "m.jsonl")
    append_record(path, MetricsRecord(kind="train_step", step=1, task="planning",
                                      model_kind="diffusion", seed=0, loss=1.5))
    with open(path, "a") as f:
        f.write(json.dumps({"kind": "eval", "step": "two", "task": "planning",
                            "model_kind": "diffusion", "seed": 0}) + "\n")
    with pytest.raises(ValueError, match=r"m\.jsonl:2"):
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


def test_metrics_schema_shape():
    schema = metrics_schema()
    assert schema["type"] == "object"
    assert "kind" in schema["required"]


def test_strip_wall_clock():
    rows = [{"kind": "eval", "wall_time": 1.0, "samples_per_sec": 2.0, "step": 1}]
    out = strip_wall_clock(rows)
    assert out == [{"kind": "eval", "step": 1}]
    assert "wall_time" in rows[0]  # input untouched


# ---------------------------------------------------------------------------
# evaluation with lookup oracles


class LookupOracle:
    """Scores the true canvas for any batch row, keyed by its condition."""

    def __init__(self, task, instances, vocab, causal=False, p=0.999):
        batch = encode_instances(task, instances, vocab)
        self.w = batch.cond_width
        self.truth = {batch.tokens[i, :self.w].tobytes(): batch.tokens[i]
                      for i in range(batch.size)}
        self.k = vocab.content_size
        self.p = p
        self.config = type("C", (), {"attention": "causal" if causal else "bidirectional"})()
        self.causal = causal

    def forward(self, tokens, pad_mask=None):
        b, s = tokens.shape
        logits = np.full((b, s, self.k), np.log((1 - self.p) / (self.k - 1)))
        for i in range(b):
            row = self.truth[tokens[i, :self.w].tobytes()]
            for pos in range(s):
                if self.causal and pos + 1 >= s:
                    continue
                want = row[pos + 1] if self.causal else row[pos]
                if want < self.k:
                    logits[i, pos, want] = np.log(self.p)
        return ad.constant(logits, dtype=np.float64)


@pytest.fixture(scope="module")
def planning_eval_set():
    task = get_task("planning")
    insts = []
    for pd in (0, 1, 2):
        for inst in gen_planning(4, pd, seed=21):
            # drop meta to exercise the distance-recovery fallback
            insts.append(TaskInstance(inst.input_text, inst.output_text))
    return task, insts


def test_evaluate_oracle_reaches_full_accuracy(planning_eval_set):
    task, insts = planning_eval_set
    vocab = task.vocabulary()
    model = LookupOracle(task, insts, vocab)
    res = evaluate_model(model, "diffusion", task, vocab, insts,
                         DecodeConfig(steps=5, seed=0), threads=1)
    assert res.accuracy == 1.0
    assert res.n == len(insts)
    assert set(res.per_pd) == {"0", "1", "2"}
    assert all(v == 1.0 for v in res.per_pd.values())
    assert all(v.ok for v in res.verdicts)


def test_evaluate_chunking_is_worker_invariant(planning_eval_set):
    task, insts = planning_eval_set
    vocab = task.vocabulary()
    model = LookupOracle(task, insts, vocab, p=0.7)  # noisy: outputs vary
    cfg = DecodeConfig(steps=5, seed=3)
    a = evaluate_model(model, "diffusion", task, vocab, insts, cfg, threads=1, chunk=5)
    b = evaluate_model(model, "diffusion", task, vocab, insts, cfg, threads=4, chunk=5)
    assert a.outputs == b.outputs
    assert a.accuracy == b.accuracy


def test_evaluate_ar_path(planning_eval_set):
    task, insts = planning_eval_set
    vocab = task.vocabulary()
    model = LookupOracle(task, insts, vocab, causal=True)
    res = evaluate_model(model, "ar", task, vocab, insts,
                         DecodeConfig(steps=1, temperature=0.1, seed=0), threads=1)
    assert res.accuracy == 1.0


def test_evaluate_rejects_empty():
    task = get_task("planning")
    with pytest.raises(ValueError):
        evaluate_model(None, "diffusion", task, task.vocabulary(), [],
                       DecodeConfig(steps=1))


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


def test_taxonomy_csv(tmp_path):
    rows = error_taxonomy([Verdict(VALID), Verdict(PLAN_ERROR, step=1)])
    path = str(tmp_path / "tax.csv")
    taxonomy_csv(rows, path)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "kind,step,count,rate"
    assert len(lines) == 3


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


def test_resume_is_bit_identical(tmp_path):
    one = _tiny_cfg(tmp_path, out_dir=str(tmp_path / "one"), train_steps=12,
                    eval_path="", eval_every=0)
    res_one = train(one)

    two_a = _tiny_cfg(tmp_path, out_dir=str(tmp_path / "two"), train_steps=6,
                      eval_path="", eval_every=0)
    train(two_a)
    two_b = two_a.replace(train_steps=12)
    res_two = train(two_b, resume_from=os.path.join(two_a.out_dir, "checkpoint"))

    a = load_checkpoint(res_one.checkpoint_dir)
    b = load_checkpoint(res_two.checkpoint_dir)
    assert set(a.params) == set(b.params)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name], b.params[name], err_msg=name)
    assert a.optimizer_state["t"] == b.optimizer_state["t"]
    assert res_one.final_loss == res_two.final_loss


def test_train_divergence_abort(tmp_path, monkeypatch):
    import importlib
    train_mod = importlib.import_module("absorb_diffuse.harness.train")
    real = train_mod.diffusion_loss
    calls = {"n": 0}

    def tripwire(*a, **kw):
        loss, report = real(*a, **kw)
        calls["n"] += 1
        if calls["n"] >= 3:
            loss = ad.constant(np.asarray(float("nan")))
        return loss, report

    monkeypatch.setattr(train_mod, "diffusion_loss", tripwire)
    cfg = _tiny_cfg(tmp_path, train_steps=40, eval_path="", eval_every=0)
    with pytest.raises(TrainingDiverged):
        train(cfg)
    snap = os.path.join(cfg.out_dir, "diverged")
    assert os.path.isdir(snap)
    ctx = json.load(open(os.path.join(snap, "context.json")))
    assert ctx["step"] == 2
    assert len(ctx["batch_indices"]) == cfg.batch_size
    loaded = load_checkpoint(snap)
    assert loaded.step == 2


def test_train_rejects_empty_dataset(tmp_path):
    p = tmp_path / "empty.tsv"
    p.write_text("")
    cfg = ExperimentConfig(task="countdown3", out_dir=str(tmp_path / "r"),
                           train_path=str(p), train_steps=1)
    with pytest.raises(ValueError, match="empty training set"):
        train(cfg)


# ---------------------------------------------------------------------------
# sweeps


def test_reweight_ablation_smoke(tmp_path):
    base = _tiny_cfg(tmp_path, train_steps=4, log_every=2, eval_path="",
                     out_dir=str(tmp_path / "grid"))
    out_csv = str(tmp_path / "grid.csv")
    rows = reweight_ablation(base, out_csv, sequence_modes=("none",),
                             token_settings=((1.0, 0.0), (1.0, 1.0)),
                             log=lambda *a: None)
    assert len(rows) == 2
    assert {(r["sequence_mode"], r["token_beta"]) for r in rows} == {("none", 0.0), ("none", 1.0)}
    lines = open(out_csv).read().strip().splitlines()
    assert lines[0] == "sequence_mode,token_alpha,token_beta,accuracy,loss"
    assert len(lines) == 3


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


def test_cli_train_eval_sample_analyze(tmp_path, capsys):
    cfg = _tiny_cfg(tmp_path, train_steps=4, log_every=2)
    cfg_path = str(tmp_path / "cfg.json")
    cfg.to_json(cfg_path)

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
    assert open(tax_csv).readline().startswith("kind,step")

    prof_csv = str(tmp_path / "prof.csv")
    rc = cli_main(["analyze", "--what", "profile", "--checkpoint", ckpt,
                   "--data", cfg.eval_path, "--out", prof_csv, "--limit", "4"])
    assert rc == 0
    capsys.readouterr()
    header = open(prof_csv).readline().strip().split(",")
    assert header[:2] == ["t", "mean_u"]

    thr_csv = str(tmp_path / "thr.csv")
    rc = cli_main(["analyze", "--what", "throughput", "--checkpoint", ckpt,
                   "--data", cfg.eval_path, "--out", thr_csv, "--limit", "4",
                   "--grid", "1,2"])
    assert rc == 0
    capsys.readouterr()
    lines = open(thr_csv).read().strip().splitlines()
    assert lines[0] == "steps,seconds,samples_per_sec,accuracy"
    assert len(lines) == 3
