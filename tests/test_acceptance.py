"""Acceptance criteria, one test per numbered gate.

Each test prints a PASS/FAIL line through conftest.record_criterion and then
asserts, so a plain pytest run reports every criterion verdict in one block.
Criteria 7-9 evaluate the trained desk checkpoints under runs/ (override with
ABSORB_DIFFUSE_RUNS); until those artifacts exist the criteria report FAIL.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from absorb_diffuse import autodiff as ad
from absorb_diffuse.data import Batch, pack_rows
from absorb_diffuse.decoding import DecodeConfig, diffusion_decode
from absorb_diffuse.diffusion import (
    CorruptedBatch,
    NoiseSchedule,
    ReweightConfig,
    diffusion_loss,
    draw_t,
    sample_xt,
    subgoal_loss_profile,
    token_weight,
)
from absorb_diffuse.harness.cli import main as cli_main
from absorb_diffuse.harness.config import ExperimentConfig
from absorb_diffuse.harness.evaluate import evaluate_model
from absorb_diffuse.harness.metrics import read_records, strip_wall_clock
from absorb_diffuse.harness.sweep import reweight_ablation
from absorb_diffuse.harness.train import load_model
from absorb_diffuse.model import NEG_INF, DenoiserModel, ModelConfig
from absorb_diffuse.tasks import get_task, read_instances, write_instances
from absorb_diffuse.tasks.registry import TASKS, encode_instances, segment_map
from absorb_diffuse.tasks.sat import clause_count

from conftest import record_criterion
from helpers import (check_gradient, elbo_exact, forward_marginal, kl_term, posterior,
                     reveals_per_step, zero_grads)
from test_tasks import (
    GOLD_CD3,
    GOLD_CD4,
    GOLD_CD5,
    GOLD_PLANNING,
    GOLD_SAT5,
    GOLD_SAT7,
    GOLD_SAT9,
    GOLD_SUDOKU,
)

REPO = Path(__file__).resolve().parents[1]
RUNS = Path(os.environ.get("ABSORB_DIFFUSE_RUNS", REPO / "runs"))
DATA = REPO / "data"


def _criterion(number, title, ok, detail=""):
    record_criterion(number, title, bool(ok), detail)
    assert ok, f"criterion {number} ({title}): {detail}"


# ---------------------------------------------------------------------------
# 1. diffusion math exactness


def _step_matrix(sched, s, vocab, mask_id):
    """Single forward step x_{s-1} -> x_s as a row-stochastic matrix."""
    m = np.zeros((vocab, vocab))
    keep = sched.alpha[s] / sched.alpha[s - 1] if sched.alpha[s - 1] > 0 else 0.0
    for j in range(vocab):
        if j == mask_id:
            m[j, j] = 1.0
        else:
            m[j, j] = keep
            m[j, mask_id] = 1.0 - keep
    return m


def test_criterion_1_diffusion_math_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(0)
    for vocab in (2, 3, 4, 5):
        mask_id = vocab - 1
        for T in range(1, 7):
            sched = NoiseSchedule.linear(T)
            chains = {0: np.eye(vocab)}
            for s in range(1, T + 1):
                chains[s] = chains[s - 1] @ _step_matrix(sched, s, vocab, mask_id)
            for t in range(1, T + 1):
                for x0 in range(vocab - 1):
                    want = np.zeros(vocab)
                    want[x0] = 1.0
                    want = want @ chains[t]
                    got = forward_marginal(sched, t, x0, vocab, mask_id)
                    worst = max(worst, float(np.abs(got - want).max()))

                    # Bayes: q(x_{t-1} = j | x_t, x_0) over both legal x_t
                    prev = np.zeros(vocab)
                    prev[x0] = 1.0
                    prev = prev @ chains[t - 1]
                    step = _step_matrix(sched, t, vocab, mask_id)
                    for xt in (x0, mask_id):
                        if want[xt] == 0.0:
                            continue
                        bayes = prev * step[:, xt] / want[xt]
                        got_p = posterior(sched, t, xt, x0, vocab, mask_id)
                        worst = max(worst, float(np.abs(got_p - bayes).max()))

                        f = rng.dirichlet(np.ones(vocab - 1))
                        if xt != mask_id:
                            # survived tokens pin both posteriors: zero KL
                            worst = max(worst, abs(kl_term(sched, t, x0, xt, f, mask_id)))
                            continue
                        # explicit categorical KL against the marginalized p
                        p = np.zeros(vocab)
                        for j in range(vocab - 1):
                            p += f[j] * posterior(sched, t, xt, j, vocab, mask_id)
                        q = bayes
                        ref = float(np.sum(q[q > 0] * np.log(q[q > 0] / p[q > 0])))
                        got_kl = kl_term(sched, t, x0, xt, f, mask_id)
                        worst = max(worst, abs(got_kl - ref))
            ts = np.arange(1, T + 1)
            tele = float(np.sum(sched.survival(ts) * (1 - sched.alpha[ts])))
            worst = max(worst, abs(tele - (1 - sched.alpha[T])))
    dt = time.perf_counter() - t0
    _criterion(1, "diffusion math matches enumeration oracles", worst < 1e-9 and dt < 10,
               f"max abs err {worst:.2e}, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 2. ELBO upper-bounds the exact NLL on the enumerable instance


class _TableModel:
    """Deterministic random logits per distinct canvas; content vocab of 2."""

    def __init__(self, seed):
        self.seed = seed
        self.cache = {}

    def forward(self, tokens, pad_mask=None, cache=None, queries_from=0):
        tokens = np.asarray(tokens)
        b, s = tokens.shape
        out = np.zeros((b, s, 2))
        for i in range(b):
            key = tokens[i].tobytes()
            if key not in self.cache:
                mix = np.random.default_rng(
                    [self.seed, *tokens[i].astype(np.int64)])
                self.cache[key] = mix.standard_normal((s, 2)) * 2.0
            out[i] = self.cache[key]
        return ad.constant(out[:, queries_from:], dtype=np.float64)


def test_criterion_2_elbo_soundness():
    t0 = time.perf_counter()
    sched = NoiseSchedule.linear(2)
    mask_id, pad_id = 2, 3
    gaps = []
    for seed in range(100):
        model = _TableModel(seed)
        g = seed % 2
        batch = Batch(
            tokens=np.array([[0, g]], dtype=np.int32),
            target_mask=np.array([[False, True]]),
            pad_mask=np.array([[True, True]]),
            cond_width=1,
        )
        nelbo = elbo_exact(model, batch, sched, mask_id)
        # exact NLL by enumerating every reverse chain: each factor evaluates
        # the net on the masked canvas, and content states carry over, so the
        # chain sum collapses to the model's masked-canvas probability of g
        masked = np.array([[0, mask_id]], dtype=np.int32)
        logits = model.forward(masked).value[0, 1]
        logp = logits - np.log(np.exp(logits - logits.max()).sum()) - logits.max()
        exact = -logp[g]
        gaps.append(nelbo - exact)
    gaps = np.array(gaps)
    dt = time.perf_counter() - t0
    _criterion(2, "NELBO upper-bounds exact reverse-chain NLL",
               bool((gaps >= -1e-7).all()) and dt < 10,
               f"min gap {gaps.min():.2e}, mean {gaps.mean():.2e}, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 3. gradient checks for every kernel and the composed denoiser


def test_criterion_3_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)

    probes = {}

    def reduce_scalar(node):
        n = int(np.prod(node.value.shape))
        if n not in probes:  # fixed per size so re-evaluations match
            probes[n] = np.random.default_rng(100 + n).standard_normal((n, 1))
        flat = ad.reshape(node, (1, n))
        return ad.reshape(ad.matmul(flat, ad.constant(probes[n])), ())

    x34 = rng.standard_normal((3, 4)).astype(np.float32)
    y34 = rng.standard_normal((3, 4)).astype(np.float32)
    y14 = rng.standard_normal((1, 4)).astype(np.float32)
    m45 = rng.standard_normal((4, 5)).astype(np.float32)
    b5 = rng.standard_normal(5).astype(np.float32)
    tbl = rng.standard_normal((6, 4)).astype(np.float32)
    gain = np.ones(4, dtype=np.float32) + 0.1 * rng.standard_normal(4).astype(np.float32)
    bias = 0.1 * rng.standard_normal(4).astype(np.float32)
    ids = np.array([1, 0, 5, 2])
    # an attention-style mask: forbidden keys get NEG_INF, every row keeps one
    mask34 = np.where([[1, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 0]], 0.0, NEG_INF).astype(np.float32)
    targets = np.array([0, 2, 1])
    weights = rng.random(3)

    kernels = {
        "add": ({"a": x34, "b": y14},
                lambda n: reduce_scalar(ad.add(n["a"], n["b"]))),
        "mul": ({"a": x34, "b": y34},
                lambda n: reduce_scalar(ad.mul(n["a"], n["b"]))),
        "scale": ({"a": x34},
                  lambda n: reduce_scalar(ad.scale(n["a"], 1.7))),
        "transpose": ({"a": x34},
                      lambda n: reduce_scalar(ad.transpose(n["a"], (1, 0)))),
        "reshape": ({"a": x34},
                    lambda n: reduce_scalar(ad.reshape(n["a"], (4, 3)))),
        "narrow": ({"a": x34},
                   lambda n: reduce_scalar(ad.narrow(n["a"], 1, 1, 2))),
        "concat": ({"a": x34, "b": y34},
                   lambda n: reduce_scalar(ad.concat([n["a"], n["b"]], 1))),
        "matmul": ({"a": x34, "b": m45},
                   lambda n: reduce_scalar(ad.matmul(n["a"], n["b"]))),
        "matmul+bias": ({"a": x34, "b": m45, "c": b5},
                        lambda n: reduce_scalar(ad.matmul(n["a"], n["b"], n["c"]))),
        "embedding_lookup": ({"t": tbl},
                             lambda n: reduce_scalar(ad.embedding_lookup(n["t"], ids))),
        "gelu": ({"a": x34},
                 lambda n: reduce_scalar(ad.gelu(n["a"]))),
        "layer_norm": ({"a": x34, "g": gain, "b": bias},
                       lambda n: reduce_scalar(ad.layer_norm(n["a"], n["g"], n["b"]))),
        "softmax": ({"a": x34},
                    lambda n: reduce_scalar(ad.softmax(n["a"], 0.0))),
        "softmax+bias": ({"a": x34},
                         lambda n: reduce_scalar(ad.softmax(n["a"], mask34))),
        "softmax_cross_entropy": (
            {"a": x34},
            lambda n: ad.softmax_cross_entropy(n["a"], targets, weights)),
        "softmax_focal_cross_entropy": (
            {"a": x34},
            lambda n: ad.softmax_focal_cross_entropy(n["a"], targets, weights, 0.5, 2.0)),
    }
    for name, (params, build) in kernels.items():
        check_gradient(build, params, tol=1e-3)

    # composed denoiser through the training loss, directional probes
    cfg = ModelConfig(vocab_size=9, max_seq_len=10, n_layers=2, n_heads=2,
                      hidden_dim=16, attention="bidirectional")
    model = DenoiserModel(cfg, seed=1)
    enc_in = [[0, 1], [2, 3]]
    enc_out = [[4, 5, 6], [6, 5, 4, 3]]
    batch = pack_rows(enc_in, enc_out, 3, 5, pad_id=8)
    sched = NoiseSchedule.linear(4)
    # beta = 0 keeps the token weights parameter-free, so finite differences
    # see the same function the backward pass differentiates
    rw = ReweightConfig(sequence_mode="original", token_alpha=1.0, token_beta=0.0)
    nrng = np.random.default_rng(5)
    cb = sample_xt(sched, batch, np.array([2, 3]), nrng, mask_id=7)

    def loss_at():
        loss, _ = diffusion_loss(model, cb, sched, rw)
        return loss

    loss = loss_at()
    zero_grads(model.params)
    loss.backward()
    worst = 0.0
    eps = 5e-4
    for name, p in model.params.items():
        direction = nrng.standard_normal(p.value.shape).astype(p.value.dtype)
        direction /= max(np.linalg.norm(direction), 1e-12)
        analytic = float((p.grad.astype(np.float64) * direction).sum())
        orig = p.value.copy()
        p.value = orig + eps * direction
        hi = float(loss_at().value)
        p.value = orig - eps * direction
        lo = float(loss_at().value)
        p.value = orig
        fd = (hi - lo) / (2 * eps)
        err = abs(analytic - fd) / max(abs(fd), 1e-2)
        worst = max(worst, err)
        assert err < 1e-3, f"composed gradient mismatch for {name}: {err:.2e}"
    dt = time.perf_counter() - t0
    _criterion(3, "kernel and composed-model gradients match finite differences",
               dt < 60, f"{len(kernels)} kernels + denoiser, worst dir err {worst:.1e}, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 4. loss family reduces to the plain weighted bound


def _mirrored_weighted_ce(model, cbatch, schedule):
    # independent rendering; reduction order mirrors the production kernel
    cw = cbatch.cond_width  # the kernel sums over the target columns only
    logits = model.forward(cbatch.tokens, cbatch.pad_mask).value[:, cw:]
    b, s, k = logits.shape
    flat = logits.reshape(b * s, k)
    z = (flat - flat.max(axis=-1, keepdims=True)).astype(np.float64)
    logsumexp = np.log(np.exp(z).sum(axis=-1))
    mask = cbatch.corrupted[:, cw:].reshape(-1)
    targ = np.where(mask, cbatch.x0[:, cw:].reshape(-1), 0)
    u = logsumexp - z[np.arange(b * s), targ]
    lam = schedule.survival(cbatch.t)
    w = np.where(mask, np.repeat(lam, s), 0.0) / mask.sum()
    return float((w * u).sum(dtype=np.float64))


def test_criterion_4_loss_family_reduction():
    cfg = ModelConfig(vocab_size=9, max_seq_len=12, n_layers=1, n_heads=2,
                      hidden_dim=12, attention="bidirectional")
    model = DenoiserModel(cfg, seed=2)
    enc_in = [[0, 1, 2]] * 6
    enc_out = [[3, 4, 5, 6, 0, 1]] * 6
    batch = pack_rows(enc_in, enc_out, 4, 8, pad_id=8)
    sched = NoiseSchedule.linear(6)
    rng = np.random.default_rng(11)
    cb = sample_xt(sched, batch, draw_t(sched, batch.size, rng), rng, mask_id=7)
    loss, _ = diffusion_loss(model, cb, sched,
                             ReweightConfig(sequence_mode="original",
                                            token_alpha=1.0, token_beta=0.0))
    want = _mirrored_weighted_ce(model, cb, sched)
    exact = float(loss.value) == want

    prop = True
    prng = np.random.default_rng(12)
    for _ in range(10_000):
        alpha = float(prng.random() * 2 + 1e-3)
        beta = float(prng.random() * 3)
        u = np.sort(prng.random(6) * 8)
        v = token_weight(u, alpha, beta)
        prop &= bool((v >= 0).all() and (v <= alpha + 1e-15).all()
                     and (np.diff(v) >= -1e-12).all())
    _criterion(4, "reweighted loss reduces to the plain bound bit-for-bit",
               exact and prop,
               f"loss {float(loss.value):.12f} == oracle, v-weight bounded+monotone over 1e4 draws")


# ---------------------------------------------------------------------------
# 5. decoder contract under an oracle denoiser


class _OracleDenoiser:
    def __init__(self, truth, content):
        self.truth = truth  # [B, S] int, correct token at every position
        self.content = content
        self.canvases = []

    def forward(self, tokens, pad_mask=None, cache=None, queries_from=0):
        self.canvases.append(np.array(tokens))  # a copy: the decoder writes its canvas
        b, s = np.asarray(tokens).shape
        logits = np.zeros((b, s, self.content))
        rows = np.arange(b)[:, None], np.arange(s)[None, :], self.truth
        logits[rows] = 9.0
        return ad.constant(logits[:, queries_from:], dtype=np.float64)


def test_criterion_5_decoder_contract():
    content, mask_id, pad_id = 7, 7, 8
    enc_in = [[0, 1]] * 4
    outs = [[(i + j) % content for j in range(n)] for i, n in enumerate((12, 9, 5, 1))]
    batch = pack_rows(enc_in, outs, 2, 12, pad_id=pad_id)
    truth = np.where(batch.tokens < content, batch.tokens, 0)  # specials never scored
    model = _OracleDenoiser(truth, content)
    lengths = batch.target_lengths()

    ok = True
    details = []
    for steps in (1, 6, 12):
        model.canvases = []
        got = diffusion_decode(model, batch, DecodeConfig(steps=steps, seed=0),
                               mask_id, pad_id, np.random.default_rng(0))
        trace = reveals_per_step(model.canvases, got, batch, mask_id)
        for i, out in enumerate(outs):
            ok &= list(got[i][:lengths[i]]) == out
            ok &= not (got[i] == mask_id).any()
            ok &= (got[i][lengths[i]:] == pad_id).all()
        for s, chosen in enumerate(trace, start=1):
            want = np.ceil(s * lengths / steps).astype(int)
            ok &= (chosen.sum(axis=1) == want).all()
        details.append(f"T={steps} ok")
    _criterion(5, "oracle decode recovers truth with exact reveal schedule",
               ok, ", ".join(details))


# ---------------------------------------------------------------------------
# 6. task-suite soundness


def test_criterion_6_task_suite_soundness():
    golds = {
        "planning": GOLD_PLANNING, "countdown3": GOLD_CD3, "countdown4": GOLD_CD4,
        "countdown5": GOLD_CD5, "sudoku": GOLD_SUDOKU, "sat5": GOLD_SAT5,
        "sat7": GOLD_SAT7, "sat9": GOLD_SAT9,
    }
    ok = all(TASKS[name].verify(*pair).ok for name, pair in golds.items())

    sizes = {"planning": 60, "countdown3": 60, "countdown4": 40, "countdown5": 24,
             "sudoku": 12, "sat5": 12, "sat7": 12, "sat9": 12}
    n_checked = 0
    for name, task in TASKS.items():
        tr, te = task.generate(sizes[name], max(sizes[name] // 4, 4), seed=97)
        for inst in tr + te:
            ok &= task.verify(inst.input_text, inst.output_text).ok
            n_checked += 1

    ok &= clause_count(5) == 41 and clause_count(7) == 46 and clause_count(9) == 52

    tr, te = TASKS["countdown3"].generate(200, 50, seed=31)
    tr_targets = {int(i.input_text.rsplit(",", 1)[1]) for i in tr}
    te_targets = {int(i.input_text.rsplit(",", 1)[1]) for i in te}
    ok &= not (tr_targets & te_targets)

    ok &= len(GOLD_CD3[0]) == 11 and len(GOLD_SUDOKU[0]) == 81 and len(GOLD_SUDOKU[1]) == 81
    _criterion(6, "verifiers accept all golden and generated instances",
               ok, f"8 golden pairs, {n_checked} generated instances, "
                   f"clause counts 41/46/52, held-out targets disjoint")


# ---------------------------------------------------------------------------
# 7. desk-scale subgoal-imbalance reproduction


def test_criterion_7_desk_scale_reproduction():
    diff_ckpt = RUNS / "planning_diffusion" / "checkpoint"
    ar_ckpt = RUNS / "planning_ar" / "checkpoint"
    eval_path = DATA / "planning_eval.tsv"
    train_path = DATA / "planning_train.tsv"
    missing = [str(p) for p in (diff_ckpt, ar_ckpt, eval_path, train_path)
               if not p.exists()]
    if missing:
        _criterion(7, "desk-scale planning gates", False, f"missing {missing}")

    task = get_task("planning")
    instances = read_instances(str(eval_path))
    n_train = len(read_instances(str(train_path)))

    diff_model, vocab, diff_cfg = load_model(str(diff_ckpt))
    ar_model, _, ar_cfg = load_model(str(ar_ckpt))
    n_params = {
        kind: sum(int(np.prod(p.value.shape)) for p in m.params.values())
        for kind, m in (("diffusion", diff_model), ("ar", ar_model))
    }

    diff_res = evaluate_model(diff_model, "diffusion", task, vocab, instances,
                              diff_cfg.decode_config())
    ar_res = evaluate_model(ar_model, "ar", task, vocab, instances,
                            ar_cfg.decode_config())

    dpd = {k: diff_res.per_pd.get(k, 0.0) for k in ("0", "1", "2", "3")}
    apd = {k: ar_res.per_pd.get(k, 0.0) for k in ("0", "1", "2", "3")}
    ar_easy = apd["0"] >= 0.95 and apd["1"] >= 0.95
    ar_hard = apd["2"] <= 0.60 and apd["3"] <= 0.60
    diff_all = all(dpd[k] >= 0.90 for k in dpd)
    budget = max(n_params.values()) <= 1_000_000 and n_train <= 20_000

    detail = (f"AR pd0-3 {apd['0']:.2f}/{apd['1']:.2f}/{apd['2']:.2f}/{apd['3']:.2f}, "
              f"diffusion {dpd['0']:.2f}/{dpd['1']:.2f}/{dpd['2']:.2f}/{dpd['3']:.2f}, "
              f"params {n_params['diffusion']/1e3:.0f}k/{n_params['ar']/1e3:.0f}k, "
              f"{n_train} train instances")
    _criterion(7, "desk-scale planning gates",
               ar_easy and ar_hard and diff_all and budget, detail)


# ---------------------------------------------------------------------------
# 8. ablation grid runs end-to-end; loss profile rises with noise


def test_criterion_8_ablation_machinery(tmp_path):
    task = get_task("countdown3")
    tr, te = task.generate(1024, 24, seed=55)
    train_p = str(tmp_path / "cd3_train.tsv")
    eval_p = str(tmp_path / "cd3_eval.tsv")
    write_instances(train_p, tr)
    write_instances(eval_p, te)
    base = ExperimentConfig(
        task="countdown3", out_dir=str(tmp_path / "grid"),
        train_path=train_p, eval_path=eval_p,
        model_kind="diffusion", seed=9,
        n_layers=1, n_heads=4, hidden_dim=48,
        schedule_T=10, lr=2e-3, warmup_steps=20, batch_size=64,
        train_steps=150, log_every=50, eval_every=0, eval_limit=24,
        decode_steps=5,
    )
    out_csv = str(tmp_path / "ablation.csv")
    rows = reweight_ablation(base, out_csv, log=lambda *_: None)
    grid_ok = (len(rows) == 12
               and all(np.isfinite(r["loss"]) for r in rows)
               and all(r["accuracy"] is not None for r in rows)
               and os.path.exists(out_csv))
    cells = {(r["sequence_mode"], r["token_alpha"], r["token_beta"]) for r in rows}
    grid_ok &= len(cells) == 12

    diff_ckpt = RUNS / "planning_diffusion" / "checkpoint"
    if not diff_ckpt.exists():
        _criterion(8, "ablation grid + loss profile", False,
                   f"grid ok={grid_ok}; missing {diff_ckpt}")
    model, vocab, cfg = load_model(str(diff_ckpt))
    ptask = get_task("planning")
    insts = read_instances(str(DATA / "planning_eval.tsv"))[:256]
    batch = encode_instances(ptask, insts, vocab)
    sched = NoiseSchedule.linear(cfg.schedule_T)
    prof = subgoal_loss_profile(model, batch, sched, vocab.mask_id, np.random.default_rng(17),
                                segment_map(ptask, batch, insts), n_samples=6)
    mono = bool((np.diff(prof["mean_u"]) >= -1e-9).all())
    _criterion(8, "ablation grid + loss profile",
               grid_ok and mono,
               f"12-cell table at {out_csv}, mean u {prof['mean_u'][0]:.3f}->"
               f"{prof['mean_u'][-1]:.3f} nondecreasing in t: {mono}")


# ---------------------------------------------------------------------------
# 9. throughput falls with refinement steps


def test_criterion_9_throughput_probe():
    diff_ckpt = RUNS / "planning_diffusion" / "checkpoint"
    task = get_task("planning")
    if diff_ckpt.exists():
        model, vocab, _ = load_model(str(diff_ckpt))
        src = "trained checkpoint"
    else:
        vocab = task.vocabulary()
        model = DenoiserModel(ModelConfig(
            vocab_size=vocab.size, max_seq_len=task.seq_len, n_layers=2,
            n_heads=4, hidden_dim=96, attention="bidirectional"), seed=0)
        src = "fresh desk-size model"
    tr, _ = task.generate(64, 4, seed=23)
    configs = [DecodeConfig(steps=steps, seed=0) for steps in (1, 5, 20)]
    repeats, seconds = 2, [0.0] * len(configs)
    # untimed warm-up: a process's first decode runs cold, which would slow T=1
    evaluate_model(model, "diffusion", task, vocab, tr, configs[0])
    for _ in range(repeats):  # interleaved, so machine drift reaches every step count alike
        for i, dc in enumerate(configs):
            t0 = time.perf_counter()
            evaluate_model(model, "diffusion", task, vocab, tr, dc)
            seconds[i] += time.perf_counter() - t0
    sps = [repeats * len(tr) / s for s in seconds]
    decreasing = sps[0] > sps[1] > sps[2]
    speedup = sps[0] / sps[2]
    _criterion(9, "decode throughput scales with step count",
               decreasing and speedup >= 5.0,
               f"{src}: {sps[0]:.1f}/{sps[1]:.1f}/{sps[2]:.1f} samples/s "
               f"at T=1/5/20, T1/T20 = {speedup:.1f}x")


# ---------------------------------------------------------------------------
# 10. byte-reproducible pipeline


def _pipeline(root: Path, seed: int):
    gen = root / "data"
    rc = cli_main(["generate", "--task", "countdown3", "--out-dir", str(gen),
                   "--n-train", "96", "--n-test", "16", "--seed", "11"])
    assert rc == 0
    cfg = ExperimentConfig(
        task="countdown3", out_dir=str(root / "run"),
        train_path=str(gen / "countdown3_train.tsv"),
        eval_path=str(gen / "countdown3_test.tsv"),
        model_kind="diffusion", seed=seed,
        n_layers=1, n_heads=2, hidden_dim=32,
        schedule_T=5, lr=2e-3, warmup_steps=10, batch_size=32,
        train_steps=40, log_every=10, eval_every=20, eval_limit=8,
        decode_steps=3,
    )
    cfg_p = root / "cfg.json"
    cfg_p.write_text(json.dumps(cfg.to_dict()))
    assert cli_main(["train", "--config", str(cfg_p)]) == 0
    ckpt = str(root / "run" / "checkpoint")
    assert cli_main(["eval", "--checkpoint", ckpt,
                     "--data", cfg.eval_path, "--steps", "3",
                     "--metrics-out", str(root / "eval.jsonl")]) == 0
    assert cli_main(["analyze", "--what", "taxonomy", "--checkpoint", ckpt,
                     "--data", cfg.eval_path, "--steps", "3",
                     "--out", str(root / "tax.csv")]) == 0

    model, vocab, _ = load_model(ckpt)
    task = get_task("countdown3")
    res = evaluate_model(model, "diffusion", task, vocab,
                         read_instances(cfg.eval_path), cfg.decode_config())
    return {
        "train_metrics": strip_wall_clock(read_records(str(root / "run" / "metrics.jsonl"))),
        "eval_metrics": strip_wall_clock(read_records(str(root / "eval.jsonl"))),
        "taxonomy": (root / "tax.csv").read_bytes(),
        "outputs": res.outputs,
    }


def test_criterion_10_reproducibility(tmp_path, capsys):
    a = _pipeline(tmp_path / "a", seed=7)
    b = _pipeline(tmp_path / "b", seed=7)
    capsys.readouterr()
    same = (json.dumps(a["train_metrics"], sort_keys=True) == json.dumps(b["train_metrics"], sort_keys=True)
            and json.dumps(a["eval_metrics"], sort_keys=True) == json.dumps(b["eval_metrics"], sort_keys=True)
            and a["taxonomy"] == b["taxonomy"]
            and a["outputs"] == b["outputs"])
    _criterion(10, "same-seed pipeline is byte-identical modulo wall clock",
               same, f"{len(a['train_metrics'])} metric records, "
                     f"{len(a['outputs'])} decoded outputs compared")
