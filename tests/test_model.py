"""Transformer denoiser: shapes, masking semantics, training signal, checkpoints."""

import dataclasses
import hashlib
import json
import os
import weakref

import numpy as np
import pytest

from absorb_diffuse import autodiff as ad
from absorb_diffuse import model as model_mod
from absorb_diffuse.checkpoint import load_checkpoint, save_checkpoint
from absorb_diffuse.data import Batch
from absorb_diffuse.diffusion import NoiseSchedule, ReweightConfig, diffusion_loss, draw_t, sample_xt
from absorb_diffuse.harness.config import ExperimentConfig
from absorb_diffuse.model import (
    ModelConfig,
    DenoiserModel,
    ar_nll,
)
from absorb_diffuse.tasks import encode_instances, get_task

from helpers import pack_rows, traced_peak, zero_grads

RNG = np.random.default_rng(99)


def tiny_config(attention="bidirectional", vocab=11, seq=12):
    return ModelConfig(vocab_size=vocab, max_seq_len=seq, n_layers=2,
                       n_heads=2, hidden_dim=16, attention=attention)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=11, max_seq_len=8, n_layers=1, n_heads=3,
                    hidden_dim=16, attention="bidirectional")  # 16 % 3 != 0
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=2, max_seq_len=8, n_layers=1, n_heads=2,
                    hidden_dim=16, attention="bidirectional")  # no content tokens
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=11, max_seq_len=8, n_layers=1, n_heads=2,
                    hidden_dim=16, attention="diagonal")
    cfg = tiny_config()
    assert cfg.head_dim == 8
    assert cfg.content_vocab == 9


def test_config_dict_roundtrip():
    cfg = tiny_config("causal")
    # as a checkpoint manifest stores it
    again = ModelConfig(**json.loads(json.dumps(dataclasses.asdict(cfg))))
    assert again == cfg


def test_forward_shapes_and_head_excludes_specials():
    cfg = tiny_config()
    model = DenoiserModel(cfg, seed=1)
    tokens = RNG.integers(0, cfg.vocab_size, size=(3, cfg.max_seq_len)).astype(np.int32)
    logits = model.forward(tokens)
    assert logits.value.shape == (3, cfg.max_seq_len, cfg.content_vocab)


def test_causal_model_ignores_future_tokens():
    # at every cut, and at left-pad positions too, no position sees a later token
    cfg = tiny_config("causal")
    model = DenoiserModel(cfg, seed=2)
    n = cfg.max_seq_len
    a = RNG.integers(0, cfg.content_vocab, size=(3, n)).astype(np.int32)
    pad_mask = np.ones((3, n), dtype=bool)
    pad_mask[1, :3] = False
    pad_mask[2, :7] = False
    la = model.forward(a, pad_mask).value
    for j in range(1, n):
        b = a.copy()
        b[:, j:] = (b[:, j:] + 1) % cfg.content_vocab  # only positions >= j differ
        lb = model.forward(b, pad_mask).value
        np.testing.assert_allclose(la[:, :j], lb[:, :j], rtol=0, atol=1e-6, err_msg=f"cut {j}")
        assert not np.allclose(la[0, j:], lb[0, j:], atol=1e-6)


@pytest.mark.parametrize("dtype, atol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_kv_cache_logits_match_full_forward(dtype, atol):
    cfg = tiny_config("causal")
    with ad.using_dtype(dtype):
        model = DenoiserModel(cfg, seed=4)
    pad_id = cfg.vocab_size - 1
    # different left padding in the condition and different target lengths
    conds = [[1, 2, 3, 4], [5, 6], [7]]
    outs = [[1, 2, 3, 4, 5, 6, 7, 8], [3, 1, 4, 1, 5], [2, 7, 1]]
    batch = pack_rows(conds, outs, 4, 8, pad_id)
    full = model.forward(batch.tokens, batch.pad_mask).value

    cache = {}
    pieces = [model.forward(batch.tokens[:, :n], batch.pad_mask[:, :n], cache=cache).value
              for n in (4, 6, *range(7, cfg.max_seq_len + 1))]
    assert [piece.shape[1] for piece in pieces] == [4, 2] + [1] * 6
    assert sorted(cache) == list(range(cfg.n_layers))
    assert cache[0][0].shape == (3, cfg.n_heads, cfg.max_seq_len, cfg.head_dim)
    inc = np.concatenate(pieces, axis=1)
    assert inc.dtype == full.dtype == dtype
    np.testing.assert_allclose(inc, full, rtol=0, atol=atol)


def _padded_batch(cfg, cond=5):
    # left-padded conditions, targets of several lengths, a row with one target token
    pad_id = cfg.vocab_size - 1
    conds = [[1, 2, 3, 4, 5], [6, 7], [8], [2, 4, 6]]
    outs = [[1, 2, 3, 4, 5, 6, 7], [3, 1, 4], [2], [5, 5, 5, 5, 5, 5]]
    return pack_rows(conds, outs, cond, cfg.max_seq_len - cond, pad_id)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("attention", ["bidirectional", "causal"])
def test_queries_from_logits_equal_full_forward_bitwise(attention, dtype):
    cfg = tiny_config(attention)
    with ad.using_dtype(dtype):
        model = DenoiserModel(cfg, seed=14)
    batch = _padded_batch(cfg)
    full = model.forward(batch.tokens, batch.pad_mask).value
    w = batch.cond_width
    # the diffusion loss and decoder start at the target, ar_nll one slot before
    for q0 in (w, w - 1, 1, cfg.max_seq_len - 2):
        part = model.forward(batch.tokens, batch.pad_mask, queries_from=q0).value
        assert part.dtype == full.dtype == dtype
        assert part.shape == (batch.size, cfg.max_seq_len - q0, cfg.content_vocab)
        np.testing.assert_array_equal(part, full[:, q0:], err_msg=f"queries_from {q0}")


@pytest.mark.parametrize("dtype, atol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_queries_from_with_kv_cache_matches_full_forward(dtype, atol):
    cfg = tiny_config("causal")
    with ad.using_dtype(dtype):
        model = DenoiserModel(cfg, seed=15)
    batch = _padded_batch(cfg)
    tokens, pad_mask, w = batch.tokens, batch.pad_mask, batch.cond_width
    full = model.forward(tokens, pad_mask).value

    # as in ar_decode: each call, the prefill too, runs only its last query
    cache, plain = {}, {}
    model.forward(tokens[:, :w], pad_mask[:, :w], cache=plain)
    rows = []
    for n in range(w, cfg.max_seq_len + 1):
        rows.append(model.forward(tokens[:, :n], pad_mask[:, :n], cache=cache,
                                  queries_from=n - 1).value)
        if n == w:  # keys and values still cover every position of the prefix
            for i in range(cfg.n_layers):
                np.testing.assert_array_equal(cache[i][0], plain[i][0])
                np.testing.assert_array_equal(cache[i][1], plain[i][1])
    assert [r.shape[1] for r in rows] == [1] * len(rows)
    np.testing.assert_allclose(np.concatenate(rows, axis=1), full[:, w - 1:],
                               rtol=0, atol=atol)

    # a cached call that keeps several queries matches the cached call without
    # queries_from bit for bit
    n = cfg.max_seq_len
    with_q = model.forward(tokens, pad_mask, cache=dict(plain), queries_from=w + 2).value
    without = model.forward(tokens, pad_mask, cache=dict(plain)).value
    assert with_q.shape[1] == n - w - 2
    np.testing.assert_array_equal(with_q, without[:, 2:])


@pytest.mark.parametrize("attention", ["bidirectional", "causal"])
def test_queries_from_gradients_match_the_full_forward(attention):
    cfg = tiny_config(attention)
    with ad.using_dtype(np.float64):
        model = DenoiserModel(cfg, seed=16)
    batch = _padded_batch(cfg)
    q0 = batch.cond_width - (attention == "causal")
    n = batch.size * (cfg.max_seq_len - q0)
    targets = RNG.integers(0, cfg.content_vocab, size=n)
    weights = RNG.random(n)

    def grads(logits):
        flat = ad.reshape(logits, (n, cfg.content_vocab))
        zero_grads(model.params)
        ad.softmax_cross_entropy(flat, targets, weights).backward()
        return {k: p.grad for k, p in model.params.items()}

    full = model.forward(batch.tokens, batch.pad_mask)
    want = grads(ad.narrow(full, 1, q0, cfg.max_seq_len - q0))
    got = grads(model.forward(batch.tokens, batch.pad_mask, queries_from=q0))
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=1e-9, atol=1e-15, err_msg=name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("attention", ["bidirectional", "causal"])
def test_no_grad_forward_is_bit_identical(attention, dtype):
    # desk shape: a 72-token canvas, 2 layers, d=96, 4 heads
    cfg = ModelConfig(vocab_size=17, max_seq_len=72, n_layers=2, n_heads=4,
                      hidden_dim=96, attention=attention)
    with ad.using_dtype(dtype):
        model = DenoiserModel(cfg, seed=18)
    batch = _padded_batch(cfg, cond=49)
    tokens, pad_mask, w = batch.tokens, batch.pad_mask, batch.cond_width

    def forwards():
        out = [model.forward(tokens, pad_mask).value,
               model.forward(tokens, pad_mask, queries_from=w).value]
        if attention == "causal":
            cache = {}
            model.forward(tokens[:, :w], pad_mask[:, :w], cache=cache)
            out.append(model.forward(tokens, pad_mask, cache=cache, queries_from=w + 3).value)
            out.extend(cache[i][j] for i in range(cfg.n_layers) for j in (0, 1))
        return out

    want = forwards()
    with ad.no_grad():
        got = forwards()
    assert len(got) == len(want)
    for g, x in zip(got, want):
        assert g.dtype == x.dtype == dtype
        np.testing.assert_array_equal(g, x)


@pytest.mark.parametrize("attention, want", [
    ("bidirectional", "f4908aea249fe9285d88a60ce747b7feaf50b6d33899c21e3e0c366d89306045"),
    ("causal", "6997dd53023cbb64640a20ebafd2586d79c32185cf6e5cea6d1e8d0f58ccaef2"),
])
def test_forward_logit_bits_are_pinned(attention, want):
    # sha256 of the float32 logits of a full and a queries_from forward, the
    # same recording and under no_grad(): a change to the forward's
    # arithmetic shows here, across commits (with numpy's bundled OpenBLAS)
    cfg = tiny_config(attention)
    model = DenoiserModel(cfg, seed=21)
    batch = _padded_batch(cfg)

    def digest():
        h = hashlib.sha256()
        for q0 in (0, batch.cond_width):
            logits = model.forward(batch.tokens, batch.pad_mask, queries_from=q0).value
            assert logits.dtype == np.float32
            h.update(logits.tobytes())
        return h.hexdigest()

    assert digest() == want
    with ad.no_grad():
        assert digest() == want


@pytest.mark.parametrize("loss, want", [
    ("diffusion", "c0897eb845e65b1c77f61a4650b037f4841595aac8d17b4d84097bdd0a086398"),
    ("diffusion_full_gradient", "5e6a48437ee04178fb41da110e67eb5984c90a082e52efa2dd0ab75fa4456192"),
    ("ar", "59e9e9c81a1bf94271a372b6ee7aaff9d17d19828828a4ed7fe623b4e4172d92"),
])
def test_gradient_bits_are_pinned(loss, want):
    # sha256 of the float32 parameter gradients, backward into a dict, in
    # parameter order: a change to the tape's arithmetic or to the order it
    # adds pieces in shows here, across commits (with numpy's bundled OpenBLAS)
    attention = "causal" if loss == "ar" else "bidirectional"
    cfg = tiny_config(attention)
    model = DenoiserModel(cfg, seed=22)
    batch = _padded_batch(cfg)
    if loss == "ar":
        root = ar_nll(model, batch)[0]
    else:
        schedule = NoiseSchedule.linear(6)
        rng = np.random.default_rng(23)
        cb = sample_xt(schedule, batch, draw_t(schedule, batch.size, rng), rng, mask_id=9)
        reweight = ReweightConfig(token_alpha=0.25, token_beta=2.0,
                                  full_gradient=loss == "diffusion_full_gradient")
        root = diffusion_loss(model, cb, schedule, reweight)[0]
    grads = {}
    root.backward(grads)
    h = hashlib.sha256()
    for name, p in model.params.items():
        assert grads[p].dtype == np.float32, name
        h.update(grads[p].tobytes())
    assert all(p.grad is None for p in model.params.values())
    assert h.hexdigest() == want


@pytest.mark.parametrize("queries_from", [0, 48])
def test_no_grad_forward_holds_one_sub_block_at_a_time(queries_from):
    # desk shape: 64 rows of a 72-token canvas, 2 layers, d=96, 4 heads
    cfg = ModelConfig(vocab_size=17, max_seq_len=72, n_layers=2, n_heads=4, hidden_dim=96)
    model = DenoiserModel(cfg, seed=5)
    tokens = np.random.default_rng(5).integers(0, 15, size=(64, 72))
    pad_mask = np.ones(tokens.shape, dtype=bool)
    pad_mask[:, :5] = False
    scores = 64 * 4 * 72 * 72 * 4  # bytes of one float32 [64, 4, 72, 72] score array
    with ad.no_grad():
        peak = traced_peak(lambda: model.forward(tokens, pad_mask, queries_from=queries_from))
    # The forward runs two row blocks of 32, so a block's score array is half
    # of one here. Each intermediate dies after its last reader: the MLP's
    # peak is the residual stream (1/3 of a block's score array), the mask
    # (1/4), the pre-activation and gelu's buffer (4/3 each), about 1.63
    # score arrays here; attention's, the residual stream, v, the mask, the
    # scores and their softmax, about 1.46. A sub-block that keeps every
    # name bound until it returns (q, k, ln and the MLP's input with them)
    # peaks at 2.0, and one that keeps each block's temporaries bound until
    # the forward returns at 7.6 (queries_from 48) to 9.3 (a full forward).
    assert peak < 1.8 * scores, f"peak {peak / scores:.2f} score arrays"


def _desk_batch(cfg, rows, seed):
    """rows left-padded random conditions (1..49 tokens) and targets (1..23)
    on the 72-token desk canvas of cfg."""
    rng = np.random.default_rng(seed)
    content = cfg.content_vocab
    conds = [rng.integers(0, content, size=rng.integers(1, 50)).tolist() for _ in range(rows)]
    outs = [rng.integers(0, content, size=rng.integers(1, 24)).tolist() for _ in range(rows)]
    return pack_rows(conds, outs, 49, 23, cfg.vocab_size - 1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("attention", ["bidirectional", "causal"])
def test_row_blocked_no_grad_forward_is_bit_identical(attention, dtype):
    # 65 desk rows: the no-grad forward runs three uneven row blocks, the
    # recording forward one
    cfg = ModelConfig(vocab_size=17, max_seq_len=72, n_layers=2, n_heads=4,
                      hidden_dim=96, attention=attention)
    with ad.using_dtype(dtype):
        model = DenoiserModel(cfg, seed=24)
    batch = _desk_batch(cfg, 65, seed=24)
    tokens, pad_mask, w = batch.tokens, batch.pad_mask, batch.cond_width
    assert len(model_mod._row_blocks(65, 72)) == 3

    def forwards():
        out = [model.forward(tokens, pad_mask, queries_from=q0).value for q0 in (0, w)]
        if attention == "causal":
            # the AR decoder's prefill and one incremental step
            cache = {}
            out.append(model.forward(tokens[:, :w], pad_mask[:, :w], cache=cache,
                                     queries_from=w - 1).value)
            out.append(model.forward(tokens[:, :w + 1], pad_mask[:, :w + 1], cache=cache,
                                     queries_from=w).value)
            out.extend(cache[i][j] for i in range(cfg.n_layers) for j in (0, 1))
            # a cached forward wide enough to split: each block reads its rows of the cache
            cache = {}
            model.forward(tokens[:, :10], pad_mask[:, :10], cache=cache)
            out.append(model.forward(tokens, pad_mask, cache=cache).value)
            out.extend(cache[i][j] for i in range(cfg.n_layers) for j in (0, 1))
        return out

    want = forwards()
    with ad.no_grad():
        got = forwards()
    assert len(got) == len(want)
    for g, x in zip(got, want):
        assert g.dtype == x.dtype == dtype
        np.testing.assert_array_equal(g, x)


def test_row_blocks_are_near_equal_and_never_one_row():
    for rows in range(1, 300):
        for cols in (1, 23, 49, 72, 162, 2304, 5000):
            sizes = [s.stop - s.start for s in model_mod._row_blocks(rows, cols)]
            assert sum(sizes) == rows and max(sizes) - min(sizes) <= 1
            assert min(sizes) >= 2 or sizes == [1]
            most = model_mod.NO_GRAD_BLOCK // cols
            if most >= 2:
                assert max(sizes) <= most
    # an AR decoder step (one new column) runs the whole eval chunk at once
    assert len(model_mod._row_blocks(64, 1)) == 1


def test_no_grad_forward_peak_does_not_grow_with_the_batch():
    # desk shape: a 72-token canvas, 2 layers, d=96, 4 heads
    cfg = ModelConfig(vocab_size=17, max_seq_len=72, n_layers=2, n_heads=4, hidden_dim=96)
    model = DenoiserModel(cfg, seed=6)
    tokens = np.random.default_rng(6).integers(0, 15, size=(256, 72))
    pad_mask = np.ones(tokens.shape, dtype=bool)
    pad_mask[:, :5] = False

    def peak(rows):
        with ad.no_grad():
            return traced_peak(lambda: model.forward(tokens[:rows], pad_mask[:rows]))

    scores = 32 * 4 * 72 * 72 * 4  # bytes of one float32 [32, 4, 72, 72] score array
    small, large = peak(32), peak(256)
    # 256 rows run as eight row blocks of 32, so only the logits gathered
    # so far (0.37 score arrays by the last block) add to the 32-row peak
    # of about 3.25. One forward over all 256 rows peaks 27.7 above it.
    assert large - small < 0.5 * scores, f"{(large - small) / scores:.2f} score arrays"


def _desk_shard():
    """(model, corrupted batch, schedule, reweight) of one training shard of
    the desk diffusion profile: 32 planning rows of a 72-token canvas
    (49 condition + 23 target), 2 layers, d=96, 4 heads, T=20."""
    cfg = ExperimentConfig.from_json(os.path.join(
        os.path.dirname(__file__), "..", "src", "absorb_diffuse", "profiles",
        "desk_planning_diffusion.json"))
    task = get_task("planning")
    vocab = task.vocabulary()
    batch = encode_instances(task, task.generate(32, 0, 3)[0], vocab)
    model = DenoiserModel(cfg.model_config(vocab.size), seed=3)
    schedule = NoiseSchedule.linear(cfg.schedule_T)
    rng = np.random.default_rng(3)
    cb = sample_xt(schedule, batch, draw_t(schedule, batch.size, rng), rng, vocab.mask_id)
    return model, cb, schedule, cfg.reweight_config()


def test_training_shard_keeps_only_what_backward_reads():
    model, cb, schedule, reweight = _desk_shard()
    assert cb.tokens.shape == (32, 72) and cb.cond_width == 49

    def step():
        diffusion_loss(model, cb, schedule, reweight)[0].backward({})

    scores = 32 * 4 * 72 * 72 * 4  # bytes of one float32 [32, 4, 72, 72] score array
    peak = traced_peak(step)
    # the tape holds each block's saved softmax, ln outputs, q, k, v, ctx and
    # gelu's output and derivative: 10.6 score arrays at the peak. A tape
    # whose records hold every op's output, and a gelu that saves its input
    # and tanh buffer, peak at 17.0.
    assert peak < 13 * scores, f"peak {peak / scores:.2f} score arrays"


def test_recording_forward_frees_what_no_backward_reads(monkeypatch):
    # the inputs of softmax (the scores), gelu (the MLP pre-activation) and
    # scale (the query projection) are read by no backward: under
    # recording they die once the model drops their Nodes
    model, cb, schedule, reweight = _desk_shard()
    dead_after = []

    def watch(op):
        def watched(a, *args):
            dead_after.append(weakref.ref(a.value))
            return op(a, *args)
        return watched

    monkeypatch.setattr(ad, "softmax", watch(ad.softmax))
    monkeypatch.setattr(ad, "gelu", watch(ad.gelu))
    monkeypatch.setattr(ad, "scale", watch(ad.scale))
    loss = diffusion_loss(model, cb, schedule, reweight)[0]
    assert len(dead_after) == 3 * model.config.n_layers
    assert all(ref() is None for ref in dead_after)
    assert loss.requires_grad  # the tape is alive and runs backward
    loss.backward({})


def test_queries_from_outside_the_canvas_is_rejected():
    model = DenoiserModel(tiny_config("causal"), seed=17)
    tokens = RNG.integers(0, 9, size=(2, 6)).astype(np.int32)
    for q0 in (-1, 6, 7):
        with pytest.raises(ValueError, match="queries_from"):
            model.forward(tokens, queries_from=q0)
        with pytest.raises(ValueError, match="queries_from"):
            model.forward(tokens, cache={}, queries_from=q0)


def test_kv_cache_rejected_where_invalid():
    tokens = RNG.integers(0, 9, size=(2, 6)).astype(np.int32)
    bidir = DenoiserModel(tiny_config("bidirectional"), seed=5)
    with pytest.raises(ValueError, match="causal"):
        bidir.forward(tokens, cache={})
    causal = DenoiserModel(tiny_config("causal"), seed=5)
    cache = {}
    causal.forward(tokens, cache=cache)
    with pytest.raises(ValueError, match="already holds"):
        causal.forward(tokens, cache=cache)


def test_bidirectional_model_sees_future_tokens():
    cfg = tiny_config("bidirectional")
    model = DenoiserModel(cfg, seed=2)
    a = RNG.integers(0, cfg.content_vocab, size=(1, cfg.max_seq_len)).astype(np.int32)
    b = a.copy()
    b[0, -1] = (b[0, -1] + 1) % cfg.content_vocab
    la = model.forward(a).value
    lb = model.forward(b).value
    assert not np.allclose(la[0, 0], lb[0, 0], atol=1e-6)


def test_pad_mask_blocks_attention():
    cfg = tiny_config()
    model = DenoiserModel(cfg, seed=3)
    tokens = RNG.integers(0, cfg.content_vocab, size=(1, cfg.max_seq_len)).astype(np.int32)
    pad_mask = np.ones((1, cfg.max_seq_len), dtype=bool)
    pad_mask[0, 9:] = False
    la = model.forward(tokens, pad_mask).value
    # changing a masked-out position must not affect attended positions
    tokens2 = tokens.copy()
    tokens2[0, 10] = (tokens2[0, 10] + 3) % cfg.content_vocab
    lb = model.forward(tokens2, pad_mask).value
    np.testing.assert_allclose(la[0, :9], lb[0, :9], rtol=0, atol=1e-6)


def test_params_reconstruct_exactly():
    cfg = tiny_config()
    model = DenoiserModel(cfg, seed=4)
    arrays = {k: p.value for k, p in model.params.items()}
    clone = DenoiserModel(cfg, params={k: v.copy() for k, v in arrays.items()})
    tokens = RNG.integers(0, cfg.vocab_size, size=(2, cfg.max_seq_len)).astype(np.int32)
    np.testing.assert_array_equal(model.forward(tokens).value,
                                  clone.forward(tokens).value)
    bad = {k: v.copy() for k, v in arrays.items()}
    first = next(iter(bad))
    bad[first] = bad[first][..., :-1]
    with pytest.raises(ValueError):
        DenoiserModel(cfg, params=bad)


def test_load_names_every_missing_unexpected_and_misshaped_parameter():
    cfg = tiny_config()
    arrays = {k: p.value for k, p in DenoiserModel(cfg, seed=4).params.items()}
    del arrays["h1.attn.bk"]
    arrays["h0.attn.extra"] = np.zeros(3)
    arrays["h0.mlp.w2"] = arrays["h0.mlp.w2"][:-1]
    with pytest.raises(ValueError) as err:
        DenoiserModel(cfg, params=arrays)
    msg = str(err.value)
    assert "missing ['h1.attn.bk']" in msg
    assert "unexpected ['h0.attn.extra']" in msg
    assert "shape mismatches ['h0.mlp.w2']" in msg


def test_seeded_init_bits_are_pinned():
    # float32 bytes of every parameter, in name order: a change to the
    # parameter table, its order or the draws shows here
    digest = hashlib.sha256()
    for p in DenoiserModel(tiny_config(), seed=3).params.values():
        digest.update(p.value.astype(np.float32).tobytes())
    assert digest.hexdigest() == "0f28af8d15b0503a25bb655543e76f4f890dd67bab434a9179d72767308dcf5b"


def test_init_statistics():
    cfg = ModelConfig(vocab_size=40, max_seq_len=32, n_layers=2, n_heads=4,
                      hidden_dim=64, attention="bidirectional")
    model = DenoiserModel(cfg, seed=5)
    w = model.params["tok_emb"].value
    assert abs(float(w.std()) - 0.02) < 0.005
    assert abs(float(w.mean())) < 0.005
    ln_gain = model.params["h0.ln1.gain"].value
    np.testing.assert_array_equal(ln_gain, np.ones_like(ln_gain))


def _toy_batch(cfg, rows=4, cond=4):
    vocab = cfg.vocab_size
    pad = vocab - 1
    width = cfg.max_seq_len - cond
    conds = [list(RNG.integers(0, cfg.content_vocab, size=cond)) for _ in range(rows)]
    outs = [list(RNG.integers(0, cfg.content_vocab, size=RNG.integers(3, width + 1)))
            for _ in range(rows)]
    return pack_rows(conds, outs, cond, width, pad)


def test_ar_nll_counts_target_tokens_only():
    cfg = tiny_config("causal")
    model = DenoiserModel(cfg, seed=6)
    batch = _toy_batch(cfg)
    loss, n_tok = ar_nll(model, batch)
    assert n_tok == int(batch.target_mask.sum())
    assert loss.value.dtype == np.float64
    assert float(loss.value) > 0


def test_ar_nll_matches_the_full_canvas_computation():
    # ar_nll drops the last column, whose logits predict nothing
    cfg = tiny_config("causal")
    with ad.using_dtype(np.float64):
        model = DenoiserModel(cfg, seed=19)
    batch = _padded_batch(cfg)
    q0 = batch.cond_width - 1
    logits = model.forward(batch.tokens, batch.pad_mask, queries_from=q0)
    b, s, k = logits.value.shape
    pred = ad.reshape(ad.narrow(logits, 1, 0, s - 1), (b * (s - 1), k))
    weights = batch.target_mask[:, q0 + 1:].reshape(-1).astype(np.float64)
    targets = np.where(weights > 0, batch.tokens[:, q0 + 1:].reshape(-1), 0)
    want = ad.softmax_cross_entropy(pred, targets, weights / weights.sum())
    got, n_tok = ar_nll(model, batch)
    assert n_tok == int(weights.sum())
    np.testing.assert_allclose(float(got.value), float(want.value), rtol=1e-13, atol=0)
    want_grads, got_grads = {}, {}
    want.backward(want_grads)
    got.backward(got_grads)
    for name, p in model.params.items():
        np.testing.assert_allclose(got_grads[p], want_grads[p], rtol=1e-9, atol=1e-15,
                                   err_msg=name)


def test_ar_nll_rejects_a_batch_without_target_tokens():
    model = DenoiserModel(tiny_config("causal"), seed=20)
    batch = _padded_batch(model.config)
    no_targets = dataclasses.replace(batch, target_mask=np.zeros_like(batch.target_mask))
    all_condition = dataclasses.replace(batch, cond_width=batch.tokens.shape[1])
    for bad in (no_targets, all_condition):
        with pytest.raises(ValueError, match="no target tokens"):
            ar_nll(model, bad)


def test_ar_nll_decreases_when_memorizing():
    cfg = tiny_config("causal")
    model = DenoiserModel(cfg, seed=7)
    batch = _toy_batch(cfg, rows=2)
    opt = ad.Adam(model.params)
    first = None
    for _ in range(60):
        loss, _ = ar_nll(model, batch)
        if first is None:
            first = float(loss.value)
        zero_grads(model.params)
        loss.backward()
        opt.step(3e-3)
    last, _ = ar_nll(model, batch)
    assert float(last.value) < first * 0.2


def test_composed_model_gradient_fd():
    # end-to-end finite differences through the full denoiser on a tiny model
    cfg = ModelConfig(vocab_size=7, max_seq_len=6, n_layers=1, n_heads=2,
                      hidden_dim=8, attention="bidirectional")
    model = DenoiserModel(cfg, seed=8)
    tokens = RNG.integers(0, cfg.content_vocab, size=(2, 6)).astype(np.int32)
    targets = RNG.integers(0, cfg.content_vocab, size=(2, 6))
    weights = RNG.random((2, 6))

    def loss_value():
        logits = model.forward(tokens)
        flat = ad.reshape(logits, (12, cfg.content_vocab))
        return ad.softmax_cross_entropy(flat, targets.reshape(-1), weights.reshape(-1))

    loss = loss_value()
    zero_grads(model.params)
    loss.backward()

    # directional central differences along the analytic gradient: one clean
    # scalar per tensor, robust to f32 roundoff where per-element probes are not
    for name in ("tok_emb", "h0.attn.wq", "h0.mlp.w1", "ln_f.gain", "out.w"):
        p = model.params[name]
        g = p.grad.astype(np.float64)
        norm = np.linalg.norm(g)
        assert norm > 0, name
        d = (g / norm).astype(np.float32)
        eps = 5e-4
        orig = p.value.copy()
        p.value = orig + eps * d
        hi = float(loss_value().value)
        p.value = orig - eps * d
        lo = float(loss_value().value)
        p.value = orig
        fd = (hi - lo) / (2 * eps)
        assert abs(fd - norm) / max(norm, 1.0) < 1e-3, (name, fd, norm)


def _trained_tiny(seed):
    cfg = tiny_config()
    model = DenoiserModel(cfg, seed=seed)
    opt = ad.Adam(model.params)
    batch_tokens = RNG.integers(0, cfg.content_vocab, size=(2, cfg.max_seq_len)).astype(np.int32)
    logits = model.forward(batch_tokens)
    flat = ad.reshape(logits, (-1, cfg.content_vocab))
    n = flat.value.shape[0]
    loss = ad.softmax_cross_entropy(flat, np.zeros(n, np.int64), np.ones(n) / n)
    zero_grads(model.params)
    loss.backward()
    opt.step(1e-3)
    return model, opt, batch_tokens


def _save(path, model, opt, step, extra=None):
    save_checkpoint(str(path), model.params, dataclasses.asdict(model.config), opt.state_dict(),
                    step, extra or {})


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    model, opt, batch_tokens = _trained_tiny(seed=9)
    path = tmp_path / "ckpt"
    _save(path, model, opt, 1, {"note": "test"})
    ck = load_checkpoint(str(path))
    assert ck.step == 1
    assert ck.manifest["extra"]["note"] == "test"
    for name, p in model.params.items():
        np.testing.assert_array_equal(ck.params[name], p.value)
        np.testing.assert_array_equal(ck.optimizer_state["m"][name], opt.m[name])
        np.testing.assert_array_equal(ck.optimizer_state["v"][name], opt.v[name])
    restored = DenoiserModel(ModelConfig(**ck.model_config), params=ck.params)
    np.testing.assert_array_equal(restored.forward(batch_tokens).value,
                                  model.forward(batch_tokens).value)
    o2 = ad.Adam(restored.params)
    o2.load_state_dict(ck.optimizer_state)
    assert o2.t == opt.t


def test_checkpoint_rejects_corrupt_manifest(tmp_path):
    model, opt, _ = _trained_tiny(seed=10)
    path = tmp_path / "ckpt"
    _save(path, model, opt, 0)
    manifest = path / "manifest.json"
    text = manifest.read_text().replace('"f32le"', '"f64be"')
    manifest.write_text(text)
    with pytest.raises(ValueError):
        load_checkpoint(str(path))


def test_checkpoint_save_killed_at_manifest_rename_keeps_previous(tmp_path, monkeypatch):
    model, opt, _ = _trained_tiny(seed=11)
    path = tmp_path / "ckpt"
    _save(path, model, opt, 1)
    before = {k: p.value.copy() for k, p in model.params.items()}
    for p in model.params.values():
        p.value += 1.0
    real_replace = os.replace

    def killed(src, dst):
        if os.path.basename(dst) == "manifest.json":
            raise KeyboardInterrupt("killed")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        _save(path, model, opt, 2)
    monkeypatch.undo()
    ck = load_checkpoint(str(path))
    assert ck.step == 1
    assert set(ck.params) == set(before)
    for name, arr in before.items():
        np.testing.assert_array_equal(ck.params[name], arr)
    _save(path, model, opt, 2)
    assert len([f for f in os.listdir(path) if f.endswith(".npz")]) == 1


@pytest.mark.parametrize("damage", ["flip", "truncate", "delete"])
def test_checkpoint_rejects_damaged_archive(tmp_path, damage):
    model, opt, _ = _trained_tiny(seed=12)
    path = tmp_path / "ckpt"
    _save(path, model, opt, 1)
    archive = path / json.loads((path / "manifest.json").read_text())["arrays"]
    data = bytearray(archive.read_bytes())
    if damage == "flip":
        data[len(data) // 2] ^= 0x01
        archive.write_bytes(bytes(data))
    elif damage == "truncate":
        archive.write_bytes(bytes(data[:-10]))
    else:
        archive.unlink()
    with pytest.raises(ValueError, match=archive.name):
        load_checkpoint(str(path))


def test_checkpoint_saves_into_one_directory_leave_one_archive(tmp_path):
    model, opt, _ = _trained_tiny(seed=13)
    path = tmp_path / "ckpt"
    path.mkdir()
    (path / "context.json").write_text("{}")  # a diverged/ snapshot keeps its context
    _save(path, model, opt, 1)
    for p in model.params.values():
        p.value *= 0.5
    _save(path, model, opt, 2)
    assert sorted(os.listdir(path)) == sorted(
        ["context.json", "manifest.json", load_checkpoint(str(path)).manifest["arrays"]])
    assert load_checkpoint(str(path)).step == 2
