"""Transformer denoiser: shapes, masking semantics, training signal, checkpoints."""

import dataclasses
import hashlib
import json
import os
import re
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
from absorb_diffuse.tasks import TASKS, encode_instances, get_task

from helpers import columns_from, forward_columns, pack_rows, traced_peak, zero_grads

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
    # the specials are the top two ids: the head scores every id below them
    assert (cfg.content_vocab, cfg.mask_id, cfg.pad_id) == (9, 9, 10)


def test_config_dict_roundtrip():
    cfg = tiny_config("causal")
    # as a checkpoint manifest stores it
    again = ModelConfig(**json.loads(json.dumps(dataclasses.asdict(cfg))))
    assert again == cfg


def test_forward_shapes_and_head_excludes_specials():
    cfg = tiny_config()
    model = DenoiserModel(cfg, seed=1)
    tokens = RNG.integers(0, cfg.pad_id, size=(3, cfg.max_seq_len)).astype(np.int32)
    logits = forward_columns(model, tokens)
    assert logits.value.shape == (3, cfg.max_seq_len, cfg.content_vocab)


def test_causal_model_ignores_future_tokens():
    # at every cut, and at left-pad positions too, no position sees a later token
    cfg = tiny_config("causal")
    model = DenoiserModel(cfg, seed=2)
    n = cfg.max_seq_len
    a = RNG.integers(0, cfg.content_vocab, size=(3, n)).astype(np.int32)
    a[1, :3] = cfg.pad_id
    a[2, :7] = cfg.pad_id
    la = forward_columns(model, a).value
    for j in range(1, n):
        b = a.copy()
        b[:, j:] = (b[:, j:] + 1) % cfg.content_vocab  # only positions >= j differ
        lb = forward_columns(model, b).value
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
    full = forward_columns(model, batch.tokens).value

    cache, pieces, m = {}, [], 0
    with ad.no_grad():
        for n in (4, 6, *range(7, cfg.max_seq_len + 1)):
            pieces.append(forward_columns(model, batch.tokens[:, :n], m, cache).value)
            m = n
    assert [piece.shape[1] for piece in pieces] == [4, 2] + [1] * 6
    assert set(cache) == {"qkv", *range(cfg.n_layers)}
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
def test_a_suffix_read_equals_the_full_forward_bitwise(attention, dtype):
    cfg = tiny_config(attention)
    with ad.using_dtype(dtype):
        model = DenoiserModel(cfg, seed=14)
    batch = _padded_batch(cfg)
    full = forward_columns(model, batch.tokens).value
    w = batch.cond_width
    # the diffusion loss and decoder start at the target, ar_nll one slot before
    for q0 in (w, w - 1, 1, cfg.max_seq_len - 2):
        part = model.forward(batch.tokens, columns_from(batch.tokens, q0)).value
        assert part.dtype == full.dtype == dtype
        assert part.shape == (batch.size * (cfg.max_seq_len - q0), cfg.content_vocab)
        np.testing.assert_array_equal(part, full[:, q0:].reshape(part.shape),
                                      err_msg=f"queries from {q0}")


@pytest.mark.parametrize("dtype, atol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_a_suffix_read_with_kv_cache_matches_the_full_forward(dtype, atol):
    cfg = tiny_config("causal")
    with ad.using_dtype(dtype):
        model = DenoiserModel(cfg, seed=15)
    batch = _padded_batch(cfg)
    tokens, w = batch.tokens, batch.cond_width
    full = forward_columns(model, tokens).value

    # as in ar_decode: each call, the prefill too, runs only its last query
    cache, plain = {}, {}
    with ad.no_grad():
        forward_columns(model, tokens[:, :w], cache=plain)
        rows = []
        for n in range(w, cfg.max_seq_len + 1):
            rows.append(forward_columns(model, tokens[:, :n], n - 1, cache).value)
            if n == w:  # keys and values still cover every position of the prefix
                for i in range(cfg.n_layers):
                    np.testing.assert_array_equal(cache[i][0], plain[i][0])
                    np.testing.assert_array_equal(cache[i][1], plain[i][1])
        assert [r.shape[1] for r in rows] == [1] * len(rows)
        np.testing.assert_allclose(np.concatenate(rows, axis=1), full[:, w - 1:],
                                   rtol=0, atol=atol)

        # a cached call that keeps several queries matches the cached call that
        # reads every uncached column bit for bit
        n = cfg.max_seq_len
        with_q = forward_columns(model, tokens, w + 2, dict(plain)).value
        without = forward_columns(model, tokens, w, dict(plain)).value
    assert with_q.shape[1] == n - w - 2
    np.testing.assert_array_equal(with_q, without[:, 2:])


@pytest.mark.parametrize("attention", ["bidirectional", "causal"])
def test_a_suffix_reads_gradients_match_the_full_forward(attention):
    cfg = tiny_config(attention)
    with ad.using_dtype(np.float64):
        model = DenoiserModel(cfg, seed=16)
    batch = _padded_batch(cfg)
    q0 = batch.cond_width - (attention == "causal")
    n = batch.size * (cfg.max_seq_len - q0)
    targets = RNG.integers(0, cfg.content_vocab, size=n)
    weights = RNG.random(n)

    def grads(flat):
        zero_grads(model.params)
        ad.softmax_cross_entropy(flat, targets, weights).backward()
        return {k: p.grad for k, p in model.params.items()}

    full = forward_columns(model, batch.tokens)
    want = grads(ad.reshape(ad.narrow(full, 1, q0, cfg.max_seq_len - q0), (n, cfg.content_vocab)))
    got = grads(model.forward(batch.tokens, columns_from(batch.tokens, q0)))
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=1e-9, atol=1e-15, err_msg=name)


@pytest.mark.parametrize("recording", [True, False])
@pytest.mark.parametrize("attention", ["bidirectional", "causal"])
def test_a_ragged_read_returns_the_full_forwards_logits_bitwise(attention, recording,
                                                                monkeypatch):
    # no-grad row blocks of two rows: the first block reads a ragged set, the
    # second one slot (its other row reads none); a recording forward is one
    # block, which also reads a single slot once
    monkeypatch.setattr(model_mod, "NO_GRAD_BLOCK", 24)
    cfg = tiny_config(attention)
    model = DenoiserModel(cfg, seed=25)
    batch = _padded_batch(cfg)
    tokens = batch.tokens
    assert [b.stop - b.start for b in model_mod._row_blocks(4, cfg.max_seq_len)] == [2, 2]
    full = forward_columns(model, tokens)
    k = cfg.content_vocab
    ragged = np.zeros(tokens.shape, dtype=bool)
    ragged[0, [3, 5, 6, 11]] = True
    ragged[1, [7, 8]] = True
    ragged[2, 9] = True
    single = np.zeros(tokens.shape, dtype=bool)
    single[1, 6] = True
    for read in (ragged, single, columns_from(tokens, 10)):
        if recording:
            got = model.forward(tokens, read)
        else:
            with ad.no_grad():
                got = model.forward(tokens, read)
        assert got.value.dtype == np.float32
        np.testing.assert_array_equal(got.value, full.value[read])
        if recording:
            # and the gradient is that of the same slots of the full forward
            n = int(read.sum())
            targets, weights = RNG.integers(0, k, size=n), RNG.random(n)

            def grads(flat):
                out = {}
                ad.softmax_cross_entropy(flat, targets, weights).backward(out)
                return out

            want = grads(ad.embedding_lookup(ad.reshape(full, (-1, k)), np.flatnonzero(read)))
            full = forward_columns(model, tokens)  # backward consumed the graph
            have = grads(got)
            for name, p in model.params.items():
                np.testing.assert_allclose(have[p], want[p], rtol=1e-5, atol=1e-7, err_msg=name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("config", ["tiny", "desk"])
def test_the_qkv_table_equals_the_per_slot_values_bitwise(config, dtype):
    cfg = tiny_config() if config == "tiny" else ModelConfig(
        vocab_size=15, max_seq_len=72, n_layers=2, n_heads=4, hidden_dim=96)
    with ad.using_dtype(dtype):
        model = DenoiserModel(cfg, seed=26)
    tokens = np.random.default_rng(26).integers(0, cfg.vocab_size, size=(40, cfg.max_seq_len))
    with ad.no_grad():
        table = model._qkv_table()
    per_slot = model._qkv(0, model._embed(tokens, 0), 0)
    at = (tokens * cfg.max_seq_len + np.arange(cfg.max_seq_len)).reshape(-1)
    for t, want in zip(table, per_slot):
        assert t.value.shape == (cfg.vocab_size * cfg.max_seq_len, cfg.hidden_dim)
        assert t.value.dtype == want.value.dtype == dtype
        np.testing.assert_array_equal(t.value[at], want.value)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("attention", ["bidirectional", "causal"])
def test_no_grad_forward_is_bit_identical(attention, dtype):
    # desk shape: a 72-token canvas, 2 layers, d=96, 4 heads
    cfg = ModelConfig(vocab_size=17, max_seq_len=72, n_layers=2, n_heads=4,
                      hidden_dim=96, attention=attention)
    with ad.using_dtype(dtype):
        model = DenoiserModel(cfg, seed=18)
    batch = _padded_batch(cfg, cond=49)
    tokens, w = batch.tokens, batch.cond_width

    def forwards():
        return [forward_columns(model, tokens, q0).value for q0 in (0, w)]

    want = forwards()
    with ad.no_grad():
        got = forwards()
        if attention == "causal":
            # a cache serves only a no-grad forward; fed the prefix, its
            # logits are the recording full forward's
            cache = {}
            forward_columns(model, tokens[:, :w], cache=cache)
            got.append(forward_columns(model, tokens, w + 3, cache).value)
            want.append(want[0][:, w + 3:])
    assert len(got) == len(want)
    for g, x in zip(got, want):
        assert g.dtype == x.dtype == dtype
        np.testing.assert_array_equal(g, x)


@pytest.mark.parametrize("attention, want", [
    ("bidirectional", "f4908aea249fe9285d88a60ce747b7feaf50b6d33899c21e3e0c366d89306045"),
    ("causal", "6997dd53023cbb64640a20ebafd2586d79c32185cf6e5cea6d1e8d0f58ccaef2"),
])
def test_forward_logit_bits_are_pinned(attention, want):
    # sha256 of the float32 logits of a full forward and of one whose
    # queries start at the target, the same recording and under no_grad():
    # a change to the forward's arithmetic shows here, across commits (with
    # numpy's bundled OpenBLAS)
    cfg = tiny_config(attention)
    model = DenoiserModel(cfg, seed=21)
    batch = _padded_batch(cfg)

    def digest():
        h = hashlib.sha256()
        for q0 in (0, batch.cond_width):
            logits = model.forward(batch.tokens, columns_from(batch.tokens, q0)).value
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


@pytest.mark.parametrize("read_from", [0, 48])
def test_no_grad_forward_holds_one_sub_block_at_a_time(read_from):
    # the forward reads every column from read_from on
    # desk shape: 64 rows of a 72-token canvas, 2 layers, d=96, 4 heads
    cfg = ModelConfig(vocab_size=17, max_seq_len=72, n_layers=2, n_heads=4, hidden_dim=96)
    model = DenoiserModel(cfg, seed=5)
    tokens = np.random.default_rng(5).integers(0, 15, size=(64, 72))
    tokens[:, :5] = cfg.pad_id
    scores = 64 * 4 * 72 * 72 * 4  # bytes of one float32 [64, 4, 72, 72] score array
    with ad.no_grad():
        peak = traced_peak(lambda: model.forward(tokens, columns_from(tokens, read_from)))
    # The forward runs two row blocks of 32, so a block's score array is half
    # of one here. Each intermediate dies after its last reader: the MLP's
    # peak is the residual stream (1/3 of a block's score array), the mask
    # (1/4), the pre-activation and gelu's buffer (4/3 each), about 1.63
    # score arrays here; attention's, the residual stream, v, the mask, the
    # scores and their softmax, about 1.46. A sub-block that keeps every
    # name bound until it returns (q, k, ln and the MLP's input with them)
    # peaks at 2.0, and one that keeps each block's temporaries bound until
    # the forward returns at 7.6 (read_from 48) to 9.3 (a full forward).
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
def test_row_blocked_no_grad_forward_is_bit_identical(attention, dtype, monkeypatch):
    # 65 desk rows: the no-grad forward runs three uneven row blocks, the
    # recording forward one
    cfg = ModelConfig(vocab_size=17, max_seq_len=72, n_layers=2, n_heads=4,
                      hidden_dim=96, attention=attention)
    with ad.using_dtype(dtype):
        model = DenoiserModel(cfg, seed=24)
    batch = _desk_batch(cfg, 65, seed=24)
    tokens, w = batch.tokens, batch.cond_width
    assert len(model_mod._row_blocks(65, 72)) == 3

    def forwards():
        out = [forward_columns(model, tokens, q0).value for q0 in (0, w)]
        if attention == "causal":
            # a cache serves only a no-grad forward, so the cached calls run
            # under no_grad() either way, in one row block or in three
            with ad.no_grad():
                # the AR decoder's prefill and one incremental step
                cache = {}
                out.append(forward_columns(model, tokens[:, :w], w - 1, cache).value)
                out.append(forward_columns(model, tokens[:, :w + 1], w, cache).value)
                out.extend(cache[i][j] for i in range(cfg.n_layers) for j in (0, 1))
                # 62 new columns on a 10-column cache: a forward that extends a
                # cache runs as one block, however many positions it adds
                cache = {}
                forward_columns(model, tokens[:, :10], cache=cache)
                out.append(forward_columns(model, tokens, 10, cache).value)
                out.extend(cache[i][j] for i in range(cfg.n_layers) for j in (0, 1))
        return out

    with monkeypatch.context() as one_block:
        one_block.setattr(model_mod, "NO_GRAD_BLOCK", 72 * 65)
        assert len(model_mod._row_blocks(65, 72)) == 1
        want = forwards()
    with ad.no_grad():
        got = forwards()
    assert len(got) == len(want)
    for g, x in zip(got, want):
        assert g.dtype == x.dtype == dtype
        np.testing.assert_array_equal(g, x)


def test_row_blocks_are_near_equal_and_never_one_row():
    for rows in range(1, 300):
        for cols in (1, 23, 49, 72, 162):
            sizes = [s.stop - s.start for s in model_mod._row_blocks(rows, cols)]
            assert sum(sizes) == rows and max(sizes) - min(sizes) <= 1
            assert min(sizes) >= 2 or sizes == [1]
            most = model_mod.NO_GRAD_BLOCK // cols
            if most >= 2:
                assert max(sizes) <= most
    # an AR decoder step (one new column) runs the whole eval chunk at once
    assert len(model_mod._row_blocks(64, 1)) == 1


@pytest.mark.parametrize("name", sorted(TASKS))
def test_row_blocks_of_every_task_canvas_hold_two_rows_or_more(name):
    # no block of one row on any canvas that exists: a task wider than
    # NO_GRAD_BLOCK // 3 columns would need a floor back in _row_blocks
    cols = get_task(name).seq_len
    most = model_mod.NO_GRAD_BLOCK // cols
    for rows in range(2, 301):
        sizes = [s.stop - s.start for s in model_mod._row_blocks(rows, cols)]
        assert sum(sizes) == rows and max(sizes) - min(sizes) <= 1
        assert 2 <= min(sizes) and max(sizes) <= most, (rows, sizes)


def test_no_grad_forward_peak_does_not_grow_with_the_batch():
    # desk shape: a 72-token canvas, 2 layers, d=96, 4 heads
    cfg = ModelConfig(vocab_size=17, max_seq_len=72, n_layers=2, n_heads=4, hidden_dim=96)
    model = DenoiserModel(cfg, seed=6)
    tokens = np.random.default_rng(6).integers(0, 15, size=(256, 72))
    tokens[:, :5] = cfg.pad_id

    def peak(rows):
        with ad.no_grad():
            return traced_peak(lambda: forward_columns(model, tokens[:rows]))

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


def test_a_read_mask_off_the_canvas_or_over_the_cache_is_rejected():
    # a read mask that is not the canvas's shape, or that reads a cached slot
    model = DenoiserModel(tiny_config("causal"), seed=17)
    tokens = RNG.integers(0, 9, size=(2, 6)).astype(np.int32)
    for shape in ((2, 7), (2, 5), (1, 6), (6,)):
        with pytest.raises(ValueError, match="read"):
            model.forward(tokens, np.ones(shape, dtype=bool))
        with pytest.raises(ValueError, match="read"):
            model.forward(tokens, np.ones(shape, dtype=bool), {})
    cache = {}
    with ad.no_grad():
        forward_columns(model, tokens[:, :4], cache=cache)
        with pytest.raises(ValueError, match="cached"):
            model.forward(tokens, columns_from(tokens, 3), cache)


def test_kv_cache_rejected_where_invalid():
    tokens = RNG.integers(0, 9, size=(2, 6)).astype(np.int32)
    # a bidirectional model's cache holds layer 0's q/k/v table only
    bidir = DenoiserModel(tiny_config("bidirectional"), seed=5)
    cache = {}
    with ad.no_grad():
        bidir.forward(tokens, columns_from(tokens), cache)
        bidir.forward(tokens, columns_from(tokens), cache)
    assert list(cache) == ["qkv"]
    causal = DenoiserModel(tiny_config("causal"), seed=5)
    cache = {}
    with ad.no_grad():
        forward_columns(causal, tokens, cache=cache)
        with pytest.raises(ValueError, match="already holds"):
            forward_columns(causal, tokens, 6, cache)
    # a cache means no tape: a recording forward refuses one
    for model in (bidir, causal):
        with pytest.raises(ValueError, match="no_grad"):
            forward_columns(model, tokens, cache={})


def test_bidirectional_model_sees_future_tokens():
    cfg = tiny_config("bidirectional")
    model = DenoiserModel(cfg, seed=2)
    a = RNG.integers(0, cfg.content_vocab, size=(1, cfg.max_seq_len)).astype(np.int32)
    b = a.copy()
    b[0, -1] = (b[0, -1] + 1) % cfg.content_vocab
    la = forward_columns(model, a).value
    lb = forward_columns(model, b).value
    assert not np.allclose(la[0, 0], lb[0, 0], atol=1e-6)


def test_pad_mask_blocks_attention():
    # the model reads padding off the canvas: no real position attends to a
    # slot holding the pad id, so a padded tail is as good as none
    cfg = tiny_config()
    model = DenoiserModel(cfg, seed=3)
    tokens = RNG.integers(0, cfg.content_vocab, size=(1, cfg.max_seq_len)).astype(np.int32)
    padded = tokens.copy()
    padded[0, 9:] = cfg.pad_id
    la = forward_columns(model, padded).value
    lb = forward_columns(model, tokens[:, :9]).value
    np.testing.assert_allclose(la[0, :9], lb[0], rtol=0, atol=1e-6)
    # content in those slots is attended to
    assert not np.allclose(forward_columns(model, tokens).value[0, :9], lb[0], atol=1e-6)


def test_params_reconstruct_exactly():
    cfg = tiny_config()
    model = DenoiserModel(cfg, seed=4)
    arrays = {k: p.value for k, p in model.params.items()}
    clone = DenoiserModel(cfg, params={k: v.copy() for k, v in arrays.items()})
    tokens = RNG.integers(0, cfg.pad_id, size=(2, cfg.max_seq_len)).astype(np.int32)
    np.testing.assert_array_equal(forward_columns(model, tokens).value,
                                  forward_columns(clone, tokens).value)
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
    loss, u = ar_nll(model, batch)
    assert u.shape == batch.tokens.shape and u.dtype == np.float64
    assert (u[~batch.target_mask] == 0).all() and (u[batch.target_mask] > 0).all()
    # the loss is the mean of u over the target tokens
    assert loss.value.dtype == np.float64
    np.testing.assert_allclose(float(loss.value), u.sum() / batch.target_mask.sum(), rtol=1e-12)


def test_ar_nll_matches_the_full_canvas_computation():
    # ar_nll drops the last column, whose logits predict nothing
    cfg = tiny_config("causal")
    with ad.using_dtype(np.float64):
        model = DenoiserModel(cfg, seed=19)
    batch = _padded_batch(cfg)
    q0 = batch.cond_width - 1
    logits = forward_columns(model, batch.tokens, q0)
    b, s, k = logits.value.shape
    pred = ad.reshape(ad.narrow(logits, 1, 0, s - 1), (b * (s - 1), k))
    weights = batch.target_mask[:, q0 + 1:].reshape(-1).astype(np.float64)
    targets = np.where(weights > 0, batch.tokens[:, q0 + 1:].reshape(-1), 0)
    want = ad.softmax_cross_entropy(pred, targets, weights / weights.sum())
    got, u = ar_nll(model, batch)
    np.testing.assert_allclose(float(got.value), float(want.value), rtol=1e-13, atol=0)
    # u is the teacher-forced token NLL at each target slot, zero elsewhere
    want_u = np.zeros(batch.tokens.shape)
    want_u[:, q0 + 1:] = np.where(weights > 0, ad.token_log_losses(pred, targets), 0.0).reshape(b, -1)
    np.testing.assert_array_equal(u, want_u)
    want_grads, got_grads = {}, {}
    want.backward(want_grads)
    got.backward(got_grads)
    for name, p in model.params.items():
        np.testing.assert_allclose(got_grads[p], want_grads[p], rtol=1e-9, atol=1e-15,
                                   err_msg=name)


def test_ar_nll_rejects_a_batch_without_target_tokens():
    model = DenoiserModel(tiny_config("causal"), seed=20)
    batch = _padded_batch(model.config)
    tokens = batch.tokens.copy()
    tokens[:, batch.cond_width:] = batch.pad_id
    no_targets = dataclasses.replace(batch, tokens=tokens)
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
        logits = forward_columns(model, tokens)
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
    logits = forward_columns(model, batch_tokens)
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
    np.testing.assert_array_equal(forward_columns(restored, batch_tokens).value,
                                  forward_columns(model, batch_tokens).value)
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


def test_checkpoint_refuses_a_manifest_that_is_not_an_object(tmp_path):
    model, opt, _ = _trained_tiny(seed=10)
    path = tmp_path / "ckpt"
    _save(path, model, opt, 0)
    manifest = path / "manifest.json"
    manifest.write_text(json.dumps([json.loads(manifest.read_text())]))
    with pytest.raises(ValueError, match=re.escape(f"{manifest}: manifest is not a JSON object")):
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
