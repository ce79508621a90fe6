"""Decoder contracts driven by oracle models with controllable behaviour."""

import hashlib
import os

import numpy as np
import pytest

from absorb_diffuse import autodiff as ad
from absorb_diffuse.decoding import DecodeConfig, ar_decode, diffusion_decode
from absorb_diffuse.harness import evaluate_model
from absorb_diffuse.harness.config import ExperimentConfig
from absorb_diffuse.model import ModelConfig, DenoiserModel
from absorb_diffuse.tasks import encode_instances, get_task

from helpers import (StubDenoiser, ar_decode_full_canvas, diffusion_decode_full_canvas,
                     pack_rows, reveals_per_step, traced_peak)

RNG = np.random.default_rng(515)

VOCAB = 9          # 7 content + mask + pad
MASK_ID = 7
PAD_ID = 8


class OracleDenoiser(StubDenoiser):
    """Predicts the true canvas at every position with given confidence.

    conf_fn(position index) -> probability assigned to the true token;
    leftover mass spreads over the other content tokens. Positions scored
    higher are committed earlier by the TopK rule, letting tests dictate
    the reveal order exactly. Each canvas it is given is kept in `canvases`.
    """

    def __init__(self, truth: np.ndarray, conf_fn=None):
        super().__init__(VOCAB)
        self.truth = truth  # [B, S] int
        self.conf_fn = conf_fn or (lambda pos: 0.999)
        self.canvases = []

    def logits(self, tokens):
        self.canvases.append(tokens.copy())  # the decoder writes its canvas
        b, s = tokens.shape
        k = VOCAB - 2
        logits = np.zeros((b, s, k), dtype=np.float64)
        for pos in range(s):
            p_true = float(self.conf_fn(pos))
            rest = (1.0 - p_true) / (k - 1)
            row = np.full(k, rest)
            logits[:, pos, :] = np.log(row)[None, :]
            for i in range(b):
                true_tok = int(self.truth[i, pos])
                if true_tok < k:
                    logits[i, pos, true_tok] = np.log(p_true)
        return logits


def _rng(cfg):
    return np.random.default_rng(cfg.seed)


def _oracle_batch(rows=3, cond=3, width=8, lengths=(8, 5, 8)):
    conds = [list(RNG.integers(0, VOCAB - 2, size=cond)) for _ in range(rows)]
    outs = [list(RNG.integers(0, VOCAB - 2, size=lengths[i])) for i in range(rows)]
    batch = pack_rows(conds, outs, cond, width, PAD_ID)
    return batch


def test_decode_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(steps=0, temperature=0.5, strategy="topk", seed=0)
    with pytest.raises(ValueError):
        DecodeConfig(steps=20, temperature=0.0, strategy="topk", seed=0)
    with pytest.raises(ValueError):
        DecodeConfig(steps=20, temperature=0.5, strategy="beam", seed=0)


@pytest.mark.parametrize("steps", [1, 4, 8])
def test_oracle_decode_recovers_truth(steps):
    batch = _oracle_batch()
    model = OracleDenoiser(batch.tokens)
    cfg = DecodeConfig(steps=steps, temperature=0.5, strategy="topk", seed=1)
    out = diffusion_decode(model, batch, cfg, _rng(cfg))
    want = np.where(batch.target_mask[:, batch.cond_width:],
                    batch.tokens[:, batch.cond_width:], PAD_ID)
    np.testing.assert_array_equal(out, want)
    assert not (out == MASK_ID).any()


def test_reveal_counts_match_schedule_exactly():
    batch = _oracle_batch(lengths=(8, 5, 7))
    model = OracleDenoiser(batch.tokens)
    steps = 3
    cfg = DecodeConfig(steps=steps, temperature=0.5, strategy="topk", seed=2)
    out = diffusion_decode(model, batch, cfg, _rng(cfg))
    trace = reveals_per_step(model.canvases, out, batch, MASK_ID)
    assert len(trace) == steps
    lengths = batch.target_mask.sum(axis=1)
    for s, revealed in enumerate(trace, start=1):
        got = revealed.sum(axis=1)
        want = np.ceil(s * lengths / steps).astype(int)
        np.testing.assert_array_equal(got, want), s
    # final step reveals everything
    np.testing.assert_array_equal(trace[-1].sum(axis=1), lengths)


def test_easy_first_order_follows_confidence():
    # target slots listed from most to least confident: in position order,
    # then in an order that is not its own inverse permutation
    for by_conf in ([0, 1, 2, 3, 4, 5], [3, 0, 4, 1, 5, 2]):
        batch = _oracle_batch(rows=1, cond=2, width=6, lengths=(6,))
        conf = {batch.cond_width + j: 0.9999 - 1e-5 * i for i, j in enumerate(by_conf)}
        model = OracleDenoiser(batch.tokens, conf_fn=lambda pos: conf.get(pos, 0.9999))
        cfg = DecodeConfig(steps=3, temperature=1.0, strategy="topk", seed=3)
        out = diffusion_decode(model, batch, cfg, _rng(cfg))
        trace = reveals_per_step(model.canvases, out, batch, MASK_ID)
        for step, n in ((0, 2), (1, 4)):
            np.testing.assert_array_equal(np.flatnonzero(trace[step][0]), sorted(by_conf[:n]))


def test_ties_break_toward_lowest_index():
    batch = _oracle_batch(rows=1, cond=2, width=6, lengths=(6,))
    model = OracleDenoiser(batch.tokens, conf_fn=lambda pos: 0.999)  # all equal
    cfg = DecodeConfig(steps=6, temperature=1e-6, strategy="topk", seed=4)
    out = diffusion_decode(model, batch, cfg, _rng(cfg))
    trace = reveals_per_step(model.canvases, out, batch, MASK_ID)
    # equal confidences reveal in strict position order, one per step
    for s, revealed in enumerate(trace, start=1):
        np.testing.assert_array_equal(np.flatnonzero(revealed[0]),
                                      np.arange(s))


def test_random_strategy_recovers_with_oracle():
    batch = _oracle_batch()
    model = OracleDenoiser(batch.tokens)
    cfg = DecodeConfig(steps=4, temperature=0.5, strategy="random", seed=5)
    out = diffusion_decode(model, batch, cfg, _rng(cfg))
    want = np.where(batch.target_mask[:, batch.cond_width:],
                    batch.tokens[:, batch.cond_width:], PAD_ID)
    np.testing.assert_array_equal(out, want)


def test_decode_determinism_same_seed():
    batch = _oracle_batch()
    model = OracleDenoiser(batch.tokens, conf_fn=lambda pos: 0.6)
    cfg = DecodeConfig(steps=5, temperature=1.0, strategy="topk", seed=9)
    a = diffusion_decode(model, batch, cfg, _rng(cfg))
    b = diffusion_decode(model, batch, cfg, _rng(cfg))
    np.testing.assert_array_equal(a, b)


def test_decode_fills_pads_beyond_length():
    batch = _oracle_batch(lengths=(4, 2, 6), width=8)
    model = OracleDenoiser(batch.tokens)
    cfg = DecodeConfig(steps=2, temperature=0.5, strategy="topk", seed=0)
    out = diffusion_decode(model, batch, cfg, _rng(cfg))
    lengths = batch.target_mask.sum(axis=1)
    for i, n in enumerate(lengths):
        assert (out[i, n:] == PAD_ID).all()
        assert (out[i, :n] != PAD_ID).all()


# ---------------------------------------------------------------------------
# autoregressive baseline


class OracleCausal(StubDenoiser):
    """Scores the true next token of a fixed canvas; causal stand-in. Each
    canvas it is given is kept in `canvases`."""

    def __init__(self, truth: np.ndarray):
        super().__init__(VOCAB, "causal")
        self.truth = truth
        self.canvases = []

    def logits(self, tokens):
        self.canvases.append(tokens.copy())  # the decoder writes its canvas
        b, s = tokens.shape
        k = VOCAB - 2
        logits = np.full((b, s, k), np.log(0.001 / (k - 1)), dtype=np.float64)
        for i in range(b):
            for pos in range(min(s, self.truth.shape[1] - 1)):
                nxt = int(self.truth[i, pos + 1])
                if nxt < k:
                    logits[i, pos, nxt] = np.log(0.999)
        return logits


def test_ar_decode_recovers_truth():
    batch = _oracle_batch(lengths=(6, 4, 8), width=8)
    model = OracleCausal(batch.tokens)
    cfg = DecodeConfig(steps=1, temperature=0.1, strategy="topk", seed=3)
    out = ar_decode(model, batch, cfg, _rng(cfg))
    want = np.where(batch.target_mask[:, batch.cond_width:],
                    batch.tokens[:, batch.cond_width:], PAD_ID)
    np.testing.assert_array_equal(out, want)


def test_ar_decode_feeds_no_draw_past_a_rows_length():
    # every row draws at every column, but a row's draws past its length
    # stay out of the canvas: each slot that was a pad is a pad in every feed
    batch = _oracle_batch(lengths=(6, 2, 8), width=8)
    model = OracleCausal(batch.tokens)
    cfg = DecodeConfig(steps=1, temperature=1.0, strategy="topk", seed=3)
    ar_decode(model, batch, cfg, _rng(cfg))
    assert len(model.canvases) == 8
    pads = batch.tokens == PAD_ID
    for canvas in model.canvases:
        assert (canvas[pads[:, :canvas.shape[1]]] == PAD_ID).all()


def test_ar_decode_matches_full_canvas_loop():
    rng = np.random.default_rng(8)
    # every width of left padding, target lengths from 1 to the full width
    conds = [list(rng.integers(0, VOCAB - 2, size=n)) for n in (4, 2, 1, 3, 4, 1, 2, 3)]
    outs = [list(rng.integers(0, VOCAB - 2, size=n)) for n in (8, 5, 8, 2, 1, 7, 4, 6)]
    batch = pack_rows(conds, outs, 4, 8, PAD_ID)
    cfg = ModelConfig(vocab_size=VOCAB, max_seq_len=batch.tokens.shape[1], n_layers=2,
                      n_heads=2, hidden_dim=16, attention="causal")
    for seed in (4, 5, 6):
        with ad.using_dtype(np.float64):
            model = DenoiserModel(cfg, seed=seed + 2)
        for param in model.params.values():
            param.value *= 5.0  # above init scale, so a wrong key or position moves the draws
        dcfg = DecodeConfig(steps=1, temperature=1.0, strategy="topk", seed=seed)
        # the decoder reads one column a step and gathers layer 0 from its table;
        # the reference reads every column with no cache
        got = ar_decode(model, batch, dcfg, _rng(dcfg))
        want = ar_decode_full_canvas(model, batch, dcfg, _rng(dcfg))
        np.testing.assert_array_equal(got, want, err_msg=f"seed {seed}")


def test_ar_decode_requires_causal_model():
    batch = _oracle_batch()
    cfg = ModelConfig(vocab_size=VOCAB, max_seq_len=batch.tokens.shape[1],
                      n_layers=1, n_heads=2, hidden_dim=8,
                      attention="bidirectional")
    model = DenoiserModel(cfg, seed=0)
    with pytest.raises(ValueError):
        ar_decode(model, batch, DecodeConfig(steps=1, temperature=0.5, strategy="topk", seed=0),
                  np.random.default_rng(0))


@pytest.mark.parametrize("steps", [1, 2])
def test_diffusion_decode_requires_bidirectional_model(steps):
    # refused before the first forward: at one step a causal model would
    # return text, at two it would die on the cache its first forward filled
    batch = _oracle_batch()
    model = OracleCausal(batch.tokens)
    with pytest.raises(ValueError, match="^diffusion_decode requires a bidirectional model$"):
        diffusion_decode(model, batch,
                         DecodeConfig(steps=steps, temperature=0.5, strategy="topk", seed=0),
                         np.random.default_rng(0))
    assert model.canvases == []


def _desk_profile(kind):
    return ExperimentConfig.from_json(os.path.join(
        os.path.dirname(__file__), "..", "src", "absorb_diffuse", "profiles",
        f"desk_planning_{kind}.json"))


@pytest.mark.parametrize("strategy", ["topk", "random"])
@pytest.mark.parametrize("steps", [1, 5, 20])
def test_diffusion_decode_matches_full_canvas_loop(steps, strategy):
    # a float32 desk planning model over 40 rows (two no-grad row blocks):
    # the decoder reads only the still-masked slots and gathers layer 0 from
    # its q/k/v table; the reference reads every target column with no
    # cache. The logits agree bit for bit, so the outputs agree exactly. The
    # parameters are scaled up so the model, not only the noise, moves the
    # draws.
    task = get_task("planning")
    vocab = task.vocabulary()
    cfg = _desk_profile("diffusion")
    for seed in (1, 2, 3):
        model = DenoiserModel(cfg.model_config(vocab.size), seed=seed)
        for param in model.params.values():
            param.value *= 3.0
        batch = encode_instances(task, task.generate(0, 40, seed)[1], vocab)
        dcfg = DecodeConfig(steps=steps, temperature=0.5, strategy=strategy, seed=seed)
        got = diffusion_decode(model, batch, dcfg, _rng(dcfg))
        want = diffusion_decode_full_canvas(model, batch, dcfg, _rng(dcfg))
        np.testing.assert_array_equal(got, want, err_msg=f"seed {seed}")


@pytest.mark.parametrize("kind, steps, want", [
    ("diffusion", 1, "c3ba2a6d743751ca54e13e0a24f2cf808e951d3b9037ba269650fdcf5033ae73"),
    ("diffusion", 5, "38a2bfcae07e93d96231dd3742829664dbc6bc6c7d9065e94f037b6cfc0b5061"),
    ("diffusion", 20, "c0c2f50b06c075cb8a03a010a0a3ce73a0e5f68966dbc3160f8800b9009520bb"),
    ("ar", None, "26a7084b6eed01f976a00286df18ef36337f9257c586b4adcb15538b58a8916e"),
])
def test_evaluate_model_output_bits_are_pinned(kind, steps, want):
    # sha256 of evaluate_model's outputs for a seeded desk model on 64
    # planning instances (one eval chunk, two no-grad row blocks): a change
    # to what the decoders draw shows here, across commits (with numpy's
    # bundled OpenBLAS)
    task = get_task("planning")
    vocab = task.vocabulary()
    cfg = _desk_profile(kind).replace(seed=7)
    if steps is not None:
        cfg = cfg.replace(decode_steps=steps)
    model = DenoiserModel(cfg.model_config(vocab.size), seed=7)
    res = evaluate_model(model, kind, task, vocab, task.generate(0, 64, 41)[1], cfg.decode_config())
    assert hashlib.sha256("\n".join(res.outputs).encode()).hexdigest() == want


@pytest.mark.parametrize("kind", ["diffusion", "ar"])
def test_a_desk_decode_chunk_peaks_below_9_5_mb(kind):
    # one 64-row eval chunk of the desk planning profile (72-token canvas,
    # 2 layers, d=96, 4 heads) on one thread
    cfg = _desk_profile(kind)
    task = get_task("planning")
    vocab = task.vocabulary()
    batch = encode_instances(task, task.generate(64, 0, 7)[0], vocab)
    model = DenoiserModel(cfg.model_config(vocab.size), seed=3)
    dcfg = DecodeConfig(steps=2, temperature=0.5, strategy="topk", seed=1)
    if kind == "diffusion":
        peak = traced_peak(lambda: diffusion_decode(model, batch, dcfg, _rng(dcfg)))
    else:
        peak = traced_peak(lambda: ar_decode(model, batch, dcfg, _rng(dcfg)))
    # Beside layer 0's q/k/v table, which both decoders hold for the whole
    # call (3 float32 [V * S, d] arrays, 1.24 MB here): diffusion runs two
    # row blocks of 32, whose MLP peaks at the residual stream, the mask, the
    # pre-activation and gelu's buffer: about 8.8 MB. ar: the prefill's two
    # row blocks hold both blocks' caches, about 9.4 MB; the last column a
    # 7.0 MB cache plus one 1.7 MB grown array, about 8.8 MB. Sub-blocks
    # that keep every name bound until they return, and a cache that grows
    # keys and values before the old ones go, peak near 10.7 MB.
    table = 3 * vocab.size * cfg.model_config(vocab.size).max_seq_len * cfg.hidden_dim * 4
    assert peak - table < 9.5e6, f"peak {peak / 1e6:.2f} MB with a {table / 1e6:.2f} MB table"
