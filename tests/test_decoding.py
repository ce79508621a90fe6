"""Decoder contracts driven by oracle models with controllable behaviour."""

import os

import numpy as np
import pytest

from absorb_diffuse import autodiff as ad
from absorb_diffuse.decoding import DecodeConfig, ar_decode, diffusion_decode
from absorb_diffuse.harness.config import ExperimentConfig
from absorb_diffuse.model import ModelConfig, DenoiserModel
from absorb_diffuse.tasks import encode_instances, get_task

from helpers import ar_decode_full_canvas, pack_rows, reveals_per_step, traced_peak

RNG = np.random.default_rng(515)

VOCAB = 9          # 7 content + mask + pad
MASK_ID = 7
PAD_ID = 8


class OracleDenoiser:
    """Predicts the true canvas at every position with given confidence.

    conf_fn(position index) -> probability assigned to the true token;
    leftover mass spreads over the other content tokens. Positions scored
    higher are committed earlier by the TopK rule, letting tests dictate
    the reveal order exactly. Each canvas it is given is kept in `canvases`.
    """

    def __init__(self, truth: np.ndarray, conf_fn=None):
        self.truth = truth  # [B, S] int
        self.conf_fn = conf_fn or (lambda pos: 0.999)
        self.canvases = []

    def forward(self, tokens, pad_mask=None, cache=None, queries_from=0):
        self.canvases.append(np.array(tokens))  # a copy: the decoder writes its canvas
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
        return ad.constant(logits[:, queries_from:], dtype=np.float64)


def _rng(cfg):
    return np.random.default_rng(cfg.seed)


def _oracle_batch(rows=3, cond=3, width=8, lengths=(8, 5, 8)):
    conds = [list(RNG.integers(0, VOCAB - 2, size=cond)) for _ in range(rows)]
    outs = [list(RNG.integers(0, VOCAB - 2, size=lengths[i])) for i in range(rows)]
    batch = pack_rows(conds, outs, cond, width, PAD_ID)
    return batch


def test_decode_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(steps=0)
    with pytest.raises(ValueError):
        DecodeConfig(temperature=0.0)
    with pytest.raises(ValueError):
        DecodeConfig(strategy="beam")


@pytest.mark.parametrize("steps", [1, 4, 8])
def test_oracle_decode_recovers_truth(steps):
    batch = _oracle_batch()
    model = OracleDenoiser(batch.tokens)
    cfg = DecodeConfig(steps=steps, temperature=0.5, strategy="topk", seed=1)
    out = diffusion_decode(model, batch, cfg, MASK_ID, PAD_ID, _rng(cfg))
    want = np.where(batch.target_mask[:, batch.cond_width:],
                    batch.tokens[:, batch.cond_width:], PAD_ID)
    np.testing.assert_array_equal(out, want)
    assert not (out == MASK_ID).any()


def test_reveal_counts_match_schedule_exactly():
    batch = _oracle_batch(lengths=(8, 5, 7))
    model = OracleDenoiser(batch.tokens)
    steps = 3
    cfg = DecodeConfig(steps=steps, temperature=0.5, strategy="topk", seed=2)
    out = diffusion_decode(model, batch, cfg, MASK_ID, PAD_ID, _rng(cfg))
    trace = reveals_per_step(model.canvases, out, batch, MASK_ID)
    assert len(trace) == steps
    lengths = batch.target_lengths()
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
        out = diffusion_decode(model, batch, cfg, MASK_ID, PAD_ID, _rng(cfg))
        trace = reveals_per_step(model.canvases, out, batch, MASK_ID)
        for step, n in ((0, 2), (1, 4)):
            np.testing.assert_array_equal(np.flatnonzero(trace[step][0]), sorted(by_conf[:n]))


def test_ties_break_toward_lowest_index():
    batch = _oracle_batch(rows=1, cond=2, width=6, lengths=(6,))
    model = OracleDenoiser(batch.tokens, conf_fn=lambda pos: 0.999)  # all equal
    cfg = DecodeConfig(steps=6, temperature=1e-6, strategy="topk", seed=4)
    out = diffusion_decode(model, batch, cfg, MASK_ID, PAD_ID, _rng(cfg))
    trace = reveals_per_step(model.canvases, out, batch, MASK_ID)
    # equal confidences reveal in strict position order, one per step
    for s, revealed in enumerate(trace, start=1):
        np.testing.assert_array_equal(np.flatnonzero(revealed[0]),
                                      np.arange(s))


def test_random_strategy_recovers_with_oracle():
    batch = _oracle_batch()
    model = OracleDenoiser(batch.tokens)
    cfg = DecodeConfig(steps=4, temperature=0.5, strategy="random", seed=5)
    out = diffusion_decode(model, batch, cfg, MASK_ID, PAD_ID, _rng(cfg))
    want = np.where(batch.target_mask[:, batch.cond_width:],
                    batch.tokens[:, batch.cond_width:], PAD_ID)
    np.testing.assert_array_equal(out, want)


def test_decode_determinism_same_seed():
    batch = _oracle_batch()
    model = OracleDenoiser(batch.tokens, conf_fn=lambda pos: 0.6)
    cfg = DecodeConfig(steps=5, temperature=1.0, strategy="topk", seed=9)
    a = diffusion_decode(model, batch, cfg, MASK_ID, PAD_ID, _rng(cfg))
    b = diffusion_decode(model, batch, cfg, MASK_ID, PAD_ID, _rng(cfg))
    np.testing.assert_array_equal(a, b)


def test_decode_fills_pads_beyond_length():
    batch = _oracle_batch(lengths=(4, 2, 6), width=8)
    model = OracleDenoiser(batch.tokens)
    cfg = DecodeConfig(steps=2, seed=0)
    out = diffusion_decode(model, batch, cfg, MASK_ID, PAD_ID, _rng(cfg))
    lengths = batch.target_lengths()
    for i, n in enumerate(lengths):
        assert (out[i, n:] == PAD_ID).all()
        assert (out[i, :n] != PAD_ID).all()


# ---------------------------------------------------------------------------
# autoregressive baseline


class OracleCausal:
    """Scores the true next token of a fixed canvas; causal stand-in."""

    def __init__(self, truth: np.ndarray):
        self.truth = truth
        self.config = type("C", (), {"attention": "causal"})()

    def forward(self, tokens, pad_mask=None, cache=None, queries_from=0):
        b, s = tokens.shape
        k = VOCAB - 2
        logits = np.full((b, s, k), np.log(0.001 / (k - 1)), dtype=np.float64)
        for i in range(b):
            for pos in range(min(s, self.truth.shape[1] - 1)):
                nxt = int(self.truth[i, pos + 1])
                if nxt < k:
                    logits[i, pos, nxt] = np.log(0.999)
        return ad.constant(logits[:, queries_from:], dtype=np.float64)


def test_ar_decode_recovers_truth():
    batch = _oracle_batch(lengths=(6, 4, 8), width=8)
    model = OracleCausal(batch.tokens)
    cfg = DecodeConfig(steps=1, temperature=0.1, strategy="topk", seed=3)
    out = ar_decode(model, batch, cfg, PAD_ID, _rng(cfg))
    want = np.where(batch.target_mask[:, batch.cond_width:],
                    batch.tokens[:, batch.cond_width:], PAD_ID)
    np.testing.assert_array_equal(out, want)


def test_ar_decode_matches_full_canvas_loop():
    rng = np.random.default_rng(8)
    # every width of left padding, target lengths from 1 to the full width
    conds = [list(rng.integers(0, VOCAB - 2, size=n)) for n in (4, 2, 1, 3, 4, 1, 2, 3)]
    outs = [list(rng.integers(0, VOCAB - 2, size=n)) for n in (8, 5, 8, 2, 1, 7, 4, 6)]
    batch = pack_rows(conds, outs, 4, 8, PAD_ID)
    cfg = ModelConfig(vocab_size=VOCAB, max_seq_len=batch.tokens.shape[1], n_layers=2,
                      n_heads=2, hidden_dim=16, attention="causal")
    with ad.using_dtype(np.float64):
        model = DenoiserModel(cfg, seed=6)
    for param in model.params.values():
        param.value *= 5.0  # above init scale, so a wrong key or position moves the draws
    dcfg = DecodeConfig(steps=1, temperature=1.0, seed=4)
    got = ar_decode(model, batch, dcfg, PAD_ID, _rng(dcfg))
    want = ar_decode_full_canvas(model, batch, dcfg, PAD_ID, _rng(dcfg))
    np.testing.assert_array_equal(got, want)


def test_ar_decode_requires_causal_model():
    batch = _oracle_batch()
    cfg = ModelConfig(vocab_size=VOCAB, max_seq_len=batch.tokens.shape[1],
                      n_layers=1, n_heads=2, hidden_dim=8,
                      attention="bidirectional")
    model = DenoiserModel(cfg, seed=0)
    with pytest.raises(ValueError):
        ar_decode(model, batch, DecodeConfig(steps=1, seed=0), PAD_ID, np.random.default_rng(0))


@pytest.mark.parametrize("kind", ["diffusion", "ar"])
def test_a_desk_decode_chunk_peaks_below_9_5_mb(kind):
    # one 64-row eval chunk of the desk planning profile (72-token canvas,
    # 2 layers, d=96, 4 heads) on one thread
    cfg = ExperimentConfig.from_json(os.path.join(
        os.path.dirname(__file__), "..", "src", "absorb_diffuse", "profiles",
        f"desk_planning_{kind}.json"))
    task = get_task("planning")
    vocab = task.vocabulary()
    batch = encode_instances(task, task.generate(64, 0, 7)[0], vocab)
    model = DenoiserModel(cfg.model_config(vocab.size), seed=3)
    dcfg = DecodeConfig(steps=2, seed=1)
    if kind == "diffusion":
        peak = traced_peak(lambda: diffusion_decode(model, batch, dcfg, vocab.mask_id,
                                                    vocab.pad_id, _rng(dcfg)))
    else:
        peak = traced_peak(lambda: ar_decode(model, batch, dcfg, vocab.pad_id, _rng(dcfg)))
    # diffusion: two row blocks of 32, whose MLP peaks at the residual stream,
    # the mask, the pre-activation and gelu's buffer: about 8.8 MB. ar: the
    # prefill's two row blocks hold both blocks' caches, about 9.4 MB; the
    # last column a 7.0 MB cache plus one 1.7 MB grown array, about 8.8 MB.
    # Sub-blocks that keep every name bound until they return, and a cache
    # that grows keys and values before the old ones go, peak near 10.7 MB.
    assert peak < 9.5e6, f"peak {peak / 1e6:.2f} MB"
