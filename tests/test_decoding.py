"""Decoder contracts driven by oracle models with controllable behaviour."""

import numpy as np
import pytest

from absorb_diffuse import autodiff as ad
from absorb_diffuse.data import pack_rows
from absorb_diffuse.decoding import (
    DecodeConfig,
    ar_decode,
    default_steps,
    diffusion_decode,
    throughput_probe,
)
from absorb_diffuse.model import ModelConfig, DenoiserModel

RNG = np.random.default_rng(515)

VOCAB = 9          # 7 content + mask + pad
MASK_ID = 7
PAD_ID = 8


class OracleDenoiser:
    """Predicts the true canvas at every position with given confidence.

    conf_fn(position index) -> probability assigned to the true token;
    leftover mass spreads over the other content tokens. Positions scored
    higher are committed earlier by the TopK rule, letting tests dictate
    the reveal order exactly.
    """

    def __init__(self, truth: np.ndarray, conf_fn=None):
        self.truth = truth  # [B, S] int
        self.conf_fn = conf_fn or (lambda pos: 0.999)
        self.calls = 0

    def forward(self, tokens, pad_mask=None):
        self.calls += 1
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
        return ad.constant(logits, dtype=np.float64)


def _oracle_batch(rows=3, cond=3, width=8, lengths=(8, 5, 8)):
    conds = [list(RNG.integers(0, VOCAB - 2, size=cond)) for _ in range(rows)]
    outs = [list(RNG.integers(0, VOCAB - 2, size=lengths[i])) for i in range(rows)]
    batch = pack_rows(conds, outs, cond, width, PAD_ID)
    return batch


def test_default_steps_rule():
    assert default_steps(21.0) == 20
    assert default_steps(20.0) == 10
    assert default_steps(9.0) == 10


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
    out = diffusion_decode(model, batch, cfg, MASK_ID, PAD_ID)
    want = np.where(batch.target_mask[:, batch.cond_width:],
                    batch.tokens[:, batch.cond_width:], PAD_ID)
    np.testing.assert_array_equal(out, want)
    assert not (out == MASK_ID).any()


def test_reveal_counts_match_schedule_exactly():
    batch = _oracle_batch(lengths=(8, 5, 7))
    model = OracleDenoiser(batch.tokens)
    steps = 3
    cfg = DecodeConfig(steps=steps, temperature=0.5, strategy="topk", seed=2)
    trace = []
    diffusion_decode(model, batch, cfg, MASK_ID, PAD_ID, trace=trace)
    assert len(trace) == steps
    lengths = batch.target_lengths()
    for s, revealed in enumerate(trace, start=1):
        got = revealed.sum(axis=1)
        want = np.ceil(s * lengths / steps).astype(int)
        np.testing.assert_array_equal(got, want), s
    # final step reveals everything
    np.testing.assert_array_equal(trace[-1].sum(axis=1), lengths)


def test_easy_first_order_follows_confidence():
    # confidence decreasing with position: positions revealed lowest-first
    batch = _oracle_batch(rows=1, cond=2, width=6, lengths=(6,))
    model = OracleDenoiser(batch.tokens, conf_fn=lambda pos: 0.9999 - 1e-5 * pos)
    cfg = DecodeConfig(steps=3, temperature=1.0, strategy="topk", seed=3)
    trace = []
    diffusion_decode(model, batch, cfg, MASK_ID, PAD_ID, trace=trace)
    cw = batch.cond_width
    first = np.flatnonzero(trace[0][0, cw:])
    np.testing.assert_array_equal(first, [0, 1])
    second = np.flatnonzero(trace[1][0, cw:])
    np.testing.assert_array_equal(second, [0, 1, 2, 3])


def test_ties_break_toward_lowest_index():
    batch = _oracle_batch(rows=1, cond=2, width=6, lengths=(6,))
    model = OracleDenoiser(batch.tokens, conf_fn=lambda pos: 0.999)  # all equal
    cfg = DecodeConfig(steps=6, temperature=1e-6, strategy="topk", seed=4)
    trace = []
    diffusion_decode(model, batch, cfg, MASK_ID, PAD_ID, trace=trace)
    cw = batch.cond_width
    # equal confidences reveal in strict position order, one per step
    for s, revealed in enumerate(trace, start=1):
        np.testing.assert_array_equal(np.flatnonzero(revealed[0, cw:]),
                                      np.arange(s))


def test_random_strategy_recovers_with_oracle():
    batch = _oracle_batch()
    model = OracleDenoiser(batch.tokens)
    cfg = DecodeConfig(steps=4, temperature=0.5, strategy="random", seed=5)
    out = diffusion_decode(model, batch, cfg, MASK_ID, PAD_ID)
    want = np.where(batch.target_mask[:, batch.cond_width:],
                    batch.tokens[:, batch.cond_width:], PAD_ID)
    np.testing.assert_array_equal(out, want)


def test_decode_determinism_same_seed():
    batch = _oracle_batch()
    model = OracleDenoiser(batch.tokens, conf_fn=lambda pos: 0.6)
    cfg = DecodeConfig(steps=5, temperature=1.0, strategy="topk", seed=9)
    a = diffusion_decode(model, batch, cfg, MASK_ID, PAD_ID)
    b = diffusion_decode(model, batch, cfg, MASK_ID, PAD_ID)
    np.testing.assert_array_equal(a, b)


def test_decode_fills_pads_beyond_length():
    batch = _oracle_batch(lengths=(4, 2, 6), width=8)
    model = OracleDenoiser(batch.tokens)
    out = diffusion_decode(model, batch, DecodeConfig(steps=2, seed=0),
                           MASK_ID, PAD_ID)
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

    def forward(self, tokens, pad_mask=None):
        b, s = tokens.shape
        k = VOCAB - 2
        logits = np.full((b, s, k), np.log(0.001 / (k - 1)), dtype=np.float64)
        for i in range(b):
            for pos in range(s - 1):
                nxt = int(self.truth[i, pos + 1])
                if nxt < k:
                    logits[i, pos, nxt] = np.log(0.999)
        return ad.constant(logits, dtype=np.float64)


def test_ar_decode_recovers_truth():
    batch = _oracle_batch(lengths=(6, 4, 8), width=8)
    model = OracleCausal(batch.tokens)
    cfg = DecodeConfig(steps=1, temperature=0.1, strategy="topk", seed=3)
    out = ar_decode(model, batch, cfg, PAD_ID)
    want = np.where(batch.target_mask[:, batch.cond_width:],
                    batch.tokens[:, batch.cond_width:], PAD_ID)
    np.testing.assert_array_equal(out, want)


def test_ar_decode_respects_max_new():
    batch = _oracle_batch(lengths=(8, 8, 8), width=8)
    model = OracleCausal(batch.tokens)
    cfg = DecodeConfig(steps=1, temperature=0.1, seed=1)
    out = ar_decode(model, batch, cfg, PAD_ID, max_new=np.array([3, 0, 8]))
    assert (out[0, 3:] == PAD_ID).all() and (out[0, :3] != PAD_ID).all()
    assert (out[1] == PAD_ID).all()
    assert (out[2] != PAD_ID).all()


def test_ar_decode_stops_at_eos():
    batch = _oracle_batch(rows=1, cond=2, lengths=(6,), width=6)
    truth = batch.tokens.copy()
    eos = 5
    truth[0, batch.cond_width + 2] = eos
    model = OracleCausal(truth)
    cfg = DecodeConfig(steps=1, temperature=0.1, seed=2)
    out = ar_decode(model, batch, cfg, PAD_ID, eos_id=eos)
    assert (out[0, 2:] == PAD_ID).all()
    np.testing.assert_array_equal(out[0, :2], truth[0, batch.cond_width:batch.cond_width + 2])


def test_ar_decode_requires_causal_model():
    batch = _oracle_batch()
    cfg = ModelConfig(vocab_size=VOCAB, max_seq_len=batch.tokens.shape[1],
                      n_layers=1, n_heads=2, hidden_dim=8,
                      attention="bidirectional")
    model = DenoiserModel(cfg, seed=0)
    with pytest.raises(ValueError):
        ar_decode(model, batch, DecodeConfig(steps=1, seed=0), PAD_ID)


# ---------------------------------------------------------------------------
# throughput probe


def test_throughput_probe_reports_grid():
    batch = _oracle_batch()
    model = OracleDenoiser(batch.tokens)
    rows = throughput_probe(model, batch, [1, 2, 4],
                            DecodeConfig(steps=1, seed=0), MASK_ID, PAD_ID,
                            repeats=2)
    assert [r["steps"] for r in rows] == [1, 2, 4]
    assert all(r["seconds"] > 0 for r in rows)
    assert all(r["samples_per_sec"] > 0 for r in rows)
    assert "accuracy" not in rows[0]


def test_throughput_probe_scorer():
    batch = _oracle_batch()
    model = OracleDenoiser(batch.tokens)
    rows = throughput_probe(model, batch, [2], DecodeConfig(steps=1, seed=0),
                            MASK_ID, PAD_ID,
                            scorer=lambda decoded: 1.0)
    assert rows[0]["accuracy"] == 1.0
