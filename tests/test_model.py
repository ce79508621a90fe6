"""Transformer denoiser: shapes, masking semantics, training signal, checkpoints."""

import numpy as np
import pytest

from absorb_diffuse import autodiff as ad
from absorb_diffuse.checkpoint import load_checkpoint, save_checkpoint
from absorb_diffuse.data import Batch, pack_rows
from absorb_diffuse.model import (
    ModelConfig,
    DenoiserModel,
    ar_nll,
)

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
    again = ModelConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_forward_shapes_and_head_excludes_specials():
    cfg = tiny_config()
    model = DenoiserModel(cfg, seed=1)
    tokens = RNG.integers(0, cfg.vocab_size, size=(3, cfg.max_seq_len)).astype(np.int32)
    logits = model.forward(tokens)
    assert logits.value.shape == (3, cfg.max_seq_len, cfg.content_vocab)


def test_causal_model_ignores_future_tokens():
    cfg = tiny_config("causal")
    model = DenoiserModel(cfg, seed=2)
    a = RNG.integers(0, cfg.content_vocab, size=(1, cfg.max_seq_len)).astype(np.int32)
    b = a.copy()
    b[0, 7:] = (b[0, 7:] + 1) % cfg.content_vocab  # only positions >= 7 differ
    la = model.forward(a).value
    lb = model.forward(b).value
    np.testing.assert_allclose(la[0, :7], lb[0, :7], rtol=0, atol=1e-6)
    assert not np.allclose(la[0, 7:], lb[0, 7:], atol=1e-6)


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
    arrays = model.param_arrays()
    clone = DenoiserModel(cfg, params={k: v.copy() for k, v in arrays.items()})
    tokens = RNG.integers(0, cfg.vocab_size, size=(2, cfg.max_seq_len)).astype(np.int32)
    np.testing.assert_array_equal(model.forward(tokens).value,
                                  clone.forward(tokens).value)
    bad = {k: v.copy() for k, v in arrays.items()}
    first = next(iter(bad))
    bad[first] = bad[first][..., :-1]
    with pytest.raises(ValueError):
        DenoiserModel(cfg, params=bad)


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


def test_ar_nll_decreases_when_memorizing():
    cfg = tiny_config("causal")
    model = DenoiserModel(cfg, seed=7)
    batch = _toy_batch(cfg, rows=2)
    opt = ad.Adam(model.params, lr=3e-3)
    first = None
    for _ in range(60):
        loss, _ = ar_nll(model, batch)
        if first is None:
            first = float(loss.value)
        model.zero_grad()
        loss.backward()
        opt.step()
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
    model.zero_grad()
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


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    cfg = tiny_config()
    model = DenoiserModel(cfg, seed=9)
    opt = ad.Adam(model.params, lr=1e-3)
    batch_tokens = RNG.integers(0, cfg.content_vocab, size=(2, cfg.max_seq_len)).astype(np.int32)
    logits = model.forward(batch_tokens)
    flat = ad.reshape(logits, (-1, cfg.content_vocab))
    n = flat.value.shape[0]
    loss = ad.softmax_cross_entropy(flat, np.zeros(n, np.int64), np.ones(n) / n)
    model.zero_grad()
    loss.backward()
    opt.step()

    path = tmp_path / "ckpt"
    rng_state = {"probe": 123}
    save_checkpoint(str(path), model.param_arrays(), cfg.to_dict(),
                    optimizer_state=opt.state_dict(), rng_state=rng_state,
                    seed=9, step=1, extra={"note": "test"})
    ck = load_checkpoint(str(path))
    assert ck.step == 1
    assert ck.manifest["extra"]["note"] == "test"
    assert ck.rng_state == rng_state
    for name, arr in model.param_arrays().items():
        np.testing.assert_array_equal(ck.params[name], arr)
    restored = DenoiserModel(ModelConfig.from_dict(ck.model_config), params=ck.params)
    np.testing.assert_array_equal(restored.forward(batch_tokens).value,
                                  model.forward(batch_tokens).value)
    o2 = ad.Adam(restored.params, lr=1e-3)
    o2.load_state_dict(ck.optimizer_state)
    assert o2.t == opt.t


def test_checkpoint_rejects_corrupt_manifest(tmp_path):
    cfg = tiny_config()
    model = DenoiserModel(cfg, seed=10)
    path = tmp_path / "ckpt"
    save_checkpoint(str(path), model.param_arrays(), cfg.to_dict(),
                    optimizer_state=None, rng_state=None, seed=0, step=0)
    manifest = path / "manifest.json"
    text = manifest.read_text().replace('"f32le"', '"f64be"')
    manifest.write_text(text)
    with pytest.raises(ValueError):
        load_checkpoint(str(path))
