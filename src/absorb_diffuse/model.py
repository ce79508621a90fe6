"""Transformer token denoiser.

Pre-norm GPT-2 style blocks with learned positional embeddings. The same
architecture serves both sequence models: bidirectional attention for the
diffusion denoiser, causal attention for the left-to-right baseline. There
is no timestep embedding; the corruption level is implicit in how many
positions currently show the mask token. The output head scores content
tokens only, so the model can never emit mask or pad.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad

ATTENTION_MODES = ("bidirectional", "causal")

INIT_STD = 0.02
NEG_INF = -1e9


@dataclass
class ModelConfig:
    vocab_size: int      # includes the mask and pad specials
    max_seq_len: int
    n_layers: int = 3
    n_heads: int = 12
    hidden_dim: int = 384
    attention: str = "bidirectional"

    def __post_init__(self):
        if self.attention not in ATTENTION_MODES:
            raise ValueError(f"attention must be one of {ATTENTION_MODES}, got {self.attention!r}")
        if self.hidden_dim % self.n_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by n_heads {self.n_heads}"
            )
        if self.vocab_size < 3:
            raise ValueError(f"vocab_size {self.vocab_size} leaves no content tokens")
        for field in ("vocab_size", "max_seq_len", "n_layers", "n_heads", "hidden_dim"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.n_heads

    @property
    def content_vocab(self) -> int:
        # mask and pad are input-only specials
        return self.vocab_size - 2

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


class DenoiserModel:
    """Parameter container plus forward pass. Parameters live in a flat
    name -> Node dict so the optimizer and checkpoints stay format-agnostic."""

    def __init__(self, config: ModelConfig, seed: int = 0, params: dict | None = None):
        self.config = config
        if params is not None:
            self.params = {k: ad.parameter(v) for k, v in params.items()}
            self._check_param_shapes()
            return
        rng = np.random.default_rng(seed)
        c = config
        d = c.hidden_dim

        def w(*shape):
            return ad.parameter(rng.normal(0.0, INIT_STD, size=shape))

        def zeros(*shape):
            return ad.parameter(np.zeros(shape))

        def ones(*shape):
            return ad.parameter(np.ones(shape))

        p = {
            "tok_emb": w(c.vocab_size, d),
            "pos_emb": w(c.max_seq_len, d),
            "ln_f.gain": ones(d),
            "ln_f.bias": zeros(d),
            "out.w": w(d, c.content_vocab),
            "out.b": zeros(c.content_vocab),
        }
        for i in range(c.n_layers):
            h = f"h{i}"
            p[f"{h}.ln1.gain"] = ones(d)
            p[f"{h}.ln1.bias"] = zeros(d)
            for proj in ("wq", "wk", "wv", "wo"):
                p[f"{h}.attn.{proj}"] = w(d, d)
            for proj in ("bq", "bk", "bv", "bo"):
                p[f"{h}.attn.{proj}"] = zeros(d)
            p[f"{h}.ln2.gain"] = ones(d)
            p[f"{h}.ln2.bias"] = zeros(d)
            p[f"{h}.mlp.w1"] = w(d, 4 * d)
            p[f"{h}.mlp.b1"] = zeros(4 * d)
            p[f"{h}.mlp.w2"] = w(4 * d, d)
            p[f"{h}.mlp.b2"] = zeros(d)
        self.params = p

    def _check_param_shapes(self):
        ref = DenoiserModel(self.config, seed=0)
        want = {k: v.value.shape for k, v in ref.params.items()}
        got = {k: v.value.shape for k, v in self.params.items()}
        if want != got:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            bad = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
            raise ValueError(
                f"parameter set does not match config: missing {missing}, "
                f"unexpected {extra}, shape mismatches {bad}"
            )

    def num_params(self) -> int:
        return sum(p.value.size for p in self.params.values())

    def zero_grad(self) -> None:
        ad.zero_grads(self.params)

    def param_arrays(self) -> dict:
        return {k: p.value for k, p in self.params.items()}

    def _attention_bias(self, pad_mask, seq_len: int, dtype) -> np.ndarray:
        """Additive [B_or_1, 1, S, S] bias: NEG_INF on forbidden keys."""
        if self.config.attention == "causal":
            base = np.triu(np.full((seq_len, seq_len), NEG_INF, dtype=dtype), k=1)
        else:
            base = np.zeros((seq_len, seq_len), dtype=dtype)
        bias = base[None, None]
        if pad_mask is not None:
            key_block = np.where(pad_mask[:, None, None, :], 0.0, NEG_INF).astype(dtype)
            bias = bias + key_block
        return bias

    def forward(self, tokens, pad_mask=None) -> ad.Node:
        """Score content tokens at every position.

        tokens: int [B, S]; pad_mask: optional bool [B, S], False at padding.
        Returns logits over the content vocabulary, shape [B, S, content].
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be [batch, seq], got {tokens.shape}")
        b, s = tokens.shape
        if s > self.config.max_seq_len:
            raise ValueError(f"sequence length {s} exceeds max_seq_len {self.config.max_seq_len}")
        p = self.params
        c = self.config
        d, nh, hd = c.hidden_dim, c.n_heads, c.head_dim

        x = ad.add(ad.embedding_lookup(p["tok_emb"], tokens),
                   ad.embedding_lookup(p["pos_emb"], np.arange(s)))
        bias = ad.constant(self._attention_bias(pad_mask, s, x.value.dtype))

        for i in range(c.n_layers):
            h = f"h{i}"
            ln = ad.layer_norm(x, p[f"{h}.ln1.gain"], p[f"{h}.ln1.bias"])
            flat = ad.reshape(ln, (b * s, d))

            def heads(proj, bname):
                y = ad.add(ad.matmul(flat, p[proj]), p[bname])
                return ad.transpose(ad.reshape(y, (b, s, nh, hd)), (0, 2, 1, 3))

            q = heads(f"{h}.attn.wq", f"{h}.attn.bq")
            k = heads(f"{h}.attn.wk", f"{h}.attn.bk")
            v = heads(f"{h}.attn.wv", f"{h}.attn.bv")
            scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(hd))
            att = ad.softmax(ad.add(scores, bias), axis=-1)
            ctx = ad.matmul(att, v)
            ctx = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b * s, d))
            proj = ad.add(ad.matmul(ctx, p[f"{h}.attn.wo"]), p[f"{h}.attn.bo"])
            x = ad.add(x, ad.reshape(proj, (b, s, d)))

            ln2 = ad.layer_norm(x, p[f"{h}.ln2.gain"], p[f"{h}.ln2.bias"])
            flat2 = ad.reshape(ln2, (b * s, d))
            hmid = ad.gelu(ad.add(ad.matmul(flat2, p[f"{h}.mlp.w1"]), p[f"{h}.mlp.b1"]))
            hout = ad.add(ad.matmul(hmid, p[f"{h}.mlp.w2"]), p[f"{h}.mlp.b2"])
            x = ad.add(x, ad.reshape(hout, (b, s, d)))

        xf = ad.layer_norm(x, p["ln_f.gain"], p["ln_f.bias"])
        logits = ad.add(ad.matmul(ad.reshape(xf, (b * s, d)), p["out.w"]), p["out.b"])
        return ad.reshape(logits, (b, s, c.content_vocab))


def ar_nll(model: DenoiserModel, batch) -> tuple[ad.Node, int]:
    """Teacher-forced negative log likelihood of target tokens, causal mode.

    Position j is predicted from the prefix ending at j-1, so only target
    positions contribute. Returns (mean NLL over target tokens, token count).
    """
    if model.config.attention != "causal":
        raise ValueError("ar_nll requires a causal model")
    logits = model.forward(batch.tokens, batch.pad_mask)
    b, s, k = logits.value.shape
    pred = ad.reshape(ad.narrow(logits, 1, 0, s - 1), ((s - 1) * b, k))
    targets = batch.tokens[:, 1:].reshape(-1)
    weights = batch.target_mask[:, 1:].reshape(-1).astype(np.float64)
    n_tok = int(weights.sum())
    if n_tok == 0:
        raise ValueError("batch contains no target tokens")
    # pad ids sit outside the content vocab; zero-weight slots get a dummy target
    targets = np.where(weights > 0, targets, 0)
    loss = ad.softmax_cross_entropy(pred, targets, weights / n_tok)
    return loss, n_tok
