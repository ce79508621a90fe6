"""Transformer token denoiser.

Pre-norm GPT-2 style blocks with learned positional embeddings. The same
architecture serves both sequence models: bidirectional attention for the
diffusion denoiser, causal attention for the left-to-right baseline. There
is no timestep embedding; the corruption level is implicit in how many
positions currently show the mask token. The output head scores content
tokens only, so the model can never emit mask or pad.

Each block runs as two sub-blocks, attention then MLP, each a method that
returns the new residual stream. A sub-block drops each intermediate as
soon as its last reader has run; only what a backward saved lives on.
Under `autodiff.no_grad()` nothing is saved, and the forward runs the batch
in row blocks of at most NO_GRAD_BLOCK positions, so a no-grad forward
holds the logits so far, one block's residual stream and mask, and the live
arrays of one sub-block at a time, whatever the batch size: at attention's
peak v, the scores and their softmax, at the MLP's its pre-activation and
gelu's buffer. A key/value cache grows one array at a time. A recording
forward runs every row at once (its tape holds them all until backward
anyway) and keeps on its tape only what backward reads: not the scores
before softmax, the unscaled queries, the MLP pre-activation, the products
added into the residual stream, or the residual stream itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

ATTENTION_MODES = ("bidirectional", "causal")

INIT_STD = 0.02
NEG_INF = -1e9
# Positions (rows x new columns) one row block of a no-grad forward runs:
# 32 rows of the 72-token planning canvas, whose desk sub-blocks peak at
# about 8.6 MB (the MLP: residual stream, mask, pre-activation and gelu's
# buffer). Measured on perfbench's decode workload (2 vCPU) while each
# sub-block still held every intermediate until it returned, 2304 took
# peak RSS from about 111 to 75 MB, 1152 to 70 MB and 576 to 70 MB, while
# 576 lost 10% of samples/s to per-op overhead; 2304 stays four times
# clear of that. Dropping intermediates after their last reader took the
# 2304 figure to about 71 MB.
NO_GRAD_BLOCK = 2304


@dataclass
class ModelConfig:
    vocab_size: int      # includes the mask and pad specials
    max_seq_len: int
    n_layers: int
    n_heads: int
    hidden_dim: int
    attention: str = "bidirectional"

    def __post_init__(self):
        if self.attention not in ATTENTION_MODES:
            raise ValueError(f"attention must be one of {ATTENTION_MODES}, got {self.attention!r}")
        # positive first: n_heads 0 would make the divisibility test divide by zero
        for field in ("vocab_size", "max_seq_len", "n_layers", "n_heads", "hidden_dim"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")
        if self.hidden_dim % self.n_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by n_heads {self.n_heads}"
            )
        if self.vocab_size < 3:
            raise ValueError(f"vocab_size {self.vocab_size} leaves no content tokens")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.n_heads

    @property
    def mask_id(self) -> int:
        return self.vocab_size - 2  # the absorbing state of the corruption

    @property
    def pad_id(self) -> int:
        return self.vocab_size - 1  # every padding slot holds it

    @property
    def content_vocab(self) -> int:
        # mask and pad are the top two ids, input-only: the head scores the rest
        return self.mask_id


def param_shapes(c: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in the order initialisation draws
    them. Checkpoints, Adam and the per-block profile iterate in this order."""
    d, k = c.hidden_dim, c.content_vocab
    shapes = {"tok_emb": (c.vocab_size, d), "pos_emb": (c.max_seq_len, d),
              "ln_f.gain": (d,), "ln_f.bias": (d,), "out.w": (d, k), "out.b": (k,)}
    for i in range(c.n_layers):
        h = f"h{i}"
        shapes |= {f"{h}.ln1.gain": (d,), f"{h}.ln1.bias": (d,)}
        shapes |= {f"{h}.attn.{w}": (d, d) for w in ("wq", "wk", "wv", "wo")}
        shapes |= {f"{h}.attn.{b}": (d,) for b in ("bq", "bk", "bv", "bo")}
        shapes |= {f"{h}.ln2.gain": (d,), f"{h}.ln2.bias": (d,),
                   f"{h}.mlp.w1": (d, 4 * d), f"{h}.mlp.b1": (4 * d,),
                   f"{h}.mlp.w2": (4 * d, d), f"{h}.mlp.b2": (d,)}
    return shapes


def _row_blocks(rows: int, cols: int) -> list[slice]:
    """Near-equal blocks of rows, each of at most NO_GRAD_BLOCK // cols rows
    (four or more on every task's canvas)."""
    k = max(-(-rows // max(NO_GRAD_BLOCK // cols, 1)), 1)
    edges = [rows * j // k for j in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


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

        def init(name, shape):
            # the matrices draw from rng in table order
            if len(shape) == 2:
                return rng.normal(0.0, INIT_STD, size=shape)
            return np.ones(shape) if name.endswith(".gain") else np.zeros(shape)

        self.params = {name: ad.parameter(init(name, shape))
                       for name, shape in param_shapes(config).items()}

    def _check_param_shapes(self):
        want = param_shapes(self.config)
        got = {k: v.value.shape for k, v in self.params.items()}
        if want != got:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            bad = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
            raise ValueError(
                f"parameter set does not match config: missing {missing}, "
                f"unexpected {extra}, shape mismatches {bad}"
            )

    def _attention_bias(self, tokens: np.ndarray, dtype, start: int) -> np.ndarray:
        """Additive [B, 1, S - start, S] bias for the queries at positions
        start..S-1 of tokens [B, S]: NEG_INF on forbidden keys. Pad keys
        are forbidden, except that every query may attend to itself: a
        causal pad query then depends on no later token."""
        seq_len = tokens.shape[1]
        allowed = (tokens != self.config.pad_id)[:, None, :] | np.eye(seq_len, dtype=bool)[start:]
        if self.config.attention == "causal":
            allowed &= np.tri(seq_len, dtype=bool)[start:]
        return np.where(allowed, dtype.type(0), dtype.type(NEG_INF))[:, None]

    def forward(self, tokens, read, cache: dict | None = None) -> ad.Node:
        """Score content tokens at the slots a caller reads.

        tokens: int [B, N], padding shown by the config's pad_id; read:
        bool [B, N], True at the slots whose logits the caller reads.
        Returns their logits over the content vocabulary, flat in row-major
        order: [read.sum(), content].
        Keys and values cover every position. The last block narrows its
        queries to the first read column, and after attention runs wo, the
        residual, ln2, the MLP, ln_f and the head on the read slots only.
        The logits are the full forward's bit for bit.

        cache belongs to one caller, such as one decode call, and only to a
        forward under no_grad(): a recording forward refuses one. Pass {}
        on the first call; it fills cache["qkv"] with layer 0's q, k and v
        of every (id, position) pair, and every call gathers them from it.
        A causal model also keeps in cache[i] layer i's (keys, values) of
        the first m positions, each [B, H, m, hd]; only positions m..N-1
        then run, and none of the cached ones may be read. The logits
        equal the full forward's: causal attention makes a position
        independent of every later one.

        Under no_grad() a forward with no cached positions runs its rows in
        near-equal blocks of at most NO_GRAD_BLOCK positions (rows x N) and
        concatenates the logits; each block fills its own cache, and the
        caches are joined one layer at a time, each layer's parts dropped
        as it is joined. A forward that extends a cache runs one block.
        Each row block keeps alive only its residual stream, its mask and
        the live arrays of the sub-block that is running: at attention's
        peak v, the scores and their softmax; at the MLP's its
        pre-activation and gelu's buffer, each four times the residual
        stream. A cached layer grows its keys, drops the old keys, then
        grows its values, so one grown array is in flight beside the
        cache. A recording forward is one row block and keeps only the
        arrays that backward reads.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be [batch, seq], got {tokens.shape}")
        b, n = tokens.shape
        if n > self.config.max_seq_len:
            raise ValueError(f"sequence length {n} exceeds max_seq_len {self.config.max_seq_len}")
        read = np.asarray(read, dtype=bool)
        if read.shape != tokens.shape:
            raise ValueError(f"read {read.shape} does not match tokens {tokens.shape}")
        if cache is not None and ad.is_grad_enabled():
            raise ValueError("a cache serves only a forward under no_grad()")
        causal = self.config.attention == "causal"
        m = cache[0][0].shape[2] if causal and cache is not None and 0 in cache else 0
        if m >= n:
            raise ValueError(f"the cache already holds {m} of the {n} positions")
        if read[:, :m].any():
            raise ValueError(f"read includes the {m} cached positions, whose logits are gone")
        if cache is not None and "qkv" not in cache:
            cache["qkv"] = self._qkv_table()
        table, kv = None if cache is None else cache["qkv"], cache if causal else None

        # extending a cache runs one block, so no block slices a cached layer
        blocks = [slice(None)] if ad.is_grad_enabled() or m else _row_blocks(b, n)
        if len(blocks) == 1:
            return self._forward_rows(tokens, read, kv, m, table)
        logits, caches = [], []
        for rows in blocks:
            part = None if kv is None else {}
            logits.append(self._forward_rows(tokens[rows], read[rows], part, 0, table))
            caches.append(part)
        if kv is not None:
            for i in range(self.config.n_layers):
                # each layer's parts go as it is joined: one joined layer in flight
                parts = [part.pop(i) for part in caches]
                kv[i] = tuple(np.concatenate([p[j] for p in parts]) for j in (0, 1))
        return ad.concat(logits, axis=0)

    def _embed(self, ids: np.ndarray, start: int) -> ad.Node:
        """The residual stream entering layer 0, [B, s, d], of ids [B, s] at
        positions start..start+s-1."""
        p = self.params
        return ad.add(ad.embedding_lookup(p["tok_emb"], ids),
                      ad.embedding_lookup(p["pos_emb"], np.arange(start, start + ids.shape[1])))

    def _qkv(self, i: int, x: ad.Node, skip: int) -> tuple:
        """Block i's flat q (on the rows from skip on), k and v of the
        residual stream x [B, s, d]."""
        p, c = self.params, self.config
        h = f"h{i}"
        b, s, d = x.value.shape
        ln = ad.layer_norm(x, p[f"{h}.ln1.gain"], p[f"{h}.ln1.bias"])
        flat = ad.reshape(ln, (b * s, d))
        qflat = flat
        if skip:
            qflat = ad.reshape(ad.narrow(ln, 1, skip, s - skip), (b * (s - skip), d))
        # the 1/sqrt(hd) score scale goes on q, which is smaller than the scores
        q = ad.scale(ad.matmul(qflat, p[f"{h}.attn.wq"], p[f"{h}.attn.bq"]),
                     1.0 / np.sqrt(c.head_dim))
        del qflat
        return (q, ad.matmul(flat, p[f"{h}.attn.wk"], p[f"{h}.attn.bk"]),
                ad.matmul(flat, p[f"{h}.attn.wv"], p[f"{h}.attn.bv"]))

    def _qkv_table(self) -> tuple:
        """Layer 0's (q, k, v), each [V * S, d], at row id * S + position,
        S = max_seq_len: the per-slot values bit for bit, as both come
        from _qkv."""
        c = self.config
        ids = np.broadcast_to(np.arange(c.vocab_size)[:, None], (c.vocab_size, c.max_seq_len))
        return self._qkv(0, self._embed(ids, 0), 0)

    def _forward_rows(self, tokens: np.ndarray, read: np.ndarray, cache: dict | None, m: int,
                      table: tuple | None) -> ad.Node:
        """The forward over all of these rows at once; m positions are cached."""
        n = tokens.shape[1]
        p, c = self.params, self.config
        x = self._embed(tokens[:, m:], m)
        bias = self._attention_bias(tokens, x.value.dtype, start=m)
        # the last block's queries start at the first read column
        q0 = m + int(np.argmax(read[:, m:].any(axis=0)))
        sel = np.flatnonzero(read[:, q0:])
        if sel.size == read[:, q0:].size:
            sel = None  # every slot from q0 on is read
        lookup = None if table is None else (
            table, tokens[:, m:].astype(np.int64) * c.max_seq_len + np.arange(m, n))

        for i in range(c.n_layers):
            last = i == c.n_layers - 1
            x = self._attention(i, x, bias, q0 - m if last else 0, cache,
                                lookup if i == 0 else None, sel if last else None)
            x = self._mlp(i, x)

        b, rows = x.value.shape[:2]
        xf = ad.layer_norm(x, p["ln_f.gain"], p["ln_f.bias"])
        return ad.matmul(ad.reshape(xf, (b * rows, c.hidden_dim)), p["out.w"], p["out.b"])

    def _attention(self, i: int, x: ad.Node, bias: np.ndarray, skip: int,
                   cache: dict | None, lookup: tuple | None, sel: np.ndarray | None) -> ad.Node:
        """Block i's attention sub-block: the residual stream after it, on
        the rows from skip on, or [1, len(sel), d] at their flat indices
        sel. lookup is (the q/k/v table, each slot's row in it) when layer
        0 gathers q, k and v. Each intermediate goes once its last reader
        has run: q and k once the scores exist, the scores once softmax
        has run, the softmax and v once att @ v has. Under no_grad() its
        peak is therefore the residual stream, v, the mask, the scores and
        their softmax. With a cache the layer's keys grow first and the old
        keys go before its values grow, so one grown array is in flight."""
        p, c = self.params, self.config
        h = f"h{i}"
        b, s, d = x.value.shape
        nh, hd = c.n_heads, c.head_dim
        rows = s - skip
        if lookup is None:
            q, k, v = self._qkv(i, x, skip)
        else:
            (tq, tk, tv), at = lookup
            q, k, v = (ad.embedding_lookup(tq, at[:, skip:]), ad.embedding_lookup(tk, at),
                       ad.embedding_lookup(tv, at))
        if skip:
            x = ad.narrow(x, 1, skip, rows)
            bias = bias[:, :, skip:]

        def heads(y, n_pos):
            return ad.transpose(ad.reshape(y, (b, n_pos, nh, hd)), (0, 2, 1, 3))

        q, k, v = heads(q, rows), heads(k, s), heads(v, s)
        if cache is not None:
            if i in cache:
                # the old keys go before the values grow: one grown array in flight
                ck, cv = cache.pop(i)
                k = ad.concat([ad.constant(ck, ck.dtype), k], axis=2)
                del ck
                v = ad.concat([ad.constant(cv, cv.dtype), v], axis=2)
                del cv
            cache[i] = (k.value, v.value)
        scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2)))
        del q, k
        att = ad.softmax(scores, bias)
        del scores
        ctx = ad.matmul(att, v)
        del att, v
        ctx = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b * rows, d))
        if sel is not None:
            # only the read slots go on to the head
            ctx = ad.embedding_lookup(ctx, sel)
            x = ad.embedding_lookup(ad.reshape(x, (b * rows, d)), sel[None])
            b, rows = 1, sel.size
        proj = ad.matmul(ctx, p[f"{h}.attn.wo"], p[f"{h}.attn.bo"])
        return ad.add(x, ad.reshape(proj, (b, rows, d)))

    def _mlp(self, i: int, x: ad.Node) -> ad.Node:
        """Block i's MLP sub-block: the residual stream after it. The ln2
        output goes once the w1 product exists and the pre-activation once
        gelu has run, so under no_grad() its peak is the residual stream,
        the pre-activation and gelu's buffer, both [B * rows, 4d]."""
        p = self.params
        h = f"h{i}"
        b, rows, d = x.value.shape
        flat = ad.reshape(ad.layer_norm(x, p[f"{h}.ln2.gain"], p[f"{h}.ln2.bias"]), (b * rows, d))
        hmid = ad.matmul(flat, p[f"{h}.mlp.w1"], p[f"{h}.mlp.b1"])
        del flat
        hmid = ad.gelu(hmid)  # the rebinding drops the pre-activation
        hout = ad.matmul(hmid, p[f"{h}.mlp.w2"], p[f"{h}.mlp.b2"])
        return ad.add(x, ad.reshape(hout, (b, rows, d)))


def ar_nll(model: DenoiserModel, batch) -> tuple[ad.Node, np.ndarray]:
    """Teacher-forced negative log likelihood of target tokens, causal mode.

    Position j is predicted from the prefix ending at j-1, so only target
    positions contribute. Returns (mean NLL over target tokens, the
    detached token NLL u as a [B, S] float64 canvas, zero outside the
    target slots).
    """
    if model.config.attention != "causal":
        raise ValueError("ar_nll requires a causal model")
    b, s = batch.tokens.shape
    # position j predicts token j + 1, so the logits start one slot before the target
    q0 = max(batch.cond_width - 1, 0)
    targets = batch.tokens[:, q0 + 1:].reshape(-1)
    weights = batch.target_mask[:, q0 + 1:].reshape(-1).astype(np.float64)
    n_tok = int(weights.sum())
    if n_tok == 0:
        raise ValueError("batch contains no target tokens")
    # the last position predicts nothing; causal attention lets the rest ignore it
    read = np.zeros((b, s - 1), dtype=bool)
    read[:, q0:] = True
    logits = model.forward(batch.tokens[:, :-1], read)
    # pad ids sit outside the content vocab; zero-weight slots get a dummy target
    targets = np.where(weights > 0, targets, 0)
    logp = ad.log_softmax(logits.value)  # shared with the loss kernel below
    u = np.where(weights > 0, -logp[np.arange(targets.size), targets], 0.0)
    loss = ad.softmax_cross_entropy(logits, targets, weights / n_tok, logp=logp)
    return loss, np.pad(u.reshape(b, s - 1 - q0), ((0, 0), (q0 + 1, 0)))
