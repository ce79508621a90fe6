"""Corruption-process math against brute-force oracles, loss identities, ELBO."""

import numpy as np
import pytest

from absorb_diffuse import autodiff as ad
from absorb_diffuse.diffusion import (
    CorruptedBatch,
    NoiseSchedule,
    ReweightConfig,
    diffusion_loss,
    draw_t,
    sample_xt,
    sequence_weight,
    subgoal_loss_profile,
    token_weight,
)
from absorb_diffuse.model import ModelConfig, DenoiserModel

from helpers import (StubDenoiser, beta, elbo_exact, forward_columns, forward_marginal, kl_term,
                     pack_rows, posterior, zero_grads)

RNG = np.random.default_rng(20240818)


# ---------------------------------------------------------------------------
# brute-force oracles: explicit transition-matrix chains


def transition_matrix(beta: float, vocab: int, mask_id: int) -> np.ndarray:
    """One-step absorbing transition matrix Q[i, j] = P(j at t | i at t-1)."""
    q = np.eye(vocab) * (1.0 - beta)
    q[:, mask_id] += beta
    q[mask_id] = 0.0
    q[mask_id, mask_id] = 1.0
    return q


def chained_marginal(schedule: NoiseSchedule, t: int, x0: int, vocab: int,
                     mask_id: int) -> np.ndarray:
    """P(x_t | x_0) by multiplying per-step matrices."""
    dist = np.zeros(vocab)
    dist[x0] = 1.0
    for step in range(1, t + 1):
        dist = dist @ transition_matrix(float(beta(schedule, step)), vocab, mask_id)
    return dist


def bayes_posterior(schedule: NoiseSchedule, t: int, xt: int, x0: int,
                    vocab: int, mask_id: int) -> np.ndarray:
    """P(x_{t-1} | x_t, x_0) by explicit Bayes rule over all x_{t-1}."""
    q_t = transition_matrix(float(beta(schedule, t)), vocab, mask_id)
    prior = chained_marginal(schedule, t - 1, x0, vocab, mask_id) if t > 1 else None
    if prior is None:
        prior = np.zeros(vocab)
        prior[x0] = 1.0
    joint = prior * q_t[:, xt]
    total = joint.sum()
    assert total > 0, "queried an impossible forward event"
    return joint / total


def random_schedule(rng, T: int) -> NoiseSchedule:
    cuts = np.sort(rng.random(T - 1)) if T > 1 else np.empty(0)
    alpha = np.concatenate([[1.0], 1.0 - cuts * 0.9 - 0.05, [0.0]])
    alpha[1:-1] = np.sort(alpha[1:-1])[::-1]
    return NoiseSchedule(alpha)


def test_forward_marginal_matches_chained_matrices():
    worst = 0.0
    for T in range(1, 7):
        for trial in range(3):
            rng = np.random.default_rng(100 * T + trial)
            sched = random_schedule(rng, T)
            for vocab in (3, 4, 5):
                mask_id = vocab - 1
                for t in range(1, T + 1):
                    for x0 in range(vocab - 1):
                        got = forward_marginal(sched, t, x0, vocab, mask_id)
                        want = chained_marginal(sched, t, x0, vocab, mask_id)
                        worst = max(worst, float(np.abs(got - want).max()))
    assert worst < 1e-9, worst


def test_posterior_matches_bayes_enumeration():
    worst = 0.0
    for T in range(1, 7):
        for trial in range(3):
            rng = np.random.default_rng(200 * T + trial)
            sched = random_schedule(rng, T)
            for vocab in (3, 5):
                mask_id = vocab - 1
                for t in range(1, T + 1):
                    for x0 in range(vocab - 1):
                        for xt in (x0, mask_id):
                            if xt == x0 and sched.alpha[t] == 0.0:
                                continue  # zero-probability event
                            got = posterior(sched, t, xt, x0, vocab, mask_id)
                            want = bayes_posterior(sched, t, xt, x0, vocab, mask_id)
                            worst = max(worst, float(np.abs(got - want).max()))
                            assert abs(got.sum() - 1.0) < 1e-9
    assert worst < 1e-9, worst


def test_posterior_rejects_impossible_event():
    sched = NoiseSchedule.linear(4)
    with pytest.raises(ValueError):
        posterior(sched, 2, xt=1, x0=0, vocab=4, mask_id=3)
    with pytest.raises(ValueError):
        posterior(sched, 2, xt=3, x0=3, vocab=4, mask_id=3)  # x0 = mask


def test_linear_schedule_survival_is_one_over_t():
    for T in (1, 2, 5, 20, 100):
        sched = NoiseSchedule.linear(T)
        t = np.arange(1, T + 1)
        np.testing.assert_allclose(sched.survival(t), 1.0 / t, rtol=0, atol=1e-12)


def test_schedule_telescoping():
    for T in (1, 3, 6):
        for trial in range(5):
            sched = random_schedule(np.random.default_rng(300 * T + trial), T)
            t = np.arange(1, T + 1)
            total = (sched.survival(t) * (1.0 - sched.alpha[1:])).sum()
            assert abs(total - (1.0 - sched.alpha[-1])) < 1e-9


def test_schedule_validation():
    with pytest.raises(ValueError):
        NoiseSchedule(np.array([0.9, 0.5]))  # alpha_0 != 1
    with pytest.raises(ValueError):
        NoiseSchedule(np.array([1.0, 0.5, 0.5]))  # not strictly decreasing
    with pytest.raises(ValueError):
        NoiseSchedule(np.array([1.0, -0.1]))
    sched = NoiseSchedule.linear(3)
    with pytest.raises(ValueError):
        sched.survival(0)
    with pytest.raises(ValueError):
        sched.survival(4)


def test_kl_term_matches_explicit_kl_minus_constant():
    # 1e4 randomized cases: KL between the true posterior and the model's
    # marginalized posterior, minus its x0-independent constant
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(10_000):
        T = int(rng.integers(1, 7))
        sched = random_schedule(rng, T)
        t = int(rng.integers(1, T + 1))
        vocab = int(rng.integers(3, 6))
        mask_id = vocab - 1
        x0 = int(rng.integers(0, vocab - 1))
        probs = rng.random(vocab - 1) + 1e-3
        probs /= probs.sum()

        got = kl_term(sched, t, x0, mask_id, probs, mask_id)

        lam = float(sched.survival(t))
        q = posterior(sched, t, mask_id, x0, vocab, mask_id)
        # model posterior: mass lam distributed by model probs, 1-lam on mask
        p = np.zeros(vocab)
        p[:vocab - 1] = lam * probs
        p[mask_id] = 1.0 - lam
        live = q > 0
        explicit = float((q[live] * np.log(q[live] / p[live])).sum())
        # with the content mass lam*f the lam*log(lam) terms cancel inside
        # the KL, so the closed form needs no leftover constant
        worst = max(worst, abs(got - explicit))
    assert worst < 1e-9, worst


def test_kl_term_trivial_cases():
    sched = NoiseSchedule.linear(5)
    probs = np.array([0.25, 0.75])
    assert kl_term(sched, 3, x0=1, xt=1, model_probs=probs, mask_id=2) == 0.0
    perfect = np.array([0.0, 1.0])
    assert kl_term(sched, 3, x0=1, xt=2, model_probs=perfect, mask_id=2) == 0.0
    # t=1: lam=1, so the term is the plain NLL
    got = kl_term(sched, 1, x0=0, xt=2, model_probs=probs, mask_id=2)
    assert abs(got - (-np.log(0.25))) < 1e-12
    with pytest.raises(ValueError):
        kl_term(sched, 2, x0=0, xt=1, model_probs=probs, mask_id=2)


# ---------------------------------------------------------------------------
# batch corruption


def _planning_like_batch(rows=6, cond=5, width=9, vocab=9):
    pad = vocab - 1
    conds = [list(RNG.integers(0, vocab - 2, size=cond)) for _ in range(rows)]
    outs = [list(RNG.integers(0, vocab - 2, size=int(RNG.integers(2, width + 1))))
            for _ in range(rows)]
    return pack_rows(conds, outs, cond, width, pad)


def test_sample_xt_never_touches_condition_or_pads():
    sched = NoiseSchedule.linear(8)
    batch = _planning_like_batch()
    mask_id = 7
    for trial in range(20):
        rng = np.random.default_rng(trial)
        t = draw_t(sched, batch.size, rng)
        cb = sample_xt(sched, batch, t, rng, mask_id)
        assert not (cb.corrupted & ~batch.target_mask).any()
        same = cb.tokens[~cb.corrupted] == batch.tokens[~cb.corrupted]
        assert same.all()
        assert (cb.tokens[cb.corrupted] == mask_id).all()


def test_sample_xt_rate_matches_one_minus_alpha():
    sched = NoiseSchedule.linear(4)
    batch = _planning_like_batch(rows=400, cond=2, width=20)
    rng = np.random.default_rng(11)
    for t in (1, 2, 3, 4):
        cb = sample_xt(sched, batch, t, rng, mask_id=7)
        rate = cb.corrupted.sum() / batch.target_mask.sum()
        assert abs(rate - t / 4) < 0.02, (t, rate)


def test_sample_xt_corrupts_exactly_the_slots_its_draw_picks():
    # CorruptedBatch derives its corrupted slots from the canvas, so the
    # slots that show the mask id must be the draw's, and no others
    sched = NoiseSchedule.linear(8)
    batch = _planning_like_batch(rows=40)
    mask_id = 7
    rng = np.random.default_rng(3)
    t = draw_t(sched, batch.size, rng)
    state = rng.bit_generator.state
    cb = sample_xt(sched, batch, t, rng, mask_id)
    rng.bit_generator.state = state  # replay sample_xt's one uniform a slot
    drawn = batch.target_mask & (rng.random(batch.tokens.shape) >= sched.alpha[t][:, None])
    assert drawn.any() and not drawn.all()
    assert (drawn == (cb.tokens == mask_id)).all()
    assert (cb.corrupted == drawn).all()
    assert (cb.x0 == batch.tokens).all()


@pytest.mark.parametrize("idx", [slice(1, 4), np.array([4, 0, 2])], ids=["slice", "index"])
def test_take_keeps_a_corrupted_batchs_rows(idx):
    sched = NoiseSchedule.linear(8)
    batch = _planning_like_batch()
    rng = np.random.default_rng(4)
    cb = sample_xt(sched, batch, draw_t(sched, batch.size, rng), rng, mask_id=7)
    rows = cb.take(idx)
    assert isinstance(rows, CorruptedBatch)
    assert (rows.cond_width, rows.pad_id, rows.mask_id) == (cb.cond_width, cb.pad_id, 7)
    for name in ("tokens", "x0", "t", "corrupted", "target_mask"):
        assert (getattr(rows, name) == getattr(cb, name)[idx]).all(), name
    # a slice's rows are views: training cuts its shards this way
    views = isinstance(idx, slice)
    assert np.shares_memory(rows.tokens, cb.tokens) == views
    assert np.shares_memory(rows.x0, cb.x0) == views


def test_draw_t_range_and_coverage():
    sched = NoiseSchedule.linear(6)
    t = draw_t(sched, 5000, np.random.default_rng(0))
    assert t.min() == 1 and t.max() == 6
    counts = np.bincount(t, minlength=7)[1:]
    assert (counts > 5000 / 6 * 0.8).all()


# ---------------------------------------------------------------------------
# loss identities


def _tiny_model(vocab=9, seq=14, attention="bidirectional", seed=0):
    cfg = ModelConfig(vocab_size=vocab, max_seq_len=seq, n_layers=1, n_heads=2,
                      hidden_dim=8, attention=attention)
    return DenoiserModel(cfg, seed=seed)


def mirrored_weighted_ce(model, cbatch, schedule) -> float:
    """Independent rendering of the simplified bound: sum lam_t * u / n.

    Reduction order intentionally mirrors the production kernel (shift in
    storage dtype, accumulate float64 over the flattened target columns) so
    equality is exact, not approximate.
    """
    cw = cbatch.cond_width  # the kernel sums over the target columns only
    logits = forward_columns(model, cbatch.tokens).value[:, cw:]
    b, s, k = logits.shape
    flat = logits.reshape(b * s, k)
    z = (flat - flat.max(axis=-1, keepdims=True)).astype(np.float64)
    logsumexp = np.log(np.exp(z).sum(axis=-1))
    mask = cbatch.corrupted[:, cw:].reshape(-1)
    targets = np.where(mask, cbatch.x0[:, cw:].reshape(-1), 0)
    u = logsumexp - z[np.arange(b * s), targets]
    lam = schedule.survival(cbatch.t)
    w = np.where(mask, np.repeat(lam, s), 0.0) / mask.sum()
    return float((w * u).sum(dtype=np.float64))


def test_loss_reduces_to_weighted_ce_bitwise():
    sched = NoiseSchedule.linear(6)
    model = _tiny_model()
    batch = _planning_like_batch(rows=5, cond=4, width=10)
    rng = np.random.default_rng(21)
    cb = sample_xt(sched, batch, draw_t(sched, batch.size, rng), rng, mask_id=7)
    rw = ReweightConfig(sequence_mode="original", token_alpha=1.0, token_beta=0.0)
    loss, u = diffusion_loss(model, cb, sched, rw)
    want = mirrored_weighted_ce(model, cb, sched)
    assert float(loss.value) == want  # bit-for-bit
    assert ((u > 0) == cb.corrupted).all()


def test_token_weight_range_and_monotonicity():
    rng = np.random.default_rng(31)
    for _ in range(10_000):
        alpha = float(rng.random() * 2 + 0.05)
        beta = float(rng.random() * 3)
        u = np.sort(rng.random(8) * 6)
        v = token_weight(u, alpha, beta)
        assert (v >= 0).all() and (v <= alpha + 1e-15).all()
        assert (np.diff(v) >= -1e-12).all()


def test_token_weight_spec_point():
    # p = 0.9, alpha = 0.25, beta = 1 -> v = 0.025
    u = -np.log(0.9)
    v = token_weight(np.array([u]), 0.25, 1.0)
    assert abs(float(v[0]) - 0.025) < 1e-12


def test_loss_zero_when_nothing_corrupted():
    sched = NoiseSchedule.linear(5)
    model = _tiny_model()
    batch = _planning_like_batch(rows=3, cond=4, width=10)
    cb = CorruptedBatch(
        tokens=batch.tokens.copy(), x0=batch.tokens.copy(), t=np.array([1, 2, 3]),
        mask_id=7, cond_width=batch.cond_width, pad_id=batch.pad_id)
    rw = ReweightConfig()
    loss, u = diffusion_loss(model, cb, sched, rw)
    assert float(loss.value) == 0.0
    assert (u == 0).all()
    zero_grads(model.params)
    loss.backward()  # must not raise


def test_loss_rejects_corrupted_condition_positions():
    # the model scores only the target columns, so a corrupted condition
    # token would be dropped silently
    model = _tiny_model()
    batch = _planning_like_batch(rows=2, cond=4, width=10)
    corrupted = batch.target_mask.copy()
    corrupted[0, batch.cond_width - 1] = True
    cb = CorruptedBatch(
        tokens=np.where(corrupted, 7, batch.tokens), x0=batch.tokens.copy(),
        t=np.array([1, 2]), mask_id=7, cond_width=batch.cond_width,
        pad_id=batch.pad_id)
    with pytest.raises(ValueError, match="target region"):
        diffusion_loss(model, cb, NoiseSchedule.linear(5), ReweightConfig())


def test_loss_full_gradient_matches_detached_value():
    # same batch: the two paths share the forward value of the loss
    sched = NoiseSchedule.linear(6)
    batch = _planning_like_batch(rows=4, cond=4, width=10)
    rng = np.random.default_rng(5)
    t = draw_t(sched, batch.size, rng)
    cb = sample_xt(sched, batch, t, rng, mask_id=7)
    m1 = _tiny_model(seed=3)
    m2 = DenoiserModel(m1.config, params={k: p.value for k, p in m1.params.items()})
    detached = ReweightConfig(token_alpha=0.5, token_beta=1.5, full_gradient=False)
    full = ReweightConfig(token_alpha=0.5, token_beta=1.5, full_gradient=True)
    l1, u1 = diffusion_loss(m1, cb, sched, detached)
    l2, u2 = diffusion_loss(m2, cb, sched, full)
    assert abs(float(l1.value) - float(l2.value)) < 1e-12
    np.testing.assert_array_equal(u1, u2)
    # but the gradients differ (the modulating factor is differentiated)
    l1.backward()
    l2.backward()
    g1 = m1.params["out.w"].grad
    g2 = m2.params["out.w"].grad
    assert not np.allclose(g1, g2, atol=1e-9)


def test_loss_report_contents():
    sched = NoiseSchedule.linear(4)
    model = _tiny_model()
    batch = _planning_like_batch(rows=3, cond=4, width=10)
    rng = np.random.default_rng(8)
    cb = sample_xt(sched, batch, np.array([1, 2, 4]), rng, mask_id=7)
    rw = ReweightConfig(sequence_mode="linear", token_alpha=0.25, token_beta=2.0)
    loss, u = diffusion_loss(model, cb, sched, rw)
    assert u.shape == batch.tokens.shape
    assert (u[~cb.corrupted] == 0).all()
    assert (u[cb.corrupted] > 0).all()
    np.testing.assert_allclose(sequence_weight(sched, cb.t, rw.sequence_mode), (4 - cb.t + 1) / 4)


def test_sequence_weight_modes():
    sched = NoiseSchedule.linear(5)
    t = np.array([1, 3, 5])
    np.testing.assert_allclose(sequence_weight(sched, t, "none"), [1, 1, 1])
    np.testing.assert_allclose(sequence_weight(sched, t, "original"), [1, 1 / 3, 1 / 5])
    np.testing.assert_allclose(sequence_weight(sched, t, "linear"), [1, 3 / 5, 1 / 5])
    with pytest.raises(ValueError):
        sequence_weight(sched, t, "quadratic")


def test_reweight_config_validation():
    with pytest.raises(ValueError):
        ReweightConfig(sequence_mode="exp")
    with pytest.raises(ValueError):
        ReweightConfig(token_alpha=0.0)
    with pytest.raises(ValueError):
        ReweightConfig(token_beta=-1.0)


# ---------------------------------------------------------------------------
# ELBO: analytic value, exact-vs-MC, and the NLL upper bound


class StubModel(StubDenoiser):
    """Fixed per-position categorical output, independent of the canvas."""

    def __init__(self, probs: np.ndarray):
        self.probs = np.asarray(probs, dtype=np.float64)
        super().__init__(self.probs.size + 2)

    def logits(self, tokens):
        b, s = tokens.shape
        return np.tile(np.log(self.probs)[None, None, :], (b, s, 1))


def _one_segment(batch):
    """A segment map that puts every slot in segment 0."""
    return np.zeros(batch.tokens.shape, dtype=np.int64)


def _single_token_batch(value=0, vocab=4):
    # canvas: one condition slot, one target slot
    pad = vocab - 1
    return pack_rows([[0]], [[value]], 1, 1, pad)


def test_elbo_uniform_model_telescopes_to_ln2():
    # two content tokens, one position, uniform model: bound = ln 2 exactly
    batch = _single_token_batch(value=1)
    stub = StubModel(np.array([0.5, 0.5]))
    for T in (2, 3, 7):
        sched = NoiseSchedule.linear(T)
        got = elbo_exact(stub, batch, sched)
        assert abs(got - np.log(2)) < 1e-12, (T, got)


def test_elbo_perfect_model_is_zero():
    batch = _single_token_batch(value=0)
    stub = StubModel(np.array([1.0 - 1e-15, 1e-15]))
    sched = NoiseSchedule.linear(3)
    assert abs(elbo_exact(stub, batch, sched)) < 1e-10


def test_elbo_requires_fully_absorbed_schedule():
    batch = _single_token_batch()
    stub = StubModel(np.array([0.5, 0.5]))
    sched = NoiseSchedule(np.array([1.0, 0.4, 0.1]))
    with pytest.raises(ValueError):
        elbo_exact(stub, batch, sched)
    prof = subgoal_loss_profile(stub, batch, sched, rng=np.random.default_rng(0),
                                segments=_one_segment(batch), n_samples=50)
    assert prof["nelbo"] is None
    np.testing.assert_allclose(prof["mean_u"], np.log(2), atol=1e-12)


def test_elbo_exact_matches_monte_carlo():
    # three rows of different target lengths: the profile's NELBO is the
    # Monte Carlo estimate of the sum of the per-row exact bounds
    model = _tiny_model(vocab=6, seq=8)
    batch = pack_rows([[0, 1], [1], [2, 2]], [[2, 0, 3], [1, 1], [0, 3, 1]], 2, 6, 5)
    sched = NoiseSchedule.linear(4)
    exact = sum(elbo_exact(model, batch.take(slice(i, i + 1)), sched) for i in range(batch.size))
    prof = subgoal_loss_profile(model, batch, sched, rng=np.random.default_rng(17),
                                segments=_one_segment(batch), n_samples=1500)
    assert abs(prof["nelbo"] - exact) / max(exact, 1.0) < 0.05, (exact, prof["nelbo"])


def test_subgoal_loss_profile_builds_no_graph():
    model = _tiny_model(vocab=6, seq=8)
    batch = pack_rows([[0, 1], [1]], [[2, 0, 3], [1, 1]], 2, 6, 5)
    seen = []

    def forward(*a, _real=model.forward, **kw):
        seen.append(_real(*a, **kw))
        return seen[-1]

    model.forward = forward
    subgoal_loss_profile(model, batch, NoiseSchedule.linear(3), rng=np.random.default_rng(1),
                         segments=_one_segment(batch), n_samples=2)
    assert seen and all(out._backward is None and not out.requires_grad for out in seen)


def reverse_chain_nll(model, batch, schedule: NoiseSchedule) -> float:
    """-log p(x_0) by summing over every reverse trajectory.

    The reverse kernel marginalizes the model prediction through the
    one-step posterior; enumeration over all intermediate canvases makes
    this exact for short targets and small vocabularies.
    """
    positions = np.flatnonzero(batch.target_mask[0])
    L = positions.size
    mask_id = model.config.mask_id
    states = list(range(model.config.content_vocab)) + [mask_id]
    T = schedule.T

    def model_probs(tokens):
        logits = forward_columns(model, tokens).value[0]
        z = logits - logits.max(axis=-1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
        return p  # [S, content]

    def step_prob(xt_canvas, xt_vals, prev_vals, t):
        """P(x_{t-1} = prev | x_t = vals) under the marginalized kernel."""
        p = model_probs(xt_canvas)
        lam = float(schedule.survival(t))
        total = 1.0
        for idx, pos in enumerate(positions):
            cur, prev = xt_vals[idx], prev_vals[idx]
            if cur != mask_id:
                total *= 1.0 if prev == cur else 0.0
            elif prev == mask_id:
                total *= 1.0 - lam
            else:
                total *= lam * p[pos, prev]
            if total == 0.0:
                return 0.0
        return total

    import itertools
    x0_vals = tuple(int(batch.tokens[0, p]) for p in positions)
    # distribution over canvases at each step, keyed by target values
    dist = {tuple([mask_id] * L): 1.0}
    for t in range(T, 0, -1):
        nxt = {}
        for vals, prob in dist.items():
            canvas = batch.tokens.copy()
            for idx, pos in enumerate(positions):
                canvas[0, pos] = vals[idx]
            for prev in itertools.product(states, repeat=L):
                sp = step_prob(canvas, vals, prev, t)
                if sp > 0:
                    nxt[prev] = nxt.get(prev, 0.0) + prob * sp
        dist = nxt
    p0 = dist.get(x0_vals, 0.0)
    assert p0 > 0
    return -np.log(p0)


def test_elbo_upper_bounds_exact_nll_single_token():
    # N=1, T=2, two content tokens: enumerate everything, 100 random models
    sched = NoiseSchedule.linear(2)
    rng = np.random.default_rng(77)
    worst_gap = np.inf
    for _ in range(100):
        probs = rng.random(2) + 1e-3
        probs /= probs.sum()
        stub = StubModel(probs)
        value = int(rng.integers(0, 2))
        batch = _single_token_batch(value=value)
        bound = elbo_exact(stub, batch, sched)
        nll = reverse_chain_nll(stub, batch, sched)
        worst_gap = min(worst_gap, bound - nll)
    assert worst_gap >= -1e-7, worst_gap


def test_elbo_upper_bounds_exact_nll_two_tokens_strictly():
    # with two target tokens a joint-dependence gap appears; bound must hold
    sched = NoiseSchedule.linear(2)
    model = _tiny_model(vocab=5, seq=4, seed=11)
    pad = 4
    batch = pack_rows([[0]], [[1, 2]], 1, 3, pad)
    bound = elbo_exact(model, batch, sched)
    nll = reverse_chain_nll(model, batch, sched)
    assert bound >= nll - 1e-9
    assert bound > 0


# ---------------------------------------------------------------------------
# per-noise-level profiling


def test_subgoal_profile_shapes_and_flat_for_stub():
    batch = _planning_like_batch(rows=4, cond=4, width=8, vocab=9)
    sched = NoiseSchedule.linear(5)
    stub = StubModel(np.full(7, 1.0 / 7))
    prof = subgoal_loss_profile(stub, batch, sched, rng=np.random.default_rng(3),
                                segments=_one_segment(batch), n_samples=6)
    assert prof["mean_u"].shape == (5,)
    np.testing.assert_allclose(prof["mean_u"], np.log(7), atol=1e-9)
    np.testing.assert_array_equal(prof["segments"], [0])


def test_subgoal_profile_per_segment():
    outs = [[0, 1, 2, 3, 4, 5], [6, 5, 4, 3], [1, 1, 2, 2, 3, 3, 4, 4], [2, 0, 6]]
    batch = pack_rows([[0, 1, 2, 3]] * 4, outs, 4, 8, 8)
    sched = NoiseSchedule.linear(3)
    segments = np.where(batch.target_mask,
                        np.arange(batch.tokens.shape[1])[None, :] % 3, -1)
    model = _tiny_model()
    prof = subgoal_loss_profile(model, batch, sched,
                                rng=np.random.default_rng(4), n_samples=3,
                                segments=segments)
    np.testing.assert_array_equal(prof["segments"], [0, 1, 2])
    # the same draws, scored straight from the model's logits
    rng = np.random.default_rng(4)
    for ti in range(1, sched.T + 1):
        us, segs = [], []
        for _ in range(3):
            cb = sample_xt(sched, batch, ti, rng, mask_id=7)
            logits = forward_columns(model, cb.tokens).value
            us.append(ad.token_log_losses(logits[cb.corrupted], cb.x0[cb.corrupted]))
            segs.append(segments[cb.corrupted])
        u, seg = np.concatenate(us), np.concatenate(segs)
        assert abs(prof["mean_u"][ti - 1] - u.mean()) < 1e-12
        for j in range(3):
            assert abs(prof["per_segment"][ti - 1, j] - u[seg == j].mean()) < 1e-12
