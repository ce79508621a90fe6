"""Workloads, metric names and the tail statistic shared by run.py,
worker.py and tracer.py.

BENCHMARK.json at the repository root mirrors these lists.
"""

# The sizes of the shipped data/planning_{train,eval}.tsv.
N_TRAIN = 12000
N_EVAL = 400

# name -> (what runs, desk profile kind). train_* run harness.train.train on
# desk_planning_<kind>.json with eval off; decode runs
# harness.evaluate.evaluate_model over the N_EVAL eval instances once per
# DECODE_PHASES entry, with seeded untrained models.
WORKLOADS = {
    "train_diffusion": ("train", "diffusion"),
    "train_ar": ("train", "ar"),
    "decode": ("decode", None),
}

# (profile kind, refinement steps). ar_decode ignores the step count, so the
# AR phase keeps the profile's value.
DECODE_PHASES = (("diffusion", 1), ("diffusion", 5), ("diffusion", 20), ("ar", None))


def phase_name(kind, steps) -> str:
    return f"diffusion_s{steps}" if kind == "diffusion" else "ar"


END_TO_END = (
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

OP_KINDS = ("matmul", "gelu", "layer_norm", "softmax", "add", "embedding_lookup",
            "cross_entropy", "other")
BLOCKS = ("embedding", "attention", "mlp", "head", "loss", "optimizer")

# Per-layer values come from a traced run. Span values are per timed
# operation: one optimizer step on train_*, one round of DECODE_PHASES passes
# on decode. The untraced half of the traced run gives the step and phase
# figures at the end; each is 0 on the workloads it does not apply to.
PER_LAYER = (
    *((f"autodiff.{k}.{d}_ms", "ms") for k in OP_KINDS for d in ("fwd", "bwd")),
    ("autodiff.tape_ms", "ms"),
    ("autodiff.adam_ms", "ms"),
    ("autodiff.calls_per_step", "count"),
    ("autodiff.out_mb_per_step", "MB"),
    *((f"block.{b}_ms", "ms") for b in BLOCKS),
    ("model.forward_ms", "ms"),
    ("model.forward_calls", "count"),
    ("decode.diffusion.forward_ms", "ms"),
    ("decode.diffusion.forward_calls", "count"),
    ("decode.ar.forward_ms", "ms"),
    ("decode.ar.forward_calls", "count"),
    ("diffusion.sample_xt_ms", "ms"),
    ("diffusion.loss_self_ms", "ms"),
    ("decoding.diffusion.host_ms", "ms"),
    ("decoding.ar.host_ms", "ms"),
    ("harness.evaluate.worker_busy_ratio", "ratio"),
    ("tasks.verify_ms", "ms"),
    ("tasks.vocab_decode_ms", "ms"),
    ("data.encode_ms", "ms"),
    ("data.take_ms", "ms"),
    ("data.load_s", "s"),
    ("tasks.generate_s", "s"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.save_mb", "MB"),
    ("harness.metrics.append_ms", "ms"),
    ("trace.untraced_op_ms", "ms"),
    ("trace.traced_op_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("step_ms", "ms"),
    ("step_ms_tail", "ms"),
    ("train_loss", "nats"),
    *((f"{phase_name(*ph)}_samples_per_s", "1/s") for ph in DECODE_PHASES),
)


def tail(samples) -> tuple[int, float] | None:
    """(percentile, value) for the highest whole percentile with at least 10
    samples beyond it, interpolated linearly; None below 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    pct = 100 * (n - 10) // n
    xs = sorted(samples)
    pos = pct / 100 * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return pct, xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
