"""One benchmark process for one workload.

Builds the workload's inputs from --seed, sets up, warms up, measures for
--seconds, checks the outputs and prints one JSON line of raw figures. An
untraced run of run.py spreads its measurement over MEASURE_PROCESSES such
processes (--part/--parts): each train process repeats the same training
steps, each decode process decodes its own share of the eval set. With
--setup-only a process stops after warm-up and reports its set-up time. A
traced run is one process over the whole workload. Library code is imported
from the checkout's src/ directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from absorb_diffuse import autodiff as ad  # noqa: E402
from absorb_diffuse.diffusion import NoiseSchedule, diffusion_loss, draw_t, sample_xt  # noqa: E402
from absorb_diffuse.harness import (  # noqa: E402
    ExperimentConfig, TrainingDiverged, evaluate_model, read_records, resolve_threads, train)
from absorb_diffuse.harness.config import THREADS_ENV  # noqa: E402
from absorb_diffuse.harness.evaluate import EVAL_CHUNK  # noqa: E402
from absorb_diffuse.model import DenoiserModel, ar_nll  # noqa: E402
from absorb_diffuse.tasks import encode_instances, get_task, write_instances  # noqa: E402

from spec import DECODE_PHASES, N_EVAL, N_TRAIN, WORKLOADS, phase_name  # noqa: E402
from tracer import EXPECTED_SPANS, Tracer  # noqa: E402

# train() is ended from its step log when the time is up, so its step budget
# only has to be out of reach.
UNREACHED_STEPS = 10**7
# Directional-derivative gradient check, float64: relative tolerance and step.
GRAD_CHECK_ROWS = 8
GRAD_CHECK_EPS = 1e-5
GRAD_CHECK_TOL = 1e-3


class _TimeUp(Exception):
    """Raised from train()'s step log to end the call at the time limit."""


def _profile(kind: str) -> ExperimentConfig:
    path = os.path.join(ROOT, "src", "absorb_diffuse", "profiles", f"desk_planning_{kind}.json")
    return ExperimentConfig.from_json(path)


def _train_call(cfg, seconds, on_step=None):
    """Run train(cfg) until `seconds` after its first (warm-up) step ends,
    or to cfg.train_steps when seconds is None.

    Returns (monotonic stamp at the end of each step, diverged)."""
    stamps = []

    def log(_msg):
        stamps.append(time.monotonic())
        if on_step is not None:
            on_step(len(stamps))
        if seconds is not None and stamps[-1] - stamps[0] >= seconds:
            raise _TimeUp

    try:
        train(cfg, log=log, quiet=False)
    except _TimeUp:
        pass
    except TrainingDiverged:
        return stamps, True
    return stamps, False


def _grad_check(kind, cfg, instances, seed) -> float:
    """Relative error of the tape's directional derivative of the training
    loss against a central difference, on a float64 copy of the model."""
    task = get_task("planning")
    vocab = task.vocabulary()
    rng = np.random.default_rng(seed)
    batch = encode_instances(task, instances[:GRAD_CHECK_ROWS], vocab)
    with ad.using_dtype(np.float64):
        model = DenoiserModel(cfg.model_config(vocab.size), seed=seed)
    if kind == "diffusion":
        schedule = NoiseSchedule.linear(cfg.schedule_T)
        cbatch = sample_xt(schedule, batch, draw_t(schedule, batch.size, rng), rng, vocab.mask_id)
        # token_beta 0 makes the token weights constant, so the tape gradient
        # is the full derivative of the loss.
        reweight = cfg.replace(token_beta=0.0).reweight_config()

        def loss():
            return diffusion_loss(model, cbatch, schedule, reweight)[0]
    else:
        def loss():
            return ar_nll(model, batch)[0]

    loss().backward()
    params = model.params
    direction = {k: rng.standard_normal(p.value.shape) for k, p in params.items()}
    analytic = sum(float((p.grad * direction[k]).sum()) for k, p in params.items())
    base = {k: p.value.copy() for k, p in params.items()}
    values = []
    for sign in (1.0, -1.0):
        for k, p in params.items():
            p.value[...] = base[k] + sign * GRAD_CHECK_EPS * direction[k]
        values.append(float(loss().value))
    numeric = (values[0] - values[1]) / (2 * GRAD_CHECK_EPS)
    return abs(numeric - analytic) / max(abs(analytic), 1e-12)


def run_train(kind, seed, seconds, trace, setup_only, first_part, workdir) -> dict:
    task = get_task("planning")
    t0 = time.perf_counter()
    instances, _ = task.generate(N_TRAIN, 0, seed)
    generate_s = time.perf_counter() - t0
    train_path = os.path.join(workdir, "train.tsv")
    write_instances(train_path, instances)
    base = _profile(kind).replace(train_path=train_path, eval_path="", eval_every=0,
                                  log_every=1, seed=seed, train_steps=UNREACHED_STEPS)
    cfg = base.replace(out_dir=os.path.join(workdir, "untraced"))
    stamps, diverged = _train_call(cfg, 0.0 if setup_only else seconds / 2 if trace else seconds)
    setup_end = stamps[0] if stamps else time.monotonic()
    if setup_only:
        return {"setup_end": setup_end}
    steps_ms = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
    records = read_records(os.path.join(cfg.out_dir, "metrics.jsonl"))
    losses = [r["loss"] for r in records if r["kind"] == "train_step"]
    bad_losses = sum(1 for x in losses if not math.isfinite(x)) + int(diverged)
    gates = {"losses_finite": bad_losses == 0 and len(losses) == len(stamps),
             "timed_steps": len(steps_ms) >= 1}
    train_loss = float(np.mean(losses[1:])) if len(losses) > 1 else float("nan")
    info = {"train_loss": train_loss, "generate_s": generate_s}
    if first_part:
        info["gradient_check_rel_err"] = _grad_check(kind, cfg, instances, seed)
        gates["gradient_check"] = info["gradient_check_rel_err"] < GRAD_CHECK_TOL
    out = {"setup_end": setup_end, "steps_ms": steps_ms, "batch_size": cfg.batch_size,
           "attempted": len(stamps) + int(diverged), "failed": bad_losses,
           "gates": gates, "info": info}
    if trace:
        step_ms = float(np.median(steps_ms))
        tracer = Tracer()
        tracer.install()
        n_steps = max(3, round(seconds / 2 / (step_ms / 1e3))) + 1

        def on_step(k):
            if k == 1:
                tracer.phase = "window"
            elif k == n_steps:
                tracer.phase = "after"

        traced, diverged = _train_call(
            base.replace(out_dir=os.path.join(workdir, "traced"), train_steps=n_steps), None, on_step)
        gates["traced_run_complete"] = not diverged and len(traced) == n_steps
        out["tracer"] = tracer
        out["n_ops"] = n_steps - 1
        out["extra"] = {"generate_s": generate_s, "untraced_op_ms": step_ms,
                        "traced_op_ms": float(np.median(np.diff(traced) * 1e3))}
    return out


def _evaluate(model, kind, task, vocab, instances, dcfg):
    """(seconds, EvalResult, or None if evaluate_model raised)."""
    t0 = time.perf_counter()
    try:
        res = evaluate_model(model, kind, task, vocab, instances, dcfg)
    except Exception:  # a failed pass is counted and reported, not fatal
        traceback.print_exc()
        res = None
    return time.perf_counter() - t0, res


def _decode_round(phases, task, vocab, instances):
    """One evaluate_model pass over all instances per decode phase."""
    return [_evaluate(model, kind, task, vocab, instances, dcfg)
            for _, model, kind, dcfg in phases]


def _decode_rounds(phases, task, vocab, instances, seconds):
    """Rounds of _decode_round, repeated while another round is expected to
    end within `seconds`; at least one."""
    rounds = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        rounds.append(_decode_round(phases, task, vocab, instances))
        dt = time.monotonic() - t0
        if any(res is None for _, res in rounds[-1]) or time.monotonic() - start + dt > seconds:
            return rounds


def _bad_rows(instances, res, content) -> int:
    """Rows whose decoded output is not exactly the target length in content
    characters, or whose verdict is missing. Pad or mask inside a row shows
    as a short row or as a decode error; anything past the row's length
    shows as a long row."""
    if res is None:
        return len(instances)
    bad = abs(len(instances) - len(res.outputs)) + abs(len(instances) - len(res.verdicts))
    for inst, out, verdict in zip(instances, res.outputs, res.verdicts):
        if len(out) != len(inst.output_text) or not set(out) <= content \
                or not isinstance(verdict.kind, str):
            bad += 1
    return bad


def _share(n: int, part: int, parts: int) -> tuple[int, int]:
    """Bounds of one process's share of n instances, on chunk boundaries."""
    def cut(k):
        return n if k >= parts else min(n, round(n * k / parts / EVAL_CHUNK) * EVAL_CHUNK)
    return cut(part), cut(part + 1)


def _phase_seconds(phases, rounds) -> dict:
    return {name: [r[i][0] for r in rounds] for i, (name, *_) in enumerate(phases)}


def run_decode(seed, seconds, trace, setup_only, part, parts) -> dict:
    task = get_task("planning")
    vocab = task.vocabulary()
    t0 = time.perf_counter()
    _, instances = task.generate(0, N_EVAL, seed)
    generate_s = time.perf_counter() - t0
    models, phases = {}, []
    for kind, steps in DECODE_PHASES:
        cfg = _profile(kind).replace(seed=seed)
        if kind not in models:
            models[kind] = DenoiserModel(cfg.model_config(vocab.size), seed=seed)
        if steps is not None:
            cfg = cfg.replace(decode_steps=steps)
        phases.append((phase_name(kind, steps), models[kind], kind, cfg.decode_config()))
    # warm-up chunk: the cheapest phase over one evaluation chunk
    _, model, kind, dcfg = phases[0]
    evaluate_model(model, kind, task, vocab, instances[:EVAL_CHUNK], dcfg)
    setup_end = time.monotonic()
    if setup_only:
        return {"setup_end": setup_end}

    lo, hi = _share(len(instances), part, parts)
    mine = instances[lo:hi]
    rounds = _decode_rounds(phases, task, vocab, mine, seconds / 2 if trace else seconds)
    content = set(vocab.chars)
    bad = sum(_bad_rows(mine, res, content) for r in rounds for _, res in r)
    first = [res for _, res in rounds[0]]
    # same seed, same outputs: across rounds, and on a fresh decode of chunk 0
    repeatable = all(res is not None and res.outputs == f.outputs
                     for r in rounds for (_, res), f in zip(r, first))
    attempted = len(mine) * len(rounds) * len(phases)
    if part == 0:
        head = mine[:EVAL_CHUNK]
        for (_, model, kind, dcfg), f in zip(phases, first):
            _, again = _evaluate(model, kind, task, vocab, head, dcfg)
            bad += _bad_rows(head, again, content)
            repeatable &= None not in (f, again) and again.outputs == f.outputs[:EVAL_CHUNK]
            attempted += len(head)
    gates = {"rows_well_formed": bad == 0, "same_seed_repeatable": repeatable}
    out = {"setup_end": setup_end, "rows": len(mine), "phase_s": _phase_seconds(phases, rounds),
           "attempted": attempted, "failed": bad, "gates": gates,
           "info": {"generate_s": generate_s,
                    "accuracy": {name: None if f is None else f.accuracy
                                 for (name, *_), f in zip(phases, first)},
                    "outputs_sha256": hashlib.sha256("\n".join(
                        o for f in first if f is not None for o in f.outputs).encode()).hexdigest()}}
    if trace:
        tracer = Tracer()
        tracer.install()
        tracer.phase = "window"
        timed_task = dataclasses.replace(task, verify=tracer.wrap("tasks.verify", task.verify))
        traced = _decode_rounds(phases, timed_task, vocab, mine, seconds / 2)
        gates["traced_rows_well_formed"] = all(
            _bad_rows(mine, res, content) == 0 for r in traced for _, res in r)

        def round_ms(rs):
            return float(np.median([sum(dt for dt, _ in r) for r in rs])) * 1e3

        out["tracer"] = tracer
        out["n_ops"] = len(traced)
        out["extra"] = {"generate_s": generate_s, "untraced_op_ms": round_ms(rounds),
                        "traced_op_ms": round_ms(traced),
                        "eval_wall_s": sum(dt for r in traced for dt, _ in r),
                        "eval_workers": resolve_threads()}
    return out


def _blas() -> dict:
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        return {"name": "unknown", "version": "unknown"}


def _git_commit() -> str:
    # the ceiling keeps git from reporting a repository that encloses the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return res.stdout.strip() if res.returncode == 0 else "unavailable (not a git checkout)"


def provenance(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "eval_workers": resolve_threads(),
        THREADS_ENV: os.environ.get(THREADS_ENV, "unset"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--part", type=int, default=0)
    p.add_argument("--parts", type=int, default=1)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() in the parent just before this process started")
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)

    what, kind = WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    if not 0 <= args.part < args.parts:
        p.error("need 0 <= --part < --parts")
    if what == "train":
        res = run_train(kind, args.seed, args.seconds, args.trace, args.setup_only,
                        args.part == 0, args.workdir)
    else:
        res = run_decode(args.seed, args.seconds, args.trace, args.setup_only, args.part, args.parts)
    res["setup_s"] = res.pop("setup_end") - args.spawned_at
    if args.setup_only:
        print(json.dumps(res))
        return 0
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    res["provenance"] = provenance(args.seed)
    tracer = res.pop("tracer", None)
    if tracer is not None:
        fired = tracer.fired()
        expected = EXPECTED_SPANS[args.workload]
        res["span_check"] = {"missing": sorted(expected - fired),
                             "unexpected": sorted(fired - expected)}
        res["gates"]["span_self_check"] = not (res["span_check"]["missing"]
                                               or res["span_check"]["unexpected"])
        res["per_layer"] = tracer.layer_metrics(res.pop("n_ops"), res.pop("extra"))
        res["spans"] = tracer.span_table()
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
