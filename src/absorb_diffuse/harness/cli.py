"""Command line interface.

Subcommands: generate | train | eval | sample | analyze | sweep.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time

import numpy as np

from ..decoding import STRATEGIES
from ..diffusion import NoiseSchedule, subgoal_loss_profile
from ..tasks import TASKS, encode_instances, get_task, planning, read_instances, write_instances
from ..tasks.registry import segment_map
from .config import ExperimentConfig
from .evaluate import error_taxonomy, evaluate_model
from .metrics import append_record, write_table
from .sweep import data_scaling_sweep, reweight_ablation
from .train import load_model, train


def _cmd_generate(args) -> int:
    task = get_task(args.task)
    kw = {}
    if args.pd:
        if args.task != "planning":
            raise SystemExit("--pd applies to the planning task only")
        kw["pds"] = tuple(args.pd)
    tr, te = task.generate(args.n_train, args.n_test, args.seed, **kw)
    os.makedirs(args.out_dir, exist_ok=True)
    train_p = os.path.join(args.out_dir, f"{args.task}_train.tsv")
    test_p = os.path.join(args.out_dir, f"{args.task}_test.tsv")
    write_instances(train_p, tr)
    write_instances(test_p, te)
    print(f"wrote {len(tr)} train -> {train_p}")
    print(f"wrote {len(te)} test  -> {test_p}")
    return 0


def _cmd_train(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    if args.out_dir:
        cfg = cfg.replace(out_dir=args.out_dir)
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    res = train(cfg, resume_from=args.resume, quiet=args.quiet)
    print(f"trained {res.steps} steps; final loss {res.final_loss:.4f}")
    if res.final_eval:
        print(f"final accuracy {res.final_eval['accuracy']:.3f}")
        if res.final_eval.get("per_pd"):
            print(f"per_pd {res.final_eval['per_pd']}")
    print(f"checkpoint: {res.checkpoint_dir}")
    print(f"metrics:    {res.metrics_path}")
    return 0


def _load(args):
    """-> (model, vocab, config, task, instances, decode config) for the
    commands that read a checkpoint; a decode flag that is given overrides
    the checkpoint's config (argparse has already checked its value)."""
    instances = read_instances(args.data)[: args.limit or None]
    if not instances:
        raise SystemExit(f"{args.data} holds no instances")
    model, vocab, cfg = load_model(args.checkpoint)
    flags = {k: getattr(args, k) for k in ("steps", "temperature", "strategy", "seed")}
    dc = dataclasses.replace(cfg.decode_config(),
                             **{k: v for k, v in flags.items() if v is not None})
    return model, vocab, cfg, get_task(cfg.task), instances, dc


def _cmd_eval(args) -> int:
    model, vocab, cfg, task, instances, dc = _load(args)
    res = evaluate_model(model, cfg.model_kind, task, vocab, instances, dc)
    print(f"accuracy {res.accuracy:.4f} over {res.n} instances (steps={dc.steps})")
    if res.per_pd:
        for k in sorted(res.per_pd, key=int):
            print(f"  pd {k}: {res.per_pd[k]:.3f}")
    if args.metrics_out:
        append_record(args.metrics_out, {
            "kind": "eval", "step": 0, "task": task.name, "model_kind": cfg.model_kind,
            "seed": dc.seed, **res.to_metrics()})
    return 0


def _cmd_sample(args) -> int:
    model, vocab, cfg, task, instances, dc = _load(args)
    res = evaluate_model(model, cfg.model_kind, task, vocab, instances, dc)
    for inst, out, v in zip(instances, res.outputs, res.verdicts):
        status = "ok" if v.ok else f"{v.kind}" + (f"@{v.step}" if v.step else "")
        print(f"input:  {inst.input_text}")
        print(f"output: {out}   [{status}]")
    return 0


def _cmd_analyze(args) -> int:
    model, vocab, cfg, task, instances, dc = _load(args)

    if args.what == "taxonomy":
        res = evaluate_model(model, cfg.model_kind, task, vocab, instances, dc)
        rows = error_taxonomy(res.verdicts)
        write_table(args.out, ["kind", "step", "count", "rate"],
                    ([r.kind, r.step, r.count, f"{r.rate:.6f}"] for r in rows))
        for r in rows:
            step = "" if r.step is None else f" step {r.step}"
            print(f"{r.kind}{step}: {r.count} ({r.rate:.1%})")
    elif args.what == "profile":
        if cfg.model_kind != "diffusion":
            raise SystemExit(f"analyze --what profile needs a diffusion checkpoint, "
                             f"got model_kind {cfg.model_kind!r}")
        batch = encode_instances(task, instances, vocab)
        segs = segment_map(task, batch, instances)
        rng = np.random.default_rng(dc.seed)
        schedule = NoiseSchedule.linear(cfg.schedule_T)
        prof = subgoal_loss_profile(model, batch, schedule, rng, segs)
        write_table(args.out, ["t", "mean_u"] + [f"segment_{s}" for s in prof["segments"]],
                    ([int(t), f"{mean_u:.6f}"] + [f"{x:.6f}" for x in per_seg]
                     for t, mean_u, per_seg in zip(prof["t"], prof["mean_u"], prof["per_segment"])))
        print(f"profile over t=1..{cfg.schedule_T} -> {args.out}")
        print(f"NELBO {prof['nelbo'] / batch.size:.4f} nats per instance")
    elif args.what == "throughput":
        def grid():
            # untimed warm-up: a process's first decode runs cold, which would slow row one
            evaluate_model(model, cfg.model_kind, task, vocab, instances,
                           dataclasses.replace(dc, steps=1))
            for steps in args.grid:
                step_cfg = dataclasses.replace(dc, steps=steps)
                t0 = time.perf_counter()
                for _ in range(args.repeats):
                    res = evaluate_model(model, cfg.model_kind, task, vocab, instances, step_cfg)
                dt = time.perf_counter() - t0
                rate = len(instances) * args.repeats / dt
                print(f"steps {steps:>3}: {rate:.2f} samples/s accuracy {res.accuracy:.3f}")
                yield [steps, dt, rate, res.accuracy]
        write_table(args.out, ["steps", "seconds", "samples_per_sec", "accuracy"], grid())
    return 0


def _cmd_sweep(args) -> int:
    base = ExperimentConfig.from_json(args.config)
    if args.out_dir:
        base = base.replace(out_dir=args.out_dir)
    if args.mode == "data-scaling":
        data_scaling_sweep(base, args.pds, args.sizes, args.threshold, args.out)
    else:
        reweight_ablation(base, args.out)
    print(f"sweep table -> {args.out}")
    return 0


def _number(cast, lo, hi=math.inf, above=False):
    """argparse type: a `cast` value in [lo, hi], or in (lo, hi] with
    `above`, so a bad value (NaN included) is a usage error before any work
    starts."""
    def parse(text: str):
        try:
            v = cast(text)
        except ValueError:
            kind = "an integer" if cast is int else "a number"
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}") from None
        if not (lo < v <= hi if above else lo <= v <= hi):
            raise argparse.ArgumentTypeError(f"{v} is not in {'(' if above else '['}{lo}, {hi}]")
        return v
    return parse


def _ints(lo: int, hi: float = math.inf):
    """argparse type: a comma-separated list of integers in [lo, hi]."""
    one = _number(int, lo, hi)
    return lambda text: [one(x) for x in text.split(",")]


class _AppendDistinct(argparse.Action):
    """argparse action: append each value, refusing one already given, as
    a usage error before any work starts."""
    def __call__(self, parser, namespace, value, option_string=None):
        given = getattr(namespace, self.dest) or []
        if value in given:
            raise argparse.ArgumentError(self, f"{value} given more than once")
        setattr(namespace, self.dest, [*given, value])


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="absorb-diffuse",
                                description="Train and probe discrete-diffusion sequence models "
                                            "on verifiable planning tasks.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate task instance files")
    g.add_argument("--task", choices=sorted(TASKS), required=True)
    g.add_argument("--out-dir", required=True)
    g.add_argument("--n-train", type=_number(int, 0), default=1000)
    g.add_argument("--n-test", type=_number(int, 0), default=200)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--pd", type=_number(int, 0, planning.MAX_PD), action=_AppendDistinct,
                   help="planning distance; repeat with other distances for a mixture "
                        "(planning only)")
    g.set_defaults(fn=_cmd_generate)

    t = sub.add_parser("train", help="train a model from a config file")
    t.add_argument("--config", required=True)
    t.add_argument("--out-dir")
    t.add_argument("--seed", type=int)
    t.add_argument("--resume", help="checkpoint directory to resume from")
    t.add_argument("--verbose", dest="quiet", action="store_false")
    t.set_defaults(fn=_cmd_train, quiet=True)

    # eval, sample and analyze: a decode flag left out keeps the checkpoint's value
    ckpt = argparse.ArgumentParser(add_help=False)
    ckpt.add_argument("--checkpoint", required=True)
    ckpt.add_argument("--data", required=True)
    ckpt.add_argument("--steps", type=_number(int, 1))
    ckpt.add_argument("--temperature", type=_number(float, 0, above=True))  # DecodeConfig's range
    ckpt.add_argument("--strategy", choices=STRATEGIES)
    ckpt.add_argument("--seed", type=int)

    e = sub.add_parser("eval", parents=[ckpt], help="verifier accuracy of a checkpoint")
    e.add_argument("--limit", type=_number(int, 0), default=0)
    e.add_argument("--metrics-out")
    e.set_defaults(fn=_cmd_eval)

    s = sub.add_parser("sample", parents=[ckpt], help="print decoded samples")
    s.add_argument("--n", dest="limit", type=_number(int, 0), default=5)
    s.set_defaults(fn=_cmd_sample)

    a = sub.add_parser("analyze", parents=[ckpt],
                       help="taxonomy, loss profile, or throughput grid")
    a.add_argument("--what", choices=["taxonomy", "profile", "throughput"], required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--limit", type=_number(int, 0), default=0)
    a.add_argument("--grid", type=_ints(1), default="1,5,10,20")
    a.add_argument("--repeats", type=_number(int, 1), default=1)
    a.set_defaults(fn=_cmd_analyze)

    w = sub.add_parser("sweep", help="data-scaling or reweighting ablation sweep")
    w.add_argument("--mode", choices=["data-scaling", "ablation"], required=True)
    w.add_argument("--config", required=True)
    w.add_argument("--out", required=True)
    w.add_argument("--out-dir")
    w.add_argument("--pds", type=_ints(0, planning.MAX_PD), default="0,1,2,3")
    w.add_argument("--sizes", type=_ints(1), default="100,300,1000,3000")
    # a threshold outside [0, 1] is met by every run or by none
    w.add_argument("--threshold", type=_number(float, 0, 1), default=0.9)
    w.set_defaults(fn=_cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
