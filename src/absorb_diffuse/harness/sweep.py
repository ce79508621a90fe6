"""Sweeps: data-scaling curves and loss-reweighting ablation grids."""

from __future__ import annotations

import os

from ..diffusion import SEQUENCE_MODES
from ..tasks import get_task, write_instances
from .config import ExperimentConfig
from .metrics import write_table
from .train import train

TOKEN_SETTINGS = ((1.0, 0.0), (0.25, 1.0), (1.0, 1.0), (0.25, 2.0))
N_TEST = 100  # held-out instances per data-scaling run


def data_scaling_sweep(base: ExperimentConfig, pds, sizes, threshold: float,
                       out_csv: str, log=print) -> list[dict]:
    """Smallest training-set size per planning distance that reaches the
    accuracy threshold. Sizes are tried in ascending order; a pd that never
    clears the threshold reports size None.
    """
    if base.task != "planning":
        raise ValueError("data scaling sweep is defined for the planning task")
    task = get_task(base.task)
    rows = []
    for pd in pds:
        met = None
        for size in sorted(sizes):
            run_dir = os.path.join(base.out_dir, f"sweep_pd{pd}_n{size}")
            os.makedirs(run_dir, exist_ok=True)
            train_p = os.path.join(run_dir, "train.tsv")
            eval_p = os.path.join(run_dir, "eval.tsv")
            tr, te = task.generate(size, N_TEST, base.seed, pds=(pd,))
            write_instances(train_p, tr)
            write_instances(eval_p, te)
            cfg = base.replace(out_dir=run_dir, train_path=train_p, eval_path=eval_p)
            res = train(cfg)
            acc = res.final_eval["accuracy"] if res.final_eval else 0.0
            reached = acc >= threshold
            rows.append({"pd": pd, "size": size, "accuracy": acc, "met": reached})
            log(f"pd {pd} size {size}: accuracy {acc:.3f}")
            if reached:
                met = size
                break
        rows.append({"pd": pd, "size": met, "accuracy": None, "met": met is not None})
    fields = ["pd", "size", "accuracy", "met"]
    write_table(out_csv, fields, ([r[k] for k in fields] for r in rows))
    return rows


def reweight_ablation(base: ExperimentConfig, out_csv: str, log=print) -> list[dict]:
    """Train one model per (sequence weighting, token weighting) cell of
    SEQUENCE_MODES x TOKEN_SETTINGS and report final accuracy and loss."""
    rows = []
    for mode in SEQUENCE_MODES:
        for alpha, beta in TOKEN_SETTINGS:
            tag = f"{mode}_a{alpha}_b{beta}".replace(".", "p")
            cfg = base.replace(
                out_dir=os.path.join(base.out_dir, f"ablation_{tag}"),
                sequence_mode=mode, token_alpha=alpha, token_beta=beta)
            res = train(cfg)
            acc = res.final_eval["accuracy"] if res.final_eval else None
            rows.append({
                "sequence_mode": mode, "token_alpha": alpha, "token_beta": beta,
                "accuracy": acc, "loss": res.final_loss,
            })
            log(f"{mode} alpha={alpha} beta={beta}: "
                f"accuracy {acc if acc is not None else 'n/a'} loss {res.final_loss:.4f}")
    fields = ["sequence_mode", "token_alpha", "token_beta", "accuracy", "loss"]
    write_table(out_csv, fields, ([r[k] for k in fields] for r in rows))
    return rows

