"""Outside-in benchmark of absorb-diffuse.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each workload drives a public entry point,
harness.train.train or harness.evaluate.evaluate_model, on planning
instances generated from --seed (see spec.WORKLOADS and perfbench/README.md).

--trace 0 measures the end-to-end metrics with nothing patched. It first runs
SETUP_PROCESSES fresh processes that stop after warm-up, then
MEASURE_PROCESSES that each measure for --seconds / MEASURE_PROCESSES, one
after another. set-up time is the median over all of them, peak RSS the
median over the measuring ones, and a slow or fast process state weighs a
third of the throughput figure. --trace 1 runs one process
that measures half the time untraced, then patches in the tracer and
reports the per-layer metrics, checking that exactly the spans expected on
the workload fired.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The line before it holds provenance, the
correctness gates and further detail.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spec import END_TO_END, PER_LAYER, WORKLOADS, tail  # noqa: E402

SETUP_PROCESSES = 2
MEASURE_PROCESSES = 3
# The whole run, children included, must end well within three minutes.
DEADLINE_S = 170
WORK_DIR = os.path.join(ROOT, ".perfbench_work")


def _child(args, workdir, seconds, part, parts, deadline, setup_only=False) -> dict:
    spawned = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--part", str(part), "--parts", str(parts),
           "--workdir", workdir, "--spawned-at", repr(spawned)]
    if setup_only:
        cmd.append("--setup-only")
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=max(1.0, deadline - spawned))
    sys.stderr.write(res.stderr)
    if res.returncode != 0:
        raise RuntimeError(f"worker exited with code {res.returncode}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def _combine(what: str, parts: list) -> tuple[float, dict]:
    """samples_per_s over all processes, plus figures for the detail line."""
    if what == "train":
        steps = [ms for p in parts for ms in p["steps_ms"]]
        step_ms = statistics.median(steps)
        figures = {"step_ms": step_ms, "timed_steps": len(steps),
                   "train_loss": statistics.mean(p["info"]["train_loss"] for p in parts)}
        t = tail(steps)
        if t:
            figures["step_ms_tail_percentile"], figures["step_ms_tail"] = t
        return parts[0]["batch_size"] * 1e3 / step_ms, figures
    seconds, samples = {}, {}
    for p in parts:
        for name, secs in p["phase_s"].items():
            seconds[name] = seconds.get(name, 0.0) + sum(secs)
            samples[name] = samples.get(name, 0) + p["rows"] * len(secs)
    figures = {f"{name}_samples_per_s": samples[name] / seconds[name] for name in seconds}
    return sum(samples.values()) / sum(seconds.values()), figures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="absorb-diffuse benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "absorb_diffuse", "__init__.py")):
        print(f"error: no absorb_diffuse sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(WORK_DIR, str(os.getpid()))
    parts = 1 if args.trace else MEASURE_PROCESSES
    seconds = args.seconds if args.trace else args.seconds / parts
    try:
        early = [_child(args, os.path.join(workdir, f"setup{i}"), seconds, 0, parts, deadline,
                        setup_only=True) for i in range(0 if args.trace else SETUP_PROCESSES)]
        results = [_child(args, os.path.join(workdir, str(i)), seconds, i, parts, deadline)
                   for i in range(parts)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as e:
        print(f"error: {args.workload}: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:  # another run still uses it, or it is already gone
            pass

    setups = [r["setup_s"] for r in early + results]
    samples_per_s, figures = _combine(WORKLOADS[args.workload][0], results)
    gates = {name: all(r["gates"].get(name, True) for r in results)
             for name in results[0]["gates"]}
    if args.trace:
        # figures that do not apply to the workload read 0
        units = dict(PER_LAYER)
        values = {name: figures.get(name, 0.0) for name in units}
        values.update(results[0]["per_layer"])
        if set(values) != set(units):
            raise RuntimeError(f"metrics not in spec.PER_LAYER: {sorted(set(values) - set(units))}")
    else:
        units = dict(END_TO_END)
        values = {"setup_s": statistics.median(setups),
                  "samples_per_s": samples_per_s,
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results)}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "workload": args.workload, "gates": gates, **figures,
        "setup_s_per_process": setups,
        "peak_rss_mb_per_process": [r["peak_rss_mb"] for r in results],
        "info_per_process": [r["info"] for r in results],
        "provenance": results[0]["provenance"],
        **{k: results[0][k] for k in ("span_check", "spans") if k in results[0]}}))
    print(json.dumps({
        "correct": all(gates.values()) and failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
