"""Per-layer tracing of absorb-diffuse from outside the library.

`install` replaces public functions and methods of the library with timed
wrappers, in the namespace each caller looks them up in:

- autodiff ops, which model.py and diffusion.py call as `ad.<op>`. A wrapped
  op also wraps the backward closure of the node it returns, so backward
  time is charged to the op kind and to the model block whose forward
  created the node.
- methods, patched on their class: `Node.backward`, `Adam.step`,
  `DenoiserModel.forward`, `Batch.take`, `Vocabulary.decode`.
- names that `harness.train` and `harness.evaluate` bound with
  `from ... import`, patched in those modules. `absorb_diffuse.harness`
  re-exports a `train` function that shadows the `harness.train` submodule,
  so both modules are taken from `sys.modules`.

`TaskSpec` is frozen: the caller passes `dataclasses.replace(task,
verify=tracer.wrap("tasks.verify", task.verify))` to `evaluate_model`.

A span's self time is its duration minus the durations of the spans it
encloses. Spans accumulate per thread (evaluation decodes on a thread pool)
and per phase: "setup" until the harness says the timed window starts,
"window" while it runs, "after" once it ends. The patches are never undone;
a traced run is a process of its own.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict

from absorb_diffuse import autodiff as ad
from absorb_diffuse import checkpoint
from absorb_diffuse.data import Batch
from absorb_diffuse.model import DenoiserModel
from absorb_diffuse.tasks import Vocabulary

from spec import BLOCKS, OP_KINDS

# autodiff function -> op kind reported in autodiff.<kind>.{fwd,bwd}_ms
AUTODIFF_OPS = {
    "matmul": "matmul", "gelu": "gelu", "layer_norm": "layer_norm",
    "softmax": "softmax", "add": "add", "embedding_lookup": "embedding_lookup",
    "softmax_cross_entropy": "cross_entropy",
    "softmax_focal_cross_entropy": "cross_entropy",
    "token_log_losses": "cross_entropy",
    "mul": "other", "scale": "other", "transpose": "other", "reshape": "other",
    "narrow": "other", "concat": "other",
}

_TRAIN = ({f"autodiff.{k}.{d}" for k in OP_KINDS for d in ("fwd", "bwd")}
          | {"autodiff.tape", "autodiff.adam", "model.forward", "data.take",
             "data.load", "checkpoint.save", "harness.metrics.append"})
# Spans that must fire on a workload; no other span may fire there.
EXPECTED_SPANS = {
    "train_diffusion": _TRAIN | {"diffusion.loss", "diffusion.sample_xt", "diffusion.draw_t"},
    "train_ar": _TRAIN | {"model.ar_nll"},
    "decode": ({f"autodiff.{k}.fwd" for k in OP_KINDS if k != "cross_entropy"}
               | {"model.forward", "decoding.diffusion", "decoding.ar",
                  "harness.evaluate.chunk", "tasks.verify", "tasks.vocab_decode",
                  "data.encode"}),
}


def _block_of(param: str) -> str:
    """Model block that owns a parameter, from DenoiserModel's param names."""
    if param in ("tok_emb", "pos_emb"):
        return "embedding"
    if param.startswith(("ln_f.", "out.")):
        return "head"
    return "mlp" if ".mlp." in param or ".ln2." in param else "attention"


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class _ThreadState:
    def __init__(self):
        self.stack = []          # open spans: [name, enclosed seconds, start]
        self.names = {}          # id(param node) -> name, inside a forward
        self.block = "loss"      # block charged for ops outside a forward
        self.total = defaultdict(float)    # (phase, span) -> seconds
        self.self_time = defaultdict(float)
        self.count = defaultdict(int)
        self.child = defaultdict(float)    # (phase, parent, span) -> seconds
        self.child_count = defaultdict(int)
        self.blocks = defaultdict(float)   # (phase, block) -> seconds
        self.nbytes = defaultdict(int)     # (phase, span) -> bytes


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _enter(self, st, name):
        frame = [name, 0.0, time.perf_counter()]
        st.stack.append(frame)
        return frame

    def _exit(self, st, frame) -> float:
        dt = time.perf_counter() - frame[2]
        st.stack.pop()
        key = (self.phase, frame[0])
        st.total[key] += dt
        st.self_time[key] += dt - frame[1]
        st.count[key] += 1
        if st.stack:
            parent = st.stack[-1]
            parent[1] += dt
            st.child[(self.phase, parent[0], frame[0])] += dt
            st.child_count[(self.phase, parent[0], frame[0])] += 1
        return dt

    def wrap(self, name, fn, block=None):
        """Time every call of fn as span `name`, optionally charged to a block."""
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            st = self._state()
            frame = self._enter(st, name)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = self._exit(st, frame)
                if block is not None:
                    st.blocks[(self.phase, block)] += dt
        return timed

    def add_bytes(self, name, n: int) -> None:
        self._state().nbytes[(self.phase, name)] += n

    def _wrap_op(self, kind, fn):
        fwd, bwd = f"autodiff.{kind}.fwd", f"autodiff.{kind}.bwd"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            st = self._state()
            for a in args:
                param = st.names.get(id(a))
                if param is not None:
                    st.block = _block_of(param)
                    break
            block = st.block
            frame = self._enter(st, fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = self._exit(st, frame)
            st.blocks[(self.phase, block)] += dt
            is_node = isinstance(out, ad.Node)
            st.nbytes[(self.phase, "autodiff.out")] += (out.value if is_node else out).nbytes
            if is_node and out._backward is not None:
                out._backward = self.wrap(bwd, out._backward, block)
            return out
        return timed

    def _wrap_forward(self, fn):
        @functools.wraps(fn)
        def timed(model, *args, **kwargs):
            st = self._state()
            st.names = {id(p): n for n, p in model.params.items()}
            st.block = "embedding"
            frame = self._enter(st, "model.forward")
            try:
                return fn(model, *args, **kwargs)
            finally:
                self._exit(st, frame)
                st.names = {}
                st.block = "loss"
        return timed

    def install(self) -> None:
        for fname, kind in AUTODIFF_OPS.items():
            setattr(ad, fname, self._wrap_op(kind, getattr(ad, fname)))
        ad.Node.backward = self.wrap("autodiff.tape", ad.Node.backward)
        ad.Adam.step = self.wrap("autodiff.adam", ad.Adam.step, block="optimizer")
        DenoiserModel.forward = self._wrap_forward(DenoiserModel.forward)
        Batch.take = self.wrap("data.take", Batch.take)
        Vocabulary.decode = self.wrap("tasks.vocab_decode", Vocabulary.decode)

        save = self.wrap("checkpoint.save", checkpoint.save_checkpoint)

        @functools.wraps(save)
        def save_and_measure(path, *args, **kwargs):
            save(path, *args, **kwargs)
            self.add_bytes("checkpoint.save", _dir_bytes(path))
        checkpoint.save_checkpoint = save_and_measure

        train_mod = sys.modules["absorb_diffuse.harness.train"]
        for attr, span in (("diffusion_loss", "diffusion.loss"),
                           ("sample_xt", "diffusion.sample_xt"),
                           ("draw_t", "diffusion.draw_t"),
                           ("ar_nll", "model.ar_nll"),
                           ("read_instances", "data.load"),
                           ("encode_instances", "data.load"),
                           ("append_record", "harness.metrics.append")):
            setattr(train_mod, attr, self.wrap(span, getattr(train_mod, attr)))
        eval_mod = sys.modules["absorb_diffuse.harness.evaluate"]
        for attr, span in (("diffusion_decode", "decoding.diffusion"),
                           ("ar_decode", "decoding.ar"),
                           ("encode_instances", "data.encode"),
                           ("_decode_chunk", "harness.evaluate.chunk")):
            setattr(eval_mod, attr, self.wrap(span, getattr(eval_mod, attr)))

    def _merged(self):
        out = _ThreadState()
        with self._lock:
            states = list(self._states)
        for st in states:
            for field in ("total", "self_time", "count", "child", "child_count", "blocks",
                          "nbytes"):
                dst = getattr(out, field)
                for k, v in getattr(st, field).items():
                    dst[k] += v
        return out

    def fired(self) -> set:
        return {name for (_, name), n in self._merged().count.items() if n}

    def span_table(self) -> dict:
        """{phase: {span: [calls, total_ms, self_ms]}} for the info line."""
        m = self._merged()
        out = defaultdict(dict)
        for (phase, name), n in sorted(m.count.items()):
            out[phase][name] = [n, round(m.total[(phase, name)] * 1e3, 3),
                                round(m.self_time[(phase, name)] * 1e3, 3)]
        return dict(out)

    def layer_metrics(self, n_ops: int, extra: dict) -> dict:
        """The per-layer metrics that come from spans. Window values are
        divided by n_ops, the number of timed operations. extra supplies
        what the caller timed itself: generate_s, untraced_op_ms,
        traced_op_ms and, on decode, eval_wall_s and eval_workers."""
        m = self._merged()
        w = "window"

        def total(name, phase=w):
            return m.total[(phase, name)]

        def ms(seconds):
            return seconds * 1e3 / n_ops

        v = {}
        for k in OP_KINDS:
            v[f"autodiff.{k}.fwd_ms"] = ms(total(f"autodiff.{k}.fwd"))
            v[f"autodiff.{k}.bwd_ms"] = ms(total(f"autodiff.{k}.bwd"))
        v["autodiff.tape_ms"] = ms(m.self_time[(w, "autodiff.tape")])
        v["autodiff.adam_ms"] = ms(total("autodiff.adam"))
        v["autodiff.calls_per_step"] = sum(
            m.count[(w, f"autodiff.{k}.fwd")] for k in OP_KINDS) / n_ops
        v["autodiff.out_mb_per_step"] = m.nbytes[(w, "autodiff.out")] / 1e6 / n_ops
        for b in BLOCKS:
            v[f"block.{b}_ms"] = ms(m.blocks[(w, b)])
        v["model.forward_ms"] = ms(total("model.forward"))
        v["model.forward_calls"] = m.count[(w, "model.forward")] / n_ops
        for kind in ("diffusion", "ar"):
            key = (w, f"decoding.{kind}", "model.forward")
            v[f"decode.{kind}.forward_ms"] = ms(m.child[key])
            v[f"decode.{kind}.forward_calls"] = m.child_count[key] / n_ops
        v["diffusion.sample_xt_ms"] = ms(total("diffusion.sample_xt"))
        v["diffusion.loss_self_ms"] = ms(
            total("diffusion.loss") - m.child[(w, "diffusion.loss", "model.forward")])
        for kind in ("diffusion", "ar"):
            span = f"decoding.{kind}"
            v[f"decoding.{kind}.host_ms"] = ms(total(span) - m.child[(w, span, "model.forward")])
        busy = total("harness.evaluate.chunk")
        wall = extra.get("eval_wall_s", 0.0) * extra.get("eval_workers", 1)
        v["harness.evaluate.worker_busy_ratio"] = busy / wall if wall else 0.0
        v["tasks.verify_ms"] = ms(total("tasks.verify"))
        v["tasks.vocab_decode_ms"] = ms(total("tasks.vocab_decode"))
        v["data.encode_ms"] = ms(total("data.encode"))
        v["data.take_ms"] = ms(total("data.take"))
        v["data.load_s"] = total("data.load", "setup")
        v["tasks.generate_s"] = extra["generate_s"]
        saves = sum(m.count[(p, "checkpoint.save")] for p in ("setup", w, "after"))
        if saves:
            v["checkpoint.save_ms"] = sum(
                total("checkpoint.save", p) for p in ("setup", w, "after")) * 1e3 / saves
            v["checkpoint.save_mb"] = sum(
                m.nbytes[(p, "checkpoint.save")] for p in ("setup", w, "after")) / 1e6 / saves
        else:
            v["checkpoint.save_ms"] = v["checkpoint.save_mb"] = 0.0
        v["harness.metrics.append_ms"] = ms(total("harness.metrics.append"))
        v["trace.untraced_op_ms"] = extra["untraced_op_ms"]
        v["trace.traced_op_ms"] = extra["traced_op_ms"]
        v["trace.overhead_pct"] = 100.0 * (extra["traced_op_ms"] / extra["untraced_op_ms"] - 1.0)
        return v
