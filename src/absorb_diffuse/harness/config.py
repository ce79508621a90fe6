"""Experiment configuration."""

from __future__ import annotations

import collections
import contextlib
import ctypes
import dataclasses
import functools
import glob
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..decoding import DecodeConfig
from ..diffusion import ReweightConfig
from ..model import ModelConfig
from ..tasks import get_task

THREADS_ENV = "ABSORB_DIFFUSE_THREADS"
MODEL_KINDS = ("diffusion", "ar")
# thread-count getter and setter of the OpenBLAS that numpy wheels bundle
OPENBLAS_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_set_num_threads64_")
WORKER_PREFIX = "absorb-worker"
# glibc mallopt settings, so each forward reuses the pages the last one freed:
# M_ARENA_MAX 1; M_MMAP_THRESHOLD 32 MiB, glibc's 64-bit cap (a rejected value
# would mmap every large array); M_TRIM_THRESHOLD 1 GiB
MALLOC_OPTIONS = ((-8, 1), (-3, 32 << 20), (-1, 1 << 30))
# the values ExperimentConfig.from_dict accepts for each declared field type
FIELD_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}


def resolve_threads() -> int:
    """Worker cap for `run_jobs`: the environment's value, else the number
    of CPUs this process may run on."""
    raw = os.environ.get(THREADS_ENV, "")
    if raw:
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
        if n < 1:
            raise ValueError(f"{THREADS_ENV} must be >= 1, got {n}")
        return n
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or
    None when numpy links another BLAS."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = (getattr(lib, name) for name in OPENBLAS_SYMBOLS)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def blas_threads(n: int):
    """Run the body with BLAS limited to n threads, then restore the previous
    count. A no-op when numpy's bundled OpenBLAS is not found.

    The count is global to the process: BLAS calls that other threads make
    while the body runs use it too.
    """
    fns = _openblas()
    if fns is None:
        yield
        return
    get, set_ = fns
    before = get()
    set_(n)
    try:
        yield
    finally:
        set_(before)


def run_jobs(jobs: list):
    """Call the jobs; yield their results in job order, each as soon as it and
    every earlier job have finished. With two or more workers
    (`resolve_threads`, one per job at most) they run on WORKER_PREFIX threads
    with the process-wide BLAS count pinned to 1 until all end, even when a job
    raises or the caller stops early; else here, in turn, as the caller asks.

    A result is released once yielded, so the caller alone decides how long
    it lives."""
    workers = min(len(jobs), resolve_threads())
    if workers < 2:
        for job in jobs:
            yield job()
        return
    with blas_threads(1), ThreadPoolExecutor(workers, thread_name_prefix=WORKER_PREFIX) as pool:
        pending = collections.deque(pool.submit(job) for job in jobs)
        while pending:
            yield pending.popleft().result()


def tune_malloc() -> bool:
    """Set MALLOC_OPTIONS with libc's mallopt; -> whether all were accepted."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return all([mallopt(param, value) == 1 for param, value in MALLOC_OPTIONS])


tune_malloc()


@dataclass
class ExperimentConfig:
    task: str
    out_dir: str
    train_path: str = ""
    eval_path: str = ""
    model_kind: str = "diffusion"
    seed: int = 0
    # model size
    n_layers: int = 3
    n_heads: int = 4
    hidden_dim: int = 128
    # corruption process and loss shaping
    schedule_T: int = 20
    sequence_mode: str = "original"
    token_alpha: float = 1.0
    token_beta: float = 0.0
    full_gradient: bool = False
    # optimization
    lr: float = 1e-3
    warmup_steps: int = 100
    batch_size: int = 128
    train_steps: int = 4000
    log_every: int = 50
    eval_every: int = 0       # 0: only the final evaluation
    eval_limit: int = 200
    # decoding
    decode_steps: int = 0     # 0: the task's default
    temperature: float = 0.5
    strategy: str = "topk"

    def __post_init__(self):
        task = get_task(self.task)
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"model_kind must be one of {MODEL_KINDS}, got {self.model_kind!r}")
        for f in ("schedule_T", "batch_size", "train_steps", "log_every"):
            if getattr(self, f) < 1:
                raise ValueError(f"{f} must be >= 1")
        if not self.lr > 0:
            raise ValueError("lr must be positive")
        for f in ("warmup_steps", "eval_every", "eval_limit", "decode_steps"):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be >= 0")
        # the model, loss and decoder settings are checked by the configs built from them
        self.model_config(task.vocabulary().size)
        self.reweight_config()
        self.decode_config()

    def model_config(self, vocab_size: int) -> ModelConfig:
        task = get_task(self.task)
        attention = "causal" if self.model_kind == "ar" else "bidirectional"
        return ModelConfig(vocab_size=vocab_size, max_seq_len=task.seq_len,
                           attention=attention, n_layers=self.n_layers,
                           n_heads=self.n_heads, hidden_dim=self.hidden_dim)

    def reweight_config(self) -> ReweightConfig:
        return ReweightConfig(sequence_mode=self.sequence_mode,
                              token_alpha=self.token_alpha,
                              token_beta=self.token_beta,
                              full_gradient=self.full_gradient)

    def decode_config(self) -> DecodeConfig:
        steps = self.decode_steps or get_task(self.task).decode_steps
        return DecodeConfig(steps=steps, temperature=self.temperature,
                            strategy=self.strategy, seed=self.seed)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(d) - set(types)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        # JSON true is an int to Python, and a non-empty string is true
        for name, v in d.items():
            t = types[name]
            if not isinstance(v, FIELD_TYPES[t]) or isinstance(v, bool) != (t == "bool"):
                raise ValueError(f"config field {name} must be of type {t}, got {v!r}")
        return cls(**d)

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def replace(self, **kw) -> "ExperimentConfig":
        return dataclasses.replace(self, **kw)
