"""Checkpoint directory format.

A checkpoint is a directory holding `manifest.json` plus one numpy archive,
`arrays-<sha256[:16]>.npz`, with every parameter (`param/<name>`) and both
Adam moments (`m/<name>`, `v/<name>`) as little-endian float32. The manifest
records the schema version, dtype tag, the archive's name and full sha256,
the model config, Adam's step count, the step and caller metadata. It holds
no generator state: training draws each step's randomness from the seed
and the step, so these are all a resume needs. Renaming the manifest into
place is the only commit point: a save killed before it leaves the previous
manifest naming the previous archive, deleted only after the new manifest.
"""

from __future__ import annotations

import hashlib
import io
import json
import os

import numpy as np

SCHEMA_VERSION = 3
DTYPE_TAG = "f32le"
_DTYPE = np.dtype("<f4")
MANIFEST = "manifest.json"
_KEYS = ("arrays", "sha256", "model_config", "adam_t", "step", "extra")


def write_durable(path: str, data: bytes, tmp: str | None = None) -> None:
    """Write `data` to `tmp` (default `path` + ".tmp"; same directory as
    `path`), fsync it, rename it to `path` and fsync the directory so the
    rename persists. A write killed midway leaves `path` as it was and at
    most the temporary file, which the next write reuses."""
    tmp = path + ".tmp" if tmp is None else tmp
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_checkpoint(path: str, params: dict, model_config: dict, optimizer_state: dict,
                    step: int, extra: dict) -> None:
    """Write parameters (name -> Node), Adam state and metadata to `path`."""
    os.makedirs(path, exist_ok=True)
    arrays = {}
    for name, p in params.items():
        arrays["param/" + name] = np.asarray(p.value, _DTYPE)
        arrays["m/" + name] = np.asarray(optimizer_state["m"][name], _DTYPE)
        arrays["v/" + name] = np.asarray(optimizer_state["v"][name], _DTYPE)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    data = buf.getvalue()
    sha = hashlib.sha256(data).hexdigest()
    archive = f"arrays-{sha[:16]}.npz"
    write_durable(os.path.join(path, archive), data, os.path.join(path, "arrays.tmp"))
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "dtype": DTYPE_TAG,
        "arrays": archive,
        "sha256": sha,
        "model_config": model_config,
        "adam_t": int(optimizer_state["t"]),
        "step": int(step),
        "extra": extra,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    write_durable(os.path.join(path, MANIFEST), text.encode())
    for f in os.listdir(path):
        if f.startswith("arrays-") and f.endswith(".npz") and f != archive:
            os.remove(os.path.join(path, f))


class Checkpoint:
    def __init__(self, manifest: dict, params: dict, optimizer_state: dict):
        self.manifest = manifest
        self.params = params
        self.optimizer_state = optimizer_state
        self.model_config = manifest["model_config"]
        self.step = manifest["step"]


def load_checkpoint(path: str) -> Checkpoint:
    manifest_path = os.path.join(path, MANIFEST)
    with open(manifest_path) as f:
        manifest = json.load(f)
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path}: manifest is not a JSON object")
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"{manifest_path}: unsupported checkpoint schema {manifest.get('schema_version')}, "
            f"this build reads version {SCHEMA_VERSION}"
        )
    if manifest.get("dtype") != DTYPE_TAG:
        raise ValueError(f"{manifest_path}: unsupported parameter dtype {manifest.get('dtype')!r}")
    missing = [k for k in _KEYS if k not in manifest]
    if missing:
        raise ValueError(f"{manifest_path}: missing keys {missing}")
    archive = os.path.join(path, manifest["arrays"])
    try:
        with open(archive, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        raise ValueError(f"{archive}: archive named by the manifest is missing") from None
    if hashlib.sha256(data).hexdigest() != manifest["sha256"]:
        raise ValueError(f"{archive}: sha256 does not match the manifest")
    groups = {"param": {}, "m": {}, "v": {}}
    with np.load(io.BytesIO(data), allow_pickle=False) as npz:
        for key in npz.files:
            kind, _, name = key.partition("/")
            if kind not in groups or not name:
                raise ValueError(f"{archive}: unexpected archive entry {key!r}")
            groups[kind][name] = npz[key]
    return Checkpoint(manifest, groups["param"],
                      {"t": manifest["adam_t"], "m": groups["m"], "v": groups["v"]})
