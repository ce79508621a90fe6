"""Append-only JSONL metrics with schema validation.

Every record is validated against the published schema when it is appended
and again when it is read back. wall_time and samples_per_sec carry
wall-clock measurements and are the only fields allowed to differ between
same-seed runs.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import asdict, dataclass

import jsonschema

WALL_CLOCK_FIELDS = ("wall_time", "samples_per_sec")


def _load_schema() -> dict:
    ref = importlib.resources.files("absorb_diffuse") / "schemas" / "metrics.schema.json"
    return json.loads(ref.read_text())


_SCHEMA = _load_schema()
_VALIDATOR = jsonschema.Draft7Validator(_SCHEMA)


def metrics_schema() -> dict:
    return _SCHEMA


@dataclass
class MetricsRecord:
    kind: str
    step: int
    task: str
    model_kind: str
    seed: int
    loss: float | None = None
    lr: float | None = None
    grad_norm: float | None = None
    accuracy: float | None = None
    per_pd: dict | None = None
    n_eval: int | None = None
    epoch: int | None = None
    wall_time: float | None = None
    samples_per_sec: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def validate_record(record: dict) -> None:
    errors = sorted(_VALIDATOR.iter_errors(record), key=lambda e: e.path)
    if errors:
        msgs = "; ".join(e.message for e in errors[:3])
        raise ValueError(f"metrics record failed schema validation: {msgs}")


def append_record(path: str, record: "MetricsRecord | dict") -> None:
    d = record.to_dict() if isinstance(record, MetricsRecord) else dict(record)
    validate_record(d)
    with open(path, "a", encoding="utf-8", newline="\n") as f:
        f.write(json.dumps(d, sort_keys=True) + "\n")


def read_records(path: str) -> list[dict]:
    """Parse a metrics file, validating every record against the schema."""
    out = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if line:
                record = json.loads(line)
                try:
                    validate_record(record)
                except ValueError as e:
                    raise ValueError(f"{path}:{lineno}: {e}") from None
                out.append(record)
    return out


def strip_wall_clock(records) -> list[dict]:
    """Records minus the fields that legitimately differ across runs."""
    out = []
    for r in records:
        r = dict(r)
        for k in WALL_CLOCK_FIELDS:
            r.pop(k, None)
        out.append(r)
    return out
