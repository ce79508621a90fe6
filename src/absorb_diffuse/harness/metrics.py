"""Run outputs: append-only JSONL metrics with schema validation, and CSV
tables.

A record is a plain dict, and the published schema is its one definition:
every record is validated against the schema when it is appended and again
when it is read back, and is written with every schema property (null where
absent) in sorted key order. wall_time and samples_per_sec carry wall-clock
measurements and are the only fields allowed to differ between same-seed
runs. The validator is built on the first validation, so a process that
writes and reads no record (sample, or eval without --metrics-out) never
imports jsonschema. Every CSV table the harness writes (`analyze`, the
sweeps) goes through `write_table`.
"""

from __future__ import annotations

import csv
import functools
import importlib.resources
import json

from ..checkpoint import write_durable

WALL_CLOCK_FIELDS = ("wall_time", "samples_per_sec")


def _load_schema() -> dict:
    ref = importlib.resources.files("absorb_diffuse") / "schemas" / "metrics.schema.json"
    return json.loads(ref.read_text())


_SCHEMA = _load_schema()
_NULLS = dict.fromkeys(_SCHEMA["properties"])


@functools.cache
def _validator():
    import jsonschema  # about 0.1 s and 5 MB, so only once a record is checked

    return jsonschema.Draft7Validator(_SCHEMA)


def validate_record(record: dict) -> None:
    errors = sorted(_validator().iter_errors(record), key=lambda e: e.path)
    if errors:
        msgs = "; ".join(e.message for e in errors[:3])
        raise ValueError(f"metrics record failed schema validation: {msgs}")


def append_record(path: str, record: dict) -> None:
    """Validate a record as given, so an unknown key is rejected, then
    append it with every schema property."""
    validate_record(record)
    with open(path, "a", encoding="utf-8", newline="\n") as f:
        f.write(json.dumps({**_NULLS, **record}, sort_keys=True) + "\n")


def rewind_records(path: str, step: int) -> None:
    """Rewrite a metrics file as it stood when its run saved the checkpoint
    of `step`: its complete records up to that step, without `final`. A run
    killed after that checkpoint, or finished, may have written more, which
    a resume from it would write again. The new file is synced and replaces
    the old in one rename, which is synced too, so a kill or a power loss
    leaves one or the other."""
    keep = []
    with open(path, encoding="utf-8", newline="\n") as f:
        for line in f:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # blank, or cut short by a kill
            if line.endswith("\n") and record["kind"] != "final" and record["step"] <= step:
                keep.append(line)
    write_durable(path, "".join(keep).encode("utf-8"))


def read_records(path: str) -> list[dict]:
    """Parse a metrics file, validating every record against the schema."""
    out = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if line:
                try:
                    record = json.loads(line)
                    validate_record(record)
                except json.JSONDecodeError as e:  # such as a line cut short by a kill
                    raise ValueError(f"{path}:{lineno}: not JSON: {e}") from None
                except ValueError as e:
                    raise ValueError(f"{path}:{lineno}: {e}") from None
                out.append(record)
    return out


def write_table(path: str, header, rows) -> None:
    """Write a CSV table: the header, then each row as `rows` yields it,
    with `csv.writer`'s default dialect (CRLF line ends, None as an empty
    cell). Callers format their own values."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
