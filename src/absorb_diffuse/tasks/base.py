"""Shared task types and instance file IO."""

from __future__ import annotations

from dataclasses import dataclass, field

VALID = "valid"
CALC_ERROR = "calc_error"
PLAN_ERROR = "plan_error"
FORMAT_ERROR = "format_error"
INVALID = "invalid"


@dataclass
class TaskInstance:
    input_text: str
    output_text: str
    meta: dict = field(default_factory=dict)


@dataclass
class Verdict:
    """Verifier outcome. `step` is the 1-based position of the first failing
    unit (equation index for arithmetic chains) when that is meaningful."""

    kind: str
    step: int | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.kind == VALID


def split_segments(output_text: str, sep: str) -> list[int]:
    """Per-character segment index; a separator belongs to the segment it
    closes (edges split by "/", equations and variables by ",")."""
    seg, out = 0, []
    for ch in output_text:
        out.append(seg)
        if ch == sep:
            seg += 1
    return out


def write_instances(path: str, instances) -> None:
    """One `input<TAB>output` per line, UTF-8, LF. A field holding a tab,
    LF or CR would not read back as written (CR ends a line on read), so it
    is refused before the file is opened."""
    instances = list(instances)
    for inst in instances:
        if any(ch in text for ch in "\t\n\r" for text in (inst.input_text, inst.output_text)):
            raise ValueError("instance text must not contain tabs or line breaks")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for inst in instances:
            f.write(f"{inst.input_text}\t{inst.output_text}\n")


def read_instances(path: str) -> list[TaskInstance]:
    out = []
    with open(path, encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{ln}: expected input<TAB>output, got {len(parts)} fields")
            out.append(TaskInstance(parts[0], parts[1]))
    return out
