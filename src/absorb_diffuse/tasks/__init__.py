"""Synthetic reasoning tasks: generators, verifiers, tokenization."""

from .base import TaskInstance, Verdict, read_instances, write_instances
from .vocab import Vocabulary
from .registry import TASKS, TaskSpec, get_task, encode_instances

__all__ = [
    "TaskInstance", "Verdict", "read_instances", "write_instances",
    "Vocabulary", "TASKS", "TaskSpec", "get_task",
    "encode_instances",
]
