"""Experiment harness: configs, training, evaluation, analysis, CLI."""

from .config import ExperimentConfig, resolve_threads
from .metrics import append_record, read_records, WALL_CLOCK_FIELDS
from .train import TrainingDiverged, TrainResult, train, load_model
from .evaluate import EvalResult, evaluate_model

__all__ = [
    "ExperimentConfig", "resolve_threads",
    "append_record", "read_records", "WALL_CLOCK_FIELDS",
    "TrainingDiverged", "TrainResult", "train", "load_model",
    "EvalResult", "evaluate_model",
]
