"""Run configuration: one JSON document drives every CLI subcommand.

The document is split into sections, each mapping onto the config type of
the module that consumes it:

    pipeline  grid cell size, split fractions, pipeline-op seed
    synth     synthetic image generator knobs
    model     DamConfig fields
    train     TrainConfig fields
    da        DaTrainConfig fields (lam is the alignment weight)
    eval      evaluation split and batch size
    cam       class index to visualize
    paths     every file the subcommands read or write under

One value rule, applied by ``jsoncodec`` from the field annotations,
holds at every depth: unknown keys are rejected (a typo fails the run
instead of silently using a default), an int field takes no bool or
float, a float field only a finite number, a str or bool field only that
type, a tuple field a list of its exact length, and ``eval.split`` one of
train, val and test. A bad value fails at load, naming its section and
key, not hours into a run. A missing key or section means its defaults.

Every run writes the fully resolved document (defaults filled in, seed
override applied) beside its outputs as ``config.resolved.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Literal, Optional

from .adapt.training import DaTrainConfig
from .jsoncodec import JsonError, from_json, to_json
from .model.config import DamConfig
from .model.training import TrainConfig


class RunConfigError(ValueError):
    """Malformed run configuration; a usage error, not a data error."""


@dataclass(frozen=True)
class PipelineSection:
    cell_size_m: float = 30.0
    split_fractions: tuple[float, float, float] = (0.7, 0.15, 0.15)
    seed: int = 0


@dataclass(frozen=True)
class SynthSection:
    n_per_class: int = 100
    image_hw: tuple[int, int] = (64, 64)
    jitter_px: int = 0
    domain_style: str = "source"
    seed: int = 0


@dataclass(frozen=True)
class EvalSection:
    split: Literal["train", "val", "test"] = "test"
    batch_size: int = 64

    def __post_init__(self):
        if self.batch_size < 1:
            raise RunConfigError(f"batch_size must be at least 1, got {self.batch_size}")


@dataclass(frozen=True)
class CamSection:
    class_index: int = 1  # dangerous


@dataclass(frozen=True)
class PathsSection:
    """Inputs are read as given; outputs always land inside run_dir."""

    run_dir: str = "run"
    accidents_csv: Optional[str] = None
    scores_csv: Optional[str] = None
    grid_json: Optional[str] = None
    manifest: Optional[str] = None
    image_root: Optional[str] = None
    target_manifest: Optional[str] = None
    target_image_root: Optional[str] = None
    val_manifest: Optional[str] = None
    val_image_root: Optional[str] = None
    checkpoint: Optional[str] = None
    image: Optional[str] = None


@dataclass(frozen=True)
class RunConfig:
    pipeline: PipelineSection = PipelineSection()
    synth: SynthSection = SynthSection()
    model: DamConfig = DamConfig()
    train: TrainConfig = TrainConfig()
    da: DaTrainConfig = DaTrainConfig()
    eval: EvalSection = EvalSection()
    cam: CamSection = CamSection()
    paths: PathsSection = PathsSection()

    def with_seed(self, seed: int) -> "RunConfig":
        """Override every section's seed; the resolved snapshot records it."""
        return replace(
            self,
            pipeline=replace(self.pipeline, seed=seed),
            synth=replace(self.synth, seed=seed),
            train=replace(self.train, seed=seed),
            da=replace(self.da, seed=seed),
        )


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError as e:
        raise RunConfigError(f"config file not found: {path}") from e
    except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested too deep
        raise RunConfigError(f"{path}: invalid JSON: {e}") from e
    except UnicodeDecodeError as e:
        raise RunConfigError(f"{path}: not UTF-8 text: {e}") from e
    try:
        return from_json(RunConfig, doc)
    except JsonError as e:
        if not e.path:
            raise RunConfigError(f"run config: {e}") from e
        raise RunConfigError(f"section {e.path[0]!r}: {JsonError(e.path[1:], e.reason)}") from e


def dumps_resolved(config: RunConfig) -> str:
    return json.dumps(to_json(config), sort_keys=True, indent=2) + "\n"
