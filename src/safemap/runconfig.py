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

Unknown keys are rejected at the top level and inside every section, so a
typo fails the run instead of silently using a default. A missing section
means all defaults. Every run writes the fully resolved document (defaults
filled in, seed override applied) beside its outputs as
``config.resolved.json``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

from .adapt.training import DaTrainConfig
from .model.config import ConfigError, DamConfig
from .model.training import TrainConfig, TrainError


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
    split: str = "test"
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


_TUPLE_KEYS = {"split_fractions", "image_hw"}


def _build_section(cls, obj, section: str):
    if not isinstance(obj, dict):
        raise RunConfigError(f"section {section!r} must be a JSON object, got {type(obj).__name__}")
    known = {f.name for f in fields(cls)}
    extra = sorted(set(obj) - known)
    if extra:
        raise RunConfigError(f"unknown keys in section {section!r}: {extra}")
    kwargs = {k: tuple(v) if k in _TUPLE_KEYS and isinstance(v, list) else v
              for k, v in obj.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, TrainError, ConfigError) as e:
        raise RunConfigError(f"section {section!r}: {e}") from e


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

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise RunConfigError(f"run config must be a JSON object, got {type(doc).__name__}")
        sections = {
            "pipeline": (PipelineSection, _build_section),
            "synth": (SynthSection, _build_section),
            "model": (DamConfig, None),
            "train": (TrainConfig, _build_section),
            "da": (DaTrainConfig, _build_section),
            "eval": (EvalSection, _build_section),
            "cam": (CamSection, _build_section),
            "paths": (PathsSection, _build_section),
        }
        extra = sorted(set(doc) - set(sections))
        if extra:
            raise RunConfigError(f"unknown run config sections: {extra}")
        kwargs = {}
        for name, (section_cls, builder) in sections.items():
            if name not in doc:
                continue
            if builder is None:
                try:
                    kwargs[name] = DamConfig.from_dict(doc[name])
                except (TypeError, ValueError, ConfigError) as e:
                    raise RunConfigError(f"section 'model': {e}") from e
            else:
                kwargs[name] = builder(section_cls, doc[name], name)
        return cls(**kwargs)

    def to_dict(self) -> dict:
        doc = {
            "pipeline": asdict(self.pipeline),
            "synth": asdict(self.synth),
            "model": self.model.to_dict(),
            "train": asdict(self.train),
            "da": asdict(self.da),
            "eval": asdict(self.eval),
            "cam": asdict(self.cam),
            "paths": asdict(self.paths),
        }
        doc["pipeline"]["split_fractions"] = list(self.pipeline.split_fractions)
        doc["synth"]["image_hw"] = list(self.synth.image_hw)
        return doc

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
    except json.JSONDecodeError as e:
        raise RunConfigError(f"{path}: invalid JSON: {e}") from e
    return RunConfig.from_dict(doc)


def dumps_resolved(config: RunConfig) -> str:
    return json.dumps(config.to_dict(), sort_keys=True, indent=2) + "\n"
