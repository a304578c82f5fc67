"""Command-line workflows binding the pipeline, training, adaptation, and reporting.

Every subcommand takes ``--config run.json`` (see runconfig) plus an
optional ``--seed`` override and maps onto one module operation:

    ingest        accident CSV -> records.jsonl
    grid          accident CSV -> grid.json + scores.csv
    label         scores.csv -> labels.csv (2-means binning)
    balance       dataset manifest -> class-balanced manifest
    synth         synthetic labeled image set
    train         manifest + images -> checkpoint + metrics.csv
    pseudo-label  target manifest + checkpoint -> pseudo-labeled manifest
    train-da      source + pseudo-labeled target -> adapted checkpoint
    eval          checkpoint + manifest split -> eval.json
    cam           checkpoint + one image -> cam.pgm
    map-export    checkpoint + manifest + grid -> safety_map.csv/.ppm

``eval``, ``pseudo-label`` and ``map-export`` each run one
``model.training.evaluate`` call at ``eval.batch_size`` and take their
labels as the argmax of its class probabilities.

Exit codes: 0 success, 1 usage error (bad flags or run config), 2 data
error (unreadable or inconsistent inputs). All outputs land under the
config's run directory next to ``config.resolved.json`` and
``run_manifest.json``, which declares every file in that directory, those
of earlier subcommands that shared it included; rerunning with identical
inputs and seed reproduces each artifact byte for byte on one numpy/OpenBLAS
build at one BLAS thread count (BLAS rounding follows its thread split).
Concurrent runs must use distinct run directories.

``main()`` may be called any number of times in one process, one run per
call. The argument parser is built once, on the first call, and reused:
each call parses its own arguments into a fresh namespace. The model's
pooling matrices are likewise built once per shape (see ``roi_avg_pool``).
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import functools
import json
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .adapt import AdaptError, pseudo_label, train_dam_da
from .autodiff import CheckpointError, TensorError, load_checkpoint, save_checkpoint
from .autodiff.tensor import _leaf
from .fileio import atomic_open
from .geo.grid import GridError, GridSpec, build_grid, score_cells
from .geo.labeling import LabelingError, kmeans_bin
from .geo.manifest import (
    DANGEROUS,
    ManifestError,
    balance,
    load_manifest,
    save_manifest,
)
from .geo.ppm import PpmError, read_ppm
from .geo.records import IngestError, ingest_accidents, records_jsonl
from .geo.synth import SynthError, synth_generate
from .jsoncodec import dumps
from .model.config import ConfigError
from .model.network import DamParams, param_layout
# not called here, but the traced benchmark (bench/layers.py TARGETS) wraps it
from .model.network import forward  # noqa: F401
from .model.training import (
    TrainError,
    evaluate,
    load_split,
    save_metrics_csv,
    train_dam,
)
from .report import (
    CamError,
    CellPrediction,
    ExportError,
    MetricsError,
    cam,
    metrics_from_confusion,
    confusion,
    safety_map_export,
)
from .runconfig import RunConfig, RunConfigError, dumps_resolved, load_run_config

# Serve arrays up to 32 MiB (glibc's 64-bit maximum) from the heap and keep up to 1 GiB of free
# heap top, so a batch reuses what the last one freed: a map-export of 576 tiles at batch 64 took
# 39-48k minor faults per call at glibc's defaults, at most 800 after the first call with this.
try:
    _mallopt = ctypes.CDLL(None).mallopt  # find_library would spawn a subprocess
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
except (AttributeError, OSError, TypeError):  # no mallopt in this libc
    pass
else:
    _mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

DATA_ERRORS = (IngestError, GridError, LabelingError, ManifestError, SynthError,
               TrainError, AdaptError, ConfigError, CamError, ExportError,
               MetricsError, TensorError, PpmError, OSError, MemoryError)


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; the contract is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class RunDir:
    """Run output directory; its ``run_manifest.json`` lists what is in it."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def path(self, rel: str) -> Path:
        """Absolute path of an output file directly under the run directory."""
        return self.root / rel

    def write_json(self, rel: str, obj) -> None:
        self.write_text(rel, dumps(obj) + "\n")

    def write_text(self, rel: str, text: str) -> None:
        with atomic_open(self.path(rel), "w", encoding="utf-8") as f:
            f.write(text)

    def finish(self, subcommand: str) -> None:
        """Declare every file under the run directory.

        The directory is its own ledger: files of earlier subcommands that
        shared it are declared too, and a file the run never wrote (it
        failed first) is not.
        """
        found = (os.path.relpath(os.path.join(base, name), self.root).replace(os.sep, "/")
                 for base, _, names in os.walk(self.root) for name in names)
        files = sorted(f for f in found if f != "run_manifest.json")
        self.write_json("run_manifest.json", {"subcommand": subcommand, "files": files})


def _require(value: Optional[str], key: str) -> str:
    if value is None:
        raise RunConfigError(f"this subcommand needs paths.{key} in the run config")
    return value


def _progress(line: str) -> None:
    print(line, file=sys.stderr)


# ---------------------------------------------------------------- pipeline


def _read_records(cfg: RunConfig):
    path = _require(cfg.paths.accidents_csv, "accidents_csv")
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            return ingest_accidents(f)
    except UnicodeDecodeError as e:
        raise IngestError(f"{path}: not UTF-8 text: {e}") from e


def cmd_ingest(cfg: RunConfig, run: RunDir) -> None:
    """Parse the accident CSV into records.jsonl."""
    result = _read_records(cfg)
    with atomic_open(run.path("records.jsonl"), "w", encoding="utf-8", newline="\n") as f:
        for line in records_jsonl(result):
            f.write(line)
    run.write_json("ingest_report.json",
                   {"records": len(result.ids), "skipped": result.skipped})


def cmd_grid(cfg: RunConfig, run: RunDir) -> None:
    """Grid the accident CSV into grid.json and per-cell scores.csv."""
    result = _read_records(cfg)
    spec, cols, rows = build_grid(result.latitude, result.longitude, cfg.pipeline.cell_size_m)
    counts = score_cells(spec, cols, rows)
    run.write_json("grid.json", spec.to_dict())
    with atomic_open(run.path("scores.csv"), "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["col", "row", "score"])
        writer.writerows((col, row, score) for (row, col), score in np.ndenumerate(counts))
    run.write_json("grid_report.json",
                   {"columns": spec.columns, "rows": spec.rows,
                    "records": len(result.ids), "total_score": int(counts.sum())})


def _read_scores(path) -> list[tuple[int, int, int]]:
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        try:
            if reader.fieldnames is None or not {"col", "row", "score"} <= set(reader.fieldnames):
                raise LabelingError(f"{path}: expected a col,row,score header")
            return [(int(r["col"]), int(r["row"]), int(r["score"])) for r in reader]
        except UnicodeDecodeError as e:
            raise LabelingError(f"{path}: not UTF-8 text: {e}") from e
        except (TypeError, ValueError) as e:
            raise LabelingError(f"{path}: malformed score row: {e}") from e
        except csv.Error as e:
            raise LabelingError(f"{path}: line {reader.reader.line_num}: {e}") from e


def cmd_label(cfg: RunConfig, run: RunDir) -> None:
    """Bin scores.csv into safe and dangerous cells (labels.csv) by 2-means."""
    rows = _read_scores(_require(cfg.paths.scores_csv, "scores_csv"))
    result = kmeans_bin([s for _, _, s in rows])
    with atomic_open(run.path("labels.csv"), "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["col", "row", "score", "label"])
        for (col, row, score), label in zip(rows, result.assignments):
            writer.writerow([col, row, score, int(label)])
    safe = int((result.assignments == 0).sum())
    run.write_json("label_report.json",
                   {"centroids": list(result.centroids),
                    "degenerate": result.degenerate,
                    "safe": safe, "dangerous": len(rows) - safe})


def cmd_balance(cfg: RunConfig, run: RunDir) -> None:
    """Write a class-balanced copy of the dataset manifest."""
    manifest = load_manifest(_require(cfg.paths.manifest, "manifest"))
    balanced = balance(manifest, cfg.pipeline.seed)
    save_manifest(run.path("manifest.balanced.jsonl"), balanced)
    run.write_json("balance_report.json",
                   {"before": list(manifest.class_counts()),
                    "after": list(balanced.class_counts())})


def cmd_synth(cfg: RunConfig, run: RunDir) -> None:
    """Generate a seeded synthetic labeled tile set and its manifest."""
    s = cfg.synth
    result = synth_generate(run.root / "synth", n_per_class=s.n_per_class,
                            image_hw=s.image_hw, jitter_px=s.jitter_px,
                            domain_style=s.domain_style, seed=s.seed,
                            split_fractions=cfg.pipeline.split_fractions)
    counts = result.manifest.class_counts()
    run.write_json("synth_report.json",
                   {"images": len(result.manifest.entries),
                    "safe": counts[0], "dangerous": counts[1]})


# ---------------------------------------------------------------- training


def _load_params(cfg: RunConfig):
    """The model section's parameters, in layout order, holding the checkpoint's arrays."""
    loaded, meta = load_checkpoint(_require(cfg.paths.checkpoint, "checkpoint"))
    layout = param_layout(cfg.model)
    names = {name for name, _, _ in layout}
    missing, extra = sorted(names - set(loaded)), sorted(set(loaded) - names)
    if missing or extra:
        raise CheckpointError(
            f"parameter set mismatch: missing from file {missing}, unexpected in file {extra}")
    params = DamParams()
    for name, shape, _ in layout:
        if loaded[name].shape != shape:
            raise CheckpointError(
                f"shape mismatch for {name!r}: model {shape}, file {loaded[name].shape}")
        params.add(_leaf(loaded[name], True, name))  # load_checkpoint checked it finite
    return params, meta


def _maybe_split(manifest, root, split):
    try:
        return load_split(manifest, root, split)
    except TrainError:
        return None


def _save_train_outputs(cfg: RunConfig, run: RunDir, result) -> None:
    save_checkpoint(run.path("checkpoint.ckpt"), result.params.all(),
                    {"model": cfg.model.to_dict()})
    save_metrics_csv(run.path("metrics.csv"), result.metrics)
    run.write_json("train_report.json",
                   {"epochs_run": result.epochs_run,
                    "final_val_accuracy": result.final_val_accuracy,
                    "stopped_early": result.stopped_early})


def cmd_train(cfg: RunConfig, run: RunDir) -> None:
    """Train the classifier on a manifest's train split; write checkpoint and metrics.csv."""
    manifest = load_manifest(_require(cfg.paths.manifest, "manifest"))
    root = _require(cfg.paths.image_root, "image_root")
    train_set = load_split(manifest, root, "train")
    val_set = _maybe_split(manifest, root, "val")
    result = train_dam(train_set, val_set, cfg.model, cfg.train, log=_progress)
    _save_train_outputs(cfg, run, result)


def cmd_pseudo_label(cfg: RunConfig, run: RunDir) -> None:
    """Label a target manifest with a checkpoint's predictions."""
    manifest = load_manifest(_require(cfg.paths.target_manifest, "target_manifest"))
    root = _require(cfg.paths.target_image_root, "target_image_root")
    params, _ = _load_params(cfg)
    labeled, report = pseudo_label(manifest, root, params, cfg.model,
                                   batch_size=cfg.eval.batch_size)
    save_manifest(run.path("manifest.pseudo.jsonl"), labeled)
    run.write_json("pseudo_report.json",
                   {"total": report.total, "agreement": report.agreement,
                    "class_counts": report.class_counts})


def cmd_train_da(cfg: RunConfig, run: RunDir) -> None:
    """Adapt a classifier to pseudo-labeled target tiles; write checkpoint and metrics.csv."""
    source = load_manifest(_require(cfg.paths.manifest, "manifest"))
    source_root = _require(cfg.paths.image_root, "image_root")
    target = load_manifest(_require(cfg.paths.target_manifest, "target_manifest"))
    target_root = _require(cfg.paths.target_image_root, "target_image_root")
    source_set = load_split(source, source_root, "train")
    target_set = load_split(target, target_root, "train")
    val_set = None
    if cfg.paths.val_manifest is not None:
        val_manifest = load_manifest(cfg.paths.val_manifest)
        val_set = load_split(val_manifest,
                             cfg.paths.val_image_root or target_root, "val")
    params = None
    if cfg.paths.checkpoint is not None:
        params, _ = _load_params(cfg)
    result = train_dam_da(source_set, target_set, val_set, cfg.model, cfg.da,
                          params=params, log=_progress)
    _save_train_outputs(cfg, run, result)


# ---------------------------------------------------------------- reporting


def cmd_eval(cfg: RunConfig, run: RunDir) -> None:
    """Evaluate a checkpoint on a manifest split into eval.json."""
    manifest = load_manifest(_require(cfg.paths.manifest, "manifest"))
    root = _require(cfg.paths.image_root, "image_root")
    dataset = load_split(manifest, root, cfg.eval.split)
    params, _ = _load_params(cfg)
    loss, accuracy, probs = evaluate(dataset, params, cfg.model, cfg.eval.batch_size)
    c = confusion(probs.argmax(axis=1), dataset.labels)
    report = metrics_from_confusion(c)
    run.write_json("eval.json", {
        "split": cfg.eval.split, "count": len(dataset),
        "loss": loss, "accuracy": accuracy,
        "fpr": report.fpr, "precision": report.precision,
        "recall": report.recall, "f1": report.f1,
        "confusion": {"tp": c.tp, "fp": c.fp, "tn": c.tn, "fn": c.fn},
        "zero_division": sorted(report.zero_division),
    })


def cmd_cam(cfg: RunConfig, run: RunDir) -> None:
    """Write the class activation map of one image as cam.pgm."""
    image = read_ppm(_require(cfg.paths.image, "image"))
    params, _ = _load_params(cfg)
    result = cam(image, params, cfg.model, cfg.cam.class_index)
    result.to_pgm(run.path("cam.pgm"))
    run.write_json("cam_report.json",
                   {"class_index": result.class_index,
                    "constant": result.constant})


def _read_grid(path) -> GridSpec:
    try:
        return GridSpec.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (ValueError, RecursionError) as e:  # bad or too deep JSON, not UTF-8, GridError
        raise GridError(f"{path}: {e}") from e


def cmd_map_export(cfg: RunConfig, run: RunDir) -> None:
    """Predict every manifest cell and export safety_map.csv and safety_map.ppm."""
    spec = _read_grid(_require(cfg.paths.grid_json, "grid_json"))
    manifest = load_manifest(_require(cfg.paths.manifest, "manifest"))
    root = _require(cfg.paths.image_root, "image_root")
    dataset = load_split(manifest, root)
    cells = [entry.cell for entry in dataset.entries]
    seen = set()
    for cell in cells:
        if cell in seen:
            raise ExportError(f"manifest has more than one entry for cell {cell}")
        seen.add(cell)
    params, _ = _load_params(cfg)
    _, _, probs = evaluate(dataset, params, cfg.model, cfg.eval.batch_size)
    predictions = {cell: CellPrediction(label=int(label), prob_dangerous=float(prob))
                   for cell, label, prob in zip(cells, probs.argmax(axis=1),
                                                probs[:, DANGEROUS])}
    safety_map_export(spec, predictions,
                      run.path("safety_map.csv"), run.path("safety_map.ppm"))
    counts = {"safe": sum(1 for p in predictions.values() if p.label != DANGEROUS),
              "dangerous": sum(1 for p in predictions.values() if p.label == DANGEROUS)}
    run.write_json("map_report.json", counts)


COMMANDS = {
    "ingest": cmd_ingest,
    "grid": cmd_grid,
    "label": cmd_label,
    "balance": cmd_balance,
    "synth": cmd_synth,
    "train": cmd_train,
    "pseudo-label": cmd_pseudo_label,
    "train-da": cmd_train_da,
    "eval": cmd_eval,
    "cam": cmd_cam,
    "map-export": cmd_map_export,
}


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on the first call and shared by every later one."""
    parser = _Parser(prog="safemap",
                     description="Road-safety mapping pipeline and experiments.")
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    sub.required = True
    for name, handler in COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.add_argument("--config", required=True,
                       help="run configuration JSON (see runconfig module)")
        p.add_argument("--seed", type=int, default=None,
                       help="override every section's seed")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error(f"argument --seed: must be non-negative, got {args.seed}")
    try:
        config = load_run_config(args.config)
        if args.seed is not None:
            config = config.with_seed(args.seed)
    except RunConfigError as e:
        print(f"safemap: config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        run = RunDir(Path(config.paths.run_dir))
    except OSError as e:
        print(f"safemap: cannot create run directory: {e}", file=sys.stderr)
        return EXIT_DATA
    try:
        try:
            run.write_text("config.resolved.json", dumps_resolved(config))
            args.handler(config, run)
        finally:
            # declare whatever was produced, even on failure: no orphans
            run.finish(args.subcommand)
    except RunConfigError as e:
        print(f"safemap: config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DATA_ERRORS as e:
        print(f"safemap: error: {e}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
