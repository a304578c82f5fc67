"""The three benchmark workloads: inputs made from a seed, the CLI chain
each one times, and the checks on its outputs.

Every workload drives ``safemap.cli.main`` exactly as a user would, with a
run config written per stage. Inputs come only from the workload seed: the
program receives generated tiles, a generated accident CSV and config
files, never the seed itself.

    train  synth source tiles -> train -> eval
    adapt  synth source + target tiles -> train (da_mode, short) ->
           pseudo-label -> train-da (lam stated below) -> eval
    map    accident CSV + one tile per grid cell -> ingest -> grid ->
           label -> map-export

Each chain also makes K cam calls (batch 1), spread over the gaps between
its stages once the checkpoint they read exists.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Alignment weight of the timed train-da stage. The default (lam=1.0)
# diverges in epoch 0 on this data (NonFiniteError from conv2d, exit 2);
# each adapt run repeats that default-lam call once as a probe, outside the
# timed chain, so the defect stays visible until it is fixed.
ADAPT_LAM = 0.01

IMAGE_HW = [64, 64]
JITTER_PX = 4
# train/val/test fractions: a test split large enough that eval_loss and
# the eval/pseudo-label throughput are measured on more than a handful of tiles
SPLITS = [0.35, 0.15, 0.5]
DA_MODEL = {"da_mode": True}
# grid cell size of the generated accident CSV, the grid stage's default
CELL_M = 30.0

SIZES = {
    "full": {
        "train": {"per_class": 34, "epochs": 4, "cams": 20},
        "adapt": {"source_per_class": 34, "target_per_class": 64,
                  "source_epochs": 2, "da_epochs": 3, "cams": 30},
        "map": {"records": 50_000, "side": 24, "cams": 30},
    },
    "tiny": {
        "train": {"per_class": 8, "epochs": 1, "cams": 3},
        "adapt": {"source_per_class": 12, "target_per_class": 12,
                  "source_epochs": 1, "da_epochs": 1, "cams": 3},
        "map": {"records": 2000, "side": 8, "cams": 3},
    },
}


@dataclass
class Stage:
    """One CLI call of the chain: subcommand, run config, run directory."""

    name: str        # unique within the pass, e.g. "train" or "cam.3"
    subcommand: str
    config: dict

    @property
    def run_dir(self) -> Path:
        return Path(self.config["paths"]["run_dir"])


@dataclass
class Outcome:
    checks: list = field(default_factory=list)        # (name, ok, detail)
    fingerprints: dict = field(default_factory=dict)  # artifact -> sha256
    quality: dict = field(default_factory=dict)       # metric -> value

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_sha256(root: Path) -> str:
    """One digest over a file, or over every file under a directory."""
    if root.is_file():
        return sha256(root)
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(str(p.relative_to(root)).encode())
        h.update(sha256(p).encode())
    return h.hexdigest()


def combined(fingerprints: dict) -> str:
    h = hashlib.sha256()
    for k in sorted(fingerprints):
        h.update(f"{k}={fingerprints[k]}\n".encode())
    return h.hexdigest()


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def _synth_config(run_dir: Path, per_class: int, style: str, seed: int) -> dict:
    return {"synth": {"n_per_class": per_class, "image_hw": IMAGE_HW,
                      "jitter_px": JITTER_PX, "domain_style": style, "seed": seed},
            "pipeline": {"split_fractions": SPLITS},
            "paths": {"run_dir": str(run_dir)}}


def _manifest_entries(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [json.loads(ln) for ln in lines[1:] if ln.strip()]


def _cam_stages(pass_dir: Path, images: list[Path], checkpoint: Path, count: int,
                model: dict | None = None) -> list[Stage]:
    picks = [images[i * len(images) // count] for i in range(count)] \
        if count <= len(images) else [images[i % len(images)] for i in range(count)]
    stages = []
    for i, image in enumerate(picks):
        cfg = {"paths": {"run_dir": str(pass_dir / f"cam.{i}"), "image": str(image),
                         "checkpoint": str(checkpoint)}}
        if model:
            cfg["model"] = model
        stages.append(Stage(f"cam.{i}", "cam", cfg))
    return stages


def interleave(main: list[Stage], cams: list[Stage], first: int) -> list[Stage]:
    """Spread the cam calls evenly over the gaps after main[first:].

    Spreading them samples cam latency at several points of the pass
    instead of in one burst at its end.
    """
    slots = len(main) - first
    out = main[:first]
    for k, stage in enumerate(main[first:]):
        out.append(stage)
        out.extend(cams[k * len(cams) // slots:(k + 1) * len(cams) // slots])
    return out


def check_cams(out: Outcome, stages: list[Stage]) -> None:
    """Every CAM spans 0..255 unless the map is constant; fingerprint them."""
    from safemap.geo.ppm import read_pgm

    h = hashlib.sha256()
    for s in stages:
        if s.subcommand != "cam":
            continue
        pgm = s.run_dir / "cam.pgm"
        values = read_pgm(pgm)
        constant = _read_json(s.run_dir / "cam_report.json")["constant"]
        ok = (values.max() == 0) if constant else (values.min() == 0 and values.max() == 255)
        out.check(f"{s.name} spans 0..255", ok,
                  f"min {values.min()} max {values.max()} constant {constant}")
        h.update(sha256(pgm).encode())
    out.fingerprints["cams"] = h.hexdigest()


def check_metrics_csv(out: Outcome, path: Path, epochs: int, label: str) -> list[dict]:
    rows = _read_rows(path)
    want = [(e, s) for e in range(epochs) for s in ("train", "val")]
    got = [(int(r["epoch"]), r["split"]) for r in rows]
    out.check(f"{label} metrics.csv has one train and one val row per epoch",
              got == want, f"{len(got)} rows for {epochs} epochs")
    return rows


def check_eval(out: Outcome, path: Path) -> dict:
    report = _read_json(path)
    c = report["confusion"]
    total = c["tp"] + c["fp"] + c["tn"] + c["fn"]
    out.check("eval.json confusion sums to count", total == report["count"],
              f"{total} vs {report['count']}")
    return report


def probe_images(inp: dict, batch: int) -> np.ndarray:
    """The workload's first ``batch`` tiles as uint8 [B, C, H, W], for probes."""
    from safemap.geo.ppm import read_ppm

    paths = [inp["images"][i % len(inp["images"])] for i in range(batch)]
    return np.stack([read_ppm(p).transpose(2, 0, 1) for p in paths])


class TrainWorkload:
    batch = 4  # TrainConfig default
    model: dict = {}

    def __init__(self, sizes: dict):
        self.s = sizes["train"]

    def setup(self, root: Path, seed: int, cli) -> dict:
        cli("synth", _synth_config(root / "synth", self.s["per_class"], "source", seed))
        tiles = root / "synth" / "synth"
        entries = _manifest_entries(tiles / "manifest.jsonl")
        return {"tiles": tiles, "manifest": tiles / "manifest.jsonl",
                "train_count": sum(e["split"] == "train" for e in entries),
                "test_images": [tiles / e["image"] for e in entries if e["split"] == "test"],
                "images": [tiles / e["image"] for e in entries],
                "fingerprint": [tiles]}

    def chain(self, inp: dict, pass_dir: Path) -> list[Stage]:
        ckpt = pass_dir / "train" / "checkpoint.ckpt"
        return interleave([
            Stage("train", "train", {
                "train": {"epochs": self.s["epochs"]},
                "paths": {"run_dir": str(pass_dir / "train"), "manifest": str(inp["manifest"]),
                          "image_root": str(inp["tiles"])}}),
            Stage("eval", "eval", {
                "eval": {"split": "test"},
                "paths": {"run_dir": str(pass_dir / "eval"), "manifest": str(inp["manifest"]),
                          "image_root": str(inp["tiles"]), "checkpoint": str(ckpt)}}),
        ], _cam_stages(pass_dir, inp["test_images"], ckpt, self.s["cams"]), 0)

    def throughput(self, inp: dict) -> dict:
        """Stage -> samples it processes, for the samples/s metrics."""
        return {"train": ("train_samples_per_s", self.s["epochs"] * inp["train_count"]),
                "eval": ("infer_samples_per_s", len(inp["test_images"]))}

    def check(self, inp: dict, pass_dir: Path, stages: list[Stage]) -> Outcome:
        out = Outcome()
        rows = check_metrics_csv(out, pass_dir / "train" / "metrics.csv",
                                 self.s["epochs"], "train")
        report = check_eval(out, pass_dir / "eval" / "eval.json")
        check_cams(out, stages)
        out.fingerprints["checkpoint"] = sha256(pass_dir / "train" / "checkpoint.ckpt")
        out.fingerprints["metrics.csv"] = sha256(pass_dir / "train" / "metrics.csv")
        out.fingerprints["eval.json"] = sha256(pass_dir / "eval" / "eval.json")
        val = [r for r in rows if r["split"] == "val"]
        if val:
            out.quality["val_loss"] = float(val[-1]["loss"])
            out.quality["val_accuracy"] = float(val[-1]["accuracy"])
        out.quality["eval_loss"] = report["loss"]
        return out


class AdaptWorkload:
    batch = 16  # DaTrainConfig default, half source and half target
    model = DA_MODEL

    def __init__(self, sizes: dict):
        self.s = sizes["adapt"]

    def setup(self, root: Path, seed: int, cli) -> dict:
        cli("synth", _synth_config(root / "source", self.s["source_per_class"], "source",
                                   2 * seed))
        cli("synth", _synth_config(root / "target", self.s["target_per_class"], "target",
                                   2 * seed + 1))
        src, tgt = root / "source" / "synth", root / "target" / "synth"
        src_entries = _manifest_entries(src / "manifest.jsonl")
        tgt_entries = _manifest_entries(tgt / "manifest.jsonl")
        half = self.batch // 2
        steps = min(sum(e["split"] == "train" for e in src_entries) // half,
                    sum(e["split"] == "train" for e in tgt_entries) // half)
        return {"source": src, "target": tgt,
                "target_count": len(tgt_entries), "da_steps": steps,
                "test_images": [tgt / e["image"] for e in tgt_entries if e["split"] == "test"],
                "images": [src / e["image"] for e in src_entries]
                + [tgt / e["image"] for e in tgt_entries],
                "fingerprint": [src, tgt]}

    def _train_da(self, inp: dict, pass_dir: Path, run_dir: Path, da: dict) -> dict:
        return {"model": DA_MODEL, "da": da, "paths": {
            "run_dir": str(run_dir),
            "manifest": str(inp["source"] / "manifest.jsonl"),
            "image_root": str(inp["source"]),
            "target_manifest": str(pass_dir / "pseudo" / "manifest.pseudo.jsonl"),
            "target_image_root": str(inp["target"]),
            "val_manifest": str(inp["target"] / "manifest.jsonl"),
            "checkpoint": str(pass_dir / "train" / "checkpoint.ckpt")}}

    def chain(self, inp: dict, pass_dir: Path) -> list[Stage]:
        src_ckpt = pass_dir / "train" / "checkpoint.ckpt"
        ada_ckpt = pass_dir / "adapt" / "checkpoint.ckpt"
        da = {"lam": ADAPT_LAM, "epochs": self.s["da_epochs"]}
        return interleave([
            Stage("train", "train", {
                "model": DA_MODEL, "train": {"epochs": self.s["source_epochs"]},
                "paths": {"run_dir": str(pass_dir / "train"),
                          "manifest": str(inp["source"] / "manifest.jsonl"),
                          "image_root": str(inp["source"])}}),
            Stage("pseudo-label", "pseudo-label", {
                "model": DA_MODEL,
                "paths": {"run_dir": str(pass_dir / "pseudo"),
                          "target_manifest": str(inp["target"] / "manifest.jsonl"),
                          "target_image_root": str(inp["target"]),
                          "checkpoint": str(src_ckpt)}}),
            Stage("train-da", "train-da", self._train_da(inp, pass_dir, pass_dir / "adapt", da)),
            Stage("eval", "eval", {
                "model": DA_MODEL, "eval": {"split": "test"},
                "paths": {"run_dir": str(pass_dir / "eval"),
                          "manifest": str(inp["target"] / "manifest.jsonl"),
                          "image_root": str(inp["target"]), "checkpoint": str(ada_ckpt)}}),
        ], _cam_stages(pass_dir, inp["test_images"], ada_ckpt, self.s["cams"], DA_MODEL), 2)

    def probe(self, inp: dict, pass_dir: Path) -> Stage:
        """train-da with the default lam, on the last pass's inputs."""
        return Stage("train-da.default-lam", "train-da", self._train_da(
            inp, pass_dir, pass_dir / "probe", {"epochs": self.s["da_epochs"]}))

    def throughput(self, inp: dict) -> dict:
        return {"train-da": ("train_samples_per_s",
                             self.s["da_epochs"] * inp["da_steps"] * self.batch),
                "pseudo-label": ("infer_samples_per_s", inp["target_count"])}

    def check(self, inp: dict, pass_dir: Path, stages: list[Stage]) -> Outcome:
        out = Outcome()
        pseudo = _manifest_entries(pass_dir / "pseudo" / "manifest.pseudo.jsonl")
        out.check("every pseudo-label entry is flagged",
                  len(pseudo) == inp["target_count"] and all(e.get("pseudo") for e in pseudo),
                  f"{sum(bool(e.get('pseudo')) for e in pseudo)} of {len(pseudo)} flagged")
        check_metrics_csv(out, pass_dir / "train" / "metrics.csv",
                          self.s["source_epochs"], "train")
        check_metrics_csv(out, pass_dir / "adapt" / "metrics.csv",
                          self.s["da_epochs"], "train-da")
        report = check_eval(out, pass_dir / "eval" / "eval.json")
        check_cams(out, stages)
        out.fingerprints["source checkpoint"] = sha256(pass_dir / "train" / "checkpoint.ckpt")
        out.fingerprints["manifest.pseudo.jsonl"] = sha256(
            pass_dir / "pseudo" / "manifest.pseudo.jsonl")
        out.fingerprints["checkpoint"] = sha256(pass_dir / "adapt" / "checkpoint.ckpt")
        out.fingerprints["metrics.csv"] = sha256(pass_dir / "adapt" / "metrics.csv")
        out.fingerprints["eval.json"] = sha256(pass_dir / "eval" / "eval.json")
        out.quality["target_loss"] = report["loss"]
        out.quality["target_fpr"] = report["fpr"]
        out.quality["eval_loss"] = report["loss"]
        return out


def write_accidents_csv(path: Path, records: int, side: int, rng: np.random.Generator) -> None:
    """Clustered accident reports whose grid is exactly side x side cells.

    Points fill a box (side - 0.5) cells wide around a city centre, so the
    grid's floor convention gives ``side`` columns and rows with half a
    cell to spare at the far edges; two anchors pin the box corners.
    """
    lat0, lon0 = 51.5, -0.12
    m_per_deg_lat = 6_371_000.0 * math.pi / 180.0
    m_per_deg_lon = m_per_deg_lat * math.cos(math.radians(lat0))
    span = (side - 0.5) * CELL_M
    hotspots = rng.uniform(0.1 * span, 0.9 * span, size=(8, 2))
    which = rng.integers(0, len(hotspots), size=records)
    clustered = rng.random(records) < 0.8
    xy = np.where(clustered[:, None],
                  hotspots[which] + rng.normal(0.0, 0.06 * span, size=(records, 2)),
                  rng.uniform(0.0, span, size=(records, 2)))
    xy = np.clip(xy, 0.0, span)
    xy[0], xy[1] = (0.0, 0.0), (span, span)
    lat = lat0 - span / 2 / m_per_deg_lat + xy[:, 1] / m_per_deg_lat
    lon = lon0 - span / 2 / m_per_deg_lon + xy[:, 0] / m_per_deg_lon
    day = rng.integers(1, 29, records)
    month = rng.integers(1, 13, records)
    hour = rng.integers(0, 24, records)
    minute = rng.integers(0, 60, records)
    dow = rng.integers(1, 8, records)
    vehicles = rng.integers(1, 4, records)
    casualties = rng.integers(0, 3, records)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("id,date,time,day_of_week,latitude,longitude,vehicles,casualties\n")
        f.writelines(
            f"A{i},{day[i]:02d}/{month[i]:02d}/2019,{hour[i]:02d}:{minute[i]:02d},"
            f"{dow[i]},{float(lat[i])!r},{float(lon[i])!r},{vehicles[i]},{casualties[i]}\n"
            for i in range(records))


class MapWorkload:
    batch = 64  # EvalSection default
    model: dict = {}

    def __init__(self, sizes: dict):
        self.s = sizes["map"]

    def setup(self, root: Path, seed: int, cli) -> dict:
        from safemap.autodiff import save_checkpoint
        from safemap.geo.manifest import load_manifest, save_manifest
        from safemap.model.config import DamConfig
        from safemap.model.network import init_params

        side = self.s["side"]
        cells = side * side
        root.mkdir(parents=True, exist_ok=True)
        write_accidents_csv(root / "accidents.csv", self.s["records"], side,
                            np.random.default_rng(seed))
        cli("synth", _synth_config(root / "synth", cells // 2, "source", seed))
        tiles = root / "synth" / "synth"
        synth = load_manifest(tiles / "manifest.jsonl")
        entries = [dataclasses.replace(e, cell=(i % side, i // side))
                   for i, e in enumerate(synth.entries)]
        manifest = dataclasses.replace(synth, entries=entries)
        save_manifest(tiles / "cells.jsonl", manifest)
        # inference cost does not depend on the weights: use the initial ones
        config = DamConfig()
        save_checkpoint(root / "init.ckpt", init_params(config, seed=0).all(),
                        {"model": config.to_dict()})
        return {"csv": root / "accidents.csv", "tiles": tiles,
                "manifest": tiles / "cells.jsonl", "checkpoint": root / "init.ckpt",
                "labels": {e.cell: e.label for e in entries},
                "images": [tiles / e.image for e in entries],
                "fingerprint": [root / "accidents.csv", tiles, root / "init.ckpt"]}

    def chain(self, inp: dict, pass_dir: Path) -> list[Stage]:
        grid = pass_dir / "grid"
        paths = {"accidents_csv": str(inp["csv"]), "scores_csv": str(grid / "scores.csv"),
                 "grid_json": str(grid / "grid.json"), "manifest": str(inp["manifest"]),
                 "image_root": str(inp["tiles"]), "checkpoint": str(inp["checkpoint"])}
        stages = []
        for sub, run in (("ingest", "ingest"), ("grid", "grid"), ("label", "label"),
                         ("map-export", "export")):
            stages.append(Stage(sub, sub, {
                "paths": dict(paths, run_dir=str(pass_dir / run))}))
        return interleave(stages, _cam_stages(pass_dir, inp["images"], inp["checkpoint"],
                                              self.s["cams"]), 0)

    def throughput(self, inp: dict) -> dict:
        return {"map-export": ("infer_samples_per_s", len(inp["images"])),
                ("ingest", "grid", "label"): ("records_per_s", self.s["records"])}

    def check(self, inp: dict, pass_dir: Path, stages: list[Stage]) -> Outcome:
        from safemap.geo.ppm import read_ppm

        out = Outcome()
        side = self.s["side"]
        ingested = _read_json(pass_dir / "ingest" / "ingest_report.json")["records"]
        scores = _read_rows(pass_dir / "grid" / "scores.csv")
        total = sum(int(r["score"]) for r in scores)
        out.check("scores.csv sums to the records ingested",
                  total == ingested == self.s["records"],
                  f"{total} scored, {ingested} ingested, {self.s['records']} generated")
        grid = _read_json(pass_dir / "grid" / "grid.json")
        cells = grid["columns"] * grid["rows"]
        out.check("grid is side x side", (grid["columns"], grid["rows"]) == (side, side),
                  f"{grid['columns']}x{grid['rows']}")
        labels = _read_rows(pass_dir / "label" / "labels.csv")
        out.check("labels.csv has one row per cell", len(labels) == cells,
                  f"{len(labels)} rows, {cells} cells")
        safety = _read_rows(pass_dir / "export" / "safety_map.csv")
        out.check("safety_map.csv has one row per cell", len(safety) == cells,
                  f"{len(safety)} rows, {cells} cells")
        raster = read_ppm(pass_dir / "export" / "safety_map.ppm")
        out.check("safety_map.ppm is rows x cols", raster.shape[:2] == (grid["rows"],
                                                                        grid["columns"]),
                  f"{raster.shape[:2]}")
        check_cams(out, stages)
        for name in ("scores.csv", "labels.csv"):
            run = "grid" if name == "scores.csv" else "label"
            out.fingerprints[name] = sha256(pass_dir / run / name)
        for name in ("safety_map.csv", "safety_map.ppm"):
            out.fingerprints[name] = sha256(pass_dir / "export" / name)
        out.fingerprints["checkpoint"] = sha256(inp["checkpoint"])
        # cross-entropy of the exported probabilities against the tiles' labels
        losses = []
        for r in safety:
            p = float(r["prob_dangerous"])
            label = inp["labels"][(int(r["col"]), int(r["row"]))]
            losses.append(-math.log(max(p if label == 1 else 1.0 - p, 1e-12)))
        out.quality["eval_loss"] = sum(losses) / len(losses)
        return out


WORKLOADS = {"train": TrainWorkload, "adapt": AdaptWorkload, "map": MapWorkload}
