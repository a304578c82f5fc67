"""Readers for artifacts the program writes but never reads back itself."""

from __future__ import annotations

import csv
import json

from safemap.geo.synth import SynthImageMeta
from safemap.jsoncodec import from_json
from safemap.model.training import MetricsRow


def load_metrics_csv(path) -> list[MetricsRow]:
    """The rows of a ``metrics.csv`` written by ``save_metrics_csv``."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        for r in reader:
            rows.append(MetricsRow(int(r["epoch"]), r["split"],
                                   float(r["loss"]), float(r["accuracy"])))
    return rows


def load_synth_meta(path) -> list[SynthImageMeta]:
    """The per-image motif records of a ``synth_meta.jsonl``."""
    with open(path, "r", encoding="utf-8") as f:
        return [from_json(SynthImageMeta, json.loads(ln)) for ln in f if ln.strip()]
