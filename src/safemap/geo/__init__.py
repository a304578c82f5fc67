"""Geospatial pipeline: ingestion, gridding, labeling, manifests, synthesis."""

from .grid import GridError, GridSpec, build_grid, score_cells
from .labeling import BinResult, LabelingError, kmeans_bin
from .manifest import (
    DANGEROUS,
    SAFE,
    DatasetManifest,
    ManifestEntry,
    ManifestError,
    assign_splits,
    balance,
    load_manifest,
    save_manifest,
)
from .ppm import PpmError, read_pgm, read_ppm, write_pgm, write_ppm
from .records import IngestError, IngestResult, ingest_accidents
from .synth import SynthError, SynthImageMeta, SynthResult, synth_generate

__all__ = [
    "BinResult",
    "DANGEROUS",
    "DatasetManifest",
    "GridError",
    "GridSpec",
    "IngestError",
    "IngestResult",
    "LabelingError",
    "ManifestEntry",
    "ManifestError",
    "PpmError",
    "SAFE",
    "SynthError",
    "SynthImageMeta",
    "SynthResult",
    "assign_splits",
    "balance",
    "build_grid",
    "ingest_accidents",
    "kmeans_bin",
    "load_manifest",
    "read_pgm",
    "read_ppm",
    "save_manifest",
    "score_cells",
    "synth_generate",
    "write_pgm",
    "write_ppm",
]
