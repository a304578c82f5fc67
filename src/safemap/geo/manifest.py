"""Dataset manifests: the JSONL contract between pipeline stages.

File layout: first line is a header object with keys ``kind``, ``version``,
``seed``, ``generator``; each following line is one entry object with keys
``image``, ``label`` (0 safe / 1 dangerous), ``domain`` (source/target),
``cell`` ([col, row]), ``split`` (train/val/test), plus ``pseudo: true`` on
pseudo-labeled entries.  Serialization is canonical (sorted keys, no
whitespace), so equal manifests are byte-identical files.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

import numpy as np

from ..fileio import atomic_open
from ..jsoncodec import JsonError, from_json

MANIFEST_KIND = "safemap-manifest"
MANIFEST_VERSION = 1

SAFE, DANGEROUS = 0, 1
SPLITS = ("train", "val", "test")
DOMAINS = ("source", "target")


class ManifestError(ValueError):
    """Malformed manifest file or invalid manifest operation."""


@dataclass(frozen=True)
class ManifestEntry:
    image: str
    label: int
    domain: str
    cell: tuple[int, int]
    split: str
    pseudo: bool = False

    def __post_init__(self):
        if not isinstance(self.image, str):
            raise ManifestError(f"image must be a path string, got {self.image!r}")
        if self.label not in (SAFE, DANGEROUS):
            raise ManifestError(f"label must be 0 (safe) or 1 (dangerous), got {self.label}")
        if self.domain not in DOMAINS:
            raise ManifestError(f"domain must be one of {DOMAINS}, got {self.domain!r}")
        if self.split not in SPLITS:
            raise ManifestError(f"split must be one of {SPLITS}, got {self.split!r}")

    def to_json_obj(self) -> dict:
        obj = {"image": self.image, "label": self.label, "domain": self.domain,
               "cell": list(self.cell), "split": self.split}
        if self.pseudo:
            obj["pseudo"] = True
        return obj

    @classmethod
    def from_json_obj(cls, obj) -> "ManifestEntry":
        try:
            return from_json(cls, obj)
        except JsonError as e:
            raise ManifestError(f"malformed entry {obj!r}: {e}") from e


@dataclass
class DatasetManifest:
    seed: int
    generator: str
    entries: list[ManifestEntry] = field(default_factory=list)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        seen = set()
        for e in self.entries:
            if e.image in seen:
                raise ManifestError(f"duplicate image reference {e.image!r}")
            seen.add(e.image)

    def class_counts(self) -> tuple[int, int]:
        safe = sum(1 for e in self.entries if e.label == SAFE)
        return safe, len(self.entries) - safe

    def subset(self, split: Optional[str] = None, domain: Optional[str] = None) -> list[ManifestEntry]:
        out = self.entries
        if split is not None:
            out = [e for e in out if e.split == split]
        if domain is not None:
            out = [e for e in out if e.domain == domain]
        return out


def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def save_manifest(path, manifest: DatasetManifest) -> None:
    header = {"kind": MANIFEST_KIND, "version": MANIFEST_VERSION,
              "seed": manifest.seed, "generator": manifest.generator}
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(_dumps(header) + "\n")
        for e in manifest.entries:
            f.write(_dumps(e.to_json_obj()) + "\n")


def load_manifest(path) -> DatasetManifest:
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [ln for ln in (raw.strip() for raw in f) if ln]
    except UnicodeDecodeError as e:
        raise ManifestError(f"{path}: not UTF-8 text: {e}") from e
    if not lines:
        raise ManifestError(f"{path}: empty manifest")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise ManifestError(f"{path}: bad header line: {e}") from e
    if not isinstance(header, dict):
        raise ManifestError(f"{path}: not a dataset manifest (header {lines[0][:40]!r})")
    if header.get("kind") != MANIFEST_KIND:
        raise ManifestError(f"{path}: not a dataset manifest (kind={header.get('kind')!r})")
    if header.get("version") != MANIFEST_VERSION:
        raise ManifestError(f"{path}: unsupported manifest version {header.get('version')!r}")
    entries = []
    for i, ln in enumerate(lines[1:], start=2):
        try:
            entries.append(ManifestEntry.from_json_obj(json.loads(ln)))
        except json.JSONDecodeError as e:
            raise ManifestError(f"{path}:{i}: bad JSON: {e}") from e
        except ManifestError as e:
            raise ManifestError(f"{path}:{i}: {e}") from e
    try:
        seed = int(header.get("seed", 0))
    except (TypeError, ValueError, OverflowError) as e:
        raise ManifestError(f"{path}: bad seed {header.get('seed')!r}") from e
    return DatasetManifest(seed=seed, generator=str(header.get("generator", "unknown")),
                           entries=entries)


def assign_splits(entries: Iterable[ManifestEntry], fractions: tuple[float, float, float],
                  seed: int) -> list[ManifestEntry]:
    """Reassign splits by a seeded shuffle honoring (train, val, test) fractions.

    Assignment is per class so both labels appear in every split at the
    stated rates; entry order is preserved in the output.
    """
    entries = list(entries)
    if abs(sum(fractions) - 1.0) > 1e-9 or any(f < 0 for f in fractions):
        raise ManifestError(f"split fractions must be non-negative and sum to 1, got {fractions}")
    rng = np.random.default_rng(seed)
    new_split: dict[int, str] = {}
    for label in (SAFE, DANGEROUS):
        idx = [i for i, e in enumerate(entries) if e.label == label]
        perm = rng.permutation(len(idx))
        n_train = round(fractions[0] * len(idx))
        n_val = round(fractions[1] * len(idx))
        for rank, j in enumerate(perm):
            split = ("train" if rank < n_train
                     else "val" if rank < n_train + n_val
                     else "test")
            new_split[idx[j]] = split
    return [replace(e, split=new_split.get(i, e.split)) for i, e in enumerate(entries)]


def balance(manifest: DatasetManifest, seed: int) -> DatasetManifest:
    """Downsample the majority class to the minority count, seeded.

    Sampling is uniform without replacement; survivors keep their relative
    order.  When the manifest carries multiple splits, each split is
    balanced independently so split fractions survive.  Both classes must
    be present (per split).
    """
    rng = np.random.default_rng(seed)
    splits_present = [s for s in SPLITS if any(e.split == s for e in manifest.entries)]
    keep: set[int] = set()
    for split in splits_present:
        idx_safe = [i for i, e in enumerate(manifest.entries)
                    if e.split == split and e.label == SAFE]
        idx_dang = [i for i, e in enumerate(manifest.entries)
                    if e.split == split and e.label == DANGEROUS]
        if not idx_safe or not idx_dang:
            raise ManifestError(f"cannot balance: split {split!r} lacks one class "
                                f"({len(idx_safe)} safe, {len(idx_dang)} dangerous)")
        target = min(len(idx_safe), len(idx_dang))
        for idx in (idx_safe, idx_dang):
            if len(idx) > target:
                chosen = rng.choice(len(idx), size=target, replace=False)
                keep.update(idx[int(k)] for k in chosen)
            else:
                keep.update(idx)
    survivors = [e for i, e in enumerate(manifest.entries) if i in keep]
    return DatasetManifest(seed=seed, generator=manifest.generator, entries=survivors)


def warn_if_unbalanced(entries: list[ManifestEntry], context: str) -> None:
    safe = sum(1 for e in entries if e.label == SAFE)
    dang = len(entries) - safe
    if safe != dang:
        warnings.warn(f"{context}: class counts differ ({safe} safe vs {dang} dangerous); "
                      f"consider running balance first", stacklevel=2)
