"""Synthetic overhead-imagery generator.

Stands in for a satellite corpus at desk scale.  A dangerous cell shows an
intersection motif: two high-contrast strips, one horizontal and one
vertical, crossing near the image center.  A safe cell shows a single
strip (probability 0.7) or none.  Both get low-contrast clutter rectangles,
bright strip-like segments (short of full extent, so only a genuine
crossing exhibits two full strips), and pixel noise.  The motif is
translated per image by a uniform integer offset in [-jitter, +jitter]^2,
modeling imagery misalignment.

Each image records its motif kind and, for crossings, the intersection
bounding box in a sidecar metadata file, so attention and activation-map
tests can score localization against ground truth.

Everything is driven by one seeded generator; identical arguments produce
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ..fileio import atomic_open
from ..jsoncodec import from_json, to_json
from .manifest import DatasetManifest, ManifestEntry, assign_splits, save_manifest
from .ppm import write_ppm

GENERATOR_TAG = "synth-v10"

# Source-domain palette (RGB float). Strips are bright and full-extent so
# class evidence survives the style transforms; clutter stays mid-tone so a
# profile-based detector can always separate it from strips.
BACKGROUND = np.array([38.0, 44.0, 36.0])
STRIP = np.array([226.0, 222.0, 214.0])
NOISE_SIGMA = 6.0

# Target-domain style: a brighter, lower-contrast sensor plus a partial hue
# rotation. The mix keeps per-pixel luminance proportional to the source
# (rows sum to 1); the gamma lift then raises midtones toward strip tone
# while moving strips little, so a source-trained model reads bright target
# clutter as strip evidence and errs toward false alarms. That skew is the
# pathology the covariance-alignment trainer is meant to correct, mirroring
# the direction of the motivating deployment (adaptation cutting the false
# positive rate while accuracy recovers).
TARGET_GAMMA = 0.65
TARGET_CHANNEL_PERM = (2, 0, 1)
TARGET_MIX = 0.35


class SynthError(Exception):
    """Invalid generator configuration."""


@dataclass
class SynthImageMeta:
    image: str
    label: int
    motif: str  # "crossing" | "hstrip" | "vstrip" | "none"
    bbox: Optional[tuple[int, int, int, int]]  # x0, y0, x1, y1 (half-open)


@dataclass
class SynthResult:
    manifest: DatasetManifest
    metas: list[SynthImageMeta]
    image_dir: Path


def _draw_clutter(img: np.ndarray, rng: np.random.Generator) -> None:
    h, w, _ = img.shape
    for _ in range(int(rng.integers(3, 7))):
        ch = int(rng.integers(3, max(4, h // 8 + 1)))
        cw = int(rng.integers(3, max(4, w // 8 + 1)))
        y0 = int(rng.integers(0, h - ch + 1))
        x0 = int(rng.integers(0, w - cw + 1))
        tone = rng.uniform(70.0, 130.0)
        tint = rng.uniform(-10.0, 10.0, size=3)
        img[y0:y0 + ch, x0:x0 + cw] = np.clip(tone + tint, 0.0, 255.0)
    # strip-like distractors: one or two bright segments at strip tone but
    # well below full extent, so orientation co-occurrence alone cannot
    # separate classes (a v-segment plus a true h-strip is still safe).
    # Length is capped at 35% of the extent: even two segments sharing a
    # line stay under the 85% full-strip detection threshold.
    t = _strip_thickness(h, w)
    for _ in range(int(rng.integers(1, 3))):
        horizontal = bool(rng.integers(0, 2))
        extent = w if horizontal else h
        seg = int(rng.integers(extent * 15 // 100, extent * 35 // 100 + 1))
        a0 = int(rng.integers(0, extent - seg + 1))
        b0 = int(rng.integers(0, (h if horizontal else w) - t + 1))
        tone = STRIP + rng.uniform(-15.0, 5.0)
        if horizontal:
            img[b0:b0 + t, a0:a0 + seg] = np.clip(tone, 0.0, 255.0)
        else:
            img[a0:a0 + seg, b0:b0 + t] = np.clip(tone, 0.0, 255.0)


def _strip_thickness(h: int, w: int) -> int:
    return max(3, min(h, w) // 10)


def _draw_motif(img: np.ndarray, motif: str, dx: int, dy: int) -> Optional[tuple[int, int, int, int]]:
    h, w, _ = img.shape
    t = _strip_thickness(h, w)
    cy = h // 2 + dy
    cx = w // 2 + dx
    ry0, ry1 = cy - t // 2, cy - t // 2 + t
    rx0, rx1 = cx - t // 2, cx - t // 2 + t
    if motif in ("crossing", "hstrip"):
        img[max(ry0, 0):min(ry1, h), :] = STRIP
    if motif in ("crossing", "vstrip"):
        img[:, max(rx0, 0):min(rx1, w)] = STRIP
    if motif != "crossing":
        return None
    # intersection square plus one-thickness margin
    return (max(rx0 - t, 0), max(ry0 - t, 0), min(rx1 + t, w), min(ry1 + t, h))


def _apply_style(img: np.ndarray, domain_style: str) -> np.ndarray:
    if domain_style == "source":
        return img
    mixed = (1.0 - TARGET_MIX) * img + TARGET_MIX * img[:, :, TARGET_CHANNEL_PERM]
    return 255.0 * (np.clip(mixed, 0.0, 255.0) / 255.0) ** TARGET_GAMMA


def render_image(label: int, image_hw: tuple[int, int], jitter_px: int,
                 domain_style: str, rng: np.random.Generator
                 ) -> tuple[np.ndarray, str, Optional[tuple[int, int, int, int]]]:
    """Render one image; returns (HxWx3 uint8, motif kind, crossing bbox)."""
    h, w = image_hw
    img = np.tile(BACKGROUND, (h, w, 1))
    _draw_clutter(img, rng)
    if label == 1:
        motif = "crossing"
    else:
        roll = rng.uniform()
        motif = "none" if roll >= 0.7 else ("hstrip" if rng.uniform() < 0.5 else "vstrip")
    dx = int(rng.integers(-jitter_px, jitter_px + 1)) if jitter_px else 0
    dy = int(rng.integers(-jitter_px, jitter_px + 1)) if jitter_px else 0
    bbox = _draw_motif(img, motif, dx, dy) if motif != "none" else None
    img = _apply_style(img, domain_style)
    img = img + rng.normal(0.0, NOISE_SIGMA, size=img.shape)
    return np.clip(img, 0.0, 255.0).round().astype(np.uint8), motif, bbox


def synth_generate(out_dir, n_per_class: int, image_hw: tuple[int, int] = (64, 64),
                   jitter_px: int = 0, domain_style: str = "source", seed: int = 0,
                   split_fractions: tuple[float, float, float] = (0.7, 0.15, 0.15)
                   ) -> SynthResult:
    """Generate a balanced labeled image set under ``out_dir``.

    Writes one P6 file per image, ``manifest.jsonl``, and
    ``synth_meta.jsonl`` (per-image motif ground truth).
    """
    if n_per_class < 1:
        raise SynthError(f"n_per_class must be positive, got {n_per_class}")
    h, w = image_hw
    if h < 8 or w < 8:
        raise SynthError(f"image size {image_hw} too small")
    if jitter_px < 0 or jitter_px >= min(h, w) / 2:
        raise SynthError(f"jitter_px must lie in [0, {min(h, w) / 2}), got {jitter_px}")
    if domain_style not in ("source", "target"):
        raise SynthError(f"domain_style must be source or target, got {domain_style!r}")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    entries: list[ManifestEntry] = []
    metas: list[SynthImageMeta] = []
    # dangerous first, then safe; split assignment reshuffles per class below
    labels = [1] * n_per_class + [0] * n_per_class
    for i, label in enumerate(labels):
        name = f"{domain_style}_{i:05d}.ppm"
        img, motif, bbox = render_image(label, image_hw, jitter_px, domain_style, rng)
        write_ppm(out_dir / name, img)
        entries.append(ManifestEntry(image=name, label=label, domain=domain_style,
                                     cell=(i, 0), split="train"))
        metas.append(SynthImageMeta(image=name, label=label, motif=motif, bbox=bbox))
    entries = assign_splits(entries, split_fractions, seed)
    manifest = DatasetManifest(seed=seed, generator=GENERATOR_TAG, entries=entries)
    save_manifest(out_dir / "manifest.jsonl", manifest)
    with atomic_open(out_dir / "synth_meta.jsonl", "w", encoding="utf-8", newline="\n") as f:
        for m in metas:
            f.write(json.dumps(to_json(m), sort_keys=True, separators=(",", ":")) + "\n")
    return SynthResult(manifest=manifest, metas=metas, image_dir=out_dir)


def load_synth_meta(path) -> list[SynthImageMeta]:
    with open(path, "r", encoding="utf-8") as f:
        return [from_json(SynthImageMeta, json.loads(ln)) for ln in f if ln.strip()]
