"""Synthetic imagery generator: determinism and class recoverability."""

import numpy as np
import pytest

from safemap.geo import SynthError, read_ppm, synth_generate
from artifacts import load_synth_meta
from oracles import detect_label, detect_motif


def test_counts_and_balance(tmp_path):
    result = synth_generate(tmp_path, n_per_class=10, seed=0)
    assert len(result.manifest.entries) == 20
    assert result.manifest.class_counts() == (10, 10)
    assert len(list(tmp_path.glob("*.ppm"))) == 20


def test_zero_class_count_rejected(tmp_path):
    with pytest.raises(SynthError, match="n_per_class"):
        synth_generate(tmp_path, n_per_class=0, seed=0)


def test_excessive_jitter_rejected(tmp_path):
    with pytest.raises(SynthError, match="jitter"):
        synth_generate(tmp_path, n_per_class=1, image_hw=(64, 64), jitter_px=32, seed=0)


def test_bad_split_fractions_rejected_before_rendering(tmp_path):
    with pytest.raises(SynthError, match="split_fractions"):
        synth_generate(tmp_path / "out", n_per_class=20, seed=0,
                       split_fractions=(0.5, 0.5, 0.5))
    assert not (tmp_path / "out").exists()


def test_same_seed_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    synth_generate(a, n_per_class=6, jitter_px=4, seed=11)
    synth_generate(b, n_per_class=6, jitter_px=4, seed=11)
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_different_seed_differs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    synth_generate(a, n_per_class=3, seed=1)
    synth_generate(b, n_per_class=3, seed=2)
    assert any((a / p.name).read_bytes() != (b / p.name).read_bytes()
               for p in a.iterdir() if p.suffix == ".ppm")


@pytest.mark.parametrize("domain", ["source", "target"])
def test_detector_oracle_recovers_classes_at_zero_jitter(tmp_path, domain):
    result = synth_generate(tmp_path / domain, n_per_class=100, jitter_px=0,
                            domain_style=domain, seed=5)
    correct = 0
    for e in result.manifest.entries:
        img = read_ppm(result.image_dir / e.image)
        if detect_label(img) == e.label:
            correct += 1
    assert correct / len(result.manifest.entries) >= 0.99


def test_meta_sidecar_matches_images(tmp_path):
    result = synth_generate(tmp_path, n_per_class=30, jitter_px=0, seed=9)
    metas = load_synth_meta(tmp_path / "synth_meta.jsonl")
    assert [m.image for m in metas] == [f"source_{i:05d}.ppm" for i in range(60)]
    by_name = {m.image: m for m in metas}
    for e in result.manifest.entries:
        m = by_name[e.image]
        assert m.label == e.label
        if e.label == 1:
            assert m.motif == "crossing"
            assert m.bbox is not None
            x0, y0, x1, y1 = m.bbox
            assert 0 <= x0 < x1 <= 64 and 0 <= y0 < y1 <= 64
        else:
            assert m.motif in ("hstrip", "vstrip", "none")
            assert m.bbox is None


def test_motif_detector_agrees_with_meta(tmp_path):
    result = synth_generate(tmp_path, n_per_class=50, jitter_px=0, seed=3)
    metas = {m.image: m for m in load_synth_meta(tmp_path / "synth_meta.jsonl")}
    hits = 0
    for e in result.manifest.entries:
        img = read_ppm(result.image_dir / e.image)
        if detect_motif(img) == metas[e.image].motif:
            hits += 1
    assert hits / len(result.manifest.entries) >= 0.99


def test_jittered_motif_stays_inside_image(tmp_path):
    result = synth_generate(tmp_path, n_per_class=40, jitter_px=12, seed=8)
    for m in result.metas:
        if m.bbox:
            x0, y0, x1, y1 = m.bbox
            assert 0 <= x0 < x1 <= 64
            assert 0 <= y0 < y1 <= 64


def test_domain_styles_differ(tmp_path):
    src = synth_generate(tmp_path / "s", n_per_class=5, domain_style="source", seed=4)
    tgt = synth_generate(tmp_path / "t", n_per_class=5, domain_style="target", seed=4)
    img_s = read_ppm(src.image_dir / "source_00000.ppm").astype(float)
    img_t = read_ppm(tgt.image_dir / "target_00000.ppm").astype(float)
    # target is visibly brighter on average
    assert img_t.mean() > 1.15 * img_s.mean()


def test_split_fractions_applied(tmp_path):
    result = synth_generate(tmp_path, n_per_class=100, seed=1,
                            split_fractions=(0.8, 0.2, 0.0))
    n_train = sum(1 for e in result.manifest.entries if e.split == "train")
    n_val = sum(1 for e in result.manifest.entries if e.split == "val")
    assert (n_train, n_val) == (160, 40)
