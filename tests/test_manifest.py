"""Manifest JSONL round-trips, split assignment, and class balancing."""

import json

import numpy as np
import pytest

from safemap.geo import (
    DatasetManifest,
    ManifestEntry,
    ManifestError,
    assign_splits,
    balance,
    load_manifest,
    save_manifest,
)


def entry(i, label, split="train", domain="source", pseudo=False):
    return ManifestEntry(image=f"img_{i:04d}.ppm", label=label, domain=domain,
                         cell=(i, 0), split=split, pseudo=pseudo)


def manifest_with_counts(n_safe, n_dang, split="train", seed=0):
    entries = [entry(i, 0, split) for i in range(n_safe)]
    entries += [entry(n_safe + i, 1, split) for i in range(n_dang)]
    return DatasetManifest(seed=seed, generator="test", entries=entries)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        m = manifest_with_counts(3, 2)
        m.entries[0] = entry(0, 0, pseudo=True)
        p = tmp_path / "m.jsonl"
        save_manifest(p, m)
        loaded = load_manifest(p)
        assert loaded.seed == m.seed
        assert loaded.generator == m.generator
        assert loaded.entries == m.entries

    def test_header_carries_seed_and_generator(self, tmp_path):
        p = tmp_path / "m.jsonl"
        save_manifest(p, manifest_with_counts(1, 1, seed=99))
        header = json.loads(p.read_text().splitlines()[0])
        assert header["seed"] == 99
        assert header["kind"] == "safemap-manifest"
        assert "generator" in header and "version" in header

    def test_save_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_manifest(a, manifest_with_counts(4, 4))
        save_manifest(b, manifest_with_counts(4, 4))
        assert a.read_bytes() == b.read_bytes()

    def test_duplicate_image_rejected(self):
        with pytest.raises(ManifestError, match="duplicate"):
            DatasetManifest(seed=0, generator="t",
                            entries=[entry(1, 0), entry(1, 1)])

    def test_bad_label_rejected(self):
        with pytest.raises(ManifestError, match="label"):
            ManifestEntry(image="x", label=2, domain="source", cell=(0, 0), split="train")

    def test_unknown_entry_key_rejected(self, tmp_path):
        p = tmp_path / "m.jsonl"
        lines = [
            json.dumps({"kind": "safemap-manifest", "version": 1, "seed": 0, "generator": "t"}),
            json.dumps({"image": "a", "label": 0, "domain": "source",
                        "cell": [0, 0], "split": "train", "wat": 1}),
        ]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError, match="wat"):
            load_manifest(p)

    def test_wrong_kind_rejected(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(json.dumps({"kind": "other", "version": 1}) + "\n")
        with pytest.raises(ManifestError, match="not a dataset manifest"):
            load_manifest(p)

    @pytest.mark.parametrize("seed", [5.7, True, "5", None])
    def test_seed_must_be_a_json_int(self, tmp_path, seed):
        # int(...) used to load 5.7 as 5 and true as 1
        p = tmp_path / "m.jsonl"
        p.write_text(json.dumps({"kind": "safemap-manifest", "version": 1, "seed": seed,
                                 "generator": "t"}) + "\n")
        with pytest.raises(ManifestError, match=f"{p}: bad seed .*expected a JSON int"):
            load_manifest(p)


class TestBalance:
    def test_880_120_becomes_120_120(self):
        m = manifest_with_counts(880, 120)
        out = balance(m, seed=0)
        assert out.class_counts() == (120, 120)

    def test_already_balanced_unchanged(self):
        m = manifest_with_counts(5, 5)
        out = balance(m, seed=3)
        assert out.entries == m.entries

    def test_same_seed_same_survivors(self):
        m = manifest_with_counts(50, 10)
        a = balance(m, seed=7)
        b = balance(m, seed=7)
        assert a.entries == b.entries

    def test_different_seed_differs(self):
        m = manifest_with_counts(200, 10)
        a = balance(m, seed=1)
        b = balance(m, seed=2)
        assert a.entries != b.entries

    def test_survivors_keep_relative_order_and_are_subset(self):
        m = manifest_with_counts(40, 8)
        out = balance(m, seed=5)
        images_in = [e.image for e in m.entries]
        images_out = [e.image for e in out.entries]
        assert set(images_out) <= set(images_in)
        positions = [images_in.index(im) for im in images_out]
        assert positions == sorted(positions)

    def test_missing_class_errors(self):
        m = DatasetManifest(seed=0, generator="t", entries=[entry(i, 0) for i in range(4)])
        with pytest.raises(ManifestError, match="lacks one class"):
            balance(m, seed=0)

    def test_multi_split_balances_each_split(self):
        entries = ([entry(i, 0, "train") for i in range(20)]
                   + [entry(100 + i, 1, "train") for i in range(6)]
                   + [entry(200 + i, 0, "val") for i in range(10)]
                   + [entry(300 + i, 1, "val") for i in range(4)])
        out = balance(DatasetManifest(seed=0, generator="t", entries=entries), seed=0)
        for split, want in (("train", 6), ("val", 4)):
            safe = sum(1 for e in out.entries if e.split == split and e.label == 0)
            dang = sum(1 for e in out.entries if e.split == split and e.label == 1)
            assert (safe, dang) == (want, want)


class TestAssignSplits:
    def test_fractions_respected_per_class(self):
        entries = [entry(i, i % 2) for i in range(200)]
        out = assign_splits(entries, (0.7, 0.15, 0.15), seed=0)
        for label in (0, 1):
            sub = [e for e in out if e.label == label]
            n_train = sum(1 for e in sub if e.split == "train")
            assert n_train == round(0.7 * len(sub))

    def test_deterministic(self):
        entries = [entry(i, i % 2) for i in range(50)]
        a = assign_splits(entries, (0.6, 0.2, 0.2), seed=4)
        b = assign_splits(entries, (0.6, 0.2, 0.2), seed=4)
        assert a == b

    def test_bad_fractions_rejected(self):
        with pytest.raises(ManifestError, match="sum to 1"):
            assign_splits([entry(0, 0)], (0.5, 0.2, 0.2), seed=0)

    @pytest.mark.parametrize("fractions", [(1.2, -0.2, 0.0), (float("nan"), 0.5, 0.5)])
    def test_negative_or_nan_fraction_rejected(self, fractions):
        with pytest.raises(ManifestError, match="non-negative"):
            assign_splits([entry(0, 0)], fractions, seed=0)
