"""Atomic artifact writes: a failed write leaves the previous file intact."""

import errno
import json
import os

import pytest

from safemap import fileio
from safemap.autodiff import parameter, save_checkpoint
from safemap.cli import main
from safemap.fileio import atomic_open
from safemap.geo.grid import GridSpec
from safemap.geo.manifest import DatasetManifest, ManifestEntry, save_manifest
from safemap.geo.synth import synth_generate
from safemap.model.training import MetricsRow, save_metrics_csv
from safemap.report import CellPrediction, safety_map_export

from artifacts import load_metrics_csv


def _listing(directory):
    return sorted(os.listdir(directory))


def test_replaces_target_on_success(tmp_path):
    target = tmp_path / "a.txt"
    target.write_text("old", encoding="utf-8")
    with atomic_open(target, "w", encoding="utf-8") as f:
        f.write("new")
    assert target.read_text(encoding="utf-8") == "new"
    assert _listing(tmp_path) == ["a.txt"]


def test_writer_raising_midway_keeps_previous_file(tmp_path):
    target = tmp_path / "a.bin"
    target.write_bytes(b"previous")
    with pytest.raises(RuntimeError):
        with atomic_open(target, "wb") as f:
            f.write(b"partial")
            raise RuntimeError("crash")
    assert target.read_bytes() == b"previous"
    assert _listing(tmp_path) == ["a.bin"]


def test_permissions_follow_umask(tmp_path):
    plain, atomic = tmp_path / "plain", tmp_path / "atomic"
    plain.write_bytes(b"x")
    with atomic_open(atomic, "wb") as f:
        f.write(b"x")
    assert os.stat(atomic).st_mode == os.stat(plain).st_mode


def test_rejects_non_write_mode(tmp_path):
    with pytest.raises(ValueError, match="'w' or 'wb'"):
        with atomic_open(tmp_path / "a", "a"):
            pass


def test_failed_checkpoint_save_keeps_previous_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, [parameter([1.0, 2.0], name="w")], {"epoch": 1})
    before = path.read_bytes()
    # the second name fails its length check after the first record is written
    params = [parameter([3.0], name="w"), parameter([4.0], name="x" * 0x10000)]
    with pytest.raises(Exception, match="name too long"):
        save_checkpoint(path, params, {"epoch": 2})
    assert path.read_bytes() == before
    assert _listing(tmp_path) == ["model.ckpt"]


class _BadFloat(float):
    def __repr__(self):
        raise RuntimeError("cannot format")


def test_failed_metrics_save_keeps_previous_csv(tmp_path):
    path = tmp_path / "metrics.csv"
    rows = [MetricsRow(0, "train", 0.5, 0.75)]
    save_metrics_csv(path, rows)
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        save_metrics_csv(path, rows + [MetricsRow(1, "train", _BadFloat(0.25), 1.0)])
    assert path.read_bytes() == before
    assert load_metrics_csv(path) == rows
    assert _listing(tmp_path) == ["metrics.csv"]


class _DiskFullOnWrite:
    """A file whose ``fail_on``-th ``write`` call fails the way a full disk does."""

    def __init__(self, f, fail_on):
        self._f, self._writes, self._fail_on = f, 0, fail_on

    def write(self, data):
        self._writes += 1
        if self._writes == self._fail_on:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


@pytest.fixture
def fail_writes_to(monkeypatch):
    """Arm ``atomic_open`` so writes to a file named ``name`` fail midway (on
    the second write call, or on the ``fail_on``-th).

    A writer that bypasses ``atomic_open`` is not armed, so its test sees no
    failure; a writer that truncates in place loses the previous bytes.
    """
    real_open = open

    def arm(name, fail_on=2):
        def fake_open(path, *args, **kwargs):
            f = real_open(path, *args, **kwargs)
            return (_DiskFullOnWrite(f, fail_on) if name in os.path.basename(path)
                    else f)
        monkeypatch.setattr(fileio, "open", fake_open, raising=False)
    return arm


def _assert_kept(path, before):
    assert path.read_bytes() == before
    assert [n for n in os.listdir(path.parent) if n.endswith(".tmp")] == []


ACCIDENTS_CSV = """id,date,time,day_of_week,latitude,longitude,vehicles,casualties
A1,03/01/2019,08:30,4,51.5000,-0.1200,2,1
A2,04/01/2019,17:45,5,51.5001,-0.1201,1,1
A3,05/01/2019,12:00,6,51.5008,-0.1195,3,2
"""


@pytest.mark.parametrize("sub,artifact", [
    ("ingest", "records.jsonl"), ("grid", "scores.csv"), ("label", "labels.csv"),
    ("ingest", "config.resolved.json"), ("ingest", "ingest_report.json"),
    ("grid", "grid.json"), ("grid", "grid_report.json"), ("label", "label_report.json"),
])
def test_failed_cli_artifact_write_keeps_previous_file(tmp_path, fail_writes_to, capsys,
                                                       sub, artifact):
    (tmp_path / "acc.csv").write_text(ACCIDENTS_CSV, encoding="utf-8")
    run = tmp_path / "run"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"paths": {
        "run_dir": str(run), "accidents_csv": str(tmp_path / "acc.csv"),
        "scores_csv": str(run / "scores.csv")}}), encoding="utf-8")
    for step in ("grid", sub):
        assert main([step, "--config", str(cfg)]) == 0
    before = (run / artifact).read_bytes()
    # a JSON artifact is written with one call, so that is the one to fail
    fail_writes_to(artifact, fail_on=1 if artifact.endswith(".json") else 2)
    capsys.readouterr()
    # a failed write is a data error: exit 2, one line, no traceback
    assert main([sub, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "No space left on device" in err and "Traceback" not in err
    _assert_kept(run / artifact, before)


def test_failed_manifest_save_keeps_previous_manifest(tmp_path, fail_writes_to):
    path = tmp_path / "m.jsonl"
    entries = [ManifestEntry(f"{i}.ppm", i % 2, "source", (i, 0), "train") for i in range(3)]
    save_manifest(path, DatasetManifest(seed=0, generator="test", entries=entries))
    before = path.read_bytes()
    fail_writes_to("m.jsonl")
    with pytest.raises(OSError):
        save_manifest(path, DatasetManifest(seed=1, generator="test", entries=entries))
    _assert_kept(path, before)


def test_failed_synth_meta_write_keeps_previous_file(tmp_path, fail_writes_to):
    synth_generate(tmp_path, n_per_class=2, image_hw=(16, 16), seed=0)
    before = (tmp_path / "synth_meta.jsonl").read_bytes()
    fail_writes_to("synth_meta.jsonl")
    with pytest.raises(OSError):
        synth_generate(tmp_path, n_per_class=2, image_hw=(16, 16), seed=1)
    _assert_kept(tmp_path / "synth_meta.jsonl", before)


def test_failed_safety_map_csv_write_keeps_previous_file(tmp_path, fail_writes_to):
    grid = GridSpec(origin_lat=51.5, origin_lon=-0.12, cell_size_m=30.0, columns=3, rows=1,
                    ref_lat=51.5)
    preds = {(c, 0): CellPrediction(label=c % 2, prob_dangerous=0.25 * c) for c in range(3)}
    csv_path = tmp_path / "safety_map.csv"
    safety_map_export(grid, preds, csv_path, tmp_path / "safety_map.ppm")
    before = csv_path.read_bytes()
    fail_writes_to("safety_map.csv")
    with pytest.raises(OSError):
        safety_map_export(grid, preds, csv_path, tmp_path / "safety_map.ppm")
    _assert_kept(csv_path, before)
