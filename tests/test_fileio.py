"""Atomic artifact writes: a failed write leaves the previous file intact."""

import os

import pytest

from safemap.autodiff import parameter, save_checkpoint
from safemap.fileio import atomic_open
from safemap.model.training import MetricsRow, load_metrics_csv, save_metrics_csv


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
