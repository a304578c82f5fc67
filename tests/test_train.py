"""Training loop behavior: descent, determinism, schedule, bookkeeping."""

import numpy as np
import pytest

from safemap.autodiff import save_checkpoint
from safemap.geo.synth import synth_generate
from safemap.model import DamConfig, SubregionScheme, init_params
from safemap.model.training import (
    TrainConfig,
    TrainError,
    evaluate,
    load_metrics_csv,
    load_split,
    save_metrics_csv,
    train_dam,
)

SMALL = DamConfig(input_hw=(64, 64), stage_widths=(4, 6, 8, 10),
                  local_widths=(6, 6), d=8,
                  schemes=(SubregionScheme("SQ", 4, (7, 7)),))


@pytest.fixture(scope="module")
def synth_sets(tmp_path_factory):
    root = tmp_path_factory.mktemp("train_synth")
    res = synth_generate(root, n_per_class=16, seed=5, domain_style="source")
    return (load_split(res.manifest, root, "train"),
            load_split(res.manifest, root, "val"))


class TestDefaults:
    def test_protocol_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 50
        assert cfg.batch_size == 4
        assert cfg.lr0 == 1e-4
        assert cfg.lr_decay == 0.5
        assert cfg.lr_decay_every == 10

    def test_lr_schedule_steps(self):
        cfg = TrainConfig()
        assert cfg.lr_at(0) == 1e-4
        assert cfg.lr_at(9) == 1e-4
        assert cfg.lr_at(10) == 5e-5
        assert cfg.lr_at(29) == 2.5e-5

    def test_bad_config_rejected(self):
        with pytest.raises(TrainError):
            TrainConfig(epochs=0)
        with pytest.raises(TrainError):
            TrainConfig(batch_size=0)
        with pytest.raises(TrainError):
            TrainConfig(lr0=0.0)

    @pytest.mark.parametrize("value", [0, -4])
    def test_bad_eval_batch_size_rejected(self, value):
        # 0 used to fail after the first epoch, a negative size to score garbage
        with pytest.raises(TrainError, match="eval_batch_size"):
            TrainConfig(eval_batch_size=value)

    @pytest.mark.parametrize("field,value", [
        ("lr0", -1e-4), ("lr0", float("nan")), ("lr0", float("inf")),
        ("lr_decay", 0.0), ("lr_decay", -0.5), ("lr_decay", float("nan")),
        ("lr_decay", float("inf")), ("lr_decay_every", 0), ("lr_decay_every", -3),
    ])
    def test_bad_lr_schedule_rejected(self, field, value):
        # each of these used to pass construction and fail only epochs later
        with pytest.raises(TrainError, match=field):
            TrainConfig(**{field: value})


class TestDescent:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_train_loss_decreases(self, synth_sets, seed):
        train, val = synth_sets
        out = train_dam(train, val, SMALL,
                        TrainConfig(epochs=6, seed=seed, lr0=3e-4))
        by_epoch = {r.epoch: r.loss for r in out.metrics if r.split == "train"}
        assert by_epoch[5] < by_epoch[0]


class TestDeterminism:
    def test_same_seed_bit_identical(self, synth_sets, tmp_path):
        train, val = synth_sets
        cfg = TrainConfig(epochs=2, seed=3)
        a = train_dam(train, val, SMALL, cfg)
        b = train_dam(train, val, SMALL, cfg)
        for pa, pb in zip(a.params.all(), b.params.all()):
            assert pa.name == pb.name
            assert np.array_equal(pa.data, pb.data)
        assert a.metrics == b.metrics
        save_checkpoint(tmp_path / "a.ckpt", a.params.all(), {"run": "a"})
        save_checkpoint(tmp_path / "b.ckpt", b.params.all(), {"run": "a"})
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_different_seed_differs(self, synth_sets):
        train, val = synth_sets
        a = train_dam(train, val, SMALL, TrainConfig(epochs=1, seed=0))
        b = train_dam(train, val, SMALL, TrainConfig(epochs=1, seed=1))
        assert any(not np.array_equal(pa.data, pb.data)
                   for pa, pb in zip(a.params.all(), b.params.all()))


class TestBookkeeping:
    def test_recorded_val_matches_fresh_evaluate(self, synth_sets):
        train, val = synth_sets
        out = train_dam(train, val, SMALL, TrainConfig(epochs=2, seed=0))
        last_val = [r for r in out.metrics if r.split == "val"][-1]
        loss, acc, _ = evaluate(val, out.params, SMALL)
        assert loss == last_val.loss
        assert acc == last_val.accuracy == out.final_val_accuracy

    def test_metrics_rows_per_epoch(self, synth_sets):
        train, val = synth_sets
        out = train_dam(train, val, SMALL, TrainConfig(epochs=3, seed=0))
        assert [(r.epoch, r.split) for r in out.metrics] == [
            (0, "train"), (0, "val"), (1, "train"), (1, "val"),
            (2, "train"), (2, "val")]
        assert out.epochs_run == 3
        assert not out.stopped_early

    def test_no_val_set(self, synth_sets):
        train, _ = synth_sets
        out = train_dam(train, None, SMALL, TrainConfig(epochs=1, seed=0))
        assert all(r.split == "train" for r in out.metrics)
        assert out.final_val_accuracy == 0.0

    def test_early_stop(self, synth_sets):
        train, val = synth_sets
        out = train_dam(train, val, SMALL,
                        TrainConfig(epochs=10, seed=0, early_stop_val_acc=0.0))
        assert out.stopped_early
        assert out.epochs_run == 1

    def test_empty_train_set_rejected(self, synth_sets):
        train, val = synth_sets
        empty = type(train)(images=train.images[:0], labels=train.labels[:0],
                            entries=[])
        with pytest.raises(TrainError, match="empty"):
            train_dam(empty, val, SMALL)

    def test_resume_from_given_params(self, synth_sets):
        train, val = synth_sets
        start = init_params(SMALL, seed=7)
        ref = {p.name: p.data.copy() for p in start.all()}
        out = train_dam(train, val, SMALL, TrainConfig(epochs=1, seed=7),
                        params=start)
        assert out.params is start
        assert any(not np.array_equal(ref[p.name], p.data)
                   for p in out.params.all())

    def test_metrics_csv_roundtrip(self, synth_sets, tmp_path):
        train, val = synth_sets
        out = train_dam(train, val, SMALL, TrainConfig(epochs=2, seed=0))
        path = tmp_path / "metrics.csv"
        save_metrics_csv(path, out.metrics)
        assert load_metrics_csv(path) == out.metrics
        save_metrics_csv(tmp_path / "again.csv", out.metrics)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
