"""Pseudo-labeling and adaptation training mechanics."""

import numpy as np
import pytest

from safemap.adapt import (
    DaTrainConfig,
    da_batch_loss,
    pseudo_label,
    train_dam_da,
)
from safemap.autodiff import Tape, save_checkpoint, softmax_cross_entropy
from safemap.geo.synth import synth_generate
from safemap.model import DamConfig, SubregionScheme, init_params
from safemap.model.network import forward, predict
from safemap.model.training import (
    Dataset,
    TrainConfig,
    TrainError,
    batch_tensor,
    load_split,
)

SMALL = DamConfig(input_hw=(64, 64), stage_widths=(4, 6, 8, 10),
                  local_widths=(6, 6), d=8,
                  schemes=(SubregionScheme("SQ", 4, (7, 7)),))
SMALL_DA = DamConfig(input_hw=(64, 64), stage_widths=(4, 6, 8, 10),
                     local_widths=(6, 6), d=8,
                     schemes=(SubregionScheme("SQ", 4, (7, 7)),),
                     da_mode=True, da_reduce_widths=(8, 6),
                     da_local_widths=(6, 6))


@pytest.fixture(scope="module")
def source_sets(tmp_path_factory):
    root = tmp_path_factory.mktemp("src")
    res = synth_generate(root, n_per_class=12, seed=3, domain_style="source")
    return (load_split(res.manifest, root, "train"),
            load_split(res.manifest, root, "val"), root, res.manifest)


@pytest.fixture(scope="module")
def target_sets(tmp_path_factory):
    root = tmp_path_factory.mktemp("tgt")
    res = synth_generate(root, n_per_class=12, seed=4, domain_style="target")
    return root, res.manifest


class TestPseudoLabel:
    def test_labels_equal_predict_and_flagged(self, source_sets, target_sets):
        troot, tman = target_sets
        params = init_params(SMALL, seed=0)
        out, report = pseudo_label(tman, troot, params, SMALL)
        assert all(e.pseudo for e in out.entries)
        assert len(out.entries) == len(tman.entries)
        ds = load_split(out, troot)
        labels, _ = predict(batch_tensor(ds.images), params, SMALL)
        by_image = {e.image: e.label for e in out.entries}
        got = np.array([by_image[e.image] for e in ds.entries])
        assert np.array_equal(got, labels)
        assert report.total == len(out.entries)
        assert 0.0 <= report.agreement <= 1.0

    def test_deterministic(self, source_sets, target_sets):
        troot, tman = target_sets
        params = init_params(SMALL, seed=1)
        a, ra = pseudo_label(tman, troot, params, SMALL)
        b, rb = pseudo_label(tman, troot, params, SMALL)
        assert a.entries == b.entries
        assert ra.agreement == rb.agreement

    def test_empty_rejected(self, source_sets, target_sets):
        troot, tman = target_sets
        from safemap.geo.manifest import DatasetManifest
        empty = DatasetManifest(seed=0, generator="x", entries=[])
        with pytest.raises(TrainError):
            pseudo_label(empty, troot, init_params(SMALL, seed=0), SMALL)


def _half_batch(source_sets, target_sets, n=4):
    sset, _, sroot, sman = source_sets
    troot, tman = target_sets
    tset = load_split(tman, troot, "train")
    xs = np.concatenate([sset.images[:n], tset.images[:n]])
    return batch_tensor(xs), sset.labels[:n], tset.labels[:n]


class TestBatchLoss:
    def test_lambda_zero_equals_plain_ce_exactly(self, source_sets, target_sets):
        x, ys, yt = _half_batch(source_sets, target_sets)
        params = init_params(SMALL_DA, seed=0)
        cfg = DaTrainConfig(lam=0.0, batch_size=8)
        with Tape():
            trace = forward(x, params, SMALL_DA)
            batch = da_batch_loss(trace, ys, yt, cfg)
            plain = softmax_cross_entropy(trace.logits, np.concatenate([ys, yt]))
        assert batch.total.item() == plain.item()
        assert abs(batch.total.item() - plain.item()) <= 1e-12
        assert batch.alignment == 0.0

    def test_lambda_scales_alignment_term(self, source_sets, target_sets):
        x, ys, yt = _half_batch(source_sets, target_sets)
        params = init_params(SMALL_DA, seed=0)
        outs = {}
        for lam in (0.5, 2.0):
            with Tape():
                trace = forward(x, params, SMALL_DA)
                outs[lam] = da_batch_loss(trace, ys, yt,
                                          DaTrainConfig(lam=lam, batch_size=8))
        a, b = outs[0.5], outs[2.0]
        assert a.classifier == b.classifier
        assert a.alignment == b.alignment
        assert (b.total.item() - b.classifier) == pytest.approx(
            4 * (a.total.item() - a.classifier), rel=1e-9)

    def test_source_only_classifier_loss(self, source_sets, target_sets):
        x, ys, yt = _half_batch(source_sets, target_sets)
        params = init_params(SMALL_DA, seed=0)
        cfg = DaTrainConfig(lam=0.0, batch_size=8,
                            target_in_classifier_loss=False)
        with Tape():
            trace = forward(x, params, SMALL_DA)
            batch = da_batch_loss(trace, ys, yt, cfg)
        # recompute the source-half loss directly for comparison
        probs = np.exp(trace.logits.data - trace.logits.data.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        expect = float(-np.log(probs[np.arange(4), ys]).mean())
        assert batch.total.item() == pytest.approx(expect, rel=1e-12)

    def test_degenerate_batch_flagged_and_finite(self, source_sets, target_sets):
        x, ys, yt = _half_batch(source_sets, target_sets)
        params = init_params(SMALL_DA, seed=0)
        all_safe = np.zeros_like(ys)
        with Tape():
            trace = forward(x, params, SMALL_DA)
            batch = da_batch_loss(trace, all_safe, yt, DaTrainConfig(batch_size=8))
        assert batch.degenerate
        assert np.isfinite(batch.total.item())

    def test_baseline_loss_differs_from_class_conditional(self, source_sets,
                                                          target_sets):
        x, ys, yt = _half_batch(source_sets, target_sets)
        params = init_params(SMALL_DA, seed=0)
        vals = {}
        for flag in (False, True):
            with Tape():
                trace = forward(x, params, SMALL_DA)
                vals[flag] = da_batch_loss(
                    trace, ys, yt,
                    DaTrainConfig(batch_size=8, baseline_loss=flag)).alignment
        assert vals[False] != vals[True]


class TestTrainDamDa:
    def _pseudo_target(self, source_sets, target_sets):
        troot, tman = target_sets
        params = init_params(SMALL, seed=0)
        labeled, _ = pseudo_label(tman, troot, params, SMALL)
        return load_split(labeled, troot, "train")

    def test_requires_da_mode_config(self, source_sets, target_sets):
        sset = source_sets[0]
        tset = self._pseudo_target(source_sets, target_sets)
        with pytest.raises(TrainError):
            train_dam_da(sset, tset, None, SMALL,
                         DaTrainConfig(epochs=1, batch_size=4))

    def test_rejects_unpseudo_target(self, source_sets, target_sets):
        sset = source_sets[0]
        troot, tman = target_sets
        tset = load_split(tman, troot, "train")
        with pytest.raises(TrainError, match="pseudo"):
            train_dam_da(sset, tset, None, SMALL_DA,
                         DaTrainConfig(epochs=1, batch_size=4))

    def test_two_epochs_run_and_records_metrics(self, source_sets, target_sets):
        sset, sval = source_sets[0], source_sets[1]
        tset = self._pseudo_target(source_sets, target_sets)
        res = train_dam_da(sset, tset, sval, SMALL_DA,
                           DaTrainConfig(epochs=2, batch_size=4, lam=0.1))
        assert res.epochs_run == 2
        assert [m.split for m in res.metrics] == ["train", "val", "train", "val"]
        assert all(np.isfinite(m.loss) for m in res.metrics)

    def test_early_stop(self, source_sets, target_sets):
        sset, sval = source_sets[0], source_sets[1]
        tset = self._pseudo_target(source_sets, target_sets)
        res = train_dam_da(sset, tset, sval, SMALL_DA,
                           DaTrainConfig(epochs=10, batch_size=4, lam=0.1,
                                         early_stop_val_acc=0.0))
        assert res.stopped_early
        assert res.epochs_run == 1
        assert [m.split for m in res.metrics] == ["train", "val"]

    def test_no_early_stop_without_val_set(self, source_sets, target_sets):
        sset = source_sets[0]
        tset = self._pseudo_target(source_sets, target_sets)
        res = train_dam_da(sset, tset, None, SMALL_DA,
                           DaTrainConfig(epochs=2, batch_size=4, lam=0.1,
                                         early_stop_val_acc=0.0))
        assert not res.stopped_early
        assert res.epochs_run == 2

    def test_same_seed_bit_identical(self, source_sets, target_sets, tmp_path):
        sset = source_sets[0]
        tset = self._pseudo_target(source_sets, target_sets)
        outs = []
        for run in range(2):
            res = train_dam_da(sset, tset, None, SMALL_DA,
                               DaTrainConfig(epochs=2, batch_size=4, lam=0.5,
                                             seed=7))
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(path, res.params.all(), {"run": "x"})
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_bad_config_values_rejected(self):
        with pytest.raises(TrainError):
            DaTrainConfig(lam=-1.0)
        with pytest.raises(TrainError):
            DaTrainConfig(batch_size=5)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lam_rejected(self, lam):
        with pytest.raises(TrainError, match="lam must be non-negative and finite"):
            DaTrainConfig(lam=lam)

    def test_config_extends_train_config(self):
        cfg = DaTrainConfig()
        assert isinstance(cfg, TrainConfig)
        assert cfg.batch_size == 16
        shared = {f: getattr(TrainConfig(), f) for f in TrainConfig.__dataclass_fields__}
        del shared["batch_size"]
        assert {f: getattr(cfg, f) for f in shared} == shared

    @pytest.mark.parametrize("value", [0, -4])
    def test_bad_eval_batch_size_rejected(self, value):
        with pytest.raises(TrainError, match="eval_batch_size"):
            DaTrainConfig(eval_batch_size=value)

    @pytest.mark.parametrize("field,value", [
        ("lr0", 0.0), ("lr0", -1e-4), ("lr0", float("nan")),
        ("lr_decay", 0.0), ("lr_decay", -0.5), ("lr_decay", float("inf")),
        ("lr_decay_every", 0), ("lr_decay_every", -1),
    ])
    def test_bad_lr_schedule_rejected(self, field, value):
        with pytest.raises(TrainError, match=field):
            DaTrainConfig(**{field: value})
