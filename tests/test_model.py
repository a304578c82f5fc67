"""Architecture behavior: partitioning, local branch, selection, fusion, forward."""

import numpy as np
import pytest

from safemap.autodiff import Rect, Tape, Tensor, softmax, softmax_cross_entropy
from safemap.model import (
    ConfigError,
    DamConfig,
    SubregionScheme,
    forward,
    init_params,
    local_forward,
    partition_regions,
    select_region,
)
from safemap.model.training import Dataset, batch_tensor, evaluate

# Small geometry for fast full-model checks: 24 -> 11 -> 11 -> 5 -> 2
TOY = dict(input_hw=(24, 24), stage_widths=(3, 4, 5, 6), local_widths=(3, 4), d=6)


def toy_config(schemes, **over):
    kw = dict(TOY)
    kw.update(over)
    return DamConfig(schemes=schemes, **kw)


def scheme(kind, count, pooled=(3, 3)):
    return SubregionScheme(kind, count, pooled)


class TestPartition:
    def test_hs_equal_bands_on_16(self):
        regions = partition_regions((16, 16), [SubregionScheme("HS", 4)])
        rows = [(r.top, r.bottom) for r, _ in regions]
        assert rows == [(0, 4), (4, 8), (8, 12), (12, 16)]
        assert all(r.left == 0 and r.right == 16 for r, _ in regions)

    def test_sq_quadrants_on_16(self):
        regions = partition_regions((16, 16), [SubregionScheme("SQ", 4)])
        rects = [(r.top, r.bottom, r.left, r.right) for r, _ in regions]
        assert rects == [(0, 8, 0, 8), (0, 8, 8, 16), (8, 16, 0, 8), (8, 16, 8, 16)]

    def test_combined_order_is_hs_vs_sq(self):
        # config order deliberately scrambled; output order is canonical
        schemes = [SubregionScheme("SQ", 4), SubregionScheme("HS", 4), SubregionScheme("VS", 4)]
        regions = partition_regions((16, 16), schemes)
        tags = [t for _, t in regions]
        assert len(tags) == 12
        assert tags[:4] == ["HS0", "HS1", "HS2", "HS3"]
        assert tags[4:8] == ["VS0", "VS1", "VS2", "VS3"]
        assert all(t.startswith("SQ") for t in tags[8:])

    @pytest.mark.parametrize("kind,count", [("HS", 4), ("VS", 3), ("SQ", 9)])
    def test_regions_tile_the_map(self, kind, count):
        h, w = 31, 29
        regions = partition_regions((h, w), [SubregionScheme(kind, count)])
        covered = np.zeros((h, w), dtype=int)
        for r, _ in regions:
            covered[r.top:r.bottom, r.left:r.right] += 1
        np.testing.assert_array_equal(covered, np.ones((h, w), dtype=int))

    def test_incompatible_count_rejected(self):
        with pytest.raises(ConfigError, match="height"):
            partition_regions((3, 16), [SubregionScheme("HS", 4)])

    def test_sq_requires_square_count(self):
        with pytest.raises(ConfigError, match="square"):
            SubregionScheme("SQ", 5)


class TestLocalForward:
    def test_probabilities_sum_to_one(self):
        cfg = toy_config((scheme("SQ", 4),))
        params = init_params(cfg, seed=0)
        rng = np.random.default_rng(0)
        shared = Tensor(rng.normal(size=(3, cfg.stage_widths[1], 11, 11)))
        probs, local_map = local_forward(shared, Rect(0, 5, 0, 5), (3, 3), params)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert local_map.shape == (3, cfg.local_widths[1], 3, 3)

    def test_zeroed_local_fc_gives_uniform_probs(self):
        cfg = toy_config((scheme("SQ", 4),))
        params = init_params(cfg, seed=0)
        params["local.fc.weight"].data[...] = 0.0
        params["local.fc.bias"].data[...] = 0.0
        shared = Tensor(np.random.default_rng(1).normal(size=(2, cfg.stage_widths[1], 11, 11)))
        probs, _ = local_forward(shared, Rect(0, 5, 0, 5), (3, 3), params)
        np.testing.assert_allclose(probs, 0.5, atol=1e-15)


class TestSelectRegion:
    def test_max_class_probability_wins(self):
        probs = np.array([[[0.9, 0.1], [0.4, 0.6], [0.5, 0.5]]])
        np.testing.assert_array_equal(select_region(probs), [0])

    def test_exact_tie_goes_to_lowest_index(self):
        probs = np.array([[[0.7, 0.3], [0.3, 0.7]]])
        np.testing.assert_array_equal(select_region(probs), [0])

    def test_single_region(self):
        probs = np.array([[[0.2, 0.8]]])
        np.testing.assert_array_equal(select_region(probs), [0])

    def test_batch_rows_independent(self):
        probs = np.array([[[0.9, 0.1], [0.4, 0.6]],
                          [[0.45, 0.55], [0.2, 0.8]]])
        np.testing.assert_array_equal(select_region(probs), [0, 1])

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(5)
        raw = rng.uniform(size=(4, 6, 2))
        probs = raw / raw.sum(axis=2, keepdims=True)
        base = select_region(probs)
        scores = probs.max(axis=2)
        for f in (np.exp, np.sqrt, lambda s: 3 * s + 1, lambda s: s ** 3):
            transformed = f(scores)
            np.testing.assert_array_equal(transformed.argmax(axis=1), base)


class TestForward:
    def test_output_shapes(self):
        cfg = toy_config((scheme("SQ", 4),))
        params = init_params(cfg, seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 24, 24)))
        trace = forward(x, params, cfg)
        assert trace.logits.shape == (1, 2)
        assert trace.feature.shape == (1, cfg.d)

    def test_single_region_selected_zero_and_fusion_arithmetic(self):
        cfg = toy_config((scheme("SQ", 1),))
        params = init_params(cfg, seed=0)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 24, 24)))
        trace = forward(x, params, cfg)
        np.testing.assert_array_equal(trace.selected, [0, 0])
        assert trace.cam_map.shape[1] == cfg.stage_widths[3] + cfg.local_widths[1]

    @pytest.mark.parametrize("schemes", [
        (scheme("HS", 2),),
        (scheme("VS", 2),),
        (scheme("SQ", 4),),
        (scheme("HS", 2), scheme("VS", 2), scheme("SQ", 4)),
    ])
    def test_fusion_shape_law(self, schemes):
        cfg = toy_config(schemes)
        params = init_params(cfg, seed=0)
        x = Tensor(np.random.default_rng(2).normal(size=(1, 3, 24, 24)))
        trace = forward(x, params, cfg)
        assert trace.cam_map.shape[1] == cfg.stage_widths[3] + cfg.local_widths[1]
        assert len(trace.region_tags) == sum(s.count for s in schemes)

    def test_zeroed_local_classifier_selects_index_zero(self):
        cfg = toy_config((scheme("SQ", 4),))
        params = init_params(cfg, seed=3)
        params["local.fc.weight"].data[...] = 0.0
        params["local.fc.bias"].data[...] = 0.0
        x = Tensor(np.random.default_rng(3).normal(size=(3, 3, 24, 24)))
        trace = forward(x, params, cfg)
        np.testing.assert_allclose(trace.region_probs, 0.5, atol=1e-15)
        np.testing.assert_array_equal(trace.selected, [0, 0, 0])

    def test_backbone_only_mode(self):
        cfg = toy_config((), use_local=False)
        params = init_params(cfg, seed=0)
        assert "local.conv1.weight" not in {p.name for p in params.all()}
        x = Tensor(np.random.default_rng(4).normal(size=(2, 3, 24, 24)))
        trace = forward(x, params, cfg)
        assert trace.cam_map.shape[1] == cfg.stage_widths[3]
        assert trace.selected is None and trace.region_probs is None

    def test_da_mode_appends_reduce_convs(self):
        cfg = toy_config((scheme("SQ", 4),), da_mode=True,
                         da_reduce_widths=(5, 4), da_local_widths=(2, 3))
        params = init_params(cfg, seed=0)
        assert "da.reduce1.weight" in {p.name for p in params.all()}
        x = Tensor(np.random.default_rng(5).normal(size=(1, 3, 24, 24)))
        trace = forward(x, params, cfg)
        assert trace.cam_map.shape[1] == 4
        # swapped local widths apply in da_mode
        assert params["local.conv2.weight"].shape[0] == 3

    def test_wrong_input_size_rejected(self):
        cfg = toy_config((scheme("SQ", 4),))
        params = init_params(cfg, seed=0)
        with pytest.raises(ConfigError, match="input shape"):
            forward(Tensor(np.zeros((1, 3, 32, 32))), params, cfg)

    @pytest.mark.parametrize("key", ["stage_strides", "stage_pads"])
    def test_stage_geometry_is_not_a_config_key(self, key):
        with pytest.raises(ConfigError, match=f"unknown keys \\['{key}'\\]"):
            DamConfig.from_dict({key: [2, 1, 2, 2]})


def _min_selection_gap(trace) -> float:
    scores = np.sort(trace.region_probs.max(axis=2), axis=1)
    return float((scores[:, -1] - scores[:, -2]).min()) if scores.shape[1] > 1 else np.inf


def gapped_cases(cfg, want, gap=1e-3, candidates=range(40)):
    """First `want` (seed, params, x, y) cases safe for finite differences.

    Two hazards are screened out deterministically. The hard argmax makes
    the loss piecewise smooth, so cases where the winning region's score
    gap does not dwarf eps are skipped. And zero-initialized biases leave
    relu pre-activations sitting exactly on the kink (a conv unit whose
    receptive field is all relu zeros outputs exactly its bias), so every
    parameter is nudged off the symmetric init before checking.
    """
    cases = []
    for seed in candidates:
        params = init_params(cfg, seed=seed)
        rng = np.random.default_rng(seed + 100)
        for p in params.all():
            p.data += rng.normal(scale=0.01, size=p.data.shape)
        x = Tensor(rng.normal(size=(2, 3, 24, 24)))
        y = rng.integers(0, 2, size=2)
        if _min_selection_gap(forward(x, params, cfg)) > gap:
            cases.append((seed, params, x, y))
            if len(cases) == want:
                return cases
    raise AssertionError(f"found only {len(cases)} stable-selection cases")


def material_grad_errors(fn, params, top_k=3, eps=1e-6):
    """Worst rel error over each param's top_k largest-magnitude entries.

    Full nets have many dead-relu entries whose analytic gradient is an
    exact zero; probing those measures pure float roundoff of the loss and
    says nothing about wiring. Dropped or doubled gradient paths show up on
    the dominant entries, so those are the ones probed.
    """
    with Tape() as tape:
        tape.backward(fn())
    analytic = {p.name: p.grad.copy() for p in params if p.grad is not None}
    worst = 0.0
    for p in params:
        if p.grad is None:
            continue
        g = analytic[p.name]
        flat = np.argsort(np.abs(g), axis=None)[::-1][:top_k]
        for k in flat:
            idx = np.unravel_index(k, g.shape)
            keep = p.data[idx]
            p.data[idx] = keep + eps
            hi = float(fn().data)
            p.data[idx] = keep - eps
            lo = float(fn().data)
            p.data[idx] = keep
            numeric = (hi - lo) / (2.0 * eps)
            a = float(g[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst


class TestFullModelGradCheck:
    @pytest.mark.parametrize("schemes", [
        (scheme("HS", 2),),
        (scheme("VS", 2),),
        (scheme("SQ", 4),),
        (scheme("HS", 2), scheme("VS", 2), scheme("SQ", 4)),
    ])
    def test_end_to_end_gradients(self, schemes):
        cfg = toy_config(schemes)
        worst = 0.0
        for seed, params, x, y in gapped_cases(cfg, want=2):

            def fn():
                return softmax_cross_entropy(forward(x, params, cfg).logits, y)

            worst = max(worst, material_grad_errors(fn, params.all()))
        assert worst < 1e-4

    def test_da_mode_gradients(self):
        cfg = toy_config((scheme("SQ", 4),), da_mode=True,
                         da_reduce_widths=(5, 4), da_local_widths=(3, 3))
        (seed, params, x, y), = gapped_cases(cfg, want=1)

        def fn():
            return softmax_cross_entropy(forward(x, params, cfg).logits, y)

        assert material_grad_errors(fn, params.all()) < 1e-4

    def test_local_fc_stays_gradient_free(self):
        from safemap.autodiff import Tape, backward
        cfg = toy_config((scheme("SQ", 4),))
        params = init_params(cfg, seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 24, 24)))
        with Tape():
            loss = softmax_cross_entropy(forward(x, params, cfg).logits, [0, 1])
            backward(loss)
        assert params["local.fc.weight"].grad is None
        assert params["local.fc.bias"].grad is None
        # everything else received a gradient
        others = [p for p in params.all()
                  if p.name not in ("local.fc.weight", "local.fc.bias")]
        assert all(p.grad is not None for p in others)


def unlabeled(images_u8):
    """A Dataset of the given tiles, all labelled 0."""
    return Dataset(images=images_u8, labels=np.zeros(len(images_u8), dtype=np.int64),
                   entries=[])


class TestPredict:
    """Labels and class probabilities as ``evaluate`` gives them to every caller."""

    def test_probs_sum_to_one_and_deterministic(self):
        cfg = toy_config((scheme("SQ", 4),))
        params = init_params(cfg, seed=0)
        ds = unlabeled(np.random.default_rng(0).integers(0, 256, size=(5, 3, 24, 24),
                                                         dtype=np.uint8))
        loss1, acc1, probs1 = evaluate(ds, params, cfg)
        loss2, acc2, probs2 = evaluate(ds, params, cfg)
        np.testing.assert_allclose(probs1.sum(axis=1), 1.0, atol=1e-12)
        assert (loss1, acc1) == (loss2, acc2)
        assert probs1.tobytes() == probs2.tobytes()
        assert acc1 == (probs1.argmax(axis=1) == ds.labels).mean()

    @pytest.mark.parametrize("config", [DamConfig(), DamConfig(da_mode=True)],
                             ids=["default", "da_mode"])
    def test_tape_free_agrees_with_taped_forward(self, config):
        # the tape-free stride-1 convs take the flat lowering and the taped
        # ones im2col: equal up to float32 rounding, so equal decisions
        params = init_params(config, seed=4)
        images = np.random.default_rng(4).integers(0, 256, size=(7, 3, 64, 64), dtype=np.uint8)
        x = batch_tensor(images)
        free = forward(x, params, config)
        _, _, probs = evaluate(unlabeled(images), params, config)
        with Tape():
            taped = forward(x, params, config)
        assert free.logits.data.dtype == taped.logits.data.dtype == np.float32
        np.testing.assert_allclose(free.logits.data, taped.logits.data, rtol=1e-5,
                                   atol=1e-5 * np.abs(taped.logits.data).max())
        np.testing.assert_array_equal(free.selected, taped.selected)
        # one batch: the softmax of exactly the tape-free logits, upcast
        assert probs.tobytes() == softmax(free.logits.data.astype(np.float64), axis=1).tobytes()
        np.testing.assert_array_equal(probs.argmax(axis=1), taped.logits.data.argmax(axis=1))
