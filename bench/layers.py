"""Per-layer numbers for the traced run.

Three sources, all measured from outside the program:

* spans of the library functions listed in ``TARGETS``, recorded while the
  traced passes run (self time = duration minus child spans);
* isolated probes at the workload's batch size: each conv layer's
  conv2d + backward on its observed shapes, and a whole training step
  (forward, cross-entropy, backward, sgd_step);
* counts computed from the observed conv shapes (FLOPs, im2col bytes).

Layers are named after the program's modules: cli, geo, model, autodiff,
adapt and report. Stats of functions a workload never calls read 0.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from tracer import Target, self_times

REPS = 3  # probe repetitions; the median is reported


def _conv_attrs(x, weight, bias=None, stride=1, pad=0):
    name = weight.name or "unnamed"
    return {"layer": name.rsplit(".", 1)[0], "batch": x.shape[0],
            "x_shape": list(x.shape), "w_shape": list(weight.shape),
            "stride": stride, "pad": pad, "x_grad": bool(x.requires_grad),
            "itemsize": x.data.itemsize}


def _batch_attrs(images, *args, **kwargs):
    return {"batch": images.shape[0]}


def _degenerate(span, result):
    span.attrs["degenerate"] = bool(result.degenerate)


def _at(modules, attr, span, **kw):
    return [Target(m, attr, span, **kw) for m in modules]


# Every module attribute a caller looks the function up by.
TARGETS = (
    _at(["safemap.model.network"], "conv2d", "autodiff.conv2d", attrs=_conv_attrs)
    + _at(["safemap.model.training", "safemap.adapt.training"], "backward",
          "autodiff.backward")
    + _at(["safemap.model.training", "safemap.adapt.training"], "sgd_step",
          "autodiff.sgd_step")
    + _at(["safemap.model.training", "safemap.adapt.training"], "softmax_cross_entropy",
          "autodiff.softmax_cross_entropy")
    + _at(["safemap.cli"], "load_checkpoint", "autodiff.load_checkpoint")
    + _at(["safemap.cli"], "save_checkpoint", "autodiff.save_checkpoint")
    + _at(["safemap.model.training", "safemap.adapt.training", "safemap.cli",
           "safemap.model.network", "safemap.report.cam"], "forward", "model.forward",
          attrs=_batch_attrs)
    + _at(["safemap.model.network"], "local_forward", "model.local_forward")
    + _at(["safemap.cli", "safemap.model.training", "safemap.adapt.training"], "evaluate",
          "model.evaluate")
    + _at(["safemap.cli"], "load_split", "model.load_split")
    + _at(["safemap.cli"], "train_dam", "model.train_dam")
    + _at(["safemap.adapt.training"], "da_batch_loss", "adapt.da_batch_loss",
          on_result=_degenerate)
    + _at(["safemap.adapt.training"], "loss_da", "adapt.loss_da")
    + _at(["safemap.cli"], "pseudo_label", "adapt.pseudo_label")
    + _at(["safemap.cli"], "train_dam_da", "adapt.train_dam_da")
    + _at(["safemap.cli"], "ingest_accidents", "geo.ingest_accidents")
    + _at(["safemap.cli"], "build_grid", "geo.build_grid")
    + _at(["safemap.cli"], "score_cells", "geo.score_cells")
    + _at(["safemap.cli"], "kmeans_bin", "geo.kmeans_bin")
    + _at(["safemap.model.training", "safemap.adapt.pseudolabel", "safemap.cli"],
          "read_ppm", "geo.read_ppm")
    + _at(["safemap.cli"], "synth_generate", "geo.synth_generate")
    + _at(["safemap.cli"], "safety_map_export", "report.safety_map_export")
    + _at(["safemap.cli"], "cam", "report.cam")
)

FORWARD_BUCKETS = (1, 4, 16, 64)


def _ms(seconds) -> list[float]:
    return [1000.0 * s for s in seconds]


def _p(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class SpanIndex:
    """Spans grouped by the pass or set-up they belong to."""

    def __init__(self, spans):
        self.spans = spans
        self.self_time = self_times(spans)
        by_id = {s.id: s for s in spans}
        self.root = {}
        for s in spans:
            r = s
            while r.parent is not None:
                r = by_id[r.parent]
            self.root[s.id] = r

    def under(self, root_name: str, **attrs) -> tuple[list, list]:
        """(root spans, all spans below them) for roots matching name and attrs."""
        roots = [s for s in self.spans if s.parent is None and s.name == root_name
                 and all(s.attrs.get(k) == v for k, v in attrs.items())]
        ids = {r.id for r in roots}
        return roots, [s for s in self.spans if self.root[s.id].id in ids and s.id not in ids]


def catalogue(index: SpanIndex, workload_batch: int, subcommands) -> dict:
    """Every per-layer stat the spans give, per traced pass.

    For each traced function: calls, s (total), self_s, ms_p50, ms_p90 and
    self_pct (self time as a share of pass wall time). conv2d is also
    split by layer and model.forward by batch size.
    """
    passes, spans = index.under("pass", mode="traced")
    n = max(len(passes), 1)
    wall = sum(p.duration for p in passes) or 1.0
    out = {}
    names = sorted({t.span for t in TARGETS} | {f"cli.{c}" for c in subcommands})
    groups = {name: [] for name in names}
    for s in spans:
        if s.name in groups:
            groups[s.name].append(s)
    for name, group in groups.items():
        durations = [s.duration for s in group]
        self_s = sum(index.self_time[s.id] for s in group)
        out[f"{name}.calls"] = len(group) / n
        out[f"{name}.s"] = sum(durations) / n
        out[f"{name}.self_s"] = self_s / n
        out[f"{name}.ms_p50"] = _p(_ms(durations), 50)
        out[f"{name}.ms_p90"] = _p(_ms(durations), 90)
        out[f"{name}.self_pct"] = 100.0 * self_s / wall
    cli_self = sum(index.self_time[s.id] for s in spans if s.name.startswith("cli."))
    out["cli.self_pct"] = 100.0 * cli_self / wall

    forwards = groups["model.forward"]
    for b in FORWARD_BUCKETS:
        d = _ms([s.duration for s in forwards if s.attrs["batch"] == b])
        out[f"model.forward.b{b}.ms_p50"] = _p(d, 50)
        out[f"model.forward.b{b}.ms_p90"] = _p(d, 90)
        out[f"model.forward.b{b}.calls"] = len(d) / n
    d = _ms([s.duration for s in forwards if s.attrs["batch"] == workload_batch])
    out["model.forward.batch.ms_p50"] = _p(d, 50)
    out["model.forward.batch.ms_p90"] = _p(d, 90)
    out["model.local_forward.calls_per_forward"] = (
        len(groups["model.local_forward"]) / len(forwards) if forwards else 0.0)

    convs = [s for s in groups["autodiff.conv2d"] if s.attrs["batch"] == workload_batch]
    conv_self = sum(index.self_time[s.id] for s in groups["autodiff.conv2d"])
    out["autodiff.conv2d.fwd_self_pct"] = 100.0 * conv_self / wall
    batch_forwards = len(d) or 1
    for layer in sorted({s.attrs["layer"] for s in convs}):
        mine = [s for s in convs if s.attrs["layer"] == layer]
        out[f"autodiff.conv2d.{layer}.fwd_ms"] = _p(_ms([s.duration for s in mine]), 50)
        out[f"autodiff.conv2d.{layer}.calls_per_forward"] = len(mine) / batch_forwards

    steps = groups["adapt.da_batch_loss"]
    out["adapt.degenerate_batch_pct"] = (
        100.0 * sum(s.attrs["degenerate"] for s in steps) / len(steps) if steps else 0.0)

    # set-up: per repeat, the time spent in synth_generate and `safemap synth`
    setups, setup_spans = index.under("setup")
    for name in ("geo.synth_generate", "cli.synth"):
        per = [sum(s.duration for s in setup_spans
                   if s.name == name and index.root[s.id].id == r.id) for r in setups]
        out[f"{name}.s"] = _median(per)

    stage_time = sum(s.duration for s in spans if s.parent in {p.id for p in passes})
    out["trace.unaccounted_pct"] = 100.0 * (wall - stage_time) / wall
    out["trace.spans_per_pass"] = len(spans) / n
    return out


def conv_shapes(index: SpanIndex, workload_batch: int) -> dict:
    """Layer -> attributes of its first conv2d call at the workload batch."""
    _, spans = index.under("pass", mode="traced")
    shapes = {}
    for s in spans:
        if s.name == "autodiff.conv2d" and s.attrs["batch"] == workload_batch:
            shapes.setdefault(s.attrs["layer"], s.attrs)
    return shapes


def conv_counts(shapes: dict) -> dict:
    """FLOPs and im2col bytes per call, computed from the observed shapes."""
    out = {}
    for layer, a in shapes.items():
        b, cin, h, w = a["x_shape"]
        cout, _, kh, kw = a["w_shape"]
        ho = (h + 2 * a["pad"] - kh) // a["stride"] + 1
        wo = (w + 2 * a["pad"] - kw) // a["stride"] + 1
        out[f"autodiff.conv2d.{layer}.flop_computed"] = 2 * b * ho * wo * cout * cin * kh * kw
        out[f"autodiff.conv2d.{layer}.im2col_bytes_computed"] = (
            b * ho * wo * cin * kh * kw * a["itemsize"])
    return out


def conv_probe(shapes: dict) -> dict:
    """conv2d forward and backward per layer, isolated, on observed shapes."""
    from safemap.autodiff import Tape, Tensor, backward, conv2d, parameter, tensor_sum

    rng = np.random.default_rng(0)
    out = {}
    for layer, a in shapes.items():
        x = Tensor(rng.normal(size=a["x_shape"]), requires_grad=a["x_grad"])
        w = parameter(rng.normal(0.0, 0.1, size=a["w_shape"]), name=f"{layer}.weight")
        b = parameter(np.zeros(a["w_shape"][0]), name=f"{layer}.bias")
        fwd, bwd = [], []
        for _ in range(REPS):
            x.grad = w.grad = b.grad = None
            with Tape():
                t0 = time.perf_counter()
                y = conv2d(x, w, b, stride=a["stride"], pad=a["pad"])
                t1 = time.perf_counter()
                loss = tensor_sum(y)
                t2 = time.perf_counter()
                backward(loss)
                t3 = time.perf_counter()
            fwd.append(t1 - t0)
            bwd.append(t3 - t2)
        out[f"autodiff.conv2d.{layer}.probe_fwd_ms"] = _median(_ms(fwd))
        out[f"autodiff.conv2d.{layer}.bwd_ms"] = _median(_ms(bwd))
    return out


def step_probe(images: np.ndarray, model: dict) -> dict:
    """One training step at the workload batch: forward, cross-entropy,
    backward, sgd_step; images is uint8 [B, C, H, W]."""
    from safemap.autodiff import Tape, backward, sgd_step, softmax_cross_entropy
    from safemap.model.config import DamConfig
    from safemap.model.network import forward, init_params
    from safemap.model.training import batch_tensor

    config = DamConfig.from_dict(model)
    params = init_params(config, seed=0)
    frozen = params.expected_gradless(config)
    x = batch_tensor(images)
    y = np.arange(images.shape[0]) % 2
    parts = {k: [] for k in ("forward", "softmax_cross_entropy", "backward", "sgd_step",
                             "total")}
    nodes = 0
    for _ in range(REPS):
        with Tape() as tape:
            t0 = time.perf_counter()
            trace = forward(x, params, config)
            t1 = time.perf_counter()
            loss = softmax_cross_entropy(trace.logits, y)
            t2 = time.perf_counter()
            backward(loss)
            t3 = time.perf_counter()
            nodes = len(tape)
        sgd_step(params.all(), 1e-4, allow_gradless=frozen)
        t4 = time.perf_counter()
        for k, v in (("forward", t1 - t0), ("softmax_cross_entropy", t2 - t1),
                     ("backward", t3 - t2), ("sgd_step", t4 - t3), ("total", t4 - t0)):
            parts[k].append(v)
    out = {f"autodiff.step_probe.{k}.ms_p50": _median(_ms(v)) for k, v in parts.items()}
    out["autodiff.tape_nodes_per_step"] = nodes
    return out


def conv_step_share(metrics: dict) -> float:
    """conv2d forward+backward as a share of the probed training step:
    per layer, calls per forward x (isolated forward + backward)."""
    total = 0.0
    for key, calls in metrics.items():
        if key.startswith("autodiff.conv2d.") and key.endswith(".calls_per_forward"):
            layer = key[len("autodiff.conv2d."):-len(".calls_per_forward")]
            total += calls * (metrics[f"autodiff.conv2d.{layer}.probe_fwd_ms"]
                              + metrics[f"autodiff.conv2d.{layer}.bwd_ms"])
    step = metrics["autodiff.step_probe.total.ms_p50"]
    return 100.0 * total / step if step else 0.0
