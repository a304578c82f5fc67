#!/usr/bin/env python3
"""safemap benchmark: run one workload on inputs made from one seed.

    python3 bench/run.py --workload {train,adapt,map} --seed N --seconds S --trace {0,1}

``--workload all`` runs the three in turn, each in its own process. Run
from the repository root. The program is imported from ``src/``.

The run sets the workload's inputs up, repeats its CLI chain ("pass") until
``--seconds`` have gone by, then sets the inputs up again, back to back, until
it has ``SETUPS`` set-up times (their median is ``setup_s``). It checks every
pass's outputs and prints a report followed, as the last line of standard
output, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off. With ``--trace 1`` they are its per-layer
metrics: the first pass runs under tracemalloc (memory per stage), the
rest alternate between untraced passes (the reference for the tracing
overhead) and passes with spans on the library functions listed in
``layers.TARGETS``; isolated probes follow. Everything, spans included, is
also written to ``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.

``--size tiny`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer, nesting_errors  # noqa: E402
from workloads import (  # noqa: E402
    SIZES, WORKLOADS, combined, probe_images, tree_sha256)

# Set-up repeats per run; setup_s is their median.
SETUPS = 11

# Metrics printed where they apply but left out of the JSON result line, and
# so out of BENCHMARK.json's regression bounds. Most exist on only some
# workloads (or are 0 on some), while every end-to-end metric of the result
# line must be measured, and never 0, on every workload. Two exist everywhere
# but are bistable, so they cannot gate a change:
# - peak_rss_mb: glibc's adaptive mmap threshold makes the same pass peak at
#   either of two levels about 30% apart, depending on what ran before it
#   (the traced run's tracemalloc peaks are the stable memory numbers);
# - cam_ms_p50: single cam calls run at one of two machine speed states
#   (about 15 or 23 ms on a 2-vCPU VM), and the median follows whichever
#   state held most of the run; cam_ms_p90 sits in the slow state and is
#   the latency metric of the result line.
REPORTED = {
    "peak_rss_mb": ("MB", "lower"),
    "cam_ms_p50": ("ms", "lower"),
    "train_samples_per_s": ("1/s", "higher"),
    "records_per_s": ("1/s", "higher"),
    "val_loss": ("nat", "lower"),
    "val_accuracy": ("1", "higher"),
    "target_loss": ("nat", "lower"),
    "target_fpr": ("1", "lower"),
    "failed_op_share": ("1", "lower"),
}


class SetupError(RuntimeError):
    """A set-up step failed: the benchmark cannot run."""


def blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {ln.split()[-1] for ln in f if "openblas" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine(seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "seed": seed}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summary(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "median": float(statistics.median(values)) if values else 0.0}
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = float(np.percentile(values, p))
            break
    return out


class Run:
    def __init__(self, args):
        self.args = args
        self.workload = WORKLOADS[args.workload](SIZES[args.size])
        self.tracer = Tracer()
        self.work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.memory: dict[str, float] = {}
        self.measure_memory = False
        self.setup_times: list[float] = []
        self.setup_prints: set = set()

    # ------------------------------------------------------------ CLI calls

    @staticmethod
    def write_config(stage) -> Path:
        cfg = stage.run_dir.parent / "configs" / f"{stage.name}.json"
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(json.dumps(stage.config), encoding="utf-8")
        return cfg

    def cli(self, stage, cfg: Path) -> tuple[int, str, float]:
        """Run one subcommand in-process: (exit code, last stderr line, seconds)."""
        from safemap.cli import main

        err = io.StringIO()
        if self.measure_memory:
            tracemalloc.reset_peak()
        with self.tracer.span(f"cli.{stage.subcommand}", stage=stage.name) as span:
            with contextlib.redirect_stderr(err):
                try:
                    rc = main([stage.subcommand, "--config", str(cfg)])
                except Exception:  # a traceback breaks the CLI's exit-code contract
                    err.write(traceback.format_exc())
                    rc = -1
        if self.measure_memory:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            key = f"cli.{stage.subcommand}.tracemalloc_peak_mb"
            self.memory[key] = max(self.memory.get(key, 0.0), peak)
        lines = err.getvalue().strip().splitlines()
        return rc, lines[-1] if lines else "", span.duration

    def run_stages(self, stages, label: str) -> tuple[dict, bool]:
        """Run stages in order, stopping at the first failure: (seconds per stage, ok)."""
        configs = [self.write_config(st) for st in stages]
        durations = {}
        for st, cfg in zip(stages, configs):
            self.attempted += 1
            rc, err, durations[st.name] = self.cli(st, cfg)
            if rc != 0:
                self.fail(f"{label}: `safemap {st.subcommand}` ({st.name}) exited {rc}: {err}")
                return durations, False
        return durations, True

    def setup_cli(self, sub: str, config: dict) -> None:
        from workloads import Stage

        stage = Stage(f"setup.{sub}.{len(self.tracer.spans)}", sub, config)
        rc, err, _ = self.cli(stage, self.write_config(stage))
        if rc != 0:
            raise SetupError(f"set-up `safemap {sub}` exited {rc}: {err}")

    # ------------------------------------------------------------ phases

    def set_up(self, k: int) -> dict:
        """Make the inputs in setup.<k>; record its time and fingerprint."""
        root = self.work / f"setup.{k}"
        with self.tracer.span("setup", repeat=k) as s:
            inp = self.workload.setup(root, self.args.seed, self.setup_cli)
        self.setup_times.append(s.duration)
        self.setup_prints.add(tuple(tree_sha256(p) for p in inp["fingerprint"]))
        if k:
            shutil.rmtree(root)  # the passes use setup.0
        return inp

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def run_pass(self, i: int, inp: dict, mode: str) -> dict:
        pass_dir = self.work / f"pass.{i}"
        stages = self.workload.chain(inp, pass_dir)
        with self.tracer.span("pass", index=i, mode=mode) as span:
            durations, ok = self.run_stages(stages, f"pass {i}")
        record = {"index": i, "mode": mode, "wall": span.duration, "stages": durations,
                  "ok": ok, "peak_rss_mb": peak_rss_mb()}
        if ok:
            out = self.workload.check(inp, pass_dir, stages)
            for name, passed, detail in out.checks:
                self.attempted += 1
                if not passed:
                    self.fail(f"pass {i}: check failed: {name} ({detail})")
            record.update(checks=out.checks, fingerprints=out.fingerprints,
                          fingerprint=combined(out.fingerprints), quality=out.quality,
                          artifact_bytes=sum(p.stat().st_size for p in pass_dir.rglob("*")
                                             if p.is_file() and p.parent.name != "configs"))
        record["stage_objects"] = stages
        return record

    def timed(self, inp: dict) -> list[dict]:
        """Passes until --seconds have gone by (at least the ones the mode needs)."""
        # traced: the memory pass goes first and pays the cold start; then
        # untraced and traced passes alternate, so both sample the same moments
        least = 3 if self.args.trace else 1
        deadline = time.perf_counter() + self.args.seconds
        passes = []
        while True:
            i = len(passes)
            mode = ("plain" if not self.args.trace or i % 2
                    else "memory" if i == 0 else "traced")
            t0 = time.perf_counter()
            record = self.run_with_mode(i, inp, mode)
            passes.append(record)
            if len(passes) > 1:
                shutil.rmtree(self.work / f"pass.{len(passes) - 2}", ignore_errors=True)
            if not record["ok"]:
                break
            now = time.perf_counter()
            if len(passes) >= least and now + (now - t0) > deadline:
                break  # the next pass, as long as this one, would overrun
        return passes

    def run_with_mode(self, i: int, inp: dict, mode: str) -> dict:
        if mode == "memory":
            tracemalloc.start()
            self.measure_memory = True
            try:
                return self.run_pass(i, inp, mode)
            finally:
                self.measure_memory = False
                tracemalloc.stop()
        if mode == "traced":
            with self.tracer.patched(layers.TARGETS):
                return self.run_pass(i, inp, mode)
        return self.run_pass(i, inp, mode)

    def probe(self, inp: dict, last_pass: dict) -> dict:
        """The adapt workload's default-lam train-da call (known to diverge)."""
        if not hasattr(self.workload, "probe") or not last_pass["ok"]:
            return {"attempted": 0, "failed": 0}
        stage = self.workload.probe(inp, self.work / f"pass.{last_pass['index']}")
        cfg = self.write_config(stage)
        with self.tracer.span("probe"):
            rc, err, _ = self.cli(stage, cfg)
        return {"attempted": 1, "failed": int(rc != 0), "exit": rc, "stderr": err,
                "peak_rss_mb": peak_rss_mb()}

    # ------------------------------------------------------------ metrics

    def end_to_end(self, passes, probe) -> dict:
        ok = [p for p in passes if p["ok"] and p["mode"] == "plain"]
        # a pass's typical wall time, stage by stage: each stage's median over
        # the passes, summed, so one disturbed stage does not move the pass
        stages = ok[0]["stages"] if ok else {}
        wall = sum(statistics.median(p["stages"][n] for p in ok) for n in stages)
        m = {"setup_s": summary(self.setup_times),
             "wall_s": {"n": len(ok), "median": wall}}
        cams = [1000.0 * d for p in ok for name, d in p["stages"].items()
                if name.startswith("cam.")]
        cam = summary(cams)
        m["cam_ms_p50"] = {"n": cam["n"], "median": cam["median"]}
        m["cam_ms_p90"] = {"n": cam["n"], "median": float(np.percentile(cams, 90))
                           if cams else 0.0}
        rates = {}
        for stages, (metric, count) in self.workload.throughput(self.inputs).items():
            names = stages if isinstance(stages, tuple) else (stages,)
            rates[metric] = [count / sum(p["stages"][n] for n in names) for p in ok]
        for metric, values in rates.items():
            m[metric] = summary(values)
        # after set-up and the first pass: later passes repeat the same work,
        # and only add allocator fragmentation that varies with the data
        m["peak_rss_mb"] = {"n": 1, "median": ok[0]["peak_rss_mb"] if ok else peak_rss_mb()}
        if ok:
            for k, v in ok[0]["quality"].items():
                m[k] = {"n": 1, "median": float(v)}
        attempted = self.attempted + probe["attempted"]
        m["failed_op_share"] = {"n": attempted,
                                "median": (self.failed + probe["failed"]) / max(attempted, 1)}
        return m

    def per_layer(self, passes, probe) -> dict:
        from safemap.cli import COMMANDS

        index = layers.SpanIndex(self.tracer.spans)
        batch = self.workload.batch
        m = layers.catalogue(index, batch, COMMANDS)
        shapes = layers.conv_shapes(index, batch)
        m.update(layers.conv_counts(shapes))
        m.update(layers.conv_probe(shapes))
        m.update(layers.step_probe(probe_images(self.inputs, batch), self.workload.model))
        m["autodiff.conv2d.step_share_pct"] = layers.conv_step_share(m)
        m.update(self.memory)
        m["trace.tracemalloc_peak_mb"] = max(self.memory.values(), default=0.0)
        plain = [p["wall"] for p in passes if p["mode"] == "plain" and p["ok"]]
        traced = [p["wall"] for p in passes if p["mode"] == "traced" and p["ok"]]
        m["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain)
                                 if plain and traced else 0.0)
        m["adapt.default_lam_probe.failed"] = probe["failed"]
        m["cli.artifact_bytes"] = statistics.median(
            [p["artifact_bytes"] for p in passes if p["ok"]] or [0])
        return m

    # ------------------------------------------------------------ run

    def execute(self) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            if self.args.trace:
                with self.tracer.patched(layers.TARGETS):
                    self.inputs = self.set_up(0)
                    while len(self.setup_times) < SETUPS:
                        self.set_up(len(self.setup_times))
            else:
                self.inputs = self.set_up(0)
            passes = self.timed(self.inputs)
            while len(self.setup_times) < SETUPS:
                self.set_up(len(self.setup_times))
            self.attempted += 1
            if len(self.setup_prints) != 1:
                self.fail("set-up repeats made different inputs from one seed")
            probe = self.probe(self.inputs, passes[-1])
            prints = {p["fingerprint"] for p in passes if p["ok"]}
            self.attempted += 1
            if len(prints) > 1:
                self.fail("passes of one run gave different output fingerprints")
            result = {"passes": passes, "probe": probe,
                      "e2e": self.end_to_end(passes, probe),
                      "fingerprint": next(iter(prints)) if len(prints) == 1 else None,
                      "fingerprints": next((p["fingerprints"] for p in passes if p["ok"]), {})}
            if self.args.trace:
                result["layers"] = self.per_layer(passes, probe)
                errors = nesting_errors(self.tracer.spans)
                self.attempted += 1
                if errors:
                    self.fail(f"span nesting: {errors[:3]}")
            return result
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            with contextlib.suppress(OSError):
                self.work.parent.rmdir()


def e2e_units(spec: dict) -> dict:
    """End-to-end metric -> (unit, better), BENCHMARK.json's and the reported ones."""
    units = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    units.update(REPORTED)
    return units


def report(run: Run, result: dict, spec: dict, mach: dict) -> dict:
    """Print the human-readable report; return the JSON result line."""
    args = run.args
    print(f"safemap benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("machine  " + " ".join(f"{k}={v!r}" if isinstance(v, str) and " " in v
                                 else f"{k}={v}" for k, v in mach.items()))
    e2e = result["e2e"]
    units = e2e_units(spec)
    print(f"{'metric':<24}{'value':>14}  {'unit':<6}{'better':<8}{'n':>5}  tail")
    for name, s in e2e.items():
        unit, better = units[name]
        tail = next((f"p{k[1:]}={v:.6g}" for k, v in s.items() if k.startswith("p")), "")
        print(f"{name:<24}{s['median']:>14.6g}  {unit:<6}{better:<8}{s['n']:>5}  {tail}")
    passes = result["passes"]
    print(f"passes {len(passes)} ({', '.join(p['mode'] for p in passes)}); "
          f"output fingerprint {result['fingerprint']}")
    probe = result["probe"]
    if probe["attempted"]:
        print(f"default-lam train-da probe: exit {probe['exit']} {probe['stderr']}")
    for f in run.failures:
        print(f"FAILED {f}")
    if args.trace:
        kinds, values = spec["per_layer"], result["layers"]
        print(f"{'per-layer metric':<52}{'value':>14}")
        for m in kinds:
            print(f"{m['name']:<52}{values.get(m['name'], float('nan')):>14.6g} {m['unit']}")
    else:
        kinds, values = spec["end_to_end"], {k: v["median"] for k, v in e2e.items()}
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                                    "unit": m["unit"]} for m in kinds}}


def write_record(run: Run, result: dict, spec: dict, mach: dict, line: dict) -> None:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{run.args.workload}-seed{run.args.seed}-trace{run.args.trace}.json"
    units = e2e_units(spec)
    record = {
        "args": vars(run.args), "machine": mach, "result": line,
        "end_to_end": {k: dict(v, unit=units[k][0], better=units[k][1])
                       for k, v in result["e2e"].items()},
        "fingerprint": result["fingerprint"], "fingerprints": result["fingerprints"],
        "failures": run.failures, "probe": result["probe"],
        "passes": [{k: v for k, v in p.items() if k != "stage_objects"}
                   for p in result["passes"]],
    }
    if run.args.trace:
        record["per_layer"] = result["layers"]
        record["spans"] = [s.to_json() for s in run.tracer.spans]
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, in turn; non-zero if any run fails."""
    rc = 0
    for w in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        rc = subprocess.run(cmd, check=False).returncode or rc
    return rc


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import safemap.cli
    except ImportError as e:
        print(f"bench: cannot import safemap from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(safemap.cli.__file__).resolve().parents:
        print(f"bench: safemap was imported from {safemap.cli.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run = Run(args)
    try:
        result = run.execute()
    except SetupError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 3
    mach = machine(args.seed)
    line = report(run, result, spec, mach)
    write_record(run, result, spec, mach, line)
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
