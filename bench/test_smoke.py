"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

    python3 -m pytest bench/test_smoke.py -q

Runs ``bench/run.py --size tiny`` the way the full benchmark is run and
checks its contract: the metrics BENCHMARK.json names are all emitted with
their unit and direction, outputs check out, spans nest, and the traced
spans account for the timed phase.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import Span, nesting_errors, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    out = {}
    for trace in (0, 1):
        p = bench(request.param, trace)
        assert p.returncode == 0, p.stderr[-2000:]
        line = json.loads(p.stdout.strip().splitlines()[-1])
        path = ROOT / ".bench_out" / f"{request.param}-seed{SEED}-trace{trace}.json"
        out[trace] = (line, json.loads(path.read_text(encoding="utf-8")), p.stdout)
    return request.param, out


def test_result_line_shape(runs):
    _, out = runs
    for line, _, _ in out.values():
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert line["failed"] == 0
        assert isinstance(line["attempted"], int) and line["attempted"] >= 1


def test_every_end_to_end_metric_emitted(runs):
    _, out = runs
    line, record, stdout = out[0]
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0, f"{m['name']} must never be 0"
        full = record["end_to_end"][m["name"]]
        assert (full["unit"], full["better"]) == (m["unit"], m["better"])
        assert full["n"] >= 1
        assert any(ln.split()[:1] == [m["name"]] and m["better"] in ln.split()
                   for ln in stdout.splitlines()), f"{m['name']} missing from the report"


def test_every_per_layer_metric_emitted(runs):
    _, out = runs
    line, record, _ = out[1]
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert m["name"] in record["per_layer"], f"{m['name']} was not measured"


def test_spans_nest(runs):
    _, out = runs
    spans = [Span(**s) for s in out[1][1]["spans"]]
    assert spans
    assert nesting_errors(spans) == []
    assert min(self_times(spans).values()) >= -1e-9


def test_spans_account_for_timed_phase(runs):
    _, out = runs
    _, record, _ = out[1]
    spans = [Span(**s) for s in record["spans"]]
    passes = [s for s in spans if s.name == "pass" and s.attrs["mode"] == "traced"]
    assert passes
    wall = sum(p.duration for p in passes)
    ids = {p.id for p in passes}
    staged = sum(s.duration for s in spans if s.parent in ids)
    remainder = record["per_layer"]["trace.unaccounted_pct"]
    assert 0.0 <= remainder < 5.0
    assert abs(100.0 * (wall - staged) / wall - remainder) < 1e-6


def test_tracing_does_not_change_outputs(runs):
    _, out = runs
    assert out[0][1]["fingerprint"] == out[1][1]["fingerprint"] is not None


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
