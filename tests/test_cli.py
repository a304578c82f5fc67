"""CLI contract: subcommands, exit codes, run artifacts, determinism."""

import csv
import ctypes
import dataclasses
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import safemap
from safemap.autodiff import CheckpointError, parameter, save_checkpoint
from safemap.autodiff import tensor as tensor_mod
from safemap.autodiff.checkpoint import MAGIC, VERSION
from safemap.cli import (
    COMMANDS,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    _load_params,
    build_parser,
    main,
)
from safemap.geo.grid import GridSpec
from safemap.geo.manifest import DANGEROUS, load_manifest, save_manifest
from safemap.geo.ppm import read_ppm, write_ppm
from safemap.model.config import DamConfig
from safemap.model.network import init_params
from safemap.model.training import evaluate, load_split
from safemap.runconfig import PathsSection, RunConfig

from artifacts import load_metrics_csv
from oracles import kmeans2_best_split

SMALL_MODEL = {"stage_widths": [4, 6, 8, 10], "local_widths": [6, 6], "d": 8,
               "schemes": [{"kind": "SQ", "count": 4}]}
SMALL_DA_MODEL = dict(SMALL_MODEL, da_mode=True, da_reduce_widths=[8, 6],
                      da_local_widths=[6, 6])

ACCIDENTS_CSV = """id,date,time,day_of_week,latitude,longitude,vehicles,casualties
A1,03/01/2019,08:30,4,51.5000,-0.1200,2,1
A2,04/01/2019,17:45,5,51.5001,-0.1201,1,1
A3,05/01/2019,12:00,6,51.5008,-0.1195,3,2
"""


# under overcommit mode 1 the kernel grants an allocation of any size, and the
# process is killed when it fills it, in place of the allocation failing
_OVERCOMMIT = Path("/proc/sys/vm/overcommit_memory")
OVERCOMMIT_ALWAYS = _OVERCOMMIT.exists() and _OVERCOMMIT.read_text().strip() == "1"


def write_config(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_files(run_dir):
    """All files under a run dir, relative POSIX paths."""
    found = []
    for base, _, names in os.walk(run_dir):
        for name in names:
            full = os.path.join(base, name)
            found.append(os.path.relpath(full, run_dir).replace(os.sep, "/"))
    return sorted(found)


def assert_no_orphans(run_dir):
    declared = set(json.loads((run_dir / "run_manifest.json").read_text())["files"])
    on_disk = {f for f in run_files(run_dir) if f != "run_manifest.json"}
    assert on_disk == declared, (
        f"undeclared files: {sorted(on_disk - declared)}; "
        f"missing files: {sorted(declared - on_disk)}")


class TestParser:
    def test_all_subcommands_registered(self):
        expected = {"ingest", "grid", "label", "balance", "synth", "train",
                    "pseudo-label", "train-da", "eval", "cam", "map-export"}
        assert set(COMMANDS) == expected
        parser = build_parser()
        # argparse stores subparser choices on the registered action
        sub = next(a for a in parser._actions if a.dest == "subcommand")
        assert set(sub.choices) == expected

    def test_every_subcommand_has_help(self):
        sub = next(a for a in build_parser()._actions if a.dest == "subcommand")
        helps = {a.dest: a.help for a in sub._choices_actions}
        assert set(helps) == set(COMMANDS)
        assert all(h and h.strip() for h in helps.values()), helps

    def test_unknown_flag_exits_1_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--config", "c.json", "--bogus"])
        assert exc.value.code == EXIT_USAGE
        assert "usage:" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "c.json"])
        assert exc.value.code == EXIT_USAGE
        assert "usage:" in capsys.readouterr().err

    def test_missing_config_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth"])
        assert exc.value.code == EXIT_USAGE

    def test_negative_seed_flag_exits_1(self, tmp_path, capsys):
        # used to end in numpy's "expected non-negative integer" traceback
        cfg = write_config(tmp_path / "c.json", {"paths": {"run_dir": str(tmp_path / "run")}})
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--config", cfg, "--seed", "-3"])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "argument --seed: must be non-negative, got -3" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_in_one_process_parse_independently(self, tmp_path, capsys):
        csv_path = tmp_path / "acc.csv"
        csv_path.write_text(ACCIDENTS_CSV, encoding="utf-8")
        synth = write_config(tmp_path / "s.json", {
            "paths": {"run_dir": str(tmp_path / "s")}, "synth": {"n_per_class": 1}})
        ingest = write_config(tmp_path / "i.json", {
            "paths": {"run_dir": str(tmp_path / "i"), "accidents_csv": str(csv_path)}})
        assert main(["synth", "--config", synth, "--seed", "5"]) == EXIT_OK
        assert main(["ingest", "--config", ingest]) == EXIT_OK
        assert main(["synth", "--config", synth, "--seed", "9"]) == EXIT_OK
        first = json.loads((tmp_path / "s" / "config.resolved.json").read_text())
        second = json.loads((tmp_path / "i" / "config.resolved.json").read_text())
        assert first["synth"]["seed"] == first["pipeline"]["seed"] == 9
        assert second["synth"]["seed"] == second["pipeline"]["seed"] == 0
        manifest = json.loads((tmp_path / "i" / "run_manifest.json").read_text())
        assert manifest["subcommand"] == "ingest" and "records.jsonl" in manifest["files"]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--config", ingest, "--seed"])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: safemap ingest") and "Traceback" not in err


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["synth", "--config", str(tmp_path / "nope.json")]) == EXIT_USAGE
        assert "config error" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"sinth": {}})
        assert main(["synth", "--config", cfg]) == EXIT_USAGE
        assert "run config: unknown keys ['sinth']" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"train": {"epocs": 2}})
        assert main(["train", "--config", cfg]) == EXIT_USAGE

    def test_missing_required_path_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json",
                           {"paths": {"run_dir": str(tmp_path / "run")}})
        assert main(["train", "--config", cfg]) == EXIT_USAGE
        assert "paths.manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("train", "lr_decay", 0), ("train", "lr_decay_every", 0),
        ("da", "lr0", 0), ("da", "lr_decay", -1.0), ("da", "lr_decay_every", 0),
    ])
    def test_bad_lr_schedule_is_usage_error(self, tmp_path, capsys, section, key, value):
        cfg = write_config(tmp_path / "c.json", {section: {key: value},
                                                 "paths": {"run_dir": str(tmp_path / "run")}})
        assert main(["train", "--config", cfg]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"section '{section}'" in err and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("subcommand,section", [
        ("train", "train"), ("train-da", "da")])
    @pytest.mark.parametrize("decay", [0.5, 2.0])
    def test_schedule_leaving_positive_finite_is_usage_error(self, tmp_path, capsys,
                                                             subcommand, section, decay):
        # lr reaches 0.0 (decay 0.5) or overflows (decay 2.0) past epoch 1000
        cfg = write_config(tmp_path / "c.json", {
            section: {"epochs": 1100, "lr_decay_every": 1, "lr_decay": decay},
            "paths": {"run_dir": str(tmp_path / "run")}})
        assert main([subcommand, "--config", cfg]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"section '{section}'" in err and "learning rate at the last epoch" in err

    @pytest.mark.parametrize("section,key,value", [
        ("train", "eval_batch_size", 0), ("train", "eval_batch_size", -4),
        ("da", "eval_batch_size", 0), ("eval", "batch_size", 0), ("eval", "batch_size", -4),
    ])
    def test_bad_eval_batch_size_is_usage_error(self, tmp_path, capsys, section, key,
                                                value):
        # these used to crash mid-run or score uninitialized predictions; the
        # train and da keys are gone, so they now fail as unknown keys
        cfg = write_config(tmp_path / "c.json", {section: {key: value},
                                                 "paths": {"run_dir": str(tmp_path / "run")}})
        assert main(["eval", "--config", cfg]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"section '{section}'" in err and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("section", ["train", "da"])
    def test_removed_eval_batch_size_keys_rejected(self, tmp_path, capsys, section):
        # validation runs at evaluate's default batch size; eval.batch_size is the one knob
        cfg = write_config(tmp_path / "c.json", {section: {"eval_batch_size": 64},
                                                 "paths": {"run_dir": str(tmp_path / "run")}})
        assert main(["train", "--config", cfg]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"section '{section}': unknown keys ['eval_batch_size']" in err
        assert "Traceback" not in err

    def test_removed_roi_stage_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"model": {"roi_stage": 2},
                                                 "paths": {"run_dir": str(tmp_path / "run")}})
        assert main(["train", "--config", cfg]) == EXIT_USAGE
        assert "roi_stage" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["num_classes", "in_channels"])
    def test_removed_model_width_keys_rejected(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path / "c.json", {"model": {key: 2},
                                                 "paths": {"run_dir": str(tmp_path / "run")}})
        assert main(["train", "--config", cfg]) == EXIT_USAGE
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["stage_strides", "stage_pads"])
    def test_removed_stage_geometry_keys_rejected(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path / "c.json", {"model": {key: [2, 1, 2, 2]},
                                                 "paths": {"run_dir": str(tmp_path / "run")}})
        assert main(["train", "--config", cfg]) == EXIT_USAGE
        assert f"section 'model': unknown keys ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lam_is_usage_error(self, tmp_path, capsys, lam):
        cfg = write_config(tmp_path / "c.json", {"da": {"lam": lam},
                                                 "paths": {"run_dir": str(tmp_path / "run")}})
        assert main(["train-da", "--config", cfg]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "section 'da'" in err and "lam" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("section,key,value", [
        # the ROI output size is the stage-4 map's, so pooled is an unknown key
        ("model", "schemes", [{"kind": "SQ", "count": 4, "pooled": [7, 7]}]),
        # each used to end in a traceback, most only once training had started
        ("synth", "image_hw", [64]),
        ("synth", "seed", "x"),
        ("synth", "n_per_class", "3"),
        ("pipeline", "split_fractions", [float("nan"), 0.5, 0.5]),
        ("train", "epochs", 1.5),
        ("model", "d", 8.5),
        ("model", "local_widths", [8]),
        ("train", "early_stop_val_acc", "x"),
        ("paths", "run_dir", 5),
        # each used to load silently
        ("model", "schemes", [{"kind": "SQ", "count": 4, "bogus": 1}]),
        ("train", "early_stop_val_acc", float("nan")),
        ("synth", "jitter_px", 1.5),
        ("pipeline", "split_fractions", [0.5, 0.5]),
        ("synth", "seed", True),
        ("cam", "class_index", None),
        # used to exit 2 only after the manifest had loaded
        ("eval", "split", "bogus"),
        # each used to load, then end in numpy's "expected non-negative integer" traceback
        ("pipeline", "seed", -1),
        ("synth", "seed", -1),
        ("train", "seed", -1),
        ("da", "seed", -1),
        # lone surrogates: each used to end in a UnicodeEncodeError traceback at open or mkdir
        ("paths", "manifest", "\ud800.jsonl"),
        ("paths", "run_dir", "r\ud800"),
    ])
    def test_bad_value_fails_at_load(self, tmp_path, capsys, section, key, value):
        doc = {section: {key: value}}
        if section != "paths":
            doc["paths"] = {"run_dir": str(tmp_path / "run")}
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["eval", "--config", cfg]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"section '{section}': {key}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("sub,section,value,message", [
        # each used to exit 2: synth after writing every tile, cam after a
        # checkpoint load and a forward, train at the first batch
        ("synth", "pipeline", {"split_fractions": [0.5, 0.5, 0.5]},
         "split_fractions must be non-negative and sum to 1"),
        ("grid", "pipeline", {"cell_size_m": 0}, "cell_size_m must be positive"),
        ("grid", "pipeline", {"cell_size_m": -30.0}, "cell_size_m must be positive"),
        ("cam", "cam", {"class_index": 2}, "class_index must be 0 (safe) or 1 (dangerous)"),
        ("cam", "cam", {"class_index": -1}, "class_index must be 0 (safe) or 1 (dangerous)"),
        ("train", "model", {"schemes": [{"kind": "SQ"}, {"kind": "SQ"}]},
         "duplicate scheme kind SQ"),
    ])
    def test_checked_value_fails_at_load(self, tmp_path, capsys, sub, section, value,
                                         message):
        cfg = write_config(tmp_path / "c.json",
                           {section: value, "paths": {"run_dir": str(tmp_path / "run")}})
        assert main([sub, "--config", cfg]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"section '{section}': {message}" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("doc,message", [
        ([], "run config: expected a JSON object, got list"),
        ({"model": [1]}, "section 'model': expected a JSON object, got list"),
        ({"model": {"schemes": [{"count": 4}]}}, "section 'model': schemes[0]: missing keys"),
    ])
    def test_malformed_structure_is_usage_error(self, tmp_path, capsys, doc, message):
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["eval", "--config", cfg]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_deeply_nested_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert main(["synth", "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{cfg}: invalid JSON" in err and "Traceback" not in err

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json",
                           {"paths": {"run_dir": str(tmp_path / "run"),
                                      "accidents_csv": str(tmp_path / "no.csv")}})
        assert main(["ingest", "--config", cfg]) == EXIT_DATA
        assert "error" in capsys.readouterr().err


class TestPipeline:
    def test_ingest_grid_conservation(self, tmp_path):
        csv_path = tmp_path / "accidents.csv"
        csv_path.write_text(ACCIDENTS_CSV, encoding="utf-8")
        run = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           {"pipeline": {"cell_size_m": 50.0},
                            "paths": {"run_dir": str(run),
                                      "accidents_csv": str(csv_path)}})
        assert main(["ingest", "--config", cfg]) == EXIT_OK
        report = json.loads((run / "ingest_report.json").read_text())
        assert report == {"records": 3, "skipped": 0}
        assert main(["grid", "--config", cfg]) == EXIT_OK
        grid_report = json.loads((run / "grid_report.json").read_text())
        assert grid_report["total_score"] == grid_report["records"] == 3
        scores = (run / "scores.csv").read_text().splitlines()
        assert len(scores) == 1 + grid_report["columns"] * grid_report["rows"]
        assert_no_orphans(run)

    def test_huge_vehicle_count_reaches_records_jsonl(self, tmp_path):
        # 10**30 vehicles: well formed, non-negative and beyond int64
        csv_path = tmp_path / "accidents.csv"
        csv_path.write_text(ACCIDENTS_CSV.replace(",2,1\n", f",{10**30},1\n", 1),
                            encoding="utf-8")
        run = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           {"paths": {"run_dir": str(run), "accidents_csv": str(csv_path)}})
        assert main(["ingest", "--config", cfg]) == EXIT_OK
        first = (run / "records.jsonl").read_text(encoding="utf-8").splitlines()[0]
        assert f'"vehicles":{10**30}}}' in first
        assert json.loads(first)["vehicles"] == 10**30

    def test_label_matches_binning_oracle(self, tmp_path):
        scores = [0, 0, 1, 9, 10]
        scores_csv = tmp_path / "scores.csv"
        scores_csv.write_text("col,row,score\n" + "".join(
            f"{i},0,{s}\n" for i, s in enumerate(scores)), encoding="utf-8")
        run = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           {"paths": {"run_dir": str(run),
                                      "scores_csv": str(scores_csv)}})
        assert main(["label", "--config", cfg]) == EXIT_OK
        _, upper = kmeans2_best_split(scores)
        rows = (run / "labels.csv").read_text().splitlines()[1:]
        got = [int(line.split(",")[3]) for line in rows]
        assert got == [1 if s in upper else 0 for s in scores]
        assert got == [0, 0, 0, 1, 1]

    def test_balance_equalizes(self, tmp_path):
        from safemap.geo.manifest import DatasetManifest, ManifestEntry, save_manifest
        entries = [ManifestEntry(image=f"i{i}.ppm", label=int(i < 6),
                                 domain="source", cell=(i, 0), split="train")
                   for i in range(9)]
        m_path = tmp_path / "m.jsonl"
        save_manifest(m_path, DatasetManifest(seed=0, generator="t", entries=entries))
        run = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           {"paths": {"run_dir": str(run), "manifest": str(m_path)}})
        assert main(["balance", "--config", cfg]) == EXIT_OK
        report = json.loads((run / "balance_report.json").read_text())
        assert report["before"] == [3, 6]
        assert report["after"] == [3, 3]


MANIFEST_HEADER = b'{"generator":"t","kind":"safemap-manifest","seed":0,"version":1}\n'


GRID_JSON = (b'{"origin_lat":0,"origin_lon":0,"cell_size_m":30.0,"columns":2,"rows":1,'
             b'"ref_lat":0}')


class TestMalformedInputs:
    @pytest.mark.parametrize("sub,key,content", [
        ("map-export", "grid_json", b"{not json"),
        ("map-export", "grid_json", b"\xff\xfe{}"),
        ("map-export", "grid_json", b"[1, 2]"),
        pytest.param("map-export", "grid_json", b"[" * 100_000 + b"]" * 100_000,
                     id="map-export-grid_json-deeply-nested"),
        ("map-export", "grid_json", b'{"columns": 2, "rows": 1}'),
        ("map-export", "grid_json", b'{"origin_lat": 0, "origin_lon": 0, "cell_size_m": "x",'
                                    b' "columns": 2, "rows": 1, "ref_lat": 0}'),
        ("map-export", "grid_json", GRID_JSON.replace(b'"columns":2', b'"columns":true')),
        ("map-export", "grid_json", GRID_JSON.replace(b'"rows":1', b'"rows":1.0')),
        ("map-export", "grid_json", GRID_JSON.replace(b'"cell_size_m":30.0',
                                                      b'"cell_size_m":Infinity')),
        ("map-export", "grid_json", GRID_JSON.replace(b'"ref_lat":0', b'"ref_lat":0,"x":1')),
        ("balance", "manifest", b"[1, 2]\n"),
        ("balance", "manifest", MANIFEST_HEADER + b"5\n"),
        ("balance", "manifest", MANIFEST_HEADER + b'{"cell":[0,0],"domain":"source",'
                                b'"image":[1],"label":0,"split":"train"}\n'),
        ("balance", "manifest", MANIFEST_HEADER + b'{"cell":["a",0],"domain":"source",'
                                b'"image":"a.ppm","label":0,"split":"train"}\n'),
        ("balance", "manifest", MANIFEST_HEADER + b'{"cell":[0,0,0],"domain":"source",'
                                b'"image":"a.ppm","label":0,"split":"train"}\n'),
        ("balance", "manifest", MANIFEST_HEADER + b'{"cell":[0,0],"domain":"source",'
                                b'"image":"a.ppm","label":true,"split":"train"}\n'),
        ("balance", "manifest", MANIFEST_HEADER + b'{"cell":[0,0],"domain":"source",'
                                b'"image":"a.ppm","label":0,"pseudo":"no","split":"train"}\n'),
        ("balance", "manifest", b"\xff\xfe\n"),
        ("balance", "manifest", MANIFEST_HEADER.replace(b'"seed":0', b'"seed":"abc"')),
        # each used to end in a RecursionError traceback
        pytest.param("balance", "manifest", b"[" * 200_000 + b"]" * 200_000,
                     id="balance-manifest-deeply-nested-header"),
        pytest.param("balance", "manifest", MANIFEST_HEADER + b"[" * 200_000 + b"]" * 200_000,
                     id="balance-manifest-deeply-nested-entry"),
    ])
    def test_malformed_input_is_data_error(self, tmp_path, capsys, sub, key, content):
        bad = tmp_path / "input"
        bad.write_bytes(content)
        cfg = write_config(tmp_path / "c.json",
                           {"paths": {"run_dir": str(tmp_path / "run"), key: str(bad)}})
        assert main([sub, "--config", cfg]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "Traceback" not in err

    def test_lone_surrogate_image_is_data_error(self, tmp_path, capsys):
        # used to end in a UnicodeEncodeError traceback in read_ppm
        bad = tmp_path / "m.jsonl"
        bad.write_bytes(MANIFEST_HEADER + b'{"cell":[0,0],"domain":"source",'
                        b'"image":"\\ud800.ppm","label":0,"split":"train"}\n')
        cfg = write_config(tmp_path / "c.json", {
            "paths": {"run_dir": str(tmp_path / "run"), "manifest": str(bad),
                      "image_root": str(tmp_path)}})
        assert main(["train", "--config", cfg]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"safemap: error: {bad}:2: malformed entry")
        assert "image: expected UTF-8 text" in err and "Traceback" not in err

    def test_score_past_float_range_is_data_error(self, tmp_path, capsys):
        # used to end in an OverflowError traceback in kmeans_bin
        bad = tmp_path / "scores.csv"
        bad.write_text("col,row,score\n0,0,1\n1,0," + "9" * 400 + "\n", encoding="utf-8")
        cfg = write_config(tmp_path / "c.json",
                           {"paths": {"run_dir": str(tmp_path / "run"), "scores_csv": str(bad)}})
        assert main(["label", "--config", cfg]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("safemap: error: scores must fit in a float64")
        assert len(err.splitlines()) == 1

    def test_score_sums_past_float_range_are_data_error(self, tmp_path, capsys):
        # used to write Infinity and NaN centroids into label_report.json
        bad = tmp_path / "scores.csv"
        big = str(10**308)
        bad.write_text(f"col,row,score\n0,0,0\n1,0,{big}\n2,0,{big}\n3,0,5\n",
                       encoding="utf-8")
        cfg = write_config(tmp_path / "c.json",
                           {"paths": {"run_dir": str(tmp_path / "run"), "scores_csv": str(bad)}})
        assert main(["label", "--config", cfg]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("safemap: error: scores too large to cluster")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "run" / "label_report.json").exists()

    @pytest.mark.parametrize("sub,key,code", [
        ("synth", None, EXIT_USAGE),  # the run config itself
        ("label", "scores_csv", EXIT_DATA),
        ("ingest", "accidents_csv", EXIT_DATA),
        ("grid", "accidents_csv", EXIT_DATA),
    ])
    def test_non_utf8_text_input(self, tmp_path, capsys, sub, key, code):
        bad = tmp_path / "input"
        bad.write_bytes(b"\xff\xfecol,row,score\n")
        if key is None:
            cfg = str(bad)
        else:
            cfg = write_config(tmp_path / "c.json",
                               {"paths": {"run_dir": str(tmp_path / "run"), key: str(bad)}})
        assert main([sub, "--config", cfg]) == code
        err = capsys.readouterr().err
        assert f"{bad}: not UTF-8 text" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("sub,key,header", [
        ("ingest", "accidents_csv", ACCIDENTS_CSV.splitlines()[0]),
        ("grid", "accidents_csv", ACCIDENTS_CSV.splitlines()[0]),
        ("label", "scores_csv", "col,row,score"),
    ])
    def test_field_over_csv_limit_is_data_error(self, tmp_path, capsys, sub, key, header):
        bad = tmp_path / "input.csv"
        bad.write_text(f"{header}\n{'x' * (csv.field_size_limit() + 1)}\n", encoding="utf-8")
        cfg = write_config(tmp_path / "c.json",
                           {"paths": {"run_dir": str(tmp_path / "run"), key: str(bad)}})
        assert main([sub, "--config", cfg]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"safemap: error: {bad}: line 2: field larger than field limit "
            f"({csv.field_size_limit()})"]


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    """One synth dataset shared by the training-side CLI tests."""
    base = tmp_path_factory.mktemp("cli_synth")
    run = base / "run"
    cfg = write_config(base / "c.json",
                       {"synth": {"n_per_class": 12, "seed": 3},
                        "paths": {"run_dir": str(run)}})
    assert main(["synth", "--config", cfg]) == EXIT_OK
    return run / "synth"


class TestTraining:
    def train_config(self, base, run, synth_dir, seed=0):
        return write_config(base / f"train{seed}.json", {
            "model": SMALL_MODEL,
            "train": {"epochs": 2, "seed": seed},
            "paths": {"run_dir": str(run),
                      "manifest": str(synth_dir / "manifest.jsonl"),
                      "image_root": str(synth_dir)}})

    def test_synth_run_manifest_covers_images(self, synth_run):
        run = synth_run.parent
        declared = json.loads((run / "run_manifest.json").read_text())["files"]
        assert "synth/manifest.jsonl" in declared
        assert sum(1 for f in declared if f.endswith(".ppm")) == 24
        assert_no_orphans(run)

    def test_train_seed_determinism(self, synth_run, tmp_path, capsys):
        runs = []
        for name in ("a", "b"):
            run = tmp_path / name
            cfg = self.train_config(tmp_path, run, synth_run)
            assert main(["train", "--config", cfg, "--seed", "7"]) == EXIT_OK
            runs.append(run)
        capsys.readouterr()  # drop progress lines
        a, b = runs
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "checkpoint.ckpt").read_bytes() == (b / "checkpoint.ckpt").read_bytes()
        resolved = json.loads((a / "config.resolved.json").read_text())
        assert resolved["train"]["seed"] == 7
        assert_no_orphans(a)

    def test_train_then_eval(self, synth_run, tmp_path, capsys):
        train_run = tmp_path / "t"
        cfg = self.train_config(tmp_path, train_run, synth_run)
        assert main(["train", "--config", cfg]) == EXIT_OK
        eval_run = tmp_path / "e"
        eval_cfg = write_config(tmp_path / "eval.json", {
            "model": SMALL_MODEL,
            "eval": {"split": "val"},
            "paths": {"run_dir": str(eval_run),
                      "manifest": str(synth_run / "manifest.jsonl"),
                      "image_root": str(synth_run),
                      "checkpoint": str(train_run / "checkpoint.ckpt")}})
        assert main(["eval", "--config", eval_cfg]) == EXIT_OK
        capsys.readouterr()
        report = json.loads((eval_run / "eval.json").read_text())
        assert report["split"] == "val"
        assert set(report) >= {"accuracy", "fpr", "precision", "recall", "f1",
                               "confusion", "loss", "count"}
        assert report["count"] == 4
        assert_no_orphans(eval_run)

    def test_mismatched_checkpoint_is_data_error(self, synth_run, tmp_path, capsys):
        train_run = tmp_path / "t"
        cfg = self.train_config(tmp_path, train_run, synth_run)
        assert main(["train", "--config", cfg]) == EXIT_OK
        cam_cfg = write_config(tmp_path / "cam.json", {
            # default model widths do not match the SMALL checkpoint
            "paths": {"run_dir": str(tmp_path / "c"),
                      "checkpoint": str(train_run / "checkpoint.ckpt"),
                      "image": str(synth_run / "source_00000.ppm")}})
        assert main(["cam", "--config", cam_cfg]) == EXIT_DATA
        assert "shape mismatch" in capsys.readouterr().err

    def test_corrupt_checkpoint_metadata_is_data_error(self, synth_run, tmp_path, capsys):
        ckpt = tmp_path / "bad.ckpt"
        params = init_params(DamConfig.from_dict(SMALL_MODEL), seed=0)
        save_checkpoint(ckpt, params.all(), {"epoch": 1})
        blob = bytearray(ckpt.read_bytes())
        blob[16] ^= 0x01  # first byte of the metadata JSON
        ckpt.write_bytes(bytes(blob))
        eval_cfg = write_config(tmp_path / "eval.json", {
            "model": SMALL_MODEL,
            "paths": {"run_dir": str(tmp_path / "e"),
                      "manifest": str(synth_run / "manifest.jsonl"),
                      "image_root": str(synth_run),
                      "checkpoint": str(ckpt)}})
        assert main(["eval", "--config", eval_cfg]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "corrupt metadata" in err
        assert "Traceback" not in err

    def test_cam_writes_pgm(self, synth_run, tmp_path, capsys):
        train_run = tmp_path / "t"
        cfg = self.train_config(tmp_path, train_run, synth_run)
        assert main(["train", "--config", cfg]) == EXIT_OK
        cam_run = tmp_path / "c"
        cam_cfg = write_config(tmp_path / "cam.json", {
            "model": SMALL_MODEL,
            "paths": {"run_dir": str(cam_run),
                      "checkpoint": str(train_run / "checkpoint.ckpt"),
                      "image": str(synth_run / "source_00000.ppm")}})
        assert main(["cam", "--config", cam_cfg]) == EXIT_OK
        capsys.readouterr()
        assert (cam_run / "cam.pgm").read_bytes().startswith(b"P5\n64 64\n255\n")
        assert_no_orphans(cam_run)

    def test_adaptation_stays_finite_on_the_default_model(self, tmp_path, capsys):
        """The default da_mode model, trained on the inputs where the unscaled
        alignment term diverged: source and target synth at seeds 12 and 13
        (34 and 64 tiles per class, jitter 4, splits 0.35/0.15/0.5), 2 source
        epochs, then 3 train-da epochs at lam 0.01 and at the default lam."""
        def run(sub, name, doc):
            doc = dict(doc, paths=dict(doc["paths"], run_dir=str(tmp_path / name)))
            code = main([sub, "--config", write_config(tmp_path / f"{name}.json", doc)])
            assert code == EXIT_OK, capsys.readouterr().err
            return tmp_path / name

        def synth(name, per_class, style, seed):
            return run("synth", name, {
                "synth": {"n_per_class": per_class, "image_hw": [64, 64], "jitter_px": 4,
                          "domain_style": style, "seed": seed},
                "pipeline": {"split_fractions": [0.35, 0.15, 0.5]}, "paths": {}}) / "synth"

        source, target = synth("source", 34, "source", 12), synth("target", 64, "target", 13)
        model = {"da_mode": True}
        source_paths = {"manifest": str(source / "manifest.jsonl"), "image_root": str(source)}
        train = run("train", "train", {"model": model, "train": {"epochs": 2},
                                       "paths": source_paths})
        pseudo = run("pseudo-label", "pseudo", {"model": model, "paths": {
            "target_manifest": str(target / "manifest.jsonl"),
            "target_image_root": str(target),
            "checkpoint": str(train / "checkpoint.ckpt")}})
        paths = dict(source_paths, target_manifest=str(pseudo / "manifest.pseudo.jsonl"),
                     target_image_root=str(target), val_manifest=str(target / "manifest.jsonl"),
                     checkpoint=str(train / "checkpoint.ckpt"))
        for name, da in (("da_small", {"epochs": 3, "lam": 0.01}), ("da_default", {"epochs": 3})):
            adapted = run("train-da", name, {"model": model, "da": da, "paths": paths})
            assert len((adapted / "metrics.csv").read_text().splitlines()) == 1 + 2 * 3

    def test_adaptation_chain(self, synth_run, tmp_path, capsys):
        """synth target -> train -> pseudo-label -> train-da -> eval -> map-export."""
        def run(sub, name, doc):
            run_dir = tmp_path / name
            doc = dict(doc, paths=dict(doc["paths"], run_dir=str(run_dir)))
            code = main([sub, "--config", write_config(tmp_path / f"{name}.json", doc)])
            assert code == EXIT_OK, capsys.readouterr().err
            assert_no_orphans(run_dir)
            return run_dir

        target = run("synth", "target", {
            "synth": {"n_per_class": 6, "seed": 4, "domain_style": "target"},
            "paths": {}}) / "synth"
        source_paths = {"manifest": str(synth_run / "manifest.jsonl"),
                        "image_root": str(synth_run)}
        train = run("train", "train", {"model": SMALL_DA_MODEL, "train": {"epochs": 1},
                                       "paths": source_paths})
        pseudo = run("pseudo-label", "pseudo", {"model": SMALL_DA_MODEL, "paths": {
            "target_manifest": str(target / "manifest.jsonl"),
            "target_image_root": str(target),
            "checkpoint": str(train / "checkpoint.ckpt")}})
        da_doc = {"model": SMALL_DA_MODEL,
                  "da": {"epochs": 2, "batch_size": 4, "lam": 0.1, "seed": 5},
                  "paths": dict(source_paths,
                                target_manifest=str(pseudo / "manifest.pseudo.jsonl"),
                                target_image_root=str(target),
                                val_manifest=str(target / "manifest.jsonl"),
                                checkpoint=str(train / "checkpoint.ckpt"))}
        adapted = run("train-da", "da_a", da_doc)
        rerun = run("train-da", "da_b", da_doc)
        assert (adapted / "metrics.csv").read_bytes() == (rerun / "metrics.csv").read_bytes()
        assert len((adapted / "metrics.csv").read_text().splitlines()) == 1 + 2 * 2
        target_paths = {"manifest": str(target / "manifest.jsonl"),
                        "image_root": str(target),
                        "checkpoint": str(adapted / "checkpoint.ckpt")}
        evaluated = run("eval", "eval", {"model": SMALL_DA_MODEL, "paths": target_paths})
        assert json.loads((evaluated / "eval.json").read_text())["split"] == "test"

        # synth gives image i the cell (i, 0): one row of 12 cells
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(GridSpec(origin_lat=51.5, origin_lon=-0.12,
                                            cell_size_m=30.0, columns=12, rows=1,
                                            ref_lat=51.5).to_dict()))
        exported = run("map-export", "map", {
            "model": SMALL_DA_MODEL, "eval": {"batch_size": 5},
            "paths": dict(target_paths, grid_json=str(grid))})
        assert len((exported / "safety_map.csv").read_text().splitlines()) == 1 + 12
        assert sum(json.loads((exported / "map_report.json").read_text()).values()) == 12

        manifest = load_manifest(target / "manifest.jsonl")
        entries = list(manifest.entries)
        entries[3] = dataclasses.replace(entries[3], cell=entries[7].cell)
        dup = tmp_path / "dup.jsonl"
        save_manifest(dup, dataclasses.replace(manifest, entries=entries))
        dup_cfg = write_config(tmp_path / "dup.json", {
            "model": SMALL_DA_MODEL,
            "paths": dict(target_paths, grid_json=str(grid), manifest=str(dup),
                          run_dir=str(tmp_path / "dup"))})
        assert main(["map-export", "--config", dup_cfg]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"cell {entries[7].cell}" in err
        assert "Traceback" not in err
        assert_no_orphans(tmp_path / "dup")

    def test_cell_outside_grid_is_data_error(self, synth_run, tmp_path, capsys):
        ckpt = tmp_path / "init.ckpt"
        save_checkpoint(ckpt, init_params(DamConfig.from_dict(SMALL_MODEL), seed=0).all(),
                        {"epoch": 0})
        # synth gives image i the cell (i, 0): 24 cells, one past this 23x1 grid
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(GridSpec(origin_lat=51.5, origin_lon=-0.12,
                                            cell_size_m=30.0, columns=23, rows=1,
                                            ref_lat=51.5).to_dict()))
        cfg = write_config(tmp_path / "map.json", {
            "model": SMALL_MODEL,
            "paths": {"run_dir": str(tmp_path / "map"), "grid_json": str(grid),
                      "manifest": str(synth_run / "manifest.jsonl"),
                      "image_root": str(synth_run), "checkpoint": str(ckpt)}})
        assert main(["map-export", "--config", cfg]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "cell (23, 0) outside the 23x1 grid" in err
        assert "Traceback" not in err
        assert run_files(tmp_path / "map") == ["config.resolved.json", "run_manifest.json"]

    def test_safety_map_probabilities_are_evaluate_probabilities(self, synth_run, tmp_path,
                                                                 capsys):
        config = DamConfig.from_dict(SMALL_MODEL)
        params = init_params(config, seed=1)
        ckpt = tmp_path / "init.ckpt"
        save_checkpoint(ckpt, params.all(), {"epoch": 0})
        # synth gives image i the cell (i, 0): one row of 24 cells
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(GridSpec(origin_lat=51.5, origin_lon=-0.12,
                                            cell_size_m=30.0, columns=24, rows=1,
                                            ref_lat=51.5).to_dict()))
        cfg = write_config(tmp_path / "map.json", {
            "model": SMALL_MODEL, "eval": {"batch_size": 5},
            "paths": {"run_dir": str(tmp_path / "map"), "grid_json": str(grid),
                      "manifest": str(synth_run / "manifest.jsonl"),
                      "image_root": str(synth_run), "checkpoint": str(ckpt)}})
        assert main(["map-export", "--config", cfg]) == EXIT_OK
        dataset = load_split(load_manifest(synth_run / "manifest.jsonl"), synth_run)
        _, _, probs = evaluate(dataset, params, config, batch_size=5)
        with open(tmp_path / "map" / "safety_map.csv", encoding="utf-8", newline="") as f:
            rows = {(int(r["col"]), int(r["row"])): r for r in csv.DictReader(f)}
        for entry, p in zip(dataset.entries, probs):
            row = rows[entry.cell]
            assert float(row["prob_dangerous"]) == p[DANGEROUS]
            assert int(row["label"]) == p.argmax()

    def test_tile_of_another_size_is_data_error(self, synth_run, tmp_path, capsys):
        # each used to end in np.stack's "all input arrays must have the same shape"
        tiles = tmp_path / "tiles"
        shutil.copytree(synth_run, tiles)
        manifest = load_manifest(tiles / "manifest.jsonl")
        first, *_, odd = manifest.subset("test")
        write_ppm(tiles / odd.image, read_ppm(tiles / odd.image)[:60])
        ckpt = tmp_path / "init.ckpt"
        save_checkpoint(ckpt, init_params(DamConfig.from_dict(SMALL_MODEL), seed=0).all(),
                        {"epoch": 0})
        cfg = write_config(tmp_path / "eval.json", {
            "model": SMALL_MODEL,
            "paths": {"run_dir": str(tmp_path / "e"),
                      "manifest": str(tiles / "manifest.jsonl"),
                      "image_root": str(tiles), "checkpoint": str(ckpt)}})
        assert main(["eval", "--config", cfg]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.splitlines() == [f"safemap: error: tile {odd.image} is 60x64, but "
                                    f"{first.image} is 64x64"]

    def test_bad_val_split_is_data_error(self, synth_run, tmp_path, capsys):
        # a val split that fails to load fails the run; train must not go on without it
        tiles = tmp_path / "tiles"
        shutil.copytree(synth_run, tiles)
        first, *_, odd = load_manifest(tiles / "manifest.jsonl").subset("val")
        write_ppm(tiles / odd.image, read_ppm(tiles / odd.image)[:32, :32])
        run = tmp_path / "t"
        cfg = self.train_config(tmp_path, run, tiles)
        assert main(["train", "--config", cfg]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.splitlines() == [f"safemap: error: tile {odd.image} is 32x32, but "
                                    f"{first.image} is 64x64"]
        assert (run / "run_manifest.json").exists()
        assert_no_orphans(run)

    @pytest.mark.skipif(OVERCOMMIT_ALWAYS, reason="the kernel grants any allocation, "
                        "so an oversized run would be killed, not refused")
    @pytest.mark.parametrize("sub,section,doc", [
        # a [100000, 100000, 3, 3] float64 weight: 671 GiB
        ("train", "model", dict(SMALL_MODEL, stage_widths=[8, 16, 32, 100000])),
        # a 100000 x 100000 x 3 float64 tile: 224 GiB
        ("synth", "synth", {"n_per_class": 1, "image_hw": [100000, 100000]}),
    ])
    def test_allocation_past_ram_is_data_error(self, synth_run, tmp_path, capsys, sub,
                                               section, doc):
        # used to end in a MemoryError traceback
        run = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json", {
            section: doc,
            "paths": {"run_dir": str(run), "manifest": str(synth_run / "manifest.jsonl"),
                      "image_root": str(synth_run)}})
        assert main([sub, "--config", cfg]) == EXIT_DATA
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("safemap: error: Unable to allocate")
        assert_no_orphans(run)

    def test_failed_run_declares_no_missing_file(self, synth_run, tmp_path, capsys):
        # map-export asks for its output paths, then fails on a cell past the
        # 23x1 grid before writing them
        self.test_cell_outside_grid_is_data_error(synth_run, tmp_path, capsys)
        run = tmp_path / "map"
        declared = json.loads((run / "run_manifest.json").read_text())["files"]
        assert declared == ["config.resolved.json"]
        assert_no_orphans(run)


class _NormalSpy:
    """A numpy Generator that records every ``normal`` draw."""

    def __init__(self, rng, draws):
        self._rng, self._draws = rng, draws

    def __getattr__(self, name):
        if name == "normal":
            self._draws.append(name)
        return getattr(self._rng, name)


class TestLoadParams:
    def checkpoint(self, tmp_path, model):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, init_params(DamConfig.from_dict(model), seed=5).all())
        return ckpt

    def cam_config(self, tmp_path, ckpt):
        (tmp_path / "tile.ppm").write_bytes(b"P6\n64 64\n255\n" + bytes(64 * 64 * 3))
        return write_config(tmp_path / "cam.json", {
            "model": SMALL_MODEL,
            "paths": {"run_dir": str(tmp_path / "c"), "checkpoint": str(ckpt),
                      "image": str(tmp_path / "tile.ppm")}})

    def test_restore_into_model(self, tmp_path):
        ckpt = self.checkpoint(tmp_path, SMALL_MODEL)
        model = DamConfig.from_dict(SMALL_MODEL)
        params, _ = _load_params(RunConfig(model=model, paths=PathsSection(checkpoint=str(ckpt))))
        for got, want in zip(params.all(), init_params(model, seed=5).all()):
            assert got.name == want.name
            np.testing.assert_array_equal(got.data, want.data)
            assert got.data.dtype == np.float64 and got.data.flags.writeable

    def test_restore_rejects_name_mismatch(self, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, init_params(DamConfig.from_dict(SMALL_MODEL), seed=5).all()[:2])
        cfg = RunConfig(model=DamConfig.from_dict(SMALL_MODEL),
                        paths=PathsSection(checkpoint=str(ckpt)))
        with pytest.raises(CheckpointError, match="parameter set mismatch"):
            _load_params(cfg)

    @pytest.mark.parametrize("dims", [(2**32 - 1, 2**32 - 1), (2**30, 2**10)])
    def test_cam_on_lying_checkpoint_dims_exits_2(self, tmp_path, capsys, dims):
        ckpt = tmp_path / "lying.ckpt"
        name = b"stage1.down.weight"
        ckpt.write_bytes(MAGIC + struct.pack("<II", VERSION, 2) + b"{}" + struct.pack("<I", 1)
                         + struct.pack("<H", len(name)) + name + struct.pack("<B2I", 2, *dims)
                         + bytes(64))
        assert main(["cam", "--config", self.cam_config(tmp_path, ckpt)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == ("safemap: error: truncated checkpoint while reading values of "
                       "'stage1.down.weight'\n")

    def test_cam_on_non_finite_weights_exits_2(self, tmp_path, capsys):
        params = init_params(DamConfig.from_dict(SMALL_MODEL), seed=5)
        params["stage2.res1.weight"].data[0, 1, 2, 0] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        save_checkpoint(ckpt, params.all())
        assert main(["cam", "--config", self.cam_config(tmp_path, ckpt)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == (f"safemap: error: {ckpt}: parameter 'stage2.res1.weight' holds "
                       "non-finite values\n")

    def test_restores_checkpoint_without_drawing_weights(self, tmp_path, monkeypatch):
        ckpt = self.checkpoint(tmp_path, SMALL_MODEL)
        cfg = RunConfig(model=DamConfig.from_dict(SMALL_MODEL),
                        paths=PathsSection(checkpoint=str(ckpt)))
        draws = []
        real_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *a, **k: _NormalSpy(real_rng(*a, **k), draws))
        params, _ = _load_params(cfg)
        assert draws == []
        expected = init_params(cfg.model, seed=5)
        assert draws  # the spy sees the draws of a real initialization
        assert [p.name for p in params.all()] == [p.name for p in expected.all()]
        for got, want in zip(params.all(), expected.all()):
            assert got.data.tobytes() == want.data.tobytes()
            assert got.requires_grad and got.grad is None

    def test_restore_scans_each_weight_once(self, tmp_path, monkeypatch):
        # load_checkpoint rejects non-finite values by name; the leaves built
        # from its arrays must not scan all of them again
        ckpt = self.checkpoint(tmp_path, SMALL_MODEL)
        cfg = RunConfig(model=DamConfig.from_dict(SMALL_MODEL),
                        paths=PathsSection(checkpoint=str(ckpt)))
        scans, real = [], tensor_mod._check_finite
        monkeypatch.setattr(tensor_mod, "_check_finite",
                            lambda arr, op: scans.append(op) or real(arr, op))
        params, _ = _load_params(cfg)
        assert scans == []
        assert all(p.requires_grad and p.grad is None for p in params.all())
        parameter(np.zeros(2), name="control")
        assert scans == ["tensor construction"]  # the spy sees the constructor's scan

    @pytest.mark.parametrize("ckpt_model,model,message", [
        (SMALL_MODEL, SMALL_DA_MODEL, "parameter set mismatch: missing from file "
         "['da.reduce1.bias', 'da.reduce1.weight', 'da.reduce2.bias', 'da.reduce2.weight'], "
         "unexpected in file []"),
        (SMALL_DA_MODEL, SMALL_MODEL, "parameter set mismatch: missing from file [], "
         "unexpected in file ['da.reduce1.bias', 'da.reduce1.weight', 'da.reduce2.bias', "
         "'da.reduce2.weight']"),
        (SMALL_MODEL, dict(SMALL_MODEL, d=9), "shape mismatch for 'head.fc.weight': "
         "model (9, 16), file (8, 16)"),
    ])
    def test_mismatched_checkpoint_exits_2(self, tmp_path, capsys, ckpt_model, model,
                                           message):
        ckpt = self.checkpoint(tmp_path, ckpt_model)
        cfg = write_config(tmp_path / "cam.json", {
            "model": model,
            "paths": {"run_dir": str(tmp_path / "c"), "checkpoint": str(ckpt),
                      "image": str(tmp_path / "tile.ppm")}})
        (tmp_path / "tile.ppm").write_bytes(b"P6\n64 64\n255\n" + bytes(64 * 64 * 3))
        assert main(["cam", "--config", cfg]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"safemap: error: {message}\n" == err

    @pytest.mark.parametrize("size", [b"-1 -1", b"-2 3", b"99999999999 99999999999",
                                      b"100000 100000", b"0 5"])
    def test_cam_on_bad_pixmap_size_exits_2(self, tmp_path, capsys, size):
        cfg = write_config(tmp_path / "cam.json", {
            "model": SMALL_MODEL,
            "paths": {"run_dir": str(tmp_path / "c"),
                      "checkpoint": str(self.checkpoint(tmp_path, SMALL_MODEL)),
                      "image": str(tmp_path / "tile.ppm")}})
        (tmp_path / "tile.ppm").write_bytes(b"P6\n" + size + b"\n255\n" + bytes(8))
        assert main(["cam", "--config", cfg]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("safemap: error: ") and err.count("\n") == 1


# 16 MiB of float32: above glibc's default mmap threshold, so at glibc's defaults
# the free unmaps it and the second array faults in again (496 minor faults on a
# 2-vCPU Linux VM)
KEPT_HEAP_PROBE = """
import resource
import numpy as np
import safemap.cli
a = np.ones(1 << 22, np.float32)
del a
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
a = np.ones(1 << 22, np.float32)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_cli_process_keeps_freed_arrays():
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        pytest.skip("libc has no mallopt")
    src = str(Path(safemap.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", KEPT_HEAP_PROBE], env=env, check=True,
                         capture_output=True, text=True)
    assert int(out.stdout) < 64


def test_each_blas_thread_count_reproduces_its_own_checkpoint(tmp_path):
    """The bit-identity claim holds at one BLAS thread count, not across counts.

    OpenBLAS splits a GEMM's sums by thread, so a tiny default-model ``train``
    (8 tiles per class, one epoch, batch 4) is run twice at 1 thread and twice
    at 2, each in its own process.  Each count must reproduce its own
    checkpoint bytes.  Across counts the checkpoints can differ, and the epoch-0
    train loss agrees to 1e-5 relative, about 170 float32 roundings (the gap
    was 5.4e-8 relative on a 2-vCPU x86-64 VM).
    """
    synth = write_config(tmp_path / "s.json", {"synth": {"n_per_class": 8, "seed": 5},
                                               "paths": {"run_dir": str(tmp_path)}})
    assert main(["synth", "--config", synth]) == EXIT_OK
    src = str(Path(safemap.__file__).parents[1])
    ckpts, losses = {}, {}
    for threads in ("1", "2", "1", "2"):
        run = tmp_path / f"t{threads}_{len(ckpts.get(threads, []))}"
        cfg = write_config(tmp_path / "t.json", {
            "train": {"epochs": 1, "seed": 0},
            "paths": {"run_dir": str(run), "manifest": str(tmp_path / "synth/manifest.jsonl"),
                      "image_root": str(tmp_path / "synth")}})
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "safemap.cli", "train", "--config", cfg],
                       env=env, check=True, capture_output=True)
        ckpts.setdefault(threads, []).append((run / "checkpoint.ckpt").read_bytes())
        rows = load_metrics_csv(run / "metrics.csv")
        losses[threads] = next(r.loss for r in rows if r.epoch == 0 and r.split == "train")
    assert ckpts["1"][0] == ckpts["1"][1]
    assert ckpts["2"][0] == ckpts["2"][1]
    assert losses["1"] == pytest.approx(losses["2"], rel=1e-5)
