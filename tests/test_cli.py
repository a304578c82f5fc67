"""CLI contract: subcommands, exit codes, run artifacts, determinism."""

import dataclasses
import json
import os

import pytest

from safemap.autodiff import save_checkpoint
from safemap.cli import COMMANDS, EXIT_DATA, EXIT_OK, EXIT_USAGE, build_parser, main
from safemap.geo.grid import GridSpec
from safemap.geo.manifest import load_manifest, save_manifest
from safemap.model.config import DamConfig
from safemap.model.network import init_params

from oracles import kmeans2_best_split

SMALL_MODEL = {"stage_widths": [4, 6, 8, 10], "local_widths": [6, 6], "d": 8,
               "schemes": [{"kind": "SQ", "count": 4, "pooled": [7, 7]}]}
SMALL_DA_MODEL = dict(SMALL_MODEL, da_mode=True, da_reduce_widths=[8, 6],
                      da_local_widths=[6, 6])

ACCIDENTS_CSV = """id,date,time,day_of_week,latitude,longitude,vehicles,casualties
A1,03/01/2019,08:30,4,51.5000,-0.1200,2,1
A2,04/01/2019,17:45,5,51.5001,-0.1201,1,1
A3,05/01/2019,12:00,6,51.5008,-0.1195,3,2
"""


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

    @pytest.mark.parametrize("section,key,value", [
        ("train", "eval_batch_size", 0), ("train", "eval_batch_size", -4),
        ("da", "eval_batch_size", 0), ("eval", "batch_size", 0), ("eval", "batch_size", -4),
    ])
    def test_bad_eval_batch_size_is_usage_error(self, tmp_path, capsys, section, key,
                                                value):
        # these used to crash mid-run or score uninitialized predictions
        cfg = write_config(tmp_path / "c.json", {section: {key: value},
                                                 "paths": {"run_dir": str(tmp_path / "run")}})
        assert main(["eval", "--config", cfg]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"section '{section}'" in err and key in err
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

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lam_is_usage_error(self, tmp_path, capsys, lam):
        cfg = write_config(tmp_path / "c.json", {"da": {"lam": lam},
                                                 "paths": {"run_dir": str(tmp_path / "run")}})
        assert main(["train-da", "--config", cfg]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "section 'da'" in err and "lam" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("section,key,value", [
        # each used to end in a traceback, most only once training had started
        ("model", "schemes", [{"kind": "SQ", "count": 4, "pooled": [7]}]),
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
        ("model", "schemes", [{"kind": "SQ", "count": 4, "pooled": [7, 7], "bogus": 1}]),
        ("train", "early_stop_val_acc", float("nan")),
        ("synth", "jitter_px", 1.5),
        ("pipeline", "split_fractions", [0.5, 0.5]),
        ("synth", "seed", True),
        ("cam", "class_index", None),
        # used to exit 2 only after the manifest had loaded
        ("eval", "split", "bogus"),
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

    def test_failed_run_declares_no_missing_file(self, synth_run, tmp_path, capsys):
        # map-export asks for its output paths, then fails on a cell past the
        # 23x1 grid before writing them
        self.test_cell_outside_grid_is_data_error(synth_run, tmp_path, capsys)
        run = tmp_path / "map"
        declared = json.loads((run / "run_manifest.json").read_text())["files"]
        assert declared == ["config.resolved.json"]
        assert_no_orphans(run)
