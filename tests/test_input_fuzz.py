"""The manifest and ``scores.csv`` readers, fuzzed like the checkpoint.

A small valid file is cut at every offset, has bytes flipped, or has one
line or field replaced by deep nesting, an escaped lone surrogate, an
over-long integer or a value of the wrong type. A read either succeeds or
raises the reader's declared error; nothing else may escape. A manifest
that loads must name images ``open`` can take and must save, as
``safemap balance`` saves what it loads, and a valid one round-trips byte
for byte.
"""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from safemap.cli import _read_scores
from safemap.geo.labeling import LabelingError, kmeans_bin
from safemap.geo.manifest import (
    DOMAINS,
    SPLITS,
    DatasetManifest,
    ManifestEntry,
    ManifestError,
    load_manifest,
    save_manifest,
)

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200,
                suppress_health_check=[HealthCheck.too_slow])

CLEAN = {
    "manifest": b'{"generator":"synth-v10","kind":"safemap-manifest","seed":3,"version":1}\n'
                b'{"cell":[0,0],"domain":"source","image":"a.ppm","label":0,"split":"train"}\n'
                b'{"cell":[1,2],"domain":"target","image":"b.ppm","label":1,"pseudo":true,'
                b'"split":"val"}\n',
    "scores": b"col,row,score\n0,0,3\n1,0,0\n0,1,12\n",
}
NESTED = "[" * 200_000 + "]" * 200_000
LONG_INT = "1" + "0" * 5000  # past Python's 4300-digit limit for parsing an int
BAD_JSON_VALUES = {"nested": NESTED, "long_int": LONG_INT, "surrogate": '"\\ud800.ppm"',
                   "int": "1", "float": "1.5", "bool": "true", "null": "null", "str": '"x"',
                   "list": "[1]", "object": "{}", "cell": '[0,"a"]', "negative": "-1",
                   "overflow": "1e400"}
BAD_CSV_FIELDS = [NESTED, LONG_INT, "1" + "0" * 400, "-" + "9" * 400, "\ud800", "", " 7 ",
                  "1.5", "nan", "inf", '"', "\x00", "1,2"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("input_fuzz")


def read(kind, path):
    """Read ``path`` as ``safemap balance`` or ``safemap label`` would; None
    for the reader's declared error."""
    try:
        if kind == "scores":
            return kmeans_bin([score for _, _, score in _read_scores(path)])
        manifest = load_manifest(path)
        for entry in manifest.entries:
            os.fsencode(entry.image)  # what open() does to a path first
        save_manifest(path.with_name("resaved.jsonl"), manifest)
        return manifest
    except {"manifest": ManifestError, "scores": LabelingError}[kind]:
        return None


@pytest.mark.parametrize("kind", sorted(CLEAN))
def test_truncation_at_every_offset(tmp_path, kind):
    path = tmp_path / "cut"
    for cut in range(len(CLEAN[kind])):
        path.write_bytes(CLEAN[kind][:cut])
        got = read(kind, path)
        if kind == "manifest" and got is not None:  # cut at a line end
            path.write_bytes(CLEAN[kind])
            assert got.entries == read(kind, path).entries[:len(got.entries)]


@FUZZ
@pytest.mark.parametrize("kind", sorted(CLEAN))
@given(data=st.data())
def test_byte_flips_raise_only_the_declared_error(fuzz_dir, kind, data):
    mutated = bytearray(CLEAN[kind])
    for _ in range(data.draw(st.integers(1, 3))):
        mutated[data.draw(st.integers(0, len(mutated) - 1))] ^= data.draw(st.integers(1, 255))
    (fuzz_dir / "flipped").write_bytes(bytes(mutated))
    read(kind, fuzz_dir / "flipped")


@settings(FUZZ, max_examples=30)
@pytest.mark.parametrize("bad", sorted(BAD_JSON_VALUES))
@given(data=st.data())
def test_manifest_line_mutations_raise_only_manifest_error(fuzz_dir, bad, data):
    lines = CLEAN["manifest"].decode("utf-8").splitlines()
    at = data.draw(st.integers(0, len(lines) - 1))
    obj = json.loads(lines[at])
    key = data.draw(st.sampled_from([None] + sorted(obj)))  # None: the whole line
    value = BAD_JSON_VALUES[bad]
    lines[at] = value if key is None else json.dumps(dict(obj, **{key: None})).replace(
        f'"{key}": null', f'"{key}": {value}')
    (fuzz_dir / "line.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    read("manifest", fuzz_dir / "line.jsonl")


@FUZZ
@given(data=st.data())
def test_scores_field_mutations_raise_only_labeling_error(fuzz_dir, data):
    rows = [line.split(",") for line in CLEAN["scores"].decode("utf-8").splitlines()]
    rows[data.draw(st.integers(0, len(rows) - 1))][data.draw(st.integers(0, 2))] = (
        data.draw(st.sampled_from(BAD_CSV_FIELDS)))
    text = "\n".join(",".join(r) for r in rows) + "\n"
    (fuzz_dir / "field.csv").write_bytes(text.encode("utf-8", "surrogatepass"))
    read("scores", fuzz_dir / "field.csv")


ENTRIES = st.builds(
    ManifestEntry, image=st.text(min_size=1, max_size=12), label=st.sampled_from([0, 1]),
    domain=st.sampled_from(DOMAINS), cell=st.tuples(st.integers(), st.integers()),
    split=st.sampled_from(SPLITS), pseudo=st.booleans())


@FUZZ
@given(seed=st.integers(0, 2**64), generator=st.text(max_size=12),
       entries=st.lists(ENTRIES, max_size=5, unique_by=lambda e: e.image))
def test_valid_manifest_round_trips_byte_equal(fuzz_dir, seed, generator, entries):
    manifest = DatasetManifest(seed=seed, generator=generator, entries=entries)
    save_manifest(fuzz_dir / "valid.jsonl", manifest)
    assert read("manifest", fuzz_dir / "valid.jsonl") == manifest
    assert ((fuzz_dir / "resaved.jsonl").read_bytes()
            == (fuzz_dir / "valid.jsonl").read_bytes())
