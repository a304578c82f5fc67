"""Checkpoint container round-trips and format guarantees."""

import numpy as np
import pytest

from safemap.autodiff import (
    CheckpointError,
    load_checkpoint,
    parameter,
    restore_params,
    save_checkpoint,
)


def make_params(seed=0):
    rng = np.random.default_rng(seed)
    return [
        parameter(rng.normal(size=(3, 2, 3, 3)), name="conv.weight"),
        parameter(rng.normal(size=3), name="conv.bias"),
        parameter(rng.normal(size=(4, 7)), name="fc.weight"),
        parameter(np.array(2.5), name="scalar"),
    ]


def test_roundtrip_exact(tmp_path):
    params = make_params()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, meta={"epoch": 3, "config": {"d": 64}})
    loaded, meta = load_checkpoint(path)
    assert meta == {"epoch": 3, "config": {"d": 64}}
    assert set(loaded) == {p.name for p in params}
    for p in params:
        np.testing.assert_array_equal(loaded[p.name], p.data)
        assert loaded[p.name].dtype == np.float64


def test_byte_identical_for_equal_state(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, make_params(1), meta={"seed": 1})
    save_checkpoint(b, make_params(1), meta={"seed": 1})
    assert a.read_bytes() == b.read_bytes()


def test_restore_into_model(tmp_path):
    src = make_params(2)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, src, meta={})
    dst = make_params(3)
    loaded, _ = load_checkpoint(path)
    restore_params(dst, loaded)
    for s, d in zip(src, dst):
        np.testing.assert_array_equal(s.data, d.data)


def test_restore_rejects_name_mismatch(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, make_params()[:2], meta={})
    loaded, _ = load_checkpoint(path)
    with pytest.raises(CheckpointError, match="mismatch"):
        restore_params(make_params(), loaded)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, make_params(), meta={"k": 1})
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_unnamed_parameter_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="name"):
        save_checkpoint(tmp_path / "x.ckpt", [parameter(np.ones(2))], meta={})


def test_duplicate_name_rejected(tmp_path):
    ps = [parameter(np.ones(1), name="w"), parameter(np.ones(1), name="w")]
    with pytest.raises(CheckpointError, match="duplicate"):
        save_checkpoint(tmp_path / "x.ckpt", ps, meta={})


META_AT = 16  # magic (8) + version (4) + metadata length (4)


def corrupt(path, offset, byte):
    blob = bytearray(path.read_bytes())
    blob[offset] = byte
    path.write_bytes(bytes(blob))


def test_corrupt_metadata_json_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, make_params(), meta={"k": 1})
    corrupt(path, META_AT, ord("x"))  # '{' -> 'x'
    with pytest.raises(CheckpointError, match="corrupt metadata"):
        load_checkpoint(path)


def test_non_utf8_metadata_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, make_params(), meta={"k": 1})
    corrupt(path, META_AT + 2, 0xFF)
    with pytest.raises(CheckpointError, match="corrupt metadata"):
        load_checkpoint(path)


def test_metadata_must_be_an_object(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, make_params(), meta={})
    corrupt(path, META_AT, ord("["))  # metadata '{}' becomes '[]', valid JSON
    corrupt(path, META_AT + 1, ord("]"))
    with pytest.raises(CheckpointError, match="JSON object"):
        load_checkpoint(path)
    with pytest.raises(CheckpointError, match="metadata must be a dict"):
        save_checkpoint(path, make_params(), meta=[1, 2])


def test_non_utf8_parameter_name_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, [parameter(np.ones(2), name="ab")], meta={})
    blob = path.read_bytes()
    corrupt(path, blob.index(b"\x02\x00ab") + 2, 0xFF)
    with pytest.raises(CheckpointError, match="not UTF-8"):
        load_checkpoint(path)


def test_any_flipped_metadata_byte_raises_only_checkpoint_error(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, make_params(), meta={"epoch": 3, "config": {"d": 64}})
    clean = path.read_bytes()
    meta_len = int.from_bytes(clean[12:16], "little")
    for offset in range(META_AT, META_AT + meta_len):
        for mask in (0x01, 0x20, 0x80):
            corrupt(path, offset, clean[offset] ^ mask)
            try:
                _, meta = load_checkpoint(path)
            except CheckpointError:
                pass
            else:
                assert isinstance(meta, dict)
            path.write_bytes(clean)
