"""Checkpoint container round-trips and format guarantees.

The fuzz tests cut a small valid checkpoint at every offset, flip and
insert bytes in its structure (everything but the values) and give it
random dims.  A load either returns finite float64 arrays or raises
``CheckpointError``; nothing else may escape.  Restoring into a model is
tested through ``cli._load_params`` in ``test_cli.py``.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from safemap.autodiff import (
    CheckpointError,
    load_checkpoint,
    parameter,
    save_checkpoint,
)
from safemap.autodiff.checkpoint import MAGIC, VERSION

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300,
                suppress_health_check=[HealthCheck.too_slow])


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


def blob(params, meta=b"{}"):
    """A checkpoint's bytes from (name, dims, value bytes) records, dims taken as given."""
    out = MAGIC + struct.pack("<II", VERSION, len(meta)) + meta + struct.pack("<I", len(params))
    for name, dims, values in params:
        out += struct.pack(f"<H{len(name)}sB{len(dims)}I", len(name), name, len(dims), *dims)
        out += values
    return out


def test_blob_matches_save_checkpoint(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, [parameter(np.arange(6.0).reshape(2, 3), name="w")], meta={})
    assert path.read_bytes() == blob([(b"w", (2, 3), np.arange(6.0).tobytes())])


@pytest.mark.parametrize("dims", [(2**32 - 1, 2**32 - 1), (2**30, 2**10)])
def test_lying_dims_raise_checkpoint_error(tmp_path, dims):
    # used to end in "read length must be non-negative" and in a MemoryError
    path = tmp_path / "m.ckpt"
    path.write_bytes(blob([(b"w", dims, bytes(64))]))
    with pytest.raises(CheckpointError, match="truncated checkpoint while reading values of 'w'"):
        load_checkpoint(path)


@pytest.mark.parametrize("dims", [(0, 2**30, 2**30), (1,) * 65])
def test_shapes_numpy_cannot_hold_raise_checkpoint_error(tmp_path, dims):
    path = tmp_path / "m.ckpt"
    path.write_bytes(blob([(b"w", dims, bytes(8 * math.prod(dims)))]))
    with pytest.raises(CheckpointError, match="parameter 'w' has unusable shape"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_rejected_naming_the_parameter(tmp_path, bad):
    values = np.ones(4)
    values[2] = bad
    path = tmp_path / "m.ckpt"
    path.write_bytes(blob([(b"ok", (1,), np.ones(1).tobytes()),
                           (b"conv.weight", (2, 2), values.tobytes())]))
    with pytest.raises(CheckpointError, match="parameter 'conv.weight' holds non-finite values"):
        load_checkpoint(path)


def test_loaded_arrays_are_owned_and_writable(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, make_params(), meta={})
    loaded, _ = load_checkpoint(path)
    for arr in loaded.values():
        assert arr.flags.writeable and arr.flags.c_contiguous
        assert arr.base is None or arr.base.flags.owndata


def small_checkpoint(tmp_path):
    path = tmp_path / "small.ckpt"
    params = [parameter(np.array([[1.5, -0.0], [2.0, 3.0]]), name="w"),
              parameter(np.array([7.0]), name="b")]
    save_checkpoint(path, params, meta={"k": [1]})
    return path.read_bytes()


def value_spans(clean):
    """[start, stop) of each parameter's values in a ``small_checkpoint`` file."""
    (meta_len,) = struct.unpack_from("<I", clean, 12)
    pos = 16 + meta_len
    (count,) = struct.unpack_from("<I", clean, pos)
    pos += 4
    spans = []
    for _ in range(count):
        (n,) = struct.unpack_from("<H", clean, pos)
        ndim = clean[pos + 2 + n]
        dims = struct.unpack_from(f"<{ndim}I", clean, pos + 3 + n)
        pos += 3 + n + 4 * ndim
        spans.append((pos, pos + 8 * math.prod(dims)))
        pos = spans[-1][1]
    return spans


def load_or_checkpoint_error(path):
    try:
        loaded, meta = load_checkpoint(path)
    except CheckpointError:
        return None
    assert isinstance(meta, dict)
    for arr in loaded.values():
        assert arr.dtype == np.float64 and np.isfinite(arr).all()
    return loaded


def test_truncation_at_every_offset_raises_checkpoint_error(tmp_path):
    clean = small_checkpoint(tmp_path)
    path = tmp_path / "cut.ckpt"
    for cut in range(len(clean)):
        path.write_bytes(clean[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ckpt")


@FUZZ
@given(data=st.data())
def test_structure_flips_and_insertions_raise_only_checkpoint_error(fuzz_dir, data):
    clean = small_checkpoint(fuzz_dir)
    spans = value_spans(clean)
    structure = [i for i in range(len(clean)) if not any(a <= i < b for a, b in spans)]
    mutated = bytearray(clean)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.sampled_from(structure))
        if data.draw(st.booleans()):
            mutated[at] ^= data.draw(st.integers(1, 255))
        else:
            mutated[at:at] = data.draw(st.binary(min_size=1, max_size=8))
    path = fuzz_dir / "mutated.ckpt"
    path.write_bytes(bytes(mutated))
    load_or_checkpoint_error(path)


@FUZZ
@given(dims=st.lists(st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1)), max_size=4),
       n_values=st.integers(0, 8))
def test_random_dims_load_only_when_they_match_the_values(fuzz_dir, dims, n_values):
    path = fuzz_dir / "dims.ckpt"
    path.write_bytes(blob([(b"w", dims, np.arange(float(n_values)).tobytes())]))
    loaded = load_or_checkpoint_error(path)
    if math.prod(dims) != n_values:
        assert loaded is None
    elif max(dims, default=0) <= 4:  # small enough for numpy's nominal size
        assert loaded is not None and loaded["w"].shape == tuple(dims)


@FUZZ
@given(arrays=st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=0, max_size=6),
    min_size=1, max_size=3))
def test_valid_files_round_trip_bit_equal(fuzz_dir, arrays):
    params = [parameter(np.array(a, dtype=np.float64), name=f"p{i}")
              for i, a in enumerate(arrays)]
    path = fuzz_dir / "valid.ckpt"
    save_checkpoint(path, params, meta={"n": len(params)})
    loaded, meta = load_checkpoint(path)
    assert meta == {"n": len(params)}
    assert list(loaded) == [p.name for p in params]
    for p in params:
        assert loaded[p.name].shape == p.data.shape
        assert loaded[p.name].tobytes() == p.data.tobytes()
