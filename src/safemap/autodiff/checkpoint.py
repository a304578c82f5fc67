"""Versioned binary container for named parameter tensors.

Layout (all integers little-endian, format stable across releases):

    offset  size  field
    0       8     magic b"SAFEMAPC"
    8       4     u32 format version (currently 1)
    12      4     u32 byte length M of the metadata document
    16      M     canonical JSON metadata (sorted keys, no whitespace), UTF-8
    .       4     u32 parameter count P
    then P records, each:
            2     u16 byte length N of the parameter name
            N     name, UTF-8
            1     u8 ndim D
            4*D   u32 dims, row-major
            8*k   float64 little-endian values, row-major (k = prod(dims))

Metadata is an arbitrary JSON object; trainers embed their resolved config
so a checkpoint is self-describing.  Serialization is canonical, so equal
parameters and metadata produce byte-identical files.  The file is written
atomically: a failed save leaves the previous checkpoint as it was.
"""

from __future__ import annotations

import json
import struct
from typing import Optional, Sequence

import numpy as np

from ..fileio import atomic_open
from .tensor import Tensor, TensorError

MAGIC = b"SAFEMAPC"
VERSION = 1


class CheckpointError(TensorError):
    """Corrupt, truncated, or incompatible checkpoint file."""


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, params: Sequence[Tensor], meta: Optional[dict] = None) -> None:
    """Write named parameters plus a metadata document to ``path``."""
    names = set()
    for p in params:
        if not p.name:
            raise CheckpointError("every checkpointed parameter needs a name")
        if p.name in names:
            raise CheckpointError(f"duplicate parameter name {p.name!r}")
        names.add(p.name)
    if meta is not None and not isinstance(meta, dict):
        raise CheckpointError(f"metadata must be a dict, got {type(meta).__name__}")
    meta_bytes = _canonical_json(meta if meta is not None else {})
    with atomic_open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(meta_bytes)))
        f.write(meta_bytes)
        f.write(struct.pack("<I", len(params)))
        for p in params:
            name_b = p.name.encode("utf-8")
            if len(name_b) > 0xFFFF:
                raise CheckpointError(f"parameter name too long: {p.name!r}")
            f.write(struct.pack("<H", len(name_b)))
            f.write(name_b)
            arr = np.asarray(p.data, dtype=np.float64)
            if arr.ndim > 0xFF:
                raise CheckpointError(f"parameter {p.name!r} has too many dimensions")
            f.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<I", d))
            f.write(arr.astype("<f8", copy=False).tobytes(order="C"))


def _read_exact(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return buf


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; returns (name -> float64 array, metadata dict)."""
    with open(path, "rb") as f:
        if _read_exact(f, len(MAGIC), "magic") != MAGIC:
            raise CheckpointError(f"{path}: not a parameter checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        (meta_len,) = struct.unpack("<I", _read_exact(f, 4, "metadata length"))
        try:
            meta = json.loads(_read_exact(f, meta_len, "metadata").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
            raise CheckpointError(f"{path}: corrupt metadata: {e}") from e
        if not isinstance(meta, dict):
            raise CheckpointError(f"{path}: metadata must be a JSON object, "
                                  f"got {type(meta).__name__}")
        (count,) = struct.unpack("<I", _read_exact(f, 4, "parameter count"))
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(f, 2, "name length"))
            try:
                name = _read_exact(f, name_len, "name").decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointError(f"{path}: parameter name is not UTF-8: {e}") from e
            if name in out:
                raise CheckpointError(f"{path}: duplicate parameter {name!r}")
            (ndim,) = struct.unpack("<B", _read_exact(f, 1, "ndim"))
            shape = tuple(struct.unpack("<I", _read_exact(f, 4, "dim"))[0] for _ in range(ndim))
            k = int(np.prod(shape)) if shape else 1
            raw = _read_exact(f, 8 * k, f"values of {name!r}")
            out[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        if f.read(1):
            raise CheckpointError(f"{path}: trailing bytes after last parameter")
    return out, meta


def restore_params(params: Sequence[Tensor], loaded: dict[str, np.ndarray]) -> None:
    """Copy loaded values into an existing parameter set, matching by name."""
    by_name = {p.name: p for p in params}
    missing = sorted(set(by_name) - set(loaded))
    extra = sorted(set(loaded) - set(by_name))
    if missing or extra:
        raise CheckpointError(
            f"parameter set mismatch: missing from file {missing}, unexpected in file {extra}")
    for name, arr in loaded.items():
        p = by_name[name]
        if p.data.shape != arr.shape:
            raise CheckpointError(
                f"shape mismatch for {name!r}: model {p.data.shape}, file {arr.shape}")
        p.data[...] = arr
        p.grad = None
