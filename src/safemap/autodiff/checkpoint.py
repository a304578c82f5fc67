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

Loading trusts no length in the file: the metadata, each name, each
parameter's value count (the product of its dims, taken in Python ints)
and the values themselves must fit in the bytes that are left, and every
value must be finite.  Anything else is a ``CheckpointError``, which names
the parameter when its values are at fault.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Optional, Sequence

import numpy as np

from ..fileio import atomic_open
from ..jsoncodec import dumps
from .tensor import Tensor, TensorError

MAGIC = b"SAFEMAPC"
VERSION = 1


class CheckpointError(TensorError):
    """Corrupt, truncated, or incompatible checkpoint file."""


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
    meta_bytes = dumps(meta if meta is not None else {}).encode("utf-8")
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


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; returns (name -> float64 array, metadata dict).

    The file after the magic is read in one call and parsed in memory.
    Every length is checked against the bytes left before it is used, so a
    header that claims more than the file holds is a ``CheckpointError``
    before anything of the claimed size is allocated.  Each array is an
    owned, writable copy.
    """
    with open(path, "rb", buffering=0) as f:  # unbuffered: the rest is one read
        magic = f.read(len(MAGIC))
        if len(magic) != len(MAGIC):
            raise CheckpointError("truncated checkpoint while reading magic")
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a parameter checkpoint (bad magic)")
        buf = f.read()
    pos = 0

    def take(n: int, what: str) -> int:
        """Claim the next ``n`` bytes; returns their offset."""
        nonlocal pos
        if n > len(buf) - pos:
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        pos += n
        return pos - n

    def u32(what: str) -> int:
        return struct.unpack_from("<I", buf, take(4, what))[0]

    version = u32("version")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    meta_len = u32("metadata length")
    at = take(meta_len, "metadata")
    try:
        meta = json.loads(buf[at:pos].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise CheckpointError(f"{path}: corrupt metadata: {e}") from e
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: metadata must be a JSON object, "
                              f"got {type(meta).__name__}")
    count = u32("parameter count")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", buf, take(2, "name length"))
        at = take(name_len, "name")
        try:
            name = buf[at:pos].decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{path}: parameter name is not UTF-8: {e}") from e
        if name in out:
            raise CheckpointError(f"{path}: duplicate parameter {name!r}")
        ndim = buf[take(1, "ndim")]
        shape = struct.unpack_from(f"<{ndim}I", buf, take(4 * ndim, "dims"))
        k = math.prod(shape)  # a Python int: a lying header cannot overflow it
        at = take(8 * k, f"values of {name!r}")
        arr = np.frombuffer(buf, dtype="<f8", count=k, offset=at).astype(np.float64)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: parameter {name!r} holds non-finite values")
        try:  # numpy caps the dims at 64 and the nominal size, empty arrays included
            out[name] = arr.reshape(shape)
        except ValueError as e:
            raise CheckpointError(f"{path}: parameter {name!r} has unusable shape: {e}") from e
    if pos != len(buf):
        raise CheckpointError(f"{path}: trailing bytes after last parameter")
    return out, meta
