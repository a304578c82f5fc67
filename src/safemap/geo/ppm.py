"""Binary portable pixmap IO: P6 (RGB) and P5 (grayscale), 8-bit.

Writers emit a canonical header ("P6\\n{W} {H}\\n255\\n"), so equal arrays
produce byte-identical files.  The reader tolerates arbitrary whitespace
and '#' comments in the header, per the format family's grammar.
"""

from __future__ import annotations

import os

import numpy as np


class PpmError(Exception):
    """Malformed or unsupported pixmap file."""


def _write_pnm(path, image, magic: bytes, channels: int) -> None:
    arr = np.asarray(image)
    tail, layout = ((channels,), f"HxWx{channels}") if channels > 1 else ((), "HxW")
    if arr.ndim < 2 or arr.shape[2:] != tail:
        raise PpmError(f"{magic.decode()} needs an {layout} array, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        raise PpmError(f"{magic.decode()} writer needs uint8 data, got {arr.dtype}")
    h, w = arr.shape[:2]
    with open(path, "wb") as f:
        f.write(magic + f"\n{w} {h}\n255\n".encode("ascii"))
        f.write(arr.tobytes(order="C"))


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an HxWx3 uint8 array as binary P6."""
    _write_pnm(path, rgb, b"P6", 3)


def write_pgm(path, gray: np.ndarray) -> None:
    """Write an HxW uint8 array as binary P5."""
    _write_pnm(path, gray, b"P5", 1)


def _read_header_tokens(f, n: int) -> list[int]:
    """Read n whitespace-separated integer tokens, skipping # comments."""
    tokens: list[int] = []
    while len(tokens) < n:
        ch = f.read(1)
        if not ch:
            raise PpmError("truncated header")
        if ch in b" \t\r\n":
            continue
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        tok = ch
        while True:
            ch = f.read(1)
            if not ch or ch in b" \t\r\n":
                break
            tok += ch
        if not tok.isdigit():  # ASCII digits only: int() also takes "-1", "+3", "1_0"
            raise PpmError(f"bad header token {tok!r}")
        try:
            tokens.append(int(tok))
        except ValueError as e:  # more digits than int() converts
            raise PpmError(f"bad header token {tok!r}") from e
    return tokens


def _read_pnm(path, magic: bytes, channels: int) -> np.ndarray:
    with open(path, "rb") as f:
        if f.read(2) != magic:
            raise PpmError(f"{path}: not a {magic.decode()} file")
        w, h, maxval = _read_header_tokens(f, 3)
        if maxval != 255:
            raise PpmError(f"{path}: only 8-bit pixmaps supported, maxval={maxval}")
        if w < 1 or h < 1:
            raise PpmError(f"{path}: empty {w}x{h} image")
        size = w * h * channels  # read only what the file holds: no header sets the allocation
        raw = f.read(size) if size <= os.fstat(f.fileno()).st_size - f.tell() else b""
        if len(raw) != size:
            raise PpmError(f"{path}: truncated pixel data")
    arr = np.frombuffer(raw, dtype=np.uint8)
    return arr.reshape((h, w, channels) if channels > 1 else (h, w)).copy()


def read_ppm(path) -> np.ndarray:
    """Read binary P6 into an HxWx3 uint8 array."""
    return _read_pnm(path, b"P6", 3)


def read_pgm(path) -> np.ndarray:
    """Read binary P5 into an HxW uint8 array."""
    return _read_pnm(path, b"P5", 1)
