"""One JSON codec for the config dataclasses and ``grid.json``.

``from_json(cls, obj)`` builds a dataclass from parsed JSON and ``to_json``
turns one back into dicts, lists and scalars. The field annotations decide
what each key takes: an ``int`` no bool, a ``float`` only a finite number,
a ``str`` or ``bool`` only that type, an ``Optional`` also null, a fixed
``tuple`` a list of its length, a ``Literal`` one of its values; a nested
dataclass recurses, and unknown keys fail at every depth. A ValueError from
a dataclass's ``__post_init__`` comes out, like a mismatch, as a JsonError
naming the value's path. Ints in float fields stay ints, so ``to_json``
gives back the document a value came from.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from types import UnionType
from typing import Literal, Union, get_args, get_origin, get_type_hints


class JsonError(Exception):
    """A value that does not fit its field; ``path`` holds the keys and indices to it."""

    def __init__(self, path: tuple, reason: str):
        where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
        super().__init__(f"{where.lstrip('.')}: {reason}" if path else reason)
        self.path, self.reason = path, reason


@cache
def _field_types(cls) -> dict:
    """Field name -> (annotation, required); hints resolve once per class."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


def to_json(obj):
    """A dataclass instance as dicts, lists and scalars."""
    if is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in fields(obj)}
    return [to_json(v) for v in obj] if isinstance(obj, tuple) else obj


def from_json(cls, obj, path: tuple = ()):
    """Build dataclass ``cls`` from a parsed JSON value; raises only JsonError."""
    if not isinstance(obj, dict):
        raise JsonError(path, f"expected a JSON object, got {type(obj).__name__}")
    hints = _field_types(cls)
    unknown = [k for k in obj if k not in hints]
    if unknown:
        raise JsonError(path, f"unknown keys {unknown}")
    missing = [k for k, (_, required) in hints.items() if required and k not in obj]
    if missing:
        raise JsonError(path, f"missing keys {missing}")
    kwargs = {k: _decode(hints[k][0], v, path + (k,)) for k, v in obj.items()}
    try:
        return cls(**kwargs)
    except ValueError as e:  # the dataclass's own checks
        raise JsonError(path, str(e)) from e


def _decode(tp, value, path: tuple):
    if tp is float:  # NaN, infinities and ints too large for a float fail the bound
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
        want = "a finite number"
    elif tp in (int, str, bool):  # exactly that type, so a bool is not an int
        ok, want = type(value) is tp, tp.__name__
    elif (origin := get_origin(tp)) is Literal:
        ok = any(value == a and type(value) is type(a) for a in get_args(tp))
        want = f"one of {list(get_args(tp))}"
    elif origin is Union or origin is UnionType:  # Optional[X]
        return None if value is None else _decode(get_args(tp)[0], value, path)
    elif origin is tuple:
        args = get_args(tp)
        if not isinstance(value, (list, tuple)):
            raise JsonError(path, f"expected a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        if len(value) != len(args):
            raise JsonError(path, f"expected {len(args)} elements, got {len(value)}")
        return tuple(_decode(t, v, path + (i,)) for i, (t, v) in enumerate(zip(args, value)))
    else:
        return from_json(tp, value, path)
    if not ok:
        raise JsonError(path, f"expected {want}, got {value!r}")
    return value
