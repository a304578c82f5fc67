"""In-memory span recorder for the traced benchmark run.

A span carries a name, a start and an end time, the id of the span that
was open when it started (its parent) and a few attributes. Spans stay in
memory and are written out when the run ends.

Library functions are traced from outside: ``Tracer.patched`` replaces each
function at the module attribute its callers look it up by (for example
``safemap.model.training.forward``) and puts the original back on exit, so
no file of the program changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

# Tolerance for the nesting checks: span times come from one monotonic
# clock, so only the rounding of float differences can break them.
EPS = 1e-9


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "attrs": self.attrs}


@dataclass(frozen=True)
class Target:
    """One traced function: where callers look it up and what to record.

    ``attrs`` maps the call's arguments to span attributes; ``on_result``
    may add attributes from the return value.
    """

    module: str
    attr: str
    span: str
    attrs: Optional[Callable[..., dict]] = None
    on_result: Optional[Callable[[Span, object], None]] = None


class Tracer:
    """Records nested spans on one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        s = Span(id=len(self.spans), name=name, start=time.perf_counter(),
                 parent=self._stack[-1] if self._stack else None, attrs=attrs)
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = time.perf_counter()

    def wrap(self, fn: Callable, target: Target) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = target.attrs(*args, **kwargs) if target.attrs else {}
            with self.span(target.span, **attrs) as s:
                result = fn(*args, **kwargs)
                if target.on_result:
                    target.on_result(s, result)
            return result
        return traced

    @contextlib.contextmanager
    def patched(self, targets: Iterable[Target]):
        saved = []
        try:
            for t in targets:
                module = importlib.import_module(t.module)
                original = getattr(module, t.attr)
                saved.append((module, t.attr, original))
                setattr(module, t.attr, self.wrap(original, t))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children of one parent run one after another on one thread, so the
    time they cover is the sum of their durations.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child_time.get(s.id, 0.0) for s in spans}


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans that end before they start, stick out of their parent or have
    negative self time."""
    by_id = {s.id: s for s in spans}
    errors = []
    for s in spans:
        if s.end < s.start:
            errors.append(f"span {s.id} {s.name} ends before it starts")
        if s.parent is not None:
            p = by_id[s.parent]
            if s.start < p.start - EPS or s.end > p.end + EPS:
                errors.append(f"span {s.id} {s.name} lies outside parent {p.id} {p.name}")
    for sid, t in self_times(spans).items():
        if t < -EPS:
            errors.append(f"span {sid} {by_id[sid].name} has negative self time {t}")
    return errors
