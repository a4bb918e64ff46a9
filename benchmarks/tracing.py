"""Spans around the benchmark's calls into potts_af, kept in memory.

A span records the layer (the potts_af module called, or ``bench`` for the
benchmark's own per-item frame), the public function, start and end times,
the span that caused it and the pass it belongs to; spans of one pass share
that pass id.  Counts that the per-layer metrics divide by (states,
samples, points) are attached to the span of the call that did the work.

With tracing off, ``span`` hands out one shared no-op object, so the timed
untraced passes pay only a method call per public call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    layer: str
    name: str
    parent: int | None
    pass_id: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.layer}.{self.name}"

    @property
    def duration(self) -> float:
        return self.end - self.start

    def note(self, **attrs) -> None:
        self.attrs.update(attrs)


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def note(self, **attrs) -> None:
        pass


_NULL = _NullSpan()


class _OpenSpan:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        tr = self.tracer
        tr.stack.append(len(tr.spans))
        tr.spans.append(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self.span.end = time.perf_counter()
        self.tracer.stack.pop()
        if exc_type is not None:
            self.span.attrs["error"] = exc_type.__name__
        return False


class Tracer:
    """Collects spans when enabled; otherwise every span is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.pass_id = 0

    def span(self, layer: str, name: str, **attrs):
        if not self.enabled:
            return _NULL
        parent = self.stack[-1] if self.stack else None
        return _OpenSpan(self, Span(layer, name, parent, self.pass_id, attrs=dict(attrs)))


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.duration
    out: dict[str, float] = {}
    for sp, covered in zip(spans, child):
        out[sp.layer] = out.get(sp.layer, 0.0) + sp.duration - covered
    return out
