"""Outside-in timing spans: wrappers installed on module attributes.

A wrapper replaces the attribute a caller looks up, so a function imported
by name into another module is wrapped where it was imported.  Spans are
kept in memory with the index of their parent span; self time is a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index of the enclosing span, None at top level
    tag: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs timing wrappers from a table and records spans and counts.

    ``table`` lists ``(span name, call sites)``; a call site is a
    ``(module, attribute)`` pair below ``package``.  Every call site present
    is wrapped.  A span none of whose call sites exists is listed in
    ``absent`` with a warning, so code that moved does not stop a run.
    ``hooks`` maps a span name to ``hook(tracer, span, args, kwargs,
    result)``, called after the span has ended.
    """

    def __init__(self, table, hooks=None, package: str = "roadsurf",
                 clock=time.perf_counter):
        self.table = table
        self.hooks = hooks or {}
        self.package = package
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.captured: dict[str, list] = defaultdict(list)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.captured.clear()

    def install(self) -> None:
        self.absent = []
        for name, sites in self.table:
            found = False
            for module_name, attr in sites:
                try:
                    module = importlib.import_module(f"{self.package}.{module_name}")
                except ImportError:
                    continue
                func = getattr(module, attr, None)
                if not callable(func):
                    continue
                self._saved.append((module, attr, func))
                setattr(module, attr, self._wrap(name, func))
                found = True
            if not found:
                self.absent.append(name)
                warnings.warn(f"span {name}: no call site found, recorded as absent",
                              stacklevel=2)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, func = self._saved.pop()
            setattr(module, attr, func)

    def _wrap(self, name: str, func):
        hook = self.hooks.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = Span(name, self.clock(),
                        parent=self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if hook is not None:
                hook(self, span, args, kwargs, result)
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children[index]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out
