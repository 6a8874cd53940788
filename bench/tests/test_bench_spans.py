"""Span bookkeeping and self-time arithmetic of the benchmark's tracer."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Span, Tracer, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    spans = [Span("root", 0.0, 10.0),
             Span("a", 1.0, 4.0, parent=0),
             Span("b", 3.0, 6.0, parent=0),    # overlaps a: together they cover 1..6
             Span("a.x", 2.0, 3.5, parent=1),  # grandchild: counts against a only
             Span("c", 8.0, 12.0, parent=0)]   # clipped to the root's end
    assert self_times(spans) == pytest.approx([3.0, 1.5, 3.0, 1.5, 4.0])


def test_leaf_self_time_is_its_duration():
    assert self_times([Span("leaf", 2.0, 2.5)]) == [0.5]


@pytest.fixture
def fake_package(monkeypatch):
    package = types.ModuleType("fakepkg")
    package.__path__ = []
    inner = types.ModuleType("fakepkg.inner")
    inner.leaf = lambda x: x + 1
    inner.outer = lambda x: inner.leaf(x) * 2  # looks leaf up at call time
    monkeypatch.setitem(sys.modules, "fakepkg", package)
    monkeypatch.setitem(sys.modules, "fakepkg.inner", inner)
    return inner


def test_tracer_nests_spans_runs_hooks_and_restores(fake_package):
    ticks = iter(range(100))

    def on_leaf(tracer, span, args, kwargs, result):
        tracer.counts["leaf"] += result

    tracer = Tracer([("inner.outer", [("inner", "outer")]),
                     ("inner.leaf", [("inner", "leaf")])],
                    hooks={"inner.leaf": on_leaf}, package="fakepkg",
                    clock=lambda: float(next(ticks)))
    original = fake_package.outer
    tracer.install()
    try:
        assert fake_package.outer(1) == 4
    finally:
        tracer.uninstall()
    assert fake_package.outer is original
    outer, leaf = tracer.spans
    assert (outer.name, outer.parent, leaf.name, leaf.parent) == (
        "inner.outer", None, "inner.leaf", 0)
    assert (outer.start, leaf.start, leaf.end, outer.end) == (0.0, 1.0, 2.0, 3.0)
    assert self_times(tracer.spans) == [2.0, 1.0]
    assert tracer.counts["leaf"] == 2


def test_missing_call_site_is_recorded_as_absent(fake_package):
    tracer = Tracer([("inner.gone", [("inner", "gone"), ("nomodule", "gone")]),
                     ("inner.leaf", [("inner", "leaf")])], package="fakepkg")
    with pytest.warns(UserWarning, match="inner.gone"):
        tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["inner.gone"]
