"""Every call site the benchmark's trace wraps is still a roadsurf callable.

``bench/layers.py`` names the functions it times as ``(module, attribute)``
pairs that its tracer patches at run time; a name the package no longer has
is only reported as an absent span, and its per-layer metrics read 0.  So a
simplification that deletes or renames a traced function would silently
blind a benchmark span.  The table is imported as it is, unchanged.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layers  # noqa: E402

# Spans whose functions were folded into fit.Objective.  They stay absent
# until the benchmark reads a run manifest instead of wrapping module
# attributes (ROADMAP direction 5); the set is exact, so no further span can
# go missing unnoticed.
KNOWN_ABSENT = {"fit.loss_road", "fit.loss_terrain", "fit.loss_reg"}


def test_every_traced_call_site_resolves_but_the_known_stale_spans():
    absent = set()
    for span, sites in layers.TRACED:
        for module, attribute in sites:
            target = getattr(importlib.import_module(f"roadsurf.{module}"), attribute, None)
            if not callable(target):
                absent.add(span)
    assert absent == KNOWN_ABSENT
