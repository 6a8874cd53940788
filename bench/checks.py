"""Output checks on one CLI invocation.  A failed check is counted, never raised."""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

LABEL_COLUMNS = ("method", "param", "value")


def read_artifacts(out_dir: Path, names) -> dict[str, bytes]:
    return {name: (out_dir / name).read_bytes()
            for name in names if (out_dir / name).is_file()}


def read_rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def find_row(rows, column: str, value: str) -> dict[str, str] | None:
    return next((row for row in rows if row.get(column) == value), None)


def _finite(rows, where: str) -> list[str]:
    problems = []
    for line, row in enumerate(rows, start=2):
        for key, text in row.items():
            if key in LABEL_COLUMNS:
                continue
            try:
                ok = math.isfinite(float(text))
            except (TypeError, ValueError):
                ok = False
            if not ok:
                problems.append(f"{where}:{line}: {key}={text!r} is not a finite number")
    return problems


def check_table(workload, rows) -> list[str]:
    where = workload.table
    if not rows:
        return [f"{where}: no rows"]
    problems = _finite(rows, where)
    if problems:
        return problems
    for row in rows:
        label = row.get("method") or row.get("value")
        for key in ("road_coverage", "terrain_coverage"):
            if float(row[key]) != 1.0:
                problems.append(f"{where}: {label} {key}={row[key]}, expected 1.0")
    if workload.quality_row and find_row(rows, *workload.quality_row) is None:
        problems.append(f"{where}: no row with {workload.quality_row[0]}="
                        f"{workload.quality_row[1]}")
    if workload.gate_nurbs_beats_rgt:
        nurbs, rgt = find_row(rows, "method", "nurbs"), find_row(rows, "method", "rgt")
        if nurbs is None or rgt is None:
            problems.append(f"{where}: nurbs and rgt rows are required")
        elif not float(nurbs["l2_road"]) < float(rgt["l2_road"]):
            problems.append(f"{where}: nurbs l2_road {nurbs['l2_road']} does not beat "
                            f"rgt l2_road {rgt['l2_road']}")
    return problems


def check_invocation(workload, rc, artifacts: dict[str, bytes],
                     reference: dict[str, bytes] | None) -> list[str]:
    """Problems with one invocation's exit code and artifacts.

    ``reference`` holds the artifacts of an earlier invocation on the same
    inputs; byte-stable artifacts must equal them.
    """
    problems = [] if rc == 0 else [f"exit code {rc!r}"]
    missing = [name for name in workload.artifacts if name not in artifacts]
    if missing:
        problems.append("missing artifacts: " + ", ".join(missing))
    if reference is not None:
        changed = [name for name in workload.artifacts
                   if name in artifacts and name in reference
                   and artifacts[name] != reference[name]]
        if changed:
            problems.append("artifacts differ from the reference invocation: "
                            + ", ".join(changed))
    if workload.table in artifacts:
        problems += check_table(workload, read_rows(artifacts[workload.table]))
    if "loss_trace.csv" in artifacts:
        problems += _finite(read_rows(artifacts["loss_trace.csv"]), "loss_trace.csv")
    return problems
