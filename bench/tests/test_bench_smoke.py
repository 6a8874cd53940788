"""A tiny tile through the benchmark's child code, and the output checks
on deliberately broken artifacts."""

import dataclasses
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import child  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import RUN_ARTIFACTS, WORKLOADS  # noqa: E402

# 21 x 21 cells over the same 100 m scene: a run takes about a second
TINY = dataclasses.replace(WORKLOADS["tile100_run"], cell_size=5.0)


def test_tiny_tile_passes_every_output_check(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    child.setup(TINY, seed=3)
    untraced = child.measure(TINY, seed=3, seconds=0, trace=False)
    assert untraced["failures"] == []
    assert untraced["attempted"] == len(untraced["walls"]) == child.MIN_INVOCATIONS
    assert len(untraced["scaled_walls"]) == child.MIN_INVOCATIONS

    traced = child.measure(TINY, seed=3, seconds=0, trace=True)
    assert traced["failures"] == []
    assert len(traced["walls"]) == len(traced["traced_walls"]) == 1
    layer = traced["layers"]
    assert set(layer) == set(PER_LAYER)
    assert layer["metrics.covered_ratio"] == 1.0
    assert layer["mesh.triangles"] > 0 and layer["fit.iterations"] > 0
    assert 0 < layer["quality.l2_road_m"] < 0.1


def test_probe_scaling_removes_the_probes_and_normalises_speed():
    probe = child.SpeedProbe()
    probe.samples = [2 * child.REFERENCE_PROBE_S] * 4  # host at half speed
    probe.overhead = sum(probe.samples)
    assert probe.scale(1.0 + probe.overhead) == pytest.approx(0.5)


def test_probe_samples_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with child.SpeedProbe(interval=0.01) as probe:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert probe.samples and probe.overhead == sum(probe.samples)
    assert signal.getsignal(signal.SIGALRM) is before


def _run_artifacts(**overrides):
    rows = {"nurbs": "0.01,0.02,0.3,0.6,100,1.0,1.0",
            "plane": "0.7,1.1,0.0,0.0,2,1.0,1.0",
            "rgt": "0.06,0.08,3.5,4.0,200,1.0,1.0"}
    rows.update(overrides)
    table = "method,l2_road,l2_terrain,mad_road,mad_terrain,triangles," \
            "road_coverage,terrain_coverage\n"
    table += "".join(f"{name},{cells}\n" for name, cells in rows.items())
    artifacts = {name: b"x" for name in RUN_ARTIFACTS}
    artifacts["loss_trace.csv"] = b"iteration,total,road,terrain,reg\n0,1.0,0.5,0.25,0.25\n"
    artifacts["metrics.csv"] = table.encode()
    return artifacts


def test_checks_pass_good_outputs_and_flag_each_broken_one():
    workload = WORKLOADS["tile100_run"]
    good = _run_artifacts()
    assert checks.check_invocation(workload, 0, good, good) == []

    def problems(rc=0, artifacts=None):
        return " | ".join(checks.check_invocation(workload, rc, artifacts or good, good))

    assert "exit code 2" in problems(rc=2)
    assert "missing artifacts: mesh.obj" in problems(
        artifacts={k: v for k, v in good.items() if k != "mesh.obj"})
    assert "differ from the reference" in problems(artifacts={**good, "mesh.obj": b"y"})
    assert "not a finite number" in problems(
        artifacts=_run_artifacts(nurbs="nan,0.02,0.3,0.6,100,1.0,1.0"))
    assert "road_coverage=0.9" in problems(
        artifacts=_run_artifacts(nurbs="0.01,0.02,0.3,0.6,100,0.9,1.0"))
    assert "does not beat rgt" in problems(
        artifacts=_run_artifacts(nurbs="0.07,0.02,0.3,0.6,100,1.0,1.0"))
