"""One benchmark child process, started by run.py in a scratch directory.

``python3 child.py '<job json>'`` where the job names the workload, seed,
seconds, trace flag and mode.  Mode ``setup`` generates and saves the tile,
prints ``ready <json>`` with the input sizes and its speed probes, and
exits; run.py times it from process start to that line.  Mode ``measure`` runs the CLI in this process for the given
seconds and prints one JSON result line.

Untraced runs time every invocation with no wrapper installed and report
the median, which also absorbs the first invocation in a process: it runs
10-45 % slower than the ones after it, by a varying amount.  Traced runs
alternate untraced and traced invocations, so the tracing overhead is the
difference of their medians.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import layers
from workloads import OUT_DIR, SCENE_DIR, WORKLOADS

# median of at least this many timed invocations, however short the run
MIN_INVOCATIONS = 3

# Machine speed on a shared host drifts by up to 2x within seconds as other
# tenants' load comes and goes.  While a timed call runs, a SIGALRM handler
# runs a small fixed kernel every PROBE_INTERVAL_S and records how long it
# took.  The call's own time (wall minus the probes) is scaled to a host on
# which the kernel takes REFERENCE_PROBE_S, about what it takes on the
# 2-vCPU build host when it is quiet.
PROBE_INTERVAL_S = 0.2
REFERENCE_PROBE_S = 0.0028
_PROBE = np.random.default_rng(0)
_POINTS = _PROBE.random((300, 3))
_TRIANGLES = _PROBE.random((24, 3, 3))


def probe_kernel() -> float:
    """Seconds for a fixed mix of the program's kinds of work: per-point
    small-array numpy and scalar Python arithmetic."""
    start = time.perf_counter()
    acc = 0.0
    for p in _POINTS:
        acc += float(((_TRIANGLES[:, 0] - p) ** 2).sum(1).min())
    for k in range(8000):
        acc += (k % 7) * 0.5 / (k + 1.0)
    return time.perf_counter() - start


class SpeedProbe:
    """Runs probe_kernel every ``interval`` seconds while active."""

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(probe_kernel())

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.overhead = sum(self.samples)
        if not self.samples:  # shorter than one interval
            self.samples.append(probe_kernel())

    def scale(self, seconds: float) -> float:
        return scaled(seconds, self.overhead, statistics.fmean(self.samples))


def scaled(seconds: float, probe_overhead: float, probe_mean: float) -> float:
    """``seconds`` of wall time that included ``probe_overhead`` seconds of
    probes, less the probes, at the reference speed."""
    return (seconds - probe_overhead) * REFERENCE_PROBE_S / probe_mean


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(workload, seed: int):
    """Generate the seeded tile and save its layers under SCENE_DIR."""
    from roadsurf import synth
    scene = synth.generate(workload.scene_spec(seed))
    synth.save_scene(scene, SCENE_DIR)
    return scene


def input_sizes(scene) -> dict[str, int]:
    return {"cells": int(scene.dsm.width * scene.dsm.height),
            "mask_cells": scene.mask.count,
            "gt_road_points": scene.gt_road.count,
            "gt_terrain_points": scene.gt_terrain.count}


def invoke(argv: list[str], probe=contextlib.nullcontext()) -> tuple[object, float, str]:
    """One CLI call: (exit code or exception name, wall seconds, stderr)."""
    from roadsurf import cli
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), probe:
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed invocation; keep measuring
            rc = "exception"
            traceback.print_exc()
        wall = time.perf_counter() - start
    return rc, wall, err.getvalue()


def quality(workload, scene, tracer, artifacts) -> dict[str, float]:
    """Result quality of a traced invocation; 0 where the workload has none.

    ``fit_loss`` is the composite loss of the written surface, or of the last
    fitted surface when the workload writes none, under the filtered mask.
    """
    from roadsurf import fit as fitmod
    from roadsurf.nurbs import load_surface
    out = {"quality.fit_loss": 0.0, "quality.l2_road_m": 0.0,
           "quality.l2_terrain_m": 0.0, "quality.mad_road_deg": 0.0,
           "quality.mad_terrain_deg": 0.0}
    masks, surfaces = tracer.captured["mask_plus"], tracer.captured["surface"]
    if masks and surfaces:
        surface = (load_surface(Path(OUT_DIR) / "surface.txt")
                   if "surface.txt" in artifacts else surfaces[-1])
        out["quality.fit_loss"] = fitmod.total_loss(
            surface, scene.dsm, scene.dtm, masks[-1], fitmod.LossWeights())[0]
    if workload.quality_row and workload.table in artifacts:
        row = checks.find_row(checks.read_rows(artifacts[workload.table]),
                              *workload.quality_row)
        if row is not None:
            for column, name in (("l2_road", "l2_road_m"), ("l2_terrain", "l2_terrain_m"),
                                 ("mad_road", "mad_road_deg"),
                                 ("mad_terrain", "mad_terrain_deg")):
                out[f"quality.{name}"] = float(row[column])
    return out


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Invoke the CLI on the saved tile until ``seconds`` have passed.

    An untraced run expects the tile under SCENE_DIR already, so its memory
    peak, taken over the first invocation, covers the program only; later
    invocations would add heap fragmentation that depends on how many ran.
    A traced run generates the tile itself, inside synth spans, because it
    scores the filter against the scene's provenance.
    """
    rss_ready = _rss_mb()
    tracer = scene = None
    if trace:
        tracer = layers.make_tracer()
        tracer.install()
        try:
            scene = setup(workload, seed)
        finally:
            tracer.uninstall()
        setup_layers = {
            "synth.generate_s": sum(s.duration for s in tracer.spans
                                    if s.name == "synth.generate"),
            "synth.save_s": sum(s.duration for s in tracer.spans
                                if s.name == "synth.save_scene"),
        }
    argv = workload.argv()
    walls, traced_walls, per_invocation, failures = [], [], [], []
    probe, scaled_walls = SpeedProbe(), []
    reference = None
    start = time.perf_counter()
    while True:
        traced_now = trace and len(walls) > len(traced_walls)
        if traced_now:
            tracer.reset()
            tracer.install()
        try:
            rc, wall, err = invoke(argv, contextlib.nullcontext() if trace else probe)
        finally:
            if traced_now:
                tracer.uninstall()
        if not trace:
            scaled_walls.append(probe.scale(wall))
        if len(walls) + len(traced_walls) == 0:
            mem_peak_mb = _rss_mb() - rss_ready
        artifacts = checks.read_artifacts(Path(OUT_DIR), workload.artifacts)
        problems = checks.check_invocation(workload, rc, artifacts, reference)
        if reference is None and not problems:
            reference = artifacts
        if traced_now:
            traced_walls.append(wall)
            row = layers.invocation_metrics(tracer.spans, tracer.counts,
                                            tracer.captured, wall)
            if tracer.captured["mask_plus"]:
                row.update(layers.filter_scores(scene.mask.bits, scene.provenance.values,
                                                tracer.captured["mask_plus"][-1].bits))
            row.update(quality(workload, scene, tracer, artifacts))
            if per_invocation:
                moved = [n for n in layers.COUNTS if row[n] != per_invocation[0][n]]
                if moved:
                    problems.append("counts differ from the first traced invocation: "
                                    + ", ".join(moved))
            per_invocation.append(row)
        else:
            walls.append(wall)
        if problems:
            failures.append({"invocation": len(walls) + len(traced_walls),
                             "traced": traced_now, "problems": problems,
                             "stderr": err[-2000:]})
        elapsed = time.perf_counter() - start
        if trace:
            if elapsed >= seconds and traced_walls and len(walls) >= len(traced_walls):
                break
        elif elapsed >= seconds and len(walls) >= MIN_INVOCATIONS:
            break

    result = {"attempted": len(walls) + len(traced_walls), "failed": len(failures),
              "failures": failures, "walls": walls, "traced_walls": traced_walls}
    if trace:
        metrics = {name: statistics.median(row[name] for row in per_invocation)
                   for name in per_invocation[0]}
        metrics.update(setup_layers)
        metrics["trace_overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        result["layers"] = metrics
        result["absent_spans"] = tracer.absent
        result["inputs"] = input_sizes(scene)
    else:
        result["scaled_walls"] = scaled_walls
        result["mem_peak_mb"] = mem_peak_mb
    return result


def main() -> int:
    job = json.loads(sys.argv[1])
    workload = WORKLOADS[job["workload"]]
    if job["mode"] == "setup":
        # run.py times this process from its start to the ready line; the
        # probe scales that time, less the probes, to the reference speed
        with SpeedProbe(interval=0.05) as probe:
            import roadsurf.cli  # noqa: F401
            scene = setup(workload, job["seed"])
        print("ready " + json.dumps({"inputs": input_sizes(scene),
                                     "probe_overhead": probe.overhead,
                                     "probe_mean": statistics.fmean(probe.samples)}),
              flush=True)
        return 0
    result = measure(workload, job["seed"], job["seconds"], bool(job["trace"]))
    result["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
