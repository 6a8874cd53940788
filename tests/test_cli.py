"""The command line contract, exercised through ``main()``.

One small seeded tile (41 x 41 cells at 2.5 m) is generated by ``synth`` and
shared by the module.  Every subcommand is pinned by its exit code, the
set of artifacts it writes and the labels of its summary lines; failures by
their exit code and the ``stage <name>:`` or ``usage error:`` line on
stderr.
"""

import csv
import errno
import io
import os
import pickle
import re
import shutil
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import roadsurf
from roadsurf import cli
from roadsurf import fit as fitmod
from roadsurf import grid as gridmod
from roadsurf import mesh as meshmod
from roadsurf import metrics as metricsmod
from roadsurf import synth as synthmod
from roadsurf.cli import PipelineConfig, main
from roadsurf.filtering import FilterParams, run_filter
from roadsurf.fit import FitConfig, LossWeights
from roadsurf.mesh import SamplingConfig
from roadsurf.nurbs import load_surface, save_surface

LAYERS = ("dsm", "dtm", "mask", "gt_road", "gt_terrain")
FIT_FLAGS = ("--ctrl-spacing", "9.5", "--road-rate", "2.5")  # a 12 x 12 net on the 100 m tile
RUN_ARTIFACTS = {"mask_filtered.asc", "surface.txt", "loss_trace.csv", "mesh.obj",
                 "metrics.csv"}


def layer_flags(tile, layers):
    flags = []
    for name in layers:
        flags += ["--" + name.replace("_", "-"), str(tile / f"{name}.asc")]
    return flags


def invoke(out, command, *extra):
    """Run one subcommand into ``out``; returns (exit code, artifacts by name)."""
    rc = main([command, *extra, "--out-dir", str(out)])
    artifacts = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    return rc, artifacts


def rows(data):
    return list(csv.DictReader(io.StringIO(data.decode())))


def cells(row):
    return {key: value for key, value in row.items() if key not in ("method", "param", "value")}


@pytest.fixture(scope="module")
def tile(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scene = root / "scene.txt"
    scene.write_text("cell_size 2.5\n")
    rc = main(["synth", "--scene", str(scene), "--out", str(root / "tile"),
               "--vehicles", "2", "--trees", "2", "--facades", "1",
               "--corrupt-mask", "true", "--jitter-sigma", "0.02", "--seed", "3"])
    assert rc == 0
    assert {p.name for p in (root / "tile").iterdir()} == {
        f"{name}.asc" for name in LAYERS + ("provenance",)}
    return root / "tile"


@pytest.fixture(scope="module")
def run(tile, tmp_path_factory):
    """Artifacts of two identical ``run`` invocations."""
    root = tmp_path_factory.mktemp("run")
    results = [invoke(root / name, "run", *layer_flags(tile, LAYERS), *FIT_FLAGS)
               for name in ("a", "b")]
    assert [rc for rc, _ in results] == [0, 0]
    return [artifacts for _, artifacts in results]


def test_run_is_byte_stable_and_nurbs_beats_rgt(run):
    first, second = run
    assert set(first) == RUN_ARTIFACTS
    assert first == second
    by_method = {row["method"]: row for row in rows(first["metrics.csv"])}
    assert list(by_method) == ["nurbs", "plane", "rgt"]
    assert float(by_method["nurbs"]["l2_road"]) < float(by_method["rgt"]["l2_road"])


def test_fit_writes_what_run_writes(tile, run, tmp_path):
    rc, artifacts = invoke(tmp_path / "fit", "fit", *layer_flags(tile, LAYERS), *FIT_FLAGS)
    assert rc == 0
    assert set(artifacts) == {"surface.txt", "loss_trace.csv"}
    assert artifacts == {name: run[0][name] for name in artifacts}


def test_fit_reads_no_ground_truth(tile, run, tmp_path):
    missing = tmp_path / "missing.asc"
    rc, artifacts = invoke(tmp_path / "fit", "fit", *layer_flags(tile, ("dsm", "dtm", "mask")),
                           "--gt-road", str(missing), "--gt-terrain", str(missing),
                           *FIT_FLAGS)
    assert rc == 0
    assert artifacts == {name: run[0][name] for name in ("surface.txt", "loss_trace.csv")}


def test_fit_of_a_tile_narrower_than_the_net_is_byte_stable(tmp_path):
    # 21 x 21 cells under the default 35 x 35 net: 32 knot spans a side,
    # 11 of them without a raster column
    scene = tmp_path / "scene.txt"
    scene.write_text("cell_size 5.0\n")
    assert main(["synth", "--scene", str(scene), "--out", str(tmp_path / "tile"),
                 "--seed", "2"]) == 0
    assert gridmod.load_raster(tmp_path / "tile" / "dsm.asc").values.shape == (21, 21)
    results = [invoke(tmp_path / name, "fit", *layer_flags(tmp_path / "tile", LAYERS[:3]))
               for name in ("a", "b")]
    assert [rc for rc, _ in results] == [0, 0]
    assert set(results[0][1]) == {"surface.txt", "loss_trace.csv"}
    assert results[0][1] == results[1][1]


def test_filter_needs_no_dtm(tile, run, tmp_path):
    rc, artifacts = invoke(tmp_path / "filter", "filter",
                           *layer_flags(tile, ("dsm", "mask")))
    assert rc == 0
    assert artifacts == {"mask_filtered.asc": run[0]["mask_filtered.asc"]}


def test_filter_resamples_a_coarser_mask_onto_the_dsm_grid(tile, tmp_path):
    # the 2.5 m tile's mask over a 1 m DSM of the same scene: the edge
    # extents differ by 0.75 m, within half a mask cell, and the mask's
    # cells on the scene's vehicles and trees are filtered out
    dsm = synthmod.generate(synthmod.SceneSpec(
        cell_size=1.0, vehicles=2, trees=2, facades=1, corrupt_mask=True,
        jitter_sigma=0.02, seed=3)).dsm
    gridmod.write_lines(tmp_path / "dsm.asc", gridmod.save_raster(dsm))
    rc, artifacts = invoke(tmp_path / "filter", "filter", *layer_flags(tile, ("mask",)),
                           "--dsm", str(tmp_path / "dsm.asc"))
    assert (rc, set(artifacts)) == (0, {"mask_filtered.asc"})
    filtered = gridmod.load_mask(tmp_path / "filter" / "mask_filtered.asc")
    resampled = gridmod.resample_mask(gridmod.load_mask(tile / "mask.asc"), dsm)
    assert filtered.georef_equals(dsm) and (dsm.width, dsm.height) == (101, 101)
    _, expected = run_filter(dsm.subset(resampled.bits == 1), FilterParams())
    assert 0 < filtered.count < resampled.count
    np.testing.assert_array_equal(filtered.bits, expected.bits)


def test_disabled_filter_writes_the_input_mask(tile, tmp_path):
    rc, artifacts = invoke(tmp_path / "filter", "filter",
                           *layer_flags(tile, ("dsm", "mask")), "--filter-enabled", "false")
    assert rc == 0
    assert artifacts == {"mask_filtered.asc": (tile / "mask.asc").read_bytes()}


def test_mesh_needs_no_dtm(tile, run, tmp_path):
    surface = tmp_path / "surface.txt"
    surface.write_bytes(run[0]["surface.txt"])
    rc, artifacts = invoke(tmp_path / "mesh", "mesh", *layer_flags(tile, ("dsm", "mask")),
                           *FIT_FLAGS, "--surface", str(surface))
    assert rc == 0
    assert set(artifacts) == {"mesh.obj"}


def test_mesh_refuses_a_surface_whose_heights_overflow(tile, run, tmp_path, capsys):
    # every elevation finite but at the float limit: their basis sums
    # overflow, and no warning, no NaN vertex and no mesh.obj may come of it
    lines = run[0]["surface.txt"].decode().splitlines()
    lines = [f"cp {sys.float_info.max!r}" if line.startswith("cp ") else line
             for line in lines]
    path = tmp_path / "surface.txt"
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, artifacts = invoke(tmp_path / "mesh", "mesh", *layer_flags(tile, ("dsm", "mask")),
                               *FIT_FLAGS, "--surface", str(path))
    assert (rc, artifacts, caught) == (2, {}, [])
    assert capsys.readouterr().err == (
        "stage mesh: surface heights must be finite; the control elevations overflow\n")


def test_a_surface_file_of_the_weighted_format_is_refused_at_line_1(tile, run, tmp_path,
                                                                    capsys):
    # format 2 wrote two degrees and a weight on each cp line
    lines = run[0]["surface.txt"].decode().splitlines()
    assert lines[:2] == ["roadsurf-surface 3", "degree 3"]
    lines[:2] = ["roadsurf-surface 2", "degree 3 3"]
    lines = [line + " 1.0" if line.startswith("cp ") else line for line in lines]
    path = tmp_path / "surface.txt"
    path.write_text("\n".join(lines) + "\n")
    rc, artifacts = invoke(tmp_path / "mesh", "mesh", *layer_flags(tile, ("dsm", "mask")),
                           *FIT_FLAGS, "--surface", str(path))
    assert (rc, artifacts) == (2, {})
    assert capsys.readouterr().err == (
        f"stage mesh: {path}:1: not a surface file (expected 'roadsurf-surface 3')\n")


def test_eval_scores_the_run_mesh_like_run(tile, run, tmp_path, capsys):
    mesh = tmp_path / "mesh.obj"
    mesh.write_bytes(run[0]["mesh.obj"])
    rc, artifacts = invoke(tmp_path / "eval", "eval", *layer_flags(tile, LAYERS),
                           "--mesh", str(mesh), "--method", "nurbs")
    assert rc == 0
    assert set(artifacts) == {"metrics.csv"}
    (row,) = rows(artifacts["metrics.csv"])
    nurbs = rows(run[0]["metrics.csv"])[0]
    # same mesh and ground truth; smoothness differs because eval splits
    # triangles by the unfiltered mask
    for key in ("l2_road", "l2_terrain", "triangles", "road_coverage", "terrain_coverage"):
        assert row[key] == nurbs[key]
    # the summary line shows the CSV row's values to six significant digits
    assert capsys.readouterr().out.splitlines()[-2] == "nurbs: " + " ".join(
        f"{key}={float(value):.6g}" for key, value in cells(row).items())


# each subcommand's summary labels in the order printed, then its artifacts
SUMMARIES = {
    "filter": (["grid", "filter"], ["mask_filtered.asc"]),
    "fit": (["grid", "filter", "fit"], ["surface.txt", "loss_trace.csv"]),
    "mesh": (["grid", "surface", "mesh"], ["mesh.obj"]),
    "eval": (["grid", "truth", "mesh", "nurbs"], ["metrics.csv"]),
    "run": (["grid", "truth", "filter", "fit", "mesh", "nurbs", "plane", "rgt"],
            sorted(RUN_ARTIFACTS)),
    "ablate": (["grid", "truth", "filter", "fit", "road_rate=2.5", "road_rate=5"],
               ["ablate.csv"]),
}


@pytest.mark.parametrize("command", list(SUMMARIES))
def test_stdout_is_the_run_record_then_the_artifacts(tile, run, tmp_path, capsys, command):
    surface, mesh = tmp_path / "surface.txt", tmp_path / "mesh.obj"
    surface.write_bytes(run[0]["surface.txt"])
    mesh.write_bytes(run[0]["mesh.obj"])
    extra = {"mesh": ["--surface", str(surface)],
             "eval": ["--mesh", str(mesh), "--method", "nurbs"],
             "ablate": ["--param", "road_rate", "--values", "2.5,5"]}.get(command, [])
    rc, _ = invoke(tmp_path / "out", command, *layer_flags(tile, LAYERS), *FIT_FLAGS, *extra)
    assert rc == 0
    labels, artifacts = SUMMARIES[command]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ", 1)[0] for line in lines[:len(labels)]] == labels
    assert all(re.fullmatch(r"[^ ]+:( [a-z0-9_]+=[^ =]+)+", line) for line in lines[:len(labels)])
    assert lines[len(labels):] == [f"wrote {tmp_path / 'out' / name}" for name in artifacts]


def test_ablate_rows_equal_runs_without_baselines(tile, run, tmp_path):
    rc, artifacts = invoke(tmp_path / "ablate", "ablate", *layer_flags(tile, LAYERS),
                           *FIT_FLAGS, "--param", "sampling_rates",
                           "--values", "2.5/10,5/10")
    assert rc == 0
    assert set(artifacts) == {"ablate.csv"}
    table = rows(artifacts["ablate.csv"])
    assert [(row["param"], row["value"]) for row in table] == [
        ("sampling_rates", "2.5/10"), ("sampling_rates", "5/10")]
    assert cells(table[0]) == cells(rows(run[0]["metrics.csv"])[0])

    rc, coarse = invoke(tmp_path / "coarse", "run", *layer_flags(tile, LAYERS), *FIT_FLAGS,
                        "--road-rate", "5", "--baselines", "false")
    assert rc == 0
    (nurbs,) = rows(coarse["metrics.csv"])
    assert nurbs["method"] == "nurbs"
    assert cells(table[1]) == cells(nurbs)


def test_ablate_reruns_from_the_swept_stage(tile, run, tmp_path):
    rc, artifacts = invoke(tmp_path / "ablate", "ablate", *layer_flags(tile, LAYERS),
                           *FIT_FLAGS, "--param", "filter_enabled", "--values", "true,false")
    assert rc == 0
    enabled, disabled = rows(artifacts["ablate.csv"])
    assert cells(enabled) == cells(rows(run[0]["metrics.csv"])[0])

    rc, unfiltered = invoke(tmp_path / "unfiltered", "run", *layer_flags(tile, LAYERS),
                            *FIT_FLAGS, "--filter-enabled", "false", "--baselines", "false")
    assert rc == 0
    assert cells(disabled) == cells(rows(unfiltered["metrics.csv"])[0])
    assert cells(disabled) != cells(enabled)


def test_ablate_keeps_the_unregularized_fit_in_the_matrix(tile, run, tmp_path):
    # 0.5 is the default thin-plate weight; 0 fits the data terms alone
    rc, artifacts = invoke(tmp_path / "ablate", "ablate", *layer_flags(tile, LAYERS),
                           *FIT_FLAGS, "--param", "lambda_reg", "--values", "0.5,0")
    assert rc == 0
    default, unregularized = rows(artifacts["ablate.csv"])
    assert [(row["param"], row["value"]) for row in (default, unregularized)] == [
        ("lambda_reg", "0.5"), ("lambda_reg", "0")]
    assert cells(default) == cells(rows(run[0]["metrics.csv"])[0])
    assert cells(unregularized) != cells(default)


def test_ablate_sweeps_the_control_spacing_one_fit_a_row(tile, run, tmp_path, monkeypatch):
    # in order, so that this process makes every start surface: 3 m gives
    # the default 35 x 35 net on the 100 m tile, 6 m an 18 x 18 one
    monkeypatch.setattr(cli, "usable_cpus", lambda: 1)
    shapes, start = [], fitmod.initialize_surface

    def counted(*args):
        surface = start(*args)
        shapes.append(surface.control_z.shape)
        return surface

    monkeypatch.setattr(fitmod, "initialize_surface", counted)
    rc, artifacts = invoke(tmp_path / "ablate", "ablate", *layer_flags(tile, LAYERS),
                           *FIT_FLAGS, "--param", "ctrl_spacing", "--values", "3,6")
    assert rc == 0
    assert shapes == [(35, 35), (18, 18)]
    fine, coarse = rows(artifacts["ablate.csv"])
    assert [(row["param"], row["value"]) for row in (fine, coarse)] == [
        ("ctrl_spacing", "3"), ("ctrl_spacing", "6")]
    monkeypatch.undo()
    rc, single = invoke(tmp_path / "run", "run", *layer_flags(tile, LAYERS), *FIT_FLAGS,
                        "--ctrl-spacing", "6", "--baselines", "false")
    assert rc == 0
    assert cells(coarse) == cells(rows(single["metrics.csv"])[0])
    assert cells(fine) != cells(coarse)


@pytest.mark.parametrize("spacing", ["1e-300", "1e-320"])
def test_a_net_too_large_to_hold_fails_the_fit(tile, tmp_path, capsys, spacing):
    # more nodes than an array may hold, and more than an integer counts:
    # E / 1e-320 is infinite
    rc, artifacts = invoke(tmp_path / "out", "fit", *layer_flags(tile, LAYERS),
                           "--ctrl-spacing", spacing)
    assert (rc, artifacts) == (2, {})
    err = capsys.readouterr().err
    assert err.startswith("stage fit: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# independent rows: run's NURBS and baseline rows, ablate's value rows

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
# usable CPUs the row executor is shown: 1 runs the rows in order, 2 forks
ROW_PATHS = (1, 2) if hasattr(os, "fork") else (1,)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers forked during the test."""
    real_fork, started = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return started


def no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# argv, and the number of rows after the shared stages
ROWS = {
    "run": (["run"], 2),
    "ablate": (["ablate", "--param", "sampling_rates", "--values", "2.5/10,5/10,5/20,10/20"], 4),
    # every row warns that theta_xy is below the 3.54 m cell diagonal
    "ablate_warned": (["ablate", "--param", "theta_xy", "--values", "1,2,3,1"], 4),
}


@needs_fork
@pytest.mark.parametrize("case", list(ROWS))
def test_rows_print_and_write_the_same_forked_and_in_order(tile, tmp_path, capsys, monkeypatch,
                                                           forks, case):
    (command, *flags), rows = ROWS[case]
    out, results = tmp_path / "out", {}
    for usable in (1, 2, 3):
        monkeypatch.setattr(cli, "usable_cpus", lambda usable=usable: usable)
        forks.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            rc, artifacts = invoke(out, command, *layer_flags(tile, LAYERS), *FIT_FLAGS, *flags)
        results[usable] = (rc, capsys.readouterr(), artifacts,
                           [str(w.message).split(" ", 1)[0] for w in caught])
        # one worker per usable CPU but the caller's, and per row but the first
        assert len(forks) == min(usable, rows) - 1
        no_child_is_left()
        shutil.rmtree(out)
    assert results[1][0] == 0
    assert results[2] == results[1] == results[3]
    # in row order, and the repeated value's warning shown once, as the
    # default filter does in a single process
    assert results[1][3] == (["theta_xy=1.0", "theta_xy=2.0", "theta_xy=3.0"]
                             if case == "ablate_warned" else [])


def test_a_repeated_ablation_value_keeps_its_own_row(tile, tmp_path, capsys, monkeypatch):
    # rows are merged in row order, not keyed by their label: value 1's two
    # rows are two CSV rows and two entries, forked or in order
    (command, *flags), _ = ROWS["ablate_warned"]
    for usable in (1, 2, 3):
        monkeypatch.setattr(cli, "usable_cpus", lambda usable=usable: usable)
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("default")
            rc, artifacts = invoke(tmp_path / f"out{usable}", command,
                                   *layer_flags(tile, LAYERS), *FIT_FLAGS, *flags)
        assert rc == 0
        assert [row["value"] for row in rows(artifacts["ablate.csv"])] == ["1", "2", "3", "1"]
        assert [line.split(":", 1)[0] for line in capsys.readouterr().out.splitlines()
                if line.startswith("theta_xy=")] == [
            "theta_xy=1", "theta_xy=2", "theta_xy=3", "theta_xy=1"]
        no_child_is_left()


@pytest.mark.parametrize("fork", ["fails", "missing", "no_free_memory"])
def test_rows_run_in_order_without_a_worker(tile, run, tmp_path, monkeypatch, forks, fork):
    def no_process():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    if fork == "fails":
        monkeypatch.setattr(os, "fork", no_process)
    elif fork == "missing":  # as on Windows
        monkeypatch.delattr(os, "fork", raising=False)
    else:  # one free page: not enough for a copy of this process
        sysconf = os.sysconf
        monkeypatch.setattr(os, "sysconf",
                            lambda name: 1 if name == "SC_AVPHYS_PAGES" else sysconf(name))
    rc, artifacts = invoke(tmp_path / "run", "run", *layer_flags(tile, LAYERS), *FIT_FLAGS)
    assert (rc, artifacts, forks) == (0, run[0], [])


def test_a_failing_worker_row_fails_as_in_order(tile, tmp_path, capsys, monkeypatch, forks):
    # forked workers inherit the patches
    made, rgt_mesh, evaluate_all = [], meshmod.rgt_mesh, metricsmod.evaluate_all

    def tagged_rgt_mesh(dsm):
        made.append(rgt_mesh(dsm))
        return made[-1]

    def evaluate_all_but_rgt(mesh, *args):
        if any(mesh is rgt for rgt in made):
            raise ValueError("the rgt mesh cannot be scored")
        return evaluate_all(mesh, *args)

    monkeypatch.setattr(meshmod, "rgt_mesh", tagged_rgt_mesh)
    monkeypatch.setattr(metricsmod, "evaluate_all", evaluate_all_but_rgt)
    for usable in ROW_PATHS:
        monkeypatch.setattr(cli, "usable_cpus", lambda usable=usable: usable)
        forks.clear()
        rc, artifacts = invoke(tmp_path / f"out{usable}", "run", *layer_flags(tile, LAYERS),
                               *FIT_FLAGS)
        assert (rc, artifacts) == (2, {})
        assert capsys.readouterr().err == "stage metrics: the rgt mesh cannot be scored\n"
        assert len(forks) == usable - 1
        no_child_is_left()


@needs_fork
@pytest.mark.parametrize("fault", [ValueError("the fit diverged"), KeyboardInterrupt()])
def test_a_failing_caller_row_ends_its_worker(tile, tmp_path, capsys, monkeypatch, forks,
                                              time_limit, fault):
    def fail(*args, **kwargs):
        raise fault

    monkeypatch.setattr(fitmod, "fit", fail)
    # the worker's row would outlast the test's time limit
    monkeypatch.setattr(meshmod, "fit_plane", lambda points: time.sleep(60))
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    argv = ("run", *layer_flags(tile, LAYERS), *FIT_FLAGS)
    with time_limit(20, "the caller waited for a worker whose rows come after its failure"):
        if isinstance(fault, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                invoke(tmp_path / "out", *argv)
        else:
            assert invoke(tmp_path / "out", *argv) == (2, {})
            assert capsys.readouterr().err == "stage fit: the fit diverged\n"
    assert len(forks) == 1
    no_child_is_left()


@pytest.mark.parametrize("usable", ROW_PATHS)
def test_the_caller_formats_its_row_while_the_worker_runs(tile, run, tmp_path, monkeypatch,
                                                          forks, usable):
    # forked, the baseline row's worker is held back, so the NURBS row's
    # mesh.obj is rendered before the caller reads the worker's outcome; in
    # one lane nothing overlaps, so it is rendered after the baseline row
    order, export_mesh, load, fit_plane = [], meshmod.export_mesh, pickle.load, meshmod.fit_plane

    def plane(points):
        order.append("plane")
        time.sleep(1)
        return fit_plane(points)

    def render(*args):
        order.append("render")
        return export_mesh(*args)

    def read(pipe):
        order.append("read")
        return load(pipe)

    monkeypatch.setattr(meshmod, "fit_plane", plane)
    monkeypatch.setattr(meshmod, "export_mesh", render)
    monkeypatch.setattr(pickle, "load", read)
    monkeypatch.setattr(cli, "usable_cpus", lambda: usable)
    rc, artifacts = invoke(tmp_path / "out", "run", *layer_flags(tile, LAYERS), *FIT_FLAGS)
    expected = ["render", "read"] if usable == 2 else ["plane", "render"]
    assert (rc, artifacts, order, len(forks)) == (0, run[0], expected, usable - 1)
    no_child_is_left()


@needs_fork
def test_a_failing_worker_row_ends_the_workers_after_it(tile, tmp_path, capfd, monkeypatch,
                                                        forks, time_limit):
    build_tin = meshmod.build_tin

    def slow_at_road_rate_5(surface, mask, config):
        if config.road_rate == 5:
            time.sleep(60)
        return build_tin(surface, mask, config)

    # forked workers inherit the patch: row 1 fails in one worker while row 2
    # would outlast the test's time limit in the other
    monkeypatch.setattr(meshmod, "build_tin", slow_at_road_rate_5)
    monkeypatch.setattr(cli, "usable_cpus", lambda: 3)
    with time_limit(20, "the caller waited for a worker whose rows come after a failed row"):
        rc, artifacts = invoke(tmp_path / "out", "ablate", *layer_flags(tile, LAYERS), *FIT_FLAGS,
                               "--param", "sampling_rates", "--values", "2.5/10,200/400,5/10")
    assert (rc, artifacts) == (2, {})
    assert capfd.readouterr().err == "stage mesh: not enough samples to build a mesh\n"
    assert len(forks) == 2
    no_child_is_left()


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


class Unpicklable(TypeError):
    def __reduce__(self):
        raise TypeError("cannot pickle this fault")


def unpicklable_fault():
    raise Unpicklable("a fault that cannot reach the caller")


@needs_fork
@pytest.mark.parametrize("fault, how", [(kill_self, "killed by signal 9"),
                                        (unpicklable_fault, "exit status 1")])
def test_a_worker_that_ends_without_a_result_fails_its_row(tile, tmp_path, capfd, monkeypatch,
                                                           fault, how):
    monkeypatch.setattr(meshmod, "rgt_mesh", lambda dsm: fault())
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    rc, artifacts = invoke(tmp_path / "out", "run", *layer_flags(tile, LAYERS), *FIT_FLAGS)
    assert (rc, artifacts) == (2, {})
    trace, line = capfd.readouterr().err.rsplit("stage ", 1)
    assert line == f"mesh: worker ended without a result ({how})\n"
    # a result that does not pickle shows its traceback, written by the worker
    assert trace.endswith("TypeError: cannot pickle this fault\n") == (fault is unpicklable_fault)
    no_child_is_left()


# four rows of which only the last fails: 200 m between road samples leaves
# too few samples for a mesh
LAST_ROW_FAILS = ("--param", "sampling_rates", "--values", "2.5/10,5/10,5/20,200/400")


def test_a_lane_that_fails_on_its_second_row_fails_as_in_order(tile, tmp_path, capfd,
                                                               monkeypatch, forks):
    # at 2 usable CPUs the worker's second row (3) fails, at 3 the caller's (0, 3)
    for usable in (1, 2, 3) if hasattr(os, "fork") else (1,):
        monkeypatch.setattr(cli, "usable_cpus", lambda usable=usable: usable)
        forks.clear()
        rc, artifacts = invoke(tmp_path / f"out{usable}", "ablate", *layer_flags(tile, LAYERS),
                               *FIT_FLAGS, *LAST_ROW_FAILS)
        assert (rc, artifacts) == (2, {})
        assert capfd.readouterr().err == "stage mesh: not enough samples to build a mesh\n"
        assert len(forks) == min(usable, 4) - 1
        no_child_is_left()


@needs_fork
def test_a_worker_killed_on_its_second_row_fails_that_row(tile, tmp_path, capfd, monkeypatch,
                                                          forks):
    build_tin = meshmod.build_tin

    def killed_at_road_rate_200(surface, mask, config):
        if config.road_rate == 200:
            kill_self()
        if (config.road_rate, config.terrain_rate) == (5, 10):
            warnings.warn("row 1", UserWarning)
        return build_tin(surface, mask, config)

    monkeypatch.setattr(meshmod, "build_tin", killed_at_road_rate_200)
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, artifacts = invoke(tmp_path / "out", "ablate", *layer_flags(tile, LAYERS),
                               *FIT_FLAGS, *LAST_ROW_FAILS)
    assert (rc, artifacts) == (2, {})
    # what the worker sent for its first row reached the caller before the kill
    assert [str(w.message) for w in caught] == ["row 1"]
    assert capfd.readouterr().err == (
        "stage mesh: worker ended without a result (killed by signal 9)\n")
    assert len(forks) == 1
    no_child_is_left()


def test_a_fault_in_a_worker_row_is_raised_as_in_order(tile, tmp_path, capfd, monkeypatch):
    def crash(dsm):
        raise TypeError("a fault in the program")

    monkeypatch.setattr(meshmod, "rgt_mesh", crash)
    for usable in ROW_PATHS:
        monkeypatch.setattr(cli, "usable_cpus", lambda usable=usable: usable)
        with pytest.raises(TypeError, match="a fault in the program"):
            invoke(tmp_path / f"out{usable}", "run", *layer_flags(tile, LAYERS), *FIT_FLAGS)
        # forked, the worker writes where the fault was raised
        assert capfd.readouterr().err.endswith(
            "TypeError: a fault in the program\n" if usable > 1 else "")
        no_child_is_left()


def warns_then(call, text, category):
    """``call``, after a warning raised as if from the roadsurf line calling it."""
    def warned(*args, **kwargs):
        warnings.warn(text, category, stacklevel=2)
        return call(*args, **kwargs)
    return warned


@pytest.mark.parametrize("patch", [(fitmod, "fit"), (meshmod, "rgt_mesh")],
                         ids=["caller_row", "worker_row"])
def test_an_error_filter_fails_run_where_the_warning_is_raised(tile, tmp_path, capsys,
                                                               monkeypatch, patch):
    module, name = patch
    monkeypatch.setattr(module, name, warns_then(getattr(module, name), "overflow",
                                                  RuntimeWarning))
    for usable in ROW_PATHS:
        monkeypatch.setattr(cli, "usable_cpus", lambda usable=usable: usable)
        with warnings.catch_warnings():
            warnings.filterwarnings("error", category=RuntimeWarning, module="roadsurf")
            with pytest.raises(RuntimeWarning, match="overflow"):
                invoke(tmp_path / f"out{usable}", "run", *layer_flags(tile, LAYERS),
                       *FIT_FLAGS)
        no_child_is_left()


def warn_a(config, state):
    warnings.warn("a", UserWarning)


def warn_a_again(config, state):  # the same text from another line
    warnings.warn("a", UserWarning)


def warn_b(config, state):
    warnings.warn("b", UserWarning)


def warn_c(config, state):  # from no module: beyond the stack, warn names it "sys"
    warnings.warn("c", UserWarning, stacklevel=99)


WARNING_ROWS = [(None, (("fit", warn_a),)), (None, (("fit", warn_a_again), ("mesh", warn_b))),
                (None, (("fit", warn_a), ("mesh", warn_c))),
                (None, (("mesh", warn_b), ("mesh", warn_c), ("fit", warn_a)))]


# (action, module) filters, the last added first matched; "" matches any module
FILTERS = {action: [(action, "")] for action in
           ("default", "always", "once", "module", "ignore", "error")}
FILTERS["error_elsewhere"] = [("error", ""), ("always", __name__)]
FILTERS["ignore_here"] = [("always", ""), ("ignore", __name__)]


@pytest.mark.parametrize("filters", list(FILTERS))
def test_row_warnings_are_shown_as_one_process_shows_them(monkeypatch, filters):
    def shown(execute):
        with warnings.catch_warnings(record=True) as caught:
            for action, module in FILTERS[filters]:
                warnings.filterwarnings(action, module=module)
            try:  # b is raised before the rows too
                execute(cli.run_stages(None, SimpleNamespace(record=[], reports={}),
                                       (("grid", warn_b),)))
            except UserWarning as err:
                caught.append(f"raised {err}")
        return [w if isinstance(w, str) else (str(w.message), w.lineno) for w in caught]

    def in_turn(state):
        for config, stages in WARNING_ROWS:
            cli.run_stages(config, SimpleNamespace(**vars(state)), stages)

    expected = shown(in_turn)
    for usable in (1, 2, 3, 4) if hasattr(os, "fork") else (1,):
        monkeypatch.setattr(cli, "usable_cpus", lambda usable=usable: usable)
        assert shown(lambda state: cli.run_rows(state, WARNING_ROWS)) == expected
        no_child_is_left()


def test_fit_of_one_iteration_ends_on_max_iters(tile, tmp_path, capsys):
    rc, artifacts = invoke(tmp_path / "fit", "fit", *layer_flags(tile, ("dsm", "dtm", "mask")),
                           *FIT_FLAGS, "--max-iters", "1")
    assert rc == 0
    assert len(rows(artifacts["loss_trace.csv"])) == 1
    (line,) = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("fit: ")]
    entry = dict(item.split("=") for item in line.split()[1:])
    assert (entry["iterations"], entry["stop_reason"]) == ("1", "max_iters")


def test_control_net_finer_than_the_cells_is_a_fit_failure(tile, tmp_path, capsys):
    # 10,001 nodes an axis, whose difference matrices the fit would take
    # minutes to build, are refused before any is allocated
    rc, artifacts = invoke(tmp_path / "fit", "fit", *layer_flags(tile, ("dsm", "dtm", "mask")),
                           "--ctrl-spacing", "0.01")
    assert (rc, artifacts) == (2, {})
    assert capsys.readouterr().err == (
        "stage fit: ctrl_spacing 0.01 asks for 10001 control nodes on an axis of 41 cells; "
        "two knot spans a cell allow at most 83 at degree 3\n")


def test_default_fit_ends_on_the_plateau_after_six_drops(tile, tmp_path, capsys):
    rc, _ = invoke(tmp_path / "fit", "fit", *layer_flags(tile, ("dsm", "dtm", "mask")))
    assert rc == 0
    (line,) = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("fit: ")]
    entry = dict(item.split("=") for item in line.split()[1:])
    assert (entry["stop_reason"], entry["drops"]) == ("plateau", "6")
    assert int(entry["best_iteration"]) < int(entry["iterations"]) < 200
    # the default step 0.1 after six drops by 0.3, to six significant digits
    assert entry["final_step"] == "7.29e-05"
    assert float(entry["plateau_gain"]) >= 0.0


def test_ini_config_equals_flags(tile, tmp_path, capsys):
    config = tmp_path / "roadsurf.ini"
    config.write_text("\n".join([
        "[paths]",
        *(f"{name} = {tile / name}.asc" for name in ("dsm", "dtm", "mask")),
        f"out_dir = {tmp_path / 'unused'}",
        "[filter]", "enabled = yes", "theta_xy = 10.0  # metres",
        "[surface]", "ctrl_spacing = 9.5",
        "[fit]", "max_iters = 60",
        "[sampling]", "road_rate = 2.5",
        "[metrics]", "baselines = off",
    ]) + "\n")
    rc, artifacts = invoke(tmp_path / "fit", "fit", "--config", str(config))
    assert rc == 0
    # the same max_iters on both routes, short enough to end the fit before
    # its plateau, so the comparison also shows the [fit] key was read
    flags = invoke(tmp_path / "flags", "fit", *layer_flags(tile, ("dsm", "dtm", "mask")),
                   *FIT_FLAGS, "--max-iters", "60")
    assert flags[0] == 0 and artifacts == flags[1]
    assert len(rows(artifacts["loss_trace.csv"])) == 60
    assert not (tmp_path / "unused").exists()  # --out-dir overrides the file
    capsys.readouterr()
    for command in ("filter", "fit", "mesh", "eval", "run", "ablate"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out
        assert all(f"--{spec.name.replace('_', '-')} " in usage
                   for spec in fields(PipelineConfig))
        assert "--config CONFIG" in usage
        assert ("--filter-enabled FILTER_ENABLED\n" in usage
                and "overrides [filter] enabled\n" in usage)


def test_undecodable_config_is_a_usage_error(tile, tmp_path, capsys):
    config = tmp_path / "roadsurf.ini"
    config.write_bytes(b"[fit]\nmax_iters = 5\xff\n")
    rc, artifacts = invoke(tmp_path / "out", "fit", *layer_flags(tile, LAYERS),
                           "--config", str(config))
    assert (rc, artifacts) == (1, {})
    assert capsys.readouterr().err == (
        f"usage error: {config}:2: 'utf-8' codec can't decode byte 0xff in position 13: "
        "invalid start byte\n")


def test_unknown_ini_key_is_a_usage_error(tile, tmp_path, capsys):
    # the fit takes no weight step; ctrl_spacing and degree replace the
    # per-axis [surface] keys
    for section, key in (("filter", "theta_xyz"), ("fit", "weight_learning_rate"),
                         ("surface", "num_ctrl_u"), ("surface", "degree_v")):
        config = tmp_path / f"{section}.ini"
        config.write_text(f"[{section}]\n{key} = 0.1\n")
        rc, artifacts = invoke(tmp_path / "out", "fit",
                               *layer_flags(tile, ("dsm", "dtm", "mask")), "--config", str(config))
        assert (rc, artifacts) == (1, {})
        assert capsys.readouterr().err == (
            f"usage error: {config}: unknown config key [{section}] {key}\n")


@pytest.mark.parametrize("text, message", [
    ("[filter]\ntheta_xy = abc\n",
     "[filter] theta_xy: could not convert string to float: 'abc'\n"),
    ("theta_xy = 5\n", "File contains no section headers.\n"),  # configparser's own text
])
def test_ini_that_does_not_parse_is_a_usage_error(tile, tmp_path, capsys, text, message):
    config = tmp_path / "roadsurf.ini"
    config.write_text(text)
    rc, artifacts = invoke(tmp_path / "out", "filter", *layer_flags(tile, ("dsm", "mask")),
                           "--config", str(config))
    assert (rc, artifacts) == (1, {})
    assert capsys.readouterr().err.startswith(f"usage error: {config}: {message}")


FLAG_ERRORS = {("--ctrl-spacing", "0"): "ctrl_spacing must be positive, got 0.0",
               ("--ctrl-spacing", "-1"): "ctrl_spacing must be positive, got -1.0",
               ("--degree", "0"): "degree must be at least 1, got 0",
               ("--learning-rate", "0"): "learning_rate must be positive"}


@pytest.mark.parametrize("argv", [
    ["run", "--no-such-flag", "1"],
    ["filter", "--theta-xy", "abc"],
    ["fit", "--ctrl-spacing", "0"],
    ["filter", "--theta-xy", "nan"],
    ["filter", "--theta-xy", "inf"],
    ["filter", "--theta-z", "nan"],
    ["run", "--terrain-rate", "inf"],
    ["fit", "--learning-rate", "nan"],
    ["fit", "--lambda-reg", "nan"],
    ["fit", "--early-stop-min-delta", "nan"],
    ["fit", "--early-stop-min-delta", "-1"],
    ["fit", "--max-iters", "0"],
    ["fit", "--weight-learning-rate", "0.1"],
    ["ablate", "--param", "theta_xy", "--values", "inf"],
    ["synth", "--out", "unused", "--corrupt-mask", "2"],
    ["run", "--baselines", "maybe"],
    ["fit", "--degree", "0"],
    ["fit", "--ctrl-spacing", "-1"],
    ["fit", "--ctrl-spacing", "nan"],
    # the per-axis surface flags that ctrl_spacing and degree replace
    ["fit", "--num-ctrl-u", "12"],
    ["fit", "--degree-u", "3"],
    ["fit", "--learning-rate", "0"],
])
def test_bad_flags_are_usage_errors(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "_parse_bool" not in err
    if {"nan", "inf"} & set(argv):
        assert err.endswith(f" must be finite, got {argv[-1]}\n")
    if tuple(argv[1:]) in FLAG_ERRORS:
        assert err == f"usage error: {FLAG_ERRORS[tuple(argv[1:])]}\n"
    if argv[1] in ("--no-such-flag", "--weight-learning-rate", "--num-ctrl-u",
                   "--degree-u"):  # flags no parser knows
        assert err == f"usage error: unrecognized arguments: {' '.join(argv[1:])}\n"


def test_ablate_cannot_sweep_baselines(tile, tmp_path, capsys):
    # ablate never runs the baseline stages: every value would score the
    # same NURBS TIN
    rc, artifacts = invoke(tmp_path / "out", "ablate", *layer_flags(tile, LAYERS),
                           *FIT_FLAGS, "--param", "baselines", "--values", "0,1")
    assert (rc, artifacts) == (1, {})
    assert capsys.readouterr().err == (
        "usage error: ablate scores only the NURBS TIN, so it cannot sweep baselines\n")


@pytest.mark.parametrize("param", ["weight_learning_rate", "dsm"])
def test_unknown_ablation_parameter_is_a_usage_error(tile, tmp_path, capsys, param):
    # a key that no section has, and a [paths] key, which would swap the
    # inputs that the rows' scores compare
    rc, artifacts = invoke(tmp_path / "out", "ablate", *layer_flags(tile, LAYERS),
                           *FIT_FLAGS, "--param", param, "--values", "0,1")
    assert (rc, artifacts) == (1, {})
    assert capsys.readouterr().err == f"usage error: unknown ablation parameter {param!r}\n"


def test_config_that_cannot_be_read_is_a_usage_error(tile, tmp_path, capsys):
    for config in (tmp_path, tmp_path / "missing.ini"):  # a directory, an absent file
        rc, artifacts = invoke(tmp_path / "out", "filter", *layer_flags(tile, ("dsm", "mask")),
                               "--config", str(config))
        assert (rc, artifacts) == (1, {})
        assert capsys.readouterr().err == f"usage error: cannot read config file: {config}\n"


def test_pipeline_defaults_are_the_stage_defaults(tmp_path):
    # every field of a stage config class is a flag, an INI key in its
    # class's section and an ablate --param value, each of which takes the
    # class's default
    config = PipelineConfig()
    for cls, section in {FilterParams: "filter", LossWeights: "fit", FitConfig: "fit",
                         SamplingConfig: "sampling"}.items():
        assert isinstance(config, cls)
        for spec in fields(cls):
            default = getattr(cls(), spec.name)
            ini = tmp_path / f"{spec.name}.ini"
            ini.write_text(f"[{section}]\n{spec.name} = {default}\n")
            for argv in (["--" + spec.name.replace("_", "-"), str(default)],
                         ["--config", str(ini)]):
                args = cli.build_parser().parse_args(["fit", *argv])
                assert cli.build_config(args) == config
            assert cli._ablation_variant(config, spec.name, str(default)) == config
            assert getattr(config, spec.name) == default
    # the net: cubic, nodes at most 3 m apart, the same on both axes
    assert [key for section, key in cli._INI_KEYS if section == "surface"] == [
        "ctrl_spacing", "degree"]
    assert (config.ctrl_spacing, config.degree) == (3.0, 3)


def test_out_dir_that_is_a_file_fails_before_any_stage(tile, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(["filter", *layer_flags(tile, ("dsm", "mask")), "--out-dir", str(out)]) == 1
    out_text, err = capsys.readouterr()
    assert out_text == ""
    assert err.startswith("usage error: --out-dir: ") and str(out) in err
    assert out.read_text() == "not a directory\n"


def test_synth_out_that_is_a_file_fails_before_generating(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(["synth", "--out", str(out)]) == 1
    out_text, err = capsys.readouterr()
    assert out_text == ""
    assert err.startswith("usage error: --out: ") and str(out) in err
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("command, layers, flags, artifact", [
    ("filter", ("dsm", "mask"), [], "mask_filtered.asc"),
    ("ablate", LAYERS, [*FIT_FLAGS, "--param", "top_k", "--values", "1"], "ablate.csv"),
])
def test_artifact_that_cannot_be_written_is_a_usage_error(tile, tmp_path, capsys, command,
                                                          layers, flags, artifact):
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    argv = [command, *layer_flags(tile, layers), *flags, "--out-dir", str(out)]
    assert main(argv) == 1
    out_text, err = capsys.readouterr()
    assert out_text == ""
    assert err.startswith("usage error: --out-dir: ") and str(out / artifact) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, flags, message", [
    ("eval", ["--method", "my,mesh"], "--method: 'my,mesh'"),
    ("eval", ["--method", "my\rmesh"], "--method: 'my\\rmesh'"),
    ("ablate", ["--param", "top_k", "--values", "1\n,2"], "--values: '1\\n'"),
], ids=["method-comma", "method-return", "values-newline"])
def test_text_that_would_split_a_csv_row_is_a_usage_error(tile, run, tmp_path, capsys,
                                                         command, flags, message):
    # without the check, eval writes 9 cells under the 8 of the header, and
    # ablate a row split across two lines
    if command == "eval":
        mesh = tmp_path / "mesh.obj"
        mesh.write_bytes(run[0]["mesh.obj"])
        flags = ["--mesh", str(mesh), *flags]
    rc, artifacts = invoke(tmp_path / "out", command, *layer_flags(tile, LAYERS), *FIT_FLAGS,
                           *flags)
    assert (rc, artifacts) == (1, {})
    assert capsys.readouterr().err == (
        f"usage error: {message} holds a comma or a line break\n")


@pytest.mark.parametrize("argv, message", [
    (["fit", "--lambda-reg", "-1"], "loss weights must be non-negative"),
    (["fit", "--early-stop-patience", "0"], "early_stop_patience must be at least 1"),
])
def test_fit_settings_out_of_range_are_usage_errors(argv, message, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"


def record(out):
    """The run record printed to ``out``: {label: {key: value text}}."""
    return {line.split(": ", 1)[0]: dict(item.split("=") for item in line.split()[1:])
            for line in out.splitlines() if not line.startswith("wrote ")}


def dsm_with_road_holes(tile, tmp_path, step):
    """The tile's DSM with NODATA on every ``step``-th road cell of the mask,
    written beside the test, and its path, the raster and the holes."""
    mask = gridmod.load_mask(tile / "mask.asc")
    holes = np.zeros(mask.bits.shape, dtype=bool)
    holes.flat[np.flatnonzero(mask.bits)[::step]] = True
    dsm = gridmod.load_raster(tile / "dsm.asc").subset(~holes)
    path = tmp_path / "dsm_holes.asc"
    gridmod.write_lines(path, gridmod.save_raster(dsm))
    return path, dsm, mask, holes


@pytest.mark.parametrize("enabled", ["true", "false"])
def test_nodata_under_the_mask_is_no_road_point(tile, tmp_path, capsys, enabled):
    path, dsm, mask, holes = dsm_with_road_holes(tile, tmp_path, 7)
    rc, artifacts = invoke(tmp_path / "run", "run", "--dsm", str(path),
                           *layer_flags(tile, ("dtm", "mask")), *FIT_FLAGS,
                           "--filter-enabled", enabled)
    assert rc == 0
    entries = record(capsys.readouterr().out)
    points = mask.count - int(holes.sum())
    kept, removed = int(entries["filter"]["kept"]), int(entries["filter"]["removed"])
    # the filter and the default ground truth count DSM cells, not mask cells
    assert kept + removed == points == int(entries["truth"]["road_points"])
    mask_plus = gridmod.load_mask(tmp_path / "run" / "mask_filtered.asc")
    if enabled == "true":
        assert kept == mask_plus.count and not mask_plus.bits[holes].any()
    else:
        assert removed == 0
        assert artifacts["mask_filtered.asc"] == (tile / "mask.asc").read_bytes()
    # the plane baseline fits the DSM points of mask_plus and is scored
    # against the default ground truth, the DSM points of the input mask
    x0, x1, y0, y1 = dsm.center_extent
    plane = meshmod.plane_mesh(meshmod.fit_plane(dsm.subset(mask_plus.bits == 1)),
                               (x0, x1), (y0, y1))
    dtm = gridmod.load_raster(tile / "dtm.asc")
    expected = metricsmod.evaluate_all(plane, dsm.subset(mask.bits == 1),
                                       dtm.subset(mask.bits == 0), mask_plus)
    (row,) = [row for row in rows(artifacts["metrics.csv"]) if row["method"] == "plane"]
    assert {key: float(value) for key, value in cells(row).items()} == asdict(expected)

    rc, fitted = invoke(tmp_path / "fit", "fit", "--dsm", str(path),
                        *layer_flags(tile, ("dtm", "mask")), *FIT_FLAGS,
                        "--filter-enabled", enabled)
    assert rc == 0
    assert fitted == {name: artifacts[name] for name in ("surface.txt", "loss_trace.csv")}


@pytest.mark.parametrize("enabled", ["true", "false"])
def test_a_road_of_nodata_holds_no_point(tile, tmp_path, capsys, enabled):
    path, _, mask, _ = dsm_with_road_holes(tile, tmp_path, 1)
    rc, _ = invoke(tmp_path / "filter", "filter", "--dsm", str(path),
                   *layer_flags(tile, ("mask",)), "--filter-enabled", enabled)
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[1] == "filter: kept=0 removed=0"
    mask_plus = gridmod.load_mask(tmp_path / "filter" / "mask_filtered.asc")
    assert mask_plus.count == (0 if enabled == "true" else mask.count)


def write_zero_mask(tile, tmp_path):
    path = tmp_path / "mask.asc"
    lines = (tile / "mask.asc").read_text().splitlines()
    path.write_text("\n".join(lines[:6] + [line.replace("1.0", "0.0") for line in lines[6:]])
                    + "\n")
    return ["--mask", str(path)]


def empty_road_with_ground_truth(tile, tmp_path):
    return (["run", *layer_flags(tile, ("dsm", "dtm", "gt_road", "gt_terrain")),
             *write_zero_mask(tile, tmp_path)],
            "need at least 3 points to fit a plane")


def empty_road(tile, tmp_path):
    return (["run", *layer_flags(tile, ("dsm", "dtm")), *write_zero_mask(tile, tmp_path)],
            "ground truth must be non-empty for both classes")


def missing_dtm(tile, tmp_path):
    return ["fit", *layer_flags(tile, ("dsm", "mask"))], "dtm path is required"


def malformed_dsm_row(tile, tmp_path):
    path = tmp_path / "dsm.asc"
    lines = (tile / "dsm.asc").read_text().splitlines()
    lines[9] = "abc " + lines[9].split(" ", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    return (["filter", *layer_flags(tile, ("mask",)), "--dsm", str(path)],
            f"{path}:10: cannot parse data row")


def infinite_dsm_corner(tile, tmp_path):
    path = tmp_path / "dsm.asc"
    lines = (tile / "dsm.asc").read_text().splitlines()
    assert lines[2].startswith("xllcorner ")
    lines[2] = "xllcorner inf"
    path.write_text("\n".join(lines) + "\n")
    return (["filter", *layer_flags(tile, ("mask",)), "--dsm", str(path)],
            f"{path}:3: xllcorner must be finite, got 'inf'")


def dtm_on_another_grid(tile, tmp_path):
    path = tmp_path / "dtm.asc"
    lines = (tile / "dtm.asc").read_text().splitlines()
    assert lines[2].startswith("xllcorner ")
    lines[2] = "xllcorner 2.5"
    path.write_text("\n".join(lines) + "\n")
    return (["fit", *layer_flags(tile, ("dsm", "mask")), "--dtm", str(path)],
            "dsm and dtm grids do not match")


def missing_ground_truth(tile, tmp_path):
    path = tmp_path / "gt_road.asc"
    return (["run", *layer_flags(tile, LAYERS[:3]), "--gt-road", str(path)],
            f"file not found: {path}")


def diverging_fit(tile, tmp_path):
    return (["fit", *layer_flags(tile, LAYERS), "--learning-rate", "1e300"],
            "non-finite loss at iteration 1")


def missing_surface(tile, tmp_path):
    path = tmp_path / "surface.txt"
    return (["mesh", *layer_flags(tile, ("dsm", "mask")), "--surface", str(path)],
            f"file not found: {path}")


def missing_mesh(tile, tmp_path):
    path = tmp_path / "mesh.obj"
    return (["eval", *layer_flags(tile, LAYERS), "--mesh", str(path)],
            f"file not found: {path}")


def mesh_beside_the_tile(tile, tmp_path):
    path = tmp_path / "far.obj"
    path.write_text("v 1000 1000 0\nv 1001 1000 0\nv 1000 1001 0\nf 1 2 3\n")
    return (["eval", *layer_flags(tile, LAYERS), "--mesh", str(path)],
            "no road ground-truth point lies over the mesh")


@pytest.mark.parametrize("stage, fault", [
    ("grid", malformed_dsm_row),
    ("grid", infinite_dsm_corner),
    ("grid", missing_ground_truth),
    ("grid", missing_dtm),
    ("grid", dtm_on_another_grid),
    ("fit", diverging_fit),
    ("mesh", missing_surface),
    ("mesh", empty_road_with_ground_truth),
    ("metrics", missing_mesh),
    ("metrics", empty_road),
    ("metrics", mesh_beside_the_tile),
])
def test_single_fault_names_its_stage(tile, tmp_path, capsys, monkeypatch, stage, fault):
    argv, message = fault(tile, tmp_path)
    errors = []
    for usable in ROW_PATHS:
        monkeypatch.setattr(cli, "usable_cpus", lambda usable=usable: usable)
        rc, artifacts = invoke(tmp_path / f"out{usable}", *argv, *FIT_FLAGS)
        assert (rc, artifacts) == (2, {})
        errors.append(capsys.readouterr().err)
        no_child_is_left()
    assert errors[0].startswith(f"stage {stage}: ")
    assert message in errors[0]
    # where both of run's rows fail, as with an empty road, the NURBS row's
    # failure is reported, forked or not
    assert errors == errors[:1] * len(ROW_PATHS)


@pytest.mark.parametrize("baselines", ["true", "false"])
def test_a_failed_baseline_fails_the_run(tile, run, tmp_path, capsys, monkeypatch, baselines):
    # NODATA on every other cell, as on a checkerboard: the NURBS row meshes,
    # scores its samples and formats its artifacts, but the RGT baseline
    # finds no 2x2 block of points, and a failed baseline row fails the whole
    # run: it leaves an earlier run's artifacts in --out-dir as they were
    dsm = gridmod.load_raster(tile / "dsm.asc")
    j, i = np.indices(dsm.values.shape)
    path = tmp_path / "checkerboard.asc"
    gridmod.write_lines(path, gridmod.save_raster(dsm.subset((i + j) % 2 == 0)))
    for usable in ROW_PATHS:
        monkeypatch.setattr(cli, "usable_cpus", lambda usable=usable: usable)
        out = tmp_path / f"out{usable}"
        out.mkdir()
        if baselines == "true":
            for name, data in run[0].items():
                (out / name).write_bytes(data)
        rc, artifacts = invoke(out, "run", "--dsm", str(path),
                               *layer_flags(tile, ("dtm", "mask")), *FIT_FLAGS,
                               "--baselines", baselines)
        err = capsys.readouterr().err
        if baselines == "true":
            assert (rc, artifacts) == (2, run[0])
            assert err == "stage mesh: raster has no 2x2 block of valid cells\n"
        else:
            assert (rc, set(artifacts), err) == (0, RUN_ARTIFACTS, "")
        no_child_is_left()


def test_a_non_finite_score_is_a_metrics_failure(tile, tmp_path, capsys, monkeypatch):
    # terrain ground truth of 1e300 everywhere: its squared distances to any
    # mesh overflow, so l2_terrain is infinite on every row
    path = tmp_path / "gt_terrain.asc"
    raster = gridmod.load_raster(tile / "gt_terrain.asc")
    gridmod.save_rasters({path: gridmod.Raster(raster.width, raster.height, raster.cell_size,
                                               raster.origin_x, raster.origin_y,
                                               np.full(raster.values.shape, 1e300))})
    for usable in ROW_PATHS:
        monkeypatch.setattr(cli, "usable_cpus", lambda usable=usable: usable)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, artifacts = invoke(tmp_path / f"out{usable}", "run",
                                   *layer_flags(tile, LAYERS[:4]), "--gt-terrain", str(path),
                                   *FIT_FLAGS)
        assert (rc, artifacts) == (2, {})
        assert [str(warning.message) for warning in caught] == []
        assert capsys.readouterr().err == "stage metrics: non-finite score l2_terrain=inf\n"
        no_child_is_left()


def refuses_huge_allocations():
    """Linux's heuristic (0) and strict (2) overcommit modes refuse a single
    allocation far beyond RAM and swap; mode 1 would grant it and let the
    writes exhaust the machine's memory."""
    try:
        return Path("/proc/sys/vm/overcommit_memory").read_text().strip() in ("0", "2")
    except OSError:
        return False


@pytest.mark.skipif(not refuses_huge_allocations(),
                    reason="needs an OS that refuses a 1.8 TiB allocation")
@pytest.mark.parametrize("command", [
    ("run", "--road-rate", "0.0002"),
    ("ablate", "--param", "sampling_rates", "--values", "0.0002/10"),
])
def test_lattice_too_large_for_memory_is_a_mesh_failure(tile, tmp_path, capsys, command):
    # 500,001 samples a side over the 100 m tile: the height grid, allocated
    # first, takes 1.8 TiB, and the basis matrices would take about 50 MB each
    rc, artifacts = invoke(tmp_path / "out", command[0], *layer_flags(tile, LAYERS),
                           *FIT_FLAGS[:4], *command[1:])
    assert (rc, artifacts) == (2, {})
    err = capsys.readouterr().err
    assert err.startswith("stage mesh: Unable to allocate")
    assert "(500001, 500001)" in err


def test_missing_scene_file_is_a_grid_failure(tmp_path, capsys):
    scene = tmp_path / "missing.txt"
    assert main(["synth", "--scene", str(scene), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("stage grid: ")
    assert str(scene) in err


@pytest.mark.parametrize("fault", [
    MemoryError("Unable to allocate 728. TiB for an array with shape (10000000, 10000000) "
                "and data type float64"),
    OverflowError("cannot convert float infinity to integer"),
    RuntimeError("the scene cannot be generated"),
], ids=["memory", "overflow", "runtime"])
def test_a_synth_fault_is_a_grid_failure(tmp_path, capsys, monkeypatch, fault):
    # raised, not allocated: a request that large is refused only because it
    # exceeds the address space
    def fail(spec):
        raise fault

    monkeypatch.setattr(synthmod, "generate", fail)
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"stage grid: {fault}\n")
    assert list(out.iterdir()) == []


def test_unknown_scene_key_is_a_grid_failure(tmp_path, capsys):
    scene = tmp_path / "scene.txt"
    for line, key in (("bogus 1", "bogus"), ("slope 1 2", "slope")):
        scene.write_text(f"cell_size 2.5\n{line}\n")
        assert main(["synth", "--scene", str(scene), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"stage grid: {scene}:2: unknown key '{key}'\n"


@pytest.mark.parametrize("line, message", [
    ("cell_size 5 7", "cell_size takes 1 value(s), got 2"),
    ("seed", "seed takes 1 value(s), got 0"),
    ("road 0,35 50,50,1", "road takes two or more x,y waypoints"),
    ("road", "road takes two or more x,y waypoints"),
    ("road 0,35 150,50", "road waypoint outside the tile"),
    ("road 0,35 0,35 35,45 65,55 100,70", "road segments must have positive length"),
    ("cell_size 0", "tile_size and cell_size must be finite and positive"),
    ("tile_size inf", "tile_size and cell_size must be finite and positive"),
    ("cell_size inf", "tile_size and cell_size must be finite and positive"),
    ("target_road_fraction 1.5", "target_road_fraction must be in (0, 1)"),
    ("vehicles -2", "vehicles, trees and facades must be non-negative"),
    ("trees -1", "vehicles, trees and facades must be non-negative"),
    ("facades -3", "vehicles, trees and facades must be non-negative"),
    ("jitter_sigma -0.5", "jitter_sigma must be finite and non-negative"),
    ("jitter_sigma nan", "jitter_sigma must be finite and non-negative"),
    ("jitter_sigma inf", "jitter_sigma must be finite and non-negative"),
    ("base_elevation inf", "base_elevation, slope_x and slope_y must be finite"),
    ("slope_x nan", "base_elevation, slope_x and slope_y must be finite"),
    ("slope_y -inf", "base_elevation, slope_x and slope_y must be finite"),
    ("hill 50 50 3 0", "hill values must be finite and sigma positive"),
    ("hill 50 50 3 -4", "hill values must be finite and sigma positive"),
    ("hill 50 nan 3 4", "hill values must be finite and sigma positive"),
])
def test_scene_value_count_is_a_grid_failure(tmp_path, capsys, line, message):
    scene = tmp_path / "scene.txt"
    scene.write_text(f"cell_size 2.5\n{line}\n")
    assert main(["synth", "--scene", str(scene), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"stage grid: {scene}:2: {message}\n"


def test_scene_file_comments_and_blank_lines_set_nothing(tile, tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text("# the module's tile\ncell_size 2.5  # metres\n\n   \nvehicles 2\n"
                     "trees 2\nfacades 1\ncorrupt_mask true\njitter_sigma 0.02\nseed 3\n")
    assert main(["synth", "--scene", str(scene), "--out", str(tmp_path / "tile")]) == 0
    for name in LAYERS + ("provenance",):
        written = (tmp_path / "tile" / f"{name}.asc").read_bytes()
        assert written == (tile / f"{name}.asc").read_bytes()


def test_a_scene_spec_check_blames_the_keys_it_read():
    with pytest.raises(gridmod.FieldError, match="road polyline needs at least two") as err:
        synthmod.SceneSpec(road=[(0.0, 0.0)])
    assert err.value.keys == ("road",)
    with pytest.raises(gridmod.FieldError) as err:
        synthmod.SceneSpec(tile_size=50.0)
    assert err.value.keys == ("road", "tile_size")


def test_negative_noise_flags_are_a_grid_failure(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["--vehicles", "-2", "--trees", "-1", "--jitter-sigma", "-0.5"]
    assert main(["synth", "--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert err == "stage grid: vehicles, trees and facades must be non-negative\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("spelling", ["yes", "On", "1", "TRUE"])
def test_corrupt_mask_takes_the_same_booleans_in_a_scene_file_and_a_flag(tmp_path, spelling):
    plain = tmp_path / "plain.txt"
    plain.write_text("cell_size 5\ntrees 3\n")
    scene = tmp_path / "scene.txt"
    scene.write_text(f"cell_size 5\ntrees 3\ncorrupt_mask {spelling}\n")
    masks = {}
    for name, argv in (("file", ["--scene", str(scene)]),
                       ("flag", ["--scene", str(plain), "--corrupt-mask", spelling]),
                       ("clean", ["--scene", str(plain)])):
        assert main(["synth", *argv, "--out", str(tmp_path / name)]) == 0
        masks[name] = (tmp_path / name / "mask.asc").read_bytes()
    assert masks["file"] == masks["flag"] != masks["clean"]


def test_non_boolean_corrupt_mask_in_a_scene_file_is_a_grid_failure(tmp_path, capsys):
    scene = tmp_path / "scene.txt"
    scene.write_text("cell_size 5\ncorrupt_mask 2\n")
    assert main(["synth", "--scene", str(scene), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"stage grid: {scene}:2: expected a boolean, got '2'\n"


@pytest.mark.parametrize("param, values, message", [
    ("learning_rate", "0.1,-1", "learning_rate must be positive"),
    ("sampling_rates", "2.5/10,5/1", "need 0 < road_rate <= terrain_rate"),
])
def test_invalid_ablation_value_is_a_usage_error(tile, tmp_path, capsys, param, values,
                                                 message):
    rc, artifacts = invoke(tmp_path / "out", "ablate", *layer_flags(tile, LAYERS),
                           *FIT_FLAGS, "--param", param, "--values", values)
    assert (rc, artifacts) == (1, {})
    assert capsys.readouterr().err == f"usage error: --values: {message}\n"


@pytest.mark.parametrize("values, message", [
    (",", "--values must list at least one value"),
    ("1", "sampling_rates values look like road/terrain, got '1'"),
])
def test_ablation_values_that_make_no_row_are_usage_errors(tile, tmp_path, capsys, values,
                                                           message):
    rc, artifacts = invoke(tmp_path / "out", "ablate", *layer_flags(tile, LAYERS),
                           *FIT_FLAGS, "--param", "sampling_rates", "--values", values)
    assert (rc, artifacts) == (1, {})
    assert capsys.readouterr().err == f"usage error: {message}\n"


@pytest.mark.parametrize("bad_line, message", [
    ("cellsize 1 2", "header line needs one value, got 'cellsize 1 2'"),
    ("cellsize one", "cannot parse header value 'one'"),
])
def test_malformed_asc_header_names_file_and_line(tile, tmp_path, capsys, bad_line, message):
    path = tmp_path / "dsm.asc"
    lines = (tile / "dsm.asc").read_text().splitlines()
    assert lines[4].startswith("cellsize ")
    lines[4] = bad_line
    path.write_text("\n".join(lines) + "\n")
    rc, artifacts = invoke(tmp_path / "out", "filter", *layer_flags(tile, ("mask",)),
                           "--dsm", str(path))
    assert (rc, artifacts) == (2, {})
    assert capsys.readouterr().err == f"stage grid: {path}:5: {message}\n"


def test_malformed_surface_names_file_and_line(tile, run, tmp_path, capsys):
    path = tmp_path / "surface.txt"
    for key, bad_line, message in [
            ("roadsurf-surface ", "roadsurf-surface 1",
             "not a surface file (expected 'roadsurf-surface 3')"),
            ("cp ", "cp abc", "could not convert string to float: 'abc'"),
            ("cp ", "cp nan", "control_z must be finite"),
            ("cp ", "cp 1.0 1.0", "cp takes 1 value(s), got 2"),
            ("degree ", "degree 3 3", "degree takes 1 value(s), got 2"),
            ("shape ", "shape 0 3", "shape values must be positive"),
            ("degree ", "degree 0", "degree must be at least 1"),
            ("degree ", "degree 40", "degree 40 needs at least 41 control points, got 12"),
            ("extent ", "extent 100.0 0.0 0.0 100.0", "extent must be finite with "
             "x0 < x1 and y0 < y1, got (100.0, 0.0, 0.0, 100.0)"),
            ("extent ", "degree 3", "repeated key 'degree'"),
            ("extent ", "bogus 1 2", "unknown key 'bogus'")]:
        lines = run[0]["surface.txt"].decode().splitlines()
        line_no = next(n for n, line in enumerate(lines, start=1) if line.startswith(key))
        lines[line_no - 1] = bad_line
        path.write_text("\n".join(lines) + "\n")
        rc, artifacts = invoke(tmp_path / "out", "mesh", *layer_flags(tile, ("dsm", "mask")),
                               "--surface", str(path))
        assert (rc, artifacts) == (2, {})
        assert capsys.readouterr().err == f"stage mesh: {path}:{line_no}: {message}\n"


def test_malformed_mesh_names_file_and_line(tile, run, tmp_path, capsys):
    path = tmp_path / "mesh.obj"
    for key, bad_line, message in [
            ("v ", "v 0.0 nan? 1.0", "could not convert string to float: 'nan?'"),
            ("v ", "v 0 0 nan", "vertex coordinates must be finite"),
            ("v ", "v inf 0 0", "vertex coordinates must be finite"),
            ("v ", "v 0 0", "vertex line needs 3 coordinates"),
            ("f ", "f 0 1 2", "triangle indices out of range"),
            ("f ", "f 1 2 3 4", "only triangle faces are supported")]:
        lines = run[0]["mesh.obj"].decode().splitlines()
        line_no = next(n for n, line in enumerate(lines, start=1) if line.startswith(key))
        lines[line_no - 1] = bad_line
        path.write_text("\n".join(lines) + "\n")
        rc, artifacts = invoke(tmp_path / "out", "eval", *layer_flags(tile, LAYERS),
                               "--mesh", str(path))
        assert (rc, artifacts) == (2, {})
        assert capsys.readouterr().err == f"stage metrics: {path}:{line_no}: {message}\n"


def test_mesh_file_without_vertices_or_faces_is_a_metrics_failure(tile, tmp_path, capsys):
    path = tmp_path / "mesh.obj"
    for text in ("# no vertex and no face\n", "v 0 0 0\nv 1 0 0\nv 0 1 0\n"):
        path.write_text(text)
        rc, artifacts = invoke(tmp_path / "out", "eval", *layer_flags(tile, LAYERS),
                               "--mesh", str(path))
        assert (rc, artifacts) == (2, {})
        assert capsys.readouterr().err == f"stage metrics: {path}: no mesh content found\n"


@pytest.mark.parametrize("text_format", ["asc", "surface", "obj", "scene"])
def test_undecodable_byte_names_file_and_line(tile, run, tmp_path, capsys, text_format):
    bad, out = tmp_path / f"bad.{text_format}", tmp_path / "out"
    stage, source, argv = {
        "asc": ("grid", (tile / "dsm.asc").read_bytes(),
                ["filter", *layer_flags(tile, ("mask",)), "--dsm", str(bad), "--out-dir"]),
        "surface": ("mesh", run[0]["surface.txt"],
                    ["mesh", *layer_flags(tile, ("dsm", "mask")), "--surface", str(bad),
                     "--out-dir"]),
        "obj": ("metrics", run[0]["mesh.obj"],
                ["eval", *layer_flags(tile, LAYERS), "--mesh", str(bad), "--out-dir"]),
        "scene": ("grid", b"cell_size 5\ntrees 3\nvehicles 1\n",
                  ["synth", "--scene", str(bad), "--out"]),
    }[text_format]
    lines = source.splitlines(keepends=True)
    lines[2] = lines[2][:2] + b"\xff" + lines[2][2:]
    bad.write_bytes(b"".join(lines))
    assert main([*argv, str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"stage {stage}: {bad}:3: 'utf-8' codec can't decode byte 0xff in position 2: ")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["fit", "run"])
def test_fit_and_run_leave_numpy_ma_unloaded(tile, tmp_path, command):
    """numpy.ma costs milliseconds and megabytes on its first import, which
    np.median makes; the fit takes the DTM median only for a node no cell
    reaches, and every node of the CLI tile's net has one."""
    argv = [command, *layer_flags(tile, LAYERS), *FIT_FLAGS, "--out-dir", str(tmp_path)]
    code = ("import sys\nfrom roadsurf import cli\ncli.usable_cpus = lambda: 1\n"
            f"assert cli.main({argv!r}) == 0\nprint('numpy.ma' in sys.modules)")
    path = os.pathsep.join([str(Path(roadsurf.__file__).parents[1]),
                            *filter(None, [os.environ.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          check=True, capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "False"


def test_fit_bytes_repeat_at_each_blas_thread_count(tmp_path):
    """The byte-stability contract holds for a fixed BLAS thread count; the
    fit's last bits may differ between thread counts, so only runs at the
    same count are compared."""
    tile, scene = tmp_path / "tile", tmp_path / "scene.txt"
    scene.write_text("cell_size 0.4\n")
    assert main(["synth", "--scene", str(scene), "--out", str(tile), "--vehicles", "6",
                 "--trees", "8", "--facades", "2", "--corrupt-mask", "true",
                 "--jitter-sigma", "0.02", "--seed", "1"]) == 0
    path = os.pathsep.join([str(Path(roadsurf.__file__).parents[1]),
                            *filter(None, [os.environ.get("PYTHONPATH")])])
    artifacts = {}
    for run_no, threads in enumerate(["1", "1", "2", "2"]):
        out = tmp_path / f"out{run_no}"
        subprocess.run([sys.executable, "-m", "roadsurf.cli", "fit",
                        *layer_flags(tile, ("dsm", "dtm", "mask")), "--max-iters", "20",
                        "--out-dir", str(out)],
                       env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                       check=True, capture_output=True, timeout=120)
        artifacts.setdefault(threads, []).append(
            {name: (out / name).read_bytes() for name in ("surface.txt", "loss_trace.csv")})
    for threads, (first, second) in artifacts.items():
        assert first == second, f"runs at {threads} BLAS thread(s) differ"
