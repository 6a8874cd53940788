"""The command line contract, exercised through ``main()``.

One small seeded tile (41 x 41 cells at 2.5 m) is generated by ``synth`` and
shared by the module.  Every subcommand is pinned by its exit code and the
set of artifacts it writes; failures by their exit code and the
``stage <name>:`` or ``usage error:`` line on stderr.
"""

import csv
import io

import pytest

from roadsurf.cli import main

LAYERS = ("dsm", "dtm", "mask", "gt_road", "gt_terrain")
FIT_FLAGS = ("--num-ctrl-u", "12", "--num-ctrl-v", "12", "--road-rate", "2.5")
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


def test_filter_needs_no_dtm(tile, run, tmp_path):
    rc, artifacts = invoke(tmp_path / "filter", "filter",
                           *layer_flags(tile, ("dsm", "mask")))
    assert rc == 0
    assert artifacts == {"mask_filtered.asc": run[0]["mask_filtered.asc"]}


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
    assert capsys.readouterr().out.startswith("nurbs: l2_road=")


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


def test_ini_config_equals_flags(tile, run, tmp_path):
    config = tmp_path / "roadsurf.ini"
    config.write_text("\n".join([
        "[paths]",
        *(f"{name} = {tile / name}.asc" for name in ("dsm", "dtm", "mask")),
        f"out_dir = {tmp_path / 'unused'}",
        "[filter]", "enabled = yes", "theta_xy = 10.0  # metres",
        "[surface]", "num_ctrl_u = 12", "num_ctrl_v = 12",
        "[fit]", "max_iters = 200",
        "[sampling]", "road_rate = 2.5",
        "[metrics]", "baselines = off",
    ]) + "\n")
    rc, artifacts = invoke(tmp_path / "fit", "fit", "--config", str(config))
    assert rc == 0
    assert artifacts == {name: run[0][name] for name in ("surface.txt", "loss_trace.csv")}
    assert not (tmp_path / "unused").exists()  # --out-dir overrides the file


def test_unknown_ini_key_is_a_usage_error(tile, tmp_path, capsys):
    config = tmp_path / "roadsurf.ini"
    config.write_text("[filter]\ntheta_xyz = 3\n")
    rc, artifacts = invoke(tmp_path / "out", "filter", *layer_flags(tile, ("dsm", "mask")),
                           "--config", str(config))
    assert (rc, artifacts) == (1, {})
    assert capsys.readouterr().err == (
        f"usage error: {config}: unknown config key [filter] theta_xyz\n")


@pytest.mark.parametrize("argv", [
    ["run", "--no-such-flag", "1"],
    ["filter", "--theta-xy", "abc"],
    ["fit", "--num-ctrl-u", "2"],
    ["filter", "--theta-xy", "nan"],
    ["filter", "--theta-xy", "inf"],
    ["filter", "--theta-z", "nan"],
    ["run", "--terrain-rate", "inf"],
    ["fit", "--learning-rate", "nan"],
    ["fit", "--lambda-reg", "nan"],
    ["fit", "--early-stop-min-delta", "nan"],
    ["ablate", "--param", "theta_xy", "--values", "inf"],
])
def test_bad_flags_are_usage_errors(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    if {"nan", "inf"} & set(argv):
        assert err.endswith(f" must be finite, got {argv[-1]}\n")


def test_out_dir_that_is_a_file_fails_before_any_stage(tile, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(["filter", *layer_flags(tile, ("dsm", "mask")), "--out-dir", str(out)]) == 1
    out_text, err = capsys.readouterr()
    assert out_text == ""
    assert err.startswith("usage error: --out-dir: ") and str(out) in err
    assert out.read_text() == "not a directory\n"


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
    ("fit", diverging_fit),
    ("mesh", missing_surface),
    ("mesh", empty_road_with_ground_truth),
    ("metrics", missing_mesh),
    ("metrics", empty_road),
    ("metrics", mesh_beside_the_tile),
])
def test_single_fault_names_its_stage(tile, tmp_path, capsys, stage, fault):
    argv, message = fault(tile, tmp_path)
    rc, artifacts = invoke(tmp_path / "out", *argv, *FIT_FLAGS)
    assert (rc, artifacts) == (2, {})
    err = capsys.readouterr().err
    assert err.startswith(f"stage {stage}: ")
    assert message in err


def test_missing_scene_file_is_a_grid_failure(tmp_path, capsys):
    scene = tmp_path / "missing.txt"
    assert main(["synth", "--scene", str(scene), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("stage grid: ")
    assert str(scene) in err


def test_unknown_scene_key_is_a_grid_failure(tmp_path, capsys):
    scene = tmp_path / "scene.txt"
    scene.write_text("cell_size 2.5\nbogus 1\n")
    assert main(["synth", "--scene", str(scene), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"stage grid: {scene}:2: unknown key 'bogus'\n"


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


def test_malformed_surface_names_file_and_line(tile, run, tmp_path, capsys):
    path = tmp_path / "surface.txt"
    for key, bad_line, message in [
            ("cp ", "cp 0.0 0.0 abc 1.0", "could not convert string to float: 'abc'"),
            ("cp ", "cp 0.0 0.0 nan 1.0", "cp values must be finite"),
            ("knots_u ", "knots_u 0.0 inf 1.0", "knots_u values must be finite"),
            ("xy_frozen ", "xy_frozen", "xy_frozen takes 1 value(s), got 0"),
            ("degree ", "degree 3", "degree takes 2 value(s), got 1")]:
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
    for bad_line, message in [
            ("v 0.0 nan? 1.0", "could not convert string to float: 'nan?'"),
            ("v 0 0 nan", "vertex coordinates must be finite"),
            ("v inf 0 0", "vertex coordinates must be finite")]:
        lines = run[0]["mesh.obj"].decode().splitlines()
        line_no = next(n for n, line in enumerate(lines, start=1) if line.startswith("v "))
        lines[line_no - 1] = bad_line
        path.write_text("\n".join(lines) + "\n")
        rc, artifacts = invoke(tmp_path / "out", "eval", *layer_flags(tile, LAYERS),
                               "--mesh", str(path))
        assert (rc, artifacts) == (2, {})
        assert capsys.readouterr().err == f"stage metrics: {path}:{line_no}: {message}\n"
