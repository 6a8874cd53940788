"""A census of seeded random scenes: the paper's claims on tiles nobody chose.

``draw_scenes`` draws ``SceneSpec``s from ``random.Random(1)`` over fixed
ranges; each scene runs through ``cli.main(["run", ...])`` in this process,
its rows in order, at the default config (control nodes at most 3 m apart:
8 x 8 on a 20 m tile, 21 x 21 on a 60 m one).  ``census_row`` scores a scene against its provenance layer.  Both
take no pytest fixture, so a benchmark can import them and run a longer
census: the first scenes of any draw are the same.

The contract gate holds every scene to exit 0, or to exit 2 with one
``stage <name>: ...`` line on stderr.  The ratchets pin three counts at the
values the code reached when they were written, as bounds that may only get
better: scenes where the NURBS TIN's ``l2_road`` beats the RGT's, scenes
whose filtered mask keeps a noise cell, and scenes whose filtered mask loses
every clean road cell.  A change that moves a count the wrong way fails here
and names the scenes; neither re-seed the draw nor narrow its ranges to pass.
"""

import contextlib
import csv
import io
import random
import re
import traceback
import warnings
from pathlib import Path

import pytest

from roadsurf import cli
from roadsurf import grid as gridmod
from roadsurf import synth as synthmod

SCENES = 50
# the ratchets: scenes where NURBS l2_road beats RGT's, at least; scenes
# that keep a noise cell and scenes that lose every clean road cell, at most
NURBS_AHEAD, NOISE_KEPT, ROAD_LOST = 46, 24, 5


def draw_scenes(count: int = SCENES):
    """``count`` random scenes, scene i with seed i.  In draw order: a tile
    of 20, 30, 40 or 60 m at 0.5, 1 or 2 m cells; 2-5 road waypoints,
    uniform in the tile; 0-3 hills, uniform in the tile, of amplitude -5 to
    8 m and sigma 1-40 m; grades of -10 to 10 % along x, then y; a road
    fraction of 0.05-0.6; 0-8 vehicles, 0-8 trees and 0-3 facades; jitter
    0, 0.02 or 0.1 m; and corrupt_mask at even odds."""
    rng = random.Random(1)
    for index in range(count):
        tile = rng.choice((20.0, 30.0, 40.0, 60.0))
        cell = rng.choice((0.5, 1.0, 2.0))
        road = [(rng.uniform(0, tile), rng.uniform(0, tile)) for _ in range(rng.randint(2, 5))]
        hills = [(rng.uniform(0, tile), rng.uniform(0, tile), rng.uniform(-5, 8),
                  rng.uniform(1, 40)) for _ in range(rng.randint(0, 3))]
        slope_x, slope_y = rng.uniform(-10, 10), rng.uniform(-10, 10)
        fraction = rng.uniform(0.05, 0.6)
        vehicles, trees, facades = rng.randint(0, 8), rng.randint(0, 8), rng.randint(0, 3)
        jitter = rng.choice((0.0, 0.02, 0.1))
        corrupt = rng.random() < 0.5
        yield synthmod.SceneSpec(
            tile_size=tile, cell_size=cell, slope_x=slope_x, slope_y=slope_y, hills=hills,
            road=road, target_road_fraction=fraction, vehicles=vehicles, trees=trees,
            facades=facades, jitter_sigma=jitter, corrupt_mask=corrupt, seed=index)


def census_row(spec: synthmod.SceneSpec, root: Path) -> dict:
    """Runs ``spec``'s tile under ``root`` with its rows in order; returns
    the exit code (or the traceback of what escaped ``main``), stderr, each
    method's (l2_road, mad_road), the noise cells the filtered mask keeps
    and whether it keeps no clean road cell.  Warnings are recorded, unshown,
    under the filters in force."""
    scene = synthmod.generate(spec)
    paths = synthmod.save_scene(scene, root / "tile")
    flags = [f"--{name.replace('_', '-')}={paths[name]}"
             for name in ("dsm", "dtm", "mask", "gt_road", "gt_terrain")]
    err, cpus, cli.usable_cpus = io.StringIO(), cli.usable_cpus, lambda: 1
    try:
        with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
              warnings.catch_warnings(record=True)):
            code = cli.main(["run", *flags, "--out-dir", str(root / "out")])
    except Exception:  # the contract gate reports it with its scene
        code = traceback.format_exc()
    finally:
        cli.usable_cpus = cpus
    row = {"code": code, "err": err.getvalue()}
    if code == 0:
        with open(root / "out" / "metrics.csv", encoding="utf-8") as lines:
            for entry in csv.DictReader(lines):
                row[entry["method"]] = (float(entry["l2_road"]), float(entry["mad_road"]))
        kept = gridmod.load_mask(root / "out" / "mask_filtered.asc").bits == 1
        noise = scene.provenance.values > 0
        row["noise_kept"] = int((kept & noise).sum())
        row["road_lost"] = not (kept & (scene.mask.bits == 1) & ~noise).any()
    return row


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    root = tmp_path_factory.mktemp("census")
    return [census_row(spec, root / str(index)) for index, spec in enumerate(draw_scenes())]


def test_every_scene_runs_or_fails_one_stage(census):
    broken = {index: (row["code"], row["err"]) for index, row in enumerate(census)
              if not (row["code"] == 0 and row["err"] == ""
                      or row["code"] == 2 and re.fullmatch(r"stage (grid|filter|fit|mesh|"
                                                           r"metrics): [^\n]*\n", row["err"]))}
    assert broken == {}


def test_census_counts_get_no_worse(census):
    ran = {index: row for index, row in enumerate(census) if row["code"] == 0}
    behind = [index for index, row in ran.items() if not row["nurbs"][0] < row["rgt"][0]]
    noise_kept = [index for index, row in ran.items() if row["noise_kept"]]
    road_lost = [index for index, row in ran.items() if row["road_lost"]]
    assert len(ran) - len(behind) >= NURBS_AHEAD, f"NURBS not ahead of RGT: {behind}"
    assert len(noise_kept) <= NOISE_KEPT, f"noise kept: {noise_kept}"
    assert len(road_lost) <= ROAD_LOST, f"every clean road cell lost: {road_lost}"
