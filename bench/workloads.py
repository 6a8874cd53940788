"""The benchmark's workloads: one seeded synthetic tile and one CLI invocation each.

Every workload uses the scene defaults of a ``roadsurf run`` reference tile
(6 vehicles, 8 trees, 2 facades, a mask grown onto the noise objects and
0.02 m jitter); only the raster cell size and the subcommand differ.  The
program receives the generated ``.asc`` layers only, never the provenance
raster the benchmark scores the filter against.
"""

from __future__ import annotations

from dataclasses import dataclass

SCENE_DIR = "scene"
OUT_DIR = "out"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cell_size: float          # metres; the tile is always 100 m across
    command: tuple[str, ...]  # subcommand and its workload-specific flags
    with_gt: bool             # pass --gt-road/--gt-terrain
    artifacts: tuple[str, ...]
    table: str | None         # CSV of metric rows, checked for finite values
    quality_row: tuple[str, str] | None  # (column, value) of the reported row
    gate_nurbs_beats_rgt: bool = False

    def scene_spec(self, seed: int):
        from roadsurf.synth import SceneSpec
        return SceneSpec(cell_size=self.cell_size,
                         vehicles=6, trees=8, facades=2, corrupt_mask=True,
                         jitter_sigma=0.02, seed=seed)

    def argv(self) -> list[str]:
        layers = ["dsm", "dtm", "mask"] + (["gt_road", "gt_terrain"] if self.with_gt else [])
        args = [self.command[0]]
        for layer in layers:
            args += ["--" + layer.replace("_", "-"), f"{SCENE_DIR}/{layer}.asc"]
        return args + list(self.command[1:]) + ["--out-dir", OUT_DIR]


RUN_ARTIFACTS = ("mask_filtered.asc", "surface.txt", "loss_trace.csv", "mesh.obj",
                 "metrics.csv")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="tile100_run",
            why="reference 101x101 run with baselines; distance metrics over "
                "three meshes dominate, fit, mesh and filter are minor",
            cell_size=1.0, command=("run",), with_gt=True,
            artifacts=RUN_ARTIFACTS, table="metrics.csv",
            quality_row=("method", "nurbs"), gate_nurbs_beats_rgt=True),
        Workload(
            name="tile251_fit",
            why="fit only on the same scene at 0.4 m (251x251); fit and filter "
                "do the work, mesh and metrics never run",
            cell_size=0.4, command=("fit",), with_gt=False,
            artifacts=("surface.txt", "loss_trace.csv"), table=None,
            quality_row=None),
        Workload(
            name="tile100_ablate",
            why="two identical fits, Delaunay at 1x and 4x sample density and "
                "metrics without baselines on the 101x101 tile",
            cell_size=1.0,
            command=("ablate", "--param", "sampling_rates", "--values", "1/10,0.5/5"),
            with_gt=True, artifacts=("ablate.csv",), table="ablate.csv",
            quality_row=("value", "0.5/5")),
    )
}
