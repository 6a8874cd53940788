"""Command line pipeline: load grids, filter the mask, fit, mesh, evaluate.

Each subcommand runs a row of stages; its stages, required inputs and
artifacts (in --out-dir):

  filter  grid, filter       dsm, mask               mask_filtered.asc
  fit     grid, filter, fit  dsm, dtm, mask          surface.txt, loss_trace.csv
  mesh    grid, mesh         dsm, mask, --surface    mesh.obj
  eval    grid, metrics      dsm, dtm, mask, --mesh  metrics.csv
  run     all five, then the plane and RGT baselines (mesh, metrics) unless
          baselines is off; dsm, dtm, mask; the five artifacts above,
          mesh.obj colored by its error
  ablate  the stages before the swept key's stage, then one row of the rest
          per --values entry, no baselines; dsm, dtm, mask; ablate.csv

grid also loads the DTM where a dtm is required and the ground truth where
metrics run, mesh the --surface file and metrics the --mesh file, scored as
--method.  ablate sweeps one --param: a key of [filter], [surface], [fit] or
[sampling], or sampling_rates with road/terrain values such as 0.5/5.  It
scores only the NURBS TIN, so baselines is a usage error, as is a [paths]
key.  A row without the filter stage uses the input mask as the filtered
mask.  Ground truth defaults to the masked DSM and the unmasked DTM cells.
synth writes a synthetic tile: dsm, dtm, mask, gt_road, gt_terrain and
provenance layers, in one stage named grid.

Each stage appends what it made to the run record, printed as one "label:
key=value ..." line per entry (floats to six significant digits), then one
"wrote <path>" line per artifact; each ablate row's record is one
"<param>=<value>" entry of NURBS TIN scores.

cmd_pipeline runs every subcommand but synth from PIPELINES: its stages,
then its rows of stages, which are independent: run's NURBS row (fit, mesh,
metrics, then, while a worker runs the baseline row, formatting every
artifact but metrics.csv) and its baseline row, which needs the filtered
mask but not the fit, and ablate's rows, one per --values entry.
``run_rows`` runs rows at once, the first here, the others in forked
workers where the CPUs and the free memory allow.  One loop writes every
file, ablate.csv too, once every row has succeeded; output, artifacts and
exit codes are those of the rows run here in order.

Exit codes: 0 success, 1 usage error, 2 stage failure (message
"stage <name>: <reason>" on stderr, synth's included).  Stage names are
grid, filter, fit, mesh, metrics.

Configuration comes from an INI-style file (sections [paths], [filter],
[surface], [fit], [sampling], [metrics]) and each key can be overridden by
a command line flag of the same name, for example theta_xy in [filter] by
--theta-xy.  PipelineConfig derives from the stages' own config classes
(FilterParams, LossWeights, FitConfig, SamplingConfig), so each field of
one is, with no edit here, an INI key in that class's section
(_STAGE_SECTIONS), a flag and an ablate --param value, with the class's
default and checks.  Defaults: the cubic control net that
fit.initialize_surface sizes for ctrl_spacing 3 m, and those of the stage
classes; the fit moves the control elevations of a B-spline surface and
ends on its seventh plateau, or at max_iters 1000.  Booleans take
configparser's spellings (1/yes/true/on, 0/no/false/off).

Every artifact is byte-stable for a fixed BLAS build and thread count
(OPENBLAS_NUM_THREADS): rerunning on identical inputs reproduces it exactly.
The fit's last bits follow the BLAS summation order, of its data-term sums
as of its raster products, which the thread count can change.  Text files
are read and written as UTF-8.
"""

from __future__ import annotations

import argparse
import configparser
import os
import pickle
import signal
import sys
import traceback
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

from . import fit as fitmod
from . import grid as gridmod
from . import mesh as meshmod
from . import metrics as metricsmod
from . import synth as synthmod
from .filtering import FilterParams, run_filter
from .fit import FitConfig, LossWeights
from .grid import Raster
from .mesh import SamplingConfig
from .metrics import MetricReport
from .nurbs import load_surface, save_surface


class StageError(RuntimeError):
    """A pipeline stage failed; formatted as 'stage <name>: <message>'."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage, self.message = stage, message

    def __reduce__(self):  # a forked worker pickles it to the caller
        return StageError, (self.stage, self.message)


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration


def _key(section: str, default, note: str = ""):
    """A config field read from [section] of the INI file; note ends its help."""
    return field(default=default, metadata={"section": section, "note": note})


# the INI section of each stage config class's fields
_STAGE_SECTIONS = {FilterParams: "filter", LossWeights: "fit", FitConfig: "fit",
                   SamplingConfig: "sampling"}


# a dataclass takes its bases' fields from the last base on, so the fields
# run filter, fit, sampling, as the sections do
@dataclass
class PipelineConfig(SamplingConfig, FitConfig, LossWeights, FilterParams):
    """Every pipeline knob in one flat record: the stage config classes'
    fields, then its own.  It is an instance of each class, so a stage takes
    it as its config.  Each field's INI key is its name without the
    "<section>_" prefix."""

    dsm: Path | None = _key("paths", None)
    dtm: Path | None = _key("paths", None)
    mask: Path | None = _key("paths", None)
    gt_road: Path | None = _key("paths", None)
    gt_terrain: Path | None = _key("paths", None)
    out_dir: Path = _key("paths", Path("out"))
    filter_enabled: bool = _key("filter", True)
    ctrl_spacing: float = _key("surface", 3.0, ": the most metres between control nodes "
                               "(default 3.0): max(degree + 1, ceil(E / ctrl_spacing) + 1) "
                               "nodes on an axis of the DSM's cell-centre extent E")
    degree: int = _key("surface", 3, ": the B-spline degree of both axes, at least 1 (default 3)")
    baselines: bool = _key("metrics", True)

    def __post_init__(self):
        gridmod.check_finite(self)
        for cls in _STAGE_SECTIONS:
            cls.__post_init__(self)
        if not self.ctrl_spacing > 0:
            raise ValueError(f"ctrl_spacing must be positive, got {self.ctrl_spacing}")
        if self.degree < 1:
            raise ValueError(f"degree must be at least 1, got {self.degree}")


# the stage each section that ablate can sweep feeds: not [paths] or [metrics]
_SECTION_STAGE = {"filter": "filter", "surface": "fit", "fit": "fit", "sampling": "mesh"}
_SECTIONS = {**{spec.name: section for cls, section in _STAGE_SECTIONS.items()
                for spec in fields(cls)},
             **{spec.name: spec.metadata["section"] for spec in fields(PipelineConfig)
                if spec.metadata}}
_NOTES = {spec.name: spec.metadata.get("note", "") for spec in fields(PipelineConfig)}
_INI_KEYS = {(section, name.removeprefix(section + "_")): name
             for name, section in _SECTIONS.items()}
_CASTERS = {spec.name: synthmod.CASTERS.get(spec.type, Path) for spec in fields(PipelineConfig)}


def build_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults, overridden by the --config INI file, overridden by flags."""
    values = {}
    path = getattr(args, "config", None)
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            parser.read_string("\n".join(gridmod.read_lines(path)), source=str(path))
        except OSError:
            raise UsageError(f"cannot read config file: {path}") from None
        except ValueError as err:  # a byte that is not UTF-8, named by its line
            raise UsageError(str(err)) from None
        except configparser.Error as err:
            raise UsageError(f"{path}: {err}") from None
        for section in parser.sections():
            for key, raw in parser.items(section):
                name = _INI_KEYS.get((section, key))
                if name is None:
                    raise UsageError(f"{path}: unknown config key [{section}] {key}")
                try:
                    values[name] = _CASTERS[name](raw)
                except ValueError as err:
                    raise UsageError(f"{path}: [{section}] {key}: {err}") from None
    values.update({name: getattr(args, name) for name in _SECTIONS
                   if getattr(args, name, None) is not None})
    try:
        return PipelineConfig(**values)
    except ValueError as err:
        raise UsageError(str(err)) from None


# ---------------------------------------------------------------------------
# stages
#
# A stage reads the config and what earlier stages left in the state, adds
# its results, and appends what it made to state.record as (label, {key: value}).


def _require(path: Path | None, name: str) -> Path:
    if path is None:
        raise ValueError(f"{name} path is required")
    if not Path(path).exists():
        raise FileNotFoundError(f"file not found: {path}")
    return Path(path)


def _ground_truth(path: Path | None, raster: Raster, selection) -> Raster:
    """The ground truth at path, or by default the cells of raster in selection."""
    if path is None:
        return raster.subset(selection)
    return gridmod.load_raster(_require(path, "ground truth"))


def grid_stage(config: PipelineConfig, state: SimpleNamespace) -> None:
    """DSM and road mask on the DSM grid; the mask stands for mask_plus
    until a filter runs.  The state holds masks, not point rasters: a stage
    that reads points takes the DSM cells of a mask where it reads them."""
    dsm = gridmod.load_raster(_require(config.dsm, "dsm"))
    mask = gridmod.load_mask(_require(config.mask, "mask"))
    if not mask.georef_equals(dsm):
        mask = gridmod.resample_mask(mask, dsm)
    state.dsm, state.mask = dsm, mask
    state.mask_plus = mask
    state.record.append(("grid", {"width": dsm.width, "height": dsm.height,
                                  "road_cells": mask.count}))


def dtm_stage(config: PipelineConfig, state: SimpleNamespace) -> None:
    """DTM on the DSM grid."""
    dtm = state.dtm = gridmod.load_raster(_require(config.dtm, "dtm"))
    if not dtm.georef_equals(state.dsm):
        raise ValueError("dsm and dtm grids do not match")


def truth_stage(config: PipelineConfig, state: SimpleNamespace) -> None:
    """The road and terrain ground truth."""
    state.gt_road = _ground_truth(config.gt_road, state.dsm, state.mask.bits == 1)
    state.gt_terrain = _ground_truth(config.gt_terrain, state.dtm, state.mask.bits == 0)
    state.record.append(("truth", {"road_points": state.gt_road.count,
                                   "terrain_points": state.gt_terrain.count}))


def filter_stage(config: PipelineConfig, state: SimpleNamespace) -> None:
    """Cluster filter of the road points, the DSM cells of the road mask,
    into mask_plus.  Counts points, not mask cells: a NODATA cell of the
    mask holds none."""
    points = state.dsm.subset(state.mask.bits == 1)
    kept = total = points.count
    if config.filter_enabled:
        filtered, state.mask_plus = run_filter(points, config)
        kept = filtered.count
    state.record.append(("filter", {"kept": kept, "removed": total - kept}))


def fit_stage(config: PipelineConfig, state: SimpleNamespace) -> None:
    surface0 = fitmod.initialize_surface(state.dsm, state.dtm, state.mask_plus,
                                         config.ctrl_spacing, config.degree)
    state.surface, state.fit_report = fitmod.fit(
        surface0, state.dsm, state.dtm, state.mask_plus, config, config)
    state.record.append(("fit", {key: value for key, value in vars(state.fit_report).items()
                                 if not key.startswith("loss_")}))


def surface_stage(config: PipelineConfig, state: SimpleNamespace) -> None:
    """The --surface file."""
    surface = state.surface = load_surface(_require(state.args.surface, "surface"))
    state.record.append(("surface", {"ctrl_u": surface.num_ctrl_u, "ctrl_v": surface.num_ctrl_v}))


def mesh_stage(config: PipelineConfig, state: SimpleNamespace) -> None:
    """Dual-rate TIN of the surface."""
    tin = state.tin = meshmod.build_tin(state.surface, state.mask_plus, config)
    state.meshes = {"nurbs": tin}
    state.record.append(("mesh", {"vertices": len(tin.vertices), "triangles": len(tin.triangles)}))


def mesh_file_stage(config: PipelineConfig, state: SimpleNamespace) -> None:
    """The --mesh file, under the --method name."""
    mesh = meshmod.load_mesh(_require(state.args.mesh, "mesh"))
    state.meshes = {state.args.method: mesh}
    state.record.append(("mesh", {"vertices": len(mesh.vertices),
                                  "triangles": len(mesh.triangles)}))


def metrics_stage(config: PipelineConfig, state: SimpleNamespace) -> None:
    """Appends ([name], report) to state.reports for each mesh built or loaded last."""
    for name, mesh in state.meshes.items():
        report = metricsmod.evaluate_all(mesh, state.gt_road, state.gt_terrain, state.mask_plus)
        state.reports.append(([name], report))
        state.record.append((name, asdict(report)))


def baseline_mesh_stage(config: PipelineConfig, state: SimpleNamespace) -> None:
    """Plane fit on the filtered road points, the DSM cells of mask_plus;
    regular grid triangulation of the DSM."""
    coeffs = meshmod.fit_plane(state.dsm.subset(state.mask_plus.bits == 1))
    x0, x1, y0, y1 = state.dsm.center_extent
    state.meshes = {"plane": meshmod.plane_mesh(coeffs, (x0, x1), (y0, y1)),
                    "rgt": meshmod.rgt_mesh(state.dsm)}


# (name, stage) pairs; a stage's name is the one its failure is reported under
STAGES = (("grid", grid_stage), ("grid", dtm_stage), ("grid", truth_stage),
          ("filter", filter_stage), ("fit", fit_stage), ("mesh", mesh_stage),
          ("metrics", metrics_stage))
GRID, DTM, TRUTH, FILTER, FIT, MESH, METRICS = STAGES
BASELINES = (("mesh", baseline_mesh_stage), ("metrics", metrics_stage))


def entry_stage(cells: list[str], config: PipelineConfig, state: SimpleNamespace) -> None:
    """Labels an ablate row's one report and its record by the cells [param, value]."""
    ((_, report),) = state.reports
    state.reports = [(cells, report)]
    state.record = [("=".join(cells), asdict(report))]


def run_stages(config: PipelineConfig, state: SimpleNamespace,
               stages: tuple) -> SimpleNamespace:
    """Runs (name, stage) pairs in order; what a stage raises becomes
    StageError(name), an allocation it cannot make included (a sampling
    lattice or a control net too large for memory, say)."""
    for name, stage in stages:
        try:
            stage(config, state)
        except (OSError, ValueError, RuntimeError, OverflowError) as err:
            raise StageError(name, str(err)) from err
        except MemoryError as err:  # numpy's message names the array it could not allocate
            raise StageError(name, str(err) or "out of memory") from err
    return state


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _lanes(rows: int) -> int:
    """The lanes run_rows runs ``rows`` rows in: no more than the rows or
    the usable CPUs, 1 without os.fork, and no more workers than the free
    memory holds copies of this process at its peak so far."""
    if not hasattr(os, "fork"):
        return 1
    lanes = min(rows, usable_cpus())
    try:
        free = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError):  # no free memory figure on this platform
        return lanes
    import resource  # Unix only, as os.fork is
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss << 10  # kB where sysconf has it
    return max(1, min(lanes, 1 + free // max(peak, 1)))


def _run_lane(state: SimpleNamespace, rows: list, indices):
    """Runs the rows at ``indices``, each on a copy of state with an empty
    record and reports, and yields for each (index, the warnings the
    filters let through, unshown, as warn_explicit's first five arguments,
    the row's state or what it raised), the state of every row but row 0
    cut to its reports and record; it stops after the first row that fails.
    The filters act where each warning is raised, with its module: an error
    filter fails the row, an ignore filter drops the warning."""
    for index in indices:
        config, stages = rows[index]
        caught, show = [], warnings.showwarning
        warnings.showwarning = lambda message, category, filename, lineno, *where: caught.append(
            (message, category, filename, lineno))
        try:
            done = run_stages(config, SimpleNamespace(**{**vars(state), "record": [],
                                                         "reports": []}), stages)
            if index:
                done = SimpleNamespace(reports=done.reports, record=done.record)
        except Exception as err:  # run_rows raises it in row order, as if raised here
            done = err
        finally:
            warnings.showwarning = show
        # the module a filter matches is the one the warning was raised in, else
        # the name warn_explicit makes of the file (given None, it drops the warning)
        modules = {getattr(module, "__file__", None): name
                   for name, module in list(sys.modules.items())} if caught else {}
        yield index, [(*shown, modules.get(shown[2], shown[2].removesuffix(".py")))
                      for shown in caught], done
        if isinstance(done, Exception):
            return


def _fork_lane(state: SimpleNamespace, rows: list, lane: int, lanes: int):
    """A worker that runs rows lane, lane + lanes, ... through _run_lane and
    pickles into a pipe, as each row ends, its warnings and outcome.
    Returns (pid, the pipe's read end)."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read)
            with os.fdopen(write, "wb") as pipe:
                for _, caught, done in _run_lane(state, rows, range(lane, len(rows), lanes)):
                    if not isinstance(done, (SimpleNamespace, StageError)):  # a program fault
                        os.write(2, "".join(traceback.format_exception(done)).encode())
                    pipe.write(pickle.dumps((caught, done)))
                    pipe.flush()  # this row's result outlives a later row that kills the worker
            status = 0
        except Exception:  # a result that does not pickle: its traceback, and no result
            os.write(2, traceback.format_exc().encode())
        finally:
            # no exit handler or inherited stdio buffer may run twice
            os._exit(status)
    os.close(write)
    return pid, os.fdopen(read, "rb")


def _end(workers: dict) -> None:
    """Closes the pipe of, kills and reaps each worker (lane: (pid, pipe)) not
    yet reaped, whether it still runs rows or has sent them all."""
    for pid, pipe in workers.values():
        pipe.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def run_rows(state: SimpleNamespace, rows: list[tuple[PipelineConfig, tuple]]
             ) -> list[SimpleNamespace]:
    """Runs each row of (config, stages) after the stages that left
    ``state``, on its own copy of it with an empty record and reports, and
    returns each row's state in row order: the first in full, the others as
    their reports and record.

    Row i runs in lane i mod L, L from _lanes: lane 0 in this process,
    each other lane in one forked worker, or here if the fork fails.  With
    one lane (one usable CPU, no os.fork, or too little free memory for a
    worker) every row runs here, in order.  This process runs its own lanes
    first, on a state whose ``workers`` says whether a worker runs (only
    then does run's row 0 format its artifacts, see format_stage), then
    takes every row's outcome in row order, a worker's from its pipe as the
    row comes up.  The warnings the filters let through are shown as each
    row is taken, once where one process running the rows in turn would
    show them once, and the first failed row raises what it raised, with no
    worker's pipe read past it.  Only then, as run_rows returns or raises,
    does _end kill and reap every worker.  A worker's memory peak is its
    own: it is not in this process's ru_maxrss, only in RUSAGE_CHILDREN.
    """
    lanes = _lanes(len(rows))
    workers, outcomes, registries = {}, {}, {}  # registries: one a module, as in one process
    try:
        for lane in range(1, lanes):
            try:
                workers[lane] = _fork_lane(state, rows, lane, lanes)
            except OSError:  # no process to spare: this one runs the lane
                pass
        for index, caught, done in _run_lane(
                SimpleNamespace(**vars(state), workers=bool(workers)), rows,
                [i for i in range(len(rows)) if i % lanes not in workers]):
            outcomes[index] = caught, done
        for index, (_, stages) in enumerate(rows):
            if index % lanes in workers:
                try:  # bytes this program's worker wrote
                    outcomes[index] = pickle.load(workers[index % lanes][1])
                except (EOFError, pickle.UnpicklingError):
                    pid, pipe = workers.pop(index % lanes)
                    pipe.close()
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                    raise StageError(stages[0][0], f"worker ended without a result ({how})")
            caught, done = outcomes[index]
            for message, category, filename, lineno, module in caught:
                warnings.warn_explicit(message, category, filename, lineno, module,
                                       registries.setdefault(module, {}))
            if isinstance(done, Exception):
                raise done
        return [outcomes[index][1] for index in range(len(rows))]
    finally:
        _end(workers)


# ---------------------------------------------------------------------------
# artifacts, formatted to lines (byte-stable: repr for floats, no timestamps)


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else repr(float(value))


def _loss_trace(report: fitmod.FitReport) -> list[str]:
    rows = zip(range(report.iterations), report.loss_total, report.loss_road,
               report.loss_terrain, report.loss_reg, strict=True)
    return ["iteration,total,road,terrain,reg"] + [",".join(map(_fmt, row)) for row in rows]


def write_metrics_csv(labels: tuple[str, ...],
                      rows: list[tuple[list[str], MetricReport]]) -> list[str]:
    """The lines of a CSV table, a row per (label cells, report): the cells
    under ``labels``, then the MetricReport fields."""
    lines = [",".join(labels + tuple(spec.name for spec in fields(MetricReport)))]
    return lines + [",".join(cells + [_fmt(value) for value in asdict(report).values()])
                    for cells, report in rows]


def _mesh_obj(state: SimpleNamespace) -> list[str]:
    """The NURBS TIN, colored by its error where it was scored."""
    errors = (metricsmod.vertex_errors(state.tin, state.gt_road, state.gt_terrain,
                                       state.mask_plus) if state.reports else None)
    return meshmod.export_mesh(state.tin, errors)


# file name -> its lines, formatted from a state
ARTIFACTS = {
    "mask_filtered.asc": lambda state: gridmod.save_mask(state.mask_plus),
    "surface.txt": lambda state: save_surface(state.surface),
    "loss_trace.csv": lambda state: _loss_trace(state.fit_report),
    "mesh.obj": _mesh_obj,
    "metrics.csv": lambda state: write_metrics_csv(("method",), state.reports),
    "ablate.csv": lambda state: write_metrics_csv(("param", "value"), state.reports),
}


def format_stage(config: PipelineConfig, state: SimpleNamespace) -> None:
    """While workers run the other rows, the subcommand's artifacts but metrics.csv, which needs
    every row's reports, as text in state.texts; with none, the text would only be held longer."""
    if state.workers:
        state.texts = {n: "\n".join(ARTIFACTS[n](state))
                       for n in PIPELINES[state.args.command][2] if n != "metrics.csv"}


def _out_dir(path: Path, flag: str) -> Path:
    """The directory of ``flag``, made before any stage runs so a bad path fails fast."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise UsageError(f"{flag}: {err}") from None
    return path


def _csv_cell(text: str, flag: str) -> str:
    """A --method or --values entry, which becomes one cell of a CSV row: a
    comma or a line break in it would split the row."""
    if any(c in text for c in ",\r\n"):
        raise UsageError(f"{flag}: {text!r} holds a comma or a line break")
    return text


# ---------------------------------------------------------------------------
# subcommands


def _report(record: list[tuple[str, dict]], paths: list[Path]) -> None:
    """Prints each record entry as 'label: key=value ...', floats to six
    significant digits, then 'wrote <path>' for each path."""
    for label, entry in record:
        print(" ".join([f"{label}:"] + [f"{key}={value:.6g}" if isinstance(value, float)
                                        else f"{key}={value}" for key, value in entry.items()]))
    for path in paths:
        print(f"wrote {path}")


# subcommand -> (stages it runs, rows of stages run after them through run_rows,
# artifacts in the order reported); _ablation splits ablate's stages into both
PIPELINES = {
    "filter": ((GRID, FILTER), (), ("mask_filtered.asc",)),
    "fit": ((GRID, DTM, FILTER, FIT), (), ("surface.txt", "loss_trace.csv")),
    "mesh": ((GRID, ("mesh", surface_stage), MESH), (), ("mesh.obj",)),
    "eval": ((GRID, DTM, TRUTH, ("metrics", mesh_file_stage), METRICS), (), ("metrics.csv",)),
    "run": ((GRID, DTM, TRUTH, FILTER), ((FIT, MESH, METRICS, ("mesh", format_stage)), BASELINES),
            ("loss_trace.csv", "mask_filtered.asc", "mesh.obj", "metrics.csv", "surface.txt")),
    "ablate": (STAGES, (), ("ablate.csv",)),
}


def cmd_pipeline(args: argparse.Namespace) -> int:
    """Run the subcommand's stages and rows, then, once all have succeeded, write its
    artifacts and print its record: the rows' records and reports in row order."""
    stages, rows, artifacts = PIPELINES[args.command]
    config = build_config(args)
    rows = [(config, row) for row in rows if config.baselines or row is not BASELINES]
    if args.command == "eval":
        _csv_cell(args.method, "--method")
    elif args.command == "ablate":
        stages, rows = _ablation(config, args, stages)
    out = _out_dir(config.out_dir, "--out-dir")
    state = run_stages(config, SimpleNamespace(args=args, record=[], reports=[], texts={}), stages)
    if rows:
        done = run_rows(state, rows)
        record, state = state.record, done[0]
        state.record = record + [entry for row in done for entry in row.record]
        state.reports = [pair for row in done for pair in row.reports]
    # each artifact waits as one string: its lines apart would hold more memory
    texts = {name: state.texts.get(name) or "\n".join(ARTIFACTS[name](state)) for name in artifacts}
    try:
        for name, text in texts.items():
            gridmod.write_lines(out / name, [text])
    except OSError as err:
        raise UsageError(f"--out-dir: {err}") from None
    _report(state.record, [out / name for name in artifacts])
    return 0


# the scene keys synth also takes as flags; synth.SCALAR_KEYS casts them
SYNTH_FLAGS = ("seed", "vehicles", "trees", "facades", "jitter_sigma",
               "target_road_fraction", "corrupt_mask")


def synth_stage(config: None, state: SimpleNamespace) -> None:
    """The --scene file's scene, or the default one, with the flags over it, saved to --out."""
    args = state.args
    spec = synthmod.parse_scene_file(args.scene) if args.scene else synthmod.SceneSpec()
    flags = {name: getattr(args, name) for name in SYNTH_FLAGS}
    scene = synthmod.generate(replace(spec, **{n: v for n, v in flags.items() if v is not None}))
    state.paths = synthmod.save_scene(scene, args.out)
    mask = scene.mask
    state.record.append(("scene", {"width": mask.width, "height": mask.height,
                                   "road_cells": mask.count,
                                   "road_fraction": mask.count / mask.bits.size,
                                   "noise_cells": int((scene.provenance.values > 0).sum())}))


def cmd_synth(args: argparse.Namespace) -> int:
    _out_dir(args.out, "--out")
    state = run_stages(None, SimpleNamespace(args=args, record=[]), (("grid", synth_stage),))
    _report(state.record, [state.paths[name] for name in sorted(state.paths)])
    return 0


def _ablation_variant(config: PipelineConfig, param: str, raw: str) -> PipelineConfig:
    """The config with the swept key set to one --values entry, validated."""
    if param == "sampling_rates":
        try:
            road, terrain = (float(v) for v in raw.split("/"))
        except ValueError:
            raise UsageError(
                f"sampling_rates values look like road/terrain, got {raw!r}") from None
        changes = {"road_rate": road, "terrain_rate": terrain}
    elif param == "baselines":
        raise UsageError("ablate scores only the NURBS TIN, so it cannot sweep baselines")
    elif param in _SECTIONS and _SECTIONS[param] != "paths":
        changes = {param: raw}
    else:
        raise UsageError(f"unknown ablation parameter {param!r}")
    try:
        return replace(config, **{key: _CASTERS[key](value) for key, value in changes.items()})
    except ValueError as err:
        raise UsageError(f"--values: {err}") from None


def _ablation(config: PipelineConfig, args: argparse.Namespace, stages: tuple) -> tuple:
    """The stages before the one the swept key feeds, run once, and a row per
    --values entry: the config at that value, the rest of the stages, then
    entry_stage, which labels the row's scores by the entry."""
    values = [_csv_cell(v, "--values") for v in args.values.split(",") if v]
    if not values:
        raise UsageError("--values must list at least one value")
    variants = [_ablation_variant(config, args.param, raw) for raw in values]
    key = "road_rate" if args.param == "sampling_rates" else args.param
    first = [name for name, _ in stages].index(_SECTION_STAGE[_SECTIONS[key]])
    return stages[:first], [
        (variant, (*stages[first:], ("metrics", partial(entry_stage, [args.param, raw]))))
        for raw, variant in zip(values, variants)]


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="roadsurf",
                     description="Road surface refinement pipeline")
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="generate a synthetic tile")
    synth.add_argument("--scene", type=Path, default=None,
                       help="scene spec file (key value per line)")
    synth.add_argument("--out", type=Path, required=True)
    for name in SYNTH_FLAGS:
        synth.add_argument("--" + name.replace("_", "-"), dest=name,
                           type=synthmod.SCALAR_KEYS[name], default=None)
    synth.set_defaults(func=cmd_synth)

    config = argparse.ArgumentParser(add_help=False)  # each pipeline subcommand's flags
    config.add_argument("--config", type=Path, default=None,
                        help="INI config file; flags override its keys")
    for (section, ini_key), key in _INI_KEYS.items():
        config.add_argument("--" + key.replace("_", "-"), dest=key, type=_CASTERS[key],
                            default=None, help=f"overrides [{section}] {ini_key}{_NOTES[key]}")
    config.set_defaults(func=cmd_pipeline)
    subcommands = {name: subs.add_parser(name, parents=[config], help=f"{name} stage")
                   for name in ("filter", "fit", "mesh", "eval", "run", "ablate")}
    subcommands["mesh"].add_argument("--surface", type=Path, required=True,
                                     help="serialized surface from the fit stage")
    subcommands["eval"].add_argument("--mesh", type=Path, required=True,
                                     help="OBJ mesh to evaluate")
    subcommands["eval"].add_argument("--method", default="mesh",
                                     help="method name for the CSV row")
    subcommands["ablate"].add_argument("--param", required=True,
                                       help="config key to sweep (or sampling_rates)")
    subcommands["ablate"].add_argument("--values", required=True,
                                       help="comma-separated values")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except StageError as err:
        print(str(err), file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
