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
  ablate  the stages before the swept key's stage once, the rest once per
          --values entry, no baselines; dsm, dtm, mask; ablate.csv

grid also loads the DTM where a dtm is required and the ground truth where
metrics run, mesh the --surface file and metrics the --mesh file, scored as
--method.  ablate sweeps one --param: a key of [filter], [surface], [fit] or
[sampling], or sampling_rates with road/terrain values such as 0.5/5.  It
scores only the NURBS TIN, so baselines is a usage error, as is a [paths]
key.  A row without the filter stage uses the input mask as the filtered
mask.  Ground truth defaults to the masked DSM and the unmasked DTM cells.
synth writes a synthetic tile: dsm, dtm, mask, gt_road, gt_terrain and
provenance layers.

Each stage appends what it made to the run record, printed as one "label:
key=value ..." line per entry (floats to six significant digits), then one
"wrote <path>" line per artifact; ablate prints the stages it runs once, then
one "<param>=<value>" entry of NURBS TIN scores per value.

After the stages they share, some rows of stages are independent: run's
NURBS row (fit, mesh, metrics) and its baseline row, which needs the
filtered mask but not the fit, and ablate's rows, one per --values entry.
Such rows run at once: row i in lane i mod L, L being at most the CPUs the
process may use, and at most one more than the copies of this process, at
its peak so far, that the free memory holds; lane 0 runs in this process
and each other lane in one forked worker that sends back its rows' scores
and record entries.  With one lane, or where os.fork does not exist, the
rows run here one after another.  Output, artifacts and exit codes are the
same either way: the record keeps row order; the warning filters act where
a warning is raised, with its module, and the warnings they let through
are shown after the last row, in row order; where rows fail, what the
lowest failing row raised is raised here.  A worker that ends without a
result fails its row under the row's first stage.  A worker's memory peak
is its own: it is not in this process's ru_maxrss, only in RUSAGE_CHILDREN.

Exit codes: 0 success, 1 usage error, 2 stage failure (message
"stage <name>: <reason>" on stderr).  Stage names are grid, filter, fit,
mesh, metrics.

Configuration comes from an INI-style file (sections [paths], [filter],
[surface], [fit], [sampling], [metrics]) and each key can be overridden by
a command line flag of the same name, for example theta_xy in [filter] by
--theta-xy.  Defaults: a 35x35 cubic control grid, and the defaults of the
stages' own config classes (FilterParams, LossWeights, FitConfig,
SamplingConfig); the fit freezes its weights (weight_learning_rate 0, a
B-spline) and ends on its seventh plateau, or at max_iters 1000.  Booleans
take configparser's spellings (1/yes/true/on, 0/no/false/off).

Every artifact is byte-stable for a fixed BLAS build and thread count
(OPENBLAS_NUM_THREADS): rerunning on identical inputs reproduces it exactly.
The fit's last bits follow the BLAS summation order, of its data-term sums
as of its raster products, which the thread count can change.  Text files
are read and written as UTF-8.
"""

from __future__ import annotations

import argparse
import configparser
import io
import os
import pickle
import signal
import sys
import traceback
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
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
from .nurbs import check_degrees, load_surface, save_surface


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


def _key(section: str, default):
    """A config field read from [section] of the INI file."""
    return field(default=default, metadata={"section": section})


@dataclass
class PipelineConfig:
    """Every pipeline knob in one flat record.

    Each field's INI key is its name without the "<section>_" prefix.  The
    stages' own config classes are built on demand so their validation
    applies, and their defaults are the ones used here.
    """

    dsm: Path | None = _key("paths", None)
    dtm: Path | None = _key("paths", None)
    mask: Path | None = _key("paths", None)
    gt_road: Path | None = _key("paths", None)
    gt_terrain: Path | None = _key("paths", None)
    out_dir: Path = _key("paths", Path("out"))
    filter_enabled: bool = _key("filter", True)
    theta_xy: float = _key("filter", FilterParams.theta_xy)
    theta_z: float = _key("filter", FilterParams.theta_z)
    top_k: int = _key("filter", FilterParams.top_k)
    num_ctrl_u: int = _key("surface", 35)
    num_ctrl_v: int = _key("surface", 35)
    degree_u: int = _key("surface", 3)
    degree_v: int = _key("surface", 3)
    lambda_terrain: float = _key("fit", LossWeights.lambda_terrain)
    lambda_reg: float = _key("fit", LossWeights.lambda_reg)
    learning_rate: float = _key("fit", FitConfig.learning_rate)
    weight_learning_rate: float = _key("fit", FitConfig.weight_learning_rate)
    max_iters: int = _key("fit", FitConfig.max_iters)
    early_stop_patience: int = _key("fit", FitConfig.early_stop_patience)
    early_stop_min_delta: float = _key("fit", FitConfig.early_stop_min_delta)
    road_rate: float = _key("sampling", SamplingConfig.road_rate)
    terrain_rate: float = _key("sampling", SamplingConfig.terrain_rate)
    baselines: bool = _key("metrics", True)

    def stage_config(self, cls):
        """A stage's own config class, built from the fields of the same name."""
        return cls(**{spec.name: getattr(self, spec.name) for spec in fields(cls)
                      if spec.name in _SECTIONS})

    def validate(self) -> None:
        gridmod.check_finite(self)
        for cls in (FilterParams, LossWeights, FitConfig, SamplingConfig):
            self.stage_config(cls)
        check_degrees((self.degree_u, self.degree_v), (self.num_ctrl_u, self.num_ctrl_v))


# the stage each INI section feeds; [metrics] baselines also switches the
# baseline meshes that run scores after the NURBS TIN
_SECTION_STAGE = {"paths": "grid", "filter": "filter", "surface": "fit", "fit": "fit",
                  "sampling": "mesh", "metrics": "metrics"}
_SECTIONS = {spec.name: spec.metadata["section"] for spec in fields(PipelineConfig)}
_INI_KEYS = {(section, name.removeprefix(section + "_")): name
             for name, section in _SECTIONS.items()}
_CASTERS = {spec.name: synthmod.CASTERS.get(spec.type, Path) for spec in fields(PipelineConfig)}


def build_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults, overridden by the --config INI file, overridden by flags."""
    config = PipelineConfig()
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
                    setattr(config, name, _CASTERS[name](raw))
                except ValueError as err:
                    raise UsageError(f"{path}: [{section}] {key}: {err}") from None
    for name in _SECTIONS:
        value = getattr(args, name, None)
        if value is not None:
            setattr(config, name, value)
    try:
        config.validate()
    except ValueError as err:
        raise UsageError(str(err)) from None
    return config


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
        filtered, state.mask_plus = run_filter(points, config.stage_config(FilterParams))
        kept = filtered.count
    state.record.append(("filter", {"kept": kept, "removed": total - kept}))


def fit_stage(config: PipelineConfig, state: SimpleNamespace) -> None:
    surface0 = fitmod.initialize_surface(
        state.dsm, state.dtm, state.mask_plus, num_ctrl_u=config.num_ctrl_u,
        num_ctrl_v=config.num_ctrl_v, degree_u=config.degree_u,
        degree_v=config.degree_v)
    state.surface, state.fit_report = fitmod.fit(
        surface0, state.dsm, state.dtm, state.mask_plus,
        config.stage_config(LossWeights), config.stage_config(FitConfig))
    state.record.append(("fit", {key: value for key, value in vars(state.fit_report).items()
                                 if not key.startswith("loss_")}))


def surface_stage(config: PipelineConfig, state: SimpleNamespace) -> None:
    """The --surface file."""
    surface = state.surface = load_surface(_require(state.args.surface, "surface"))
    state.record.append(("surface", {"ctrl_u": surface.num_ctrl_u, "ctrl_v": surface.num_ctrl_v}))


def mesh_stage(config: PipelineConfig, state: SimpleNamespace) -> None:
    """Dual-rate TIN of the surface."""
    tin = state.tin = meshmod.build_tin(state.surface, state.mask_plus,
                                        config.stage_config(SamplingConfig))
    state.meshes = {"nurbs": tin}
    state.record.append(("mesh", {"vertices": len(tin.vertices), "triangles": len(tin.triangles)}))


def mesh_file_stage(config: PipelineConfig, state: SimpleNamespace) -> None:
    """The --mesh file, under the --method name."""
    mesh = meshmod.load_mesh(_require(state.args.mesh, "mesh"))
    state.meshes = {state.args.method: mesh}
    state.record.append(("mesh", {"vertices": len(mesh.vertices),
                                  "triangles": len(mesh.triangles)}))


def metrics_stage(config: PipelineConfig, state: SimpleNamespace) -> None:
    """Adds the scores of the meshes built or loaded last to state.reports."""
    for name, mesh in state.meshes.items():
        state.reports[name] = metricsmod.evaluate_all(
            mesh, state.gt_road, state.gt_terrain, state.mask_plus)
        state.record.append((name, asdict(state.reports[name])))


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


def run_stages(config: PipelineConfig, state: SimpleNamespace,
               stages: tuple) -> SimpleNamespace:
    """Runs (name, stage) pairs in order; what a stage raises becomes
    StageError(name), an allocation it cannot make included (a sampling
    lattice too large for memory, say)."""
    for name, stage in stages:
        try:
            stage(config, state)
        except (OSError, ValueError, RuntimeError) as err:
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


def _run_row(state: SimpleNamespace, row: tuple) -> tuple[list, SimpleNamespace | Exception]:
    """A row's stages, run on a copy of state with an empty record and
    reports: (the warnings the filters let through, unshown, as
    warn_explicit's first five arguments; the row's state, or what it
    raised).  The filters act where each warning is raised, with its module:
    an error filter fails the row, an ignore filter drops the warning."""
    config, stages = row
    caught, show = [], warnings.showwarning
    warnings.showwarning = lambda message, category, filename, lineno, *where: caught.append(
        (message, category, filename, lineno))
    try:
        done = run_stages(config, SimpleNamespace(**{**vars(state), "record": [],
                                                     "reports": {}}), stages)
    except Exception as err:  # run_rows raises it in row order, as if raised here
        done = err
    finally:
        warnings.showwarning = show
    # the module a filter matches is the one the warning was raised in, else
    # the name warn_explicit makes of the file (given None, it drops the warning)
    modules = {getattr(module, "__file__", None): name
               for name, module in list(sys.modules.items())} if caught else {}
    return [(*shown, modules.get(shown[2], shown[2].removesuffix(".py")))
            for shown in caught], done


def _send(fd: int, outcome) -> None:
    data = memoryview(pickle.dumps(outcome))
    while data:
        data = data[os.write(fd, data):]


def _fork_lane(state: SimpleNamespace, rows: list, lane: int, lanes: int):
    """A worker that runs rows lane, lane + lanes, ... and pickles into a
    pipe, for each, what _run_row returns, the state cut to its reports and
    record, stopping at the first row that fails.  Returns (pid, the pipe's
    read end, lane)."""
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
            for row in rows[lane::lanes]:
                caught, done = _run_row(state, row)
                if isinstance(done, SimpleNamespace):
                    done = SimpleNamespace(reports=done.reports, record=done.record)
                elif not isinstance(done, StageError):  # a fault of the program
                    os.write(2, "".join(traceback.format_exception(done)).encode())
                _send(write, (caught, done))
                if isinstance(done, Exception):
                    break
            status = 0
        except Exception:  # a result that does not pickle: its traceback, and no result
            os.write(2, traceback.format_exc().encode())
        finally:
            # no exit handler or inherited stdio buffer may run twice
            os._exit(status)
    os.close(write)
    return pid, os.fdopen(read, "rb"), lane


def _outcomes(results: io.BytesIO, code: int, rows: list, lane: int, lanes: int) -> dict:
    """A lane's outcomes by row, from what its worker sent before it ended
    with exit code ``code``; the row it left without a result fails under
    its first stage's name."""
    outcomes = {}
    for index in range(lane, len(rows), lanes):
        try:
            outcomes[index] = pickle.load(results)  # bytes this program's worker wrote
        except (EOFError, pickle.UnpicklingError):
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            outcomes[index] = [], StageError(rows[index][1][0][0],
                                             f"worker ended without a result ({how})")
        if isinstance(outcomes[index][1], Exception):
            break
    return outcomes


def run_rows(state: SimpleNamespace, rows: list[tuple[PipelineConfig, tuple]]
             ) -> list[SimpleNamespace]:
    """Runs each row of (config, stages) after the stages that left
    ``state``, on its own copy of it with an empty record and reports, and
    returns each row's state in row order: the first in full, the others as
    their reports and record.

    Row i runs in lane i mod L, L from _lanes: lane 0 in this process,
    each other lane in one forked worker.  With one lane (one usable CPU,
    no os.fork, or too little free memory for a worker) every row runs
    here, in order.  Either way the warnings the filters let through are
    shown at the end, in row order, once where one process running the rows
    in turn would show them once, and where rows fail, what the lowest
    failing row raised is raised, after the warnings of the rows up to it.
    This process reaps every worker before it returns or raises, ending
    those whose rows all come after a failure of its own.
    """
    lanes = _lanes(len(rows))
    workers, mine, outcomes = [], [0], {}
    try:
        for lane in range(1, lanes):
            try:
                workers.append(_fork_lane(state, rows, lane, lanes))
            except OSError:  # no process to spare: this one runs the lane
                mine.append(lane)
        for index in range(len(rows)):
            if index % lanes in mine:
                caught, done = _run_row(state, rows[index])
                if isinstance(done, Exception):
                    outcomes[index] = caught, done
                    for pid, _, lane in workers:
                        if lane > index:
                            os.kill(pid, signal.SIGKILL)
                    break
                outcomes[index] = caught, done if index == 0 else SimpleNamespace(
                    reports=done.reports, record=done.record)
        while workers:
            pid, pipe, lane = workers[0]
            with pipe:
                results = io.BytesIO(pipe.read())
            del workers[0]  # reaped here: the finally below must not signal its pid
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            outcomes.update(_outcomes(results, code, rows, lane, lanes))
    finally:
        for pid, pipe, _ in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    registries = {}  # one a module, kept over the rows as in one process
    for index in range(len(rows)):
        caught, done = outcomes[index]
        for message, category, filename, lineno, module in caught:
            warnings.warn_explicit(message, category, filename, lineno, module,
                                   registries.setdefault(module, {}))
        if isinstance(done, Exception):
            raise done
    return [outcomes[index][1] for index in range(len(rows))]


# ---------------------------------------------------------------------------
# artifact writers (byte-stable: repr for floats, no timestamps)


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else repr(float(value))


def _write_loss_trace(path: Path, report: fitmod.FitReport) -> None:
    rows = zip(range(report.iterations), report.loss_total, report.loss_road,
               report.loss_terrain, report.loss_reg, strict=True)
    gridmod.write_lines(path, ["iteration,total,road,terrain,reg"]
                        + [",".join(map(_fmt, row)) for row in rows])


def write_metrics_csv(path: Path, labels: tuple[str, ...],
                      rows: list[tuple[list[str], MetricReport]]) -> None:
    """One row per report: its label cells, then the MetricReport fields."""
    lines = [",".join(labels + tuple(spec.name for spec in fields(MetricReport)))]
    lines += [",".join(cells + [_fmt(value) for value in asdict(report).values()])
              for cells, report in rows]
    gridmod.write_lines(path, lines)


def _write_mesh(state: SimpleNamespace, path: Path) -> None:
    """The NURBS TIN, colored by its error where it was scored."""
    errors = (metricsmod.vertex_errors(state.tin, state.gt_road, state.gt_terrain,
                                       state.mask_plus) if state.reports else None)
    meshmod.export_mesh(state.tin, path, errors)


# file name -> writer(state, path)
ARTIFACTS = {
    "mask_filtered.asc": lambda state, path: gridmod.save_mask(state.mask_plus, path),
    "surface.txt": lambda state, path: save_surface(state.surface, path),
    "loss_trace.csv": lambda state, path: _write_loss_trace(path, state.fit_report),
    "mesh.obj": _write_mesh,
    "metrics.csv": lambda state, path: write_metrics_csv(
        path, ("method",), [([name], report) for name, report in state.reports.items()]),
}


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


# subcommand -> (stages it runs, rows of stages that run after them through
# run_rows, artifacts in the order reported)
PIPELINES = {
    "filter": ((GRID, FILTER), (), ("mask_filtered.asc",)),
    "fit": ((GRID, DTM, FILTER, FIT), (), ("surface.txt", "loss_trace.csv")),
    "mesh": ((GRID, ("mesh", surface_stage), MESH), (), ("mesh.obj",)),
    "eval": ((GRID, DTM, TRUTH, ("metrics", mesh_file_stage), METRICS), (), ("metrics.csv",)),
    "run": ((GRID, DTM, TRUTH, FILTER), ((FIT, MESH, METRICS), BASELINES),
            tuple(sorted(ARTIFACTS))),
}


def cmd_pipeline(args: argparse.Namespace) -> int:
    """Run the subcommand's stages and rows, write its artifacts, print its
    record: the rows' records and reports in row order."""
    stages, rows, artifacts = PIPELINES[args.command]
    config = build_config(args)
    if args.command == "eval":
        _csv_cell(args.method, "--method")
    out = _out_dir(config.out_dir, "--out-dir")
    state = run_stages(config, SimpleNamespace(args=args, record=[], reports={}), stages)
    rows = [(config, row) for row in rows if config.baselines or row is not BASELINES]
    if rows:
        done = run_rows(state, rows)
        record = state.record + [entry for row in done for entry in row.record]
        state = done[0]
        state.record = record
        state.reports = {name: report for row in done for name, report in row.reports.items()}
    try:
        for name in artifacts:
            ARTIFACTS[name](state, out / name)
    except OSError as err:
        raise UsageError(f"--out-dir: {err}") from None
    _report(state.record, [out / name for name in artifacts])
    return 0


# the scene keys synth also takes as flags; synth.SCALAR_KEYS casts them
SYNTH_FLAGS = ("seed", "vehicles", "trees", "facades", "jitter_sigma",
               "target_road_fraction", "corrupt_mask")


def cmd_synth(args: argparse.Namespace) -> int:
    out = _out_dir(args.out, "--out")
    try:
        spec = synthmod.parse_scene_file(args.scene) if args.scene else synthmod.SceneSpec()
        flags = {name: getattr(args, name) for name in SYNTH_FLAGS}
        spec = replace(spec, **{name: value for name, value in flags.items() if value is not None})
        scene = synthmod.generate(spec)
        paths = synthmod.save_scene(scene, out)
    except (ValueError, OSError) as err:
        raise StageError("grid", str(err)) from err
    mask = scene.mask
    _report([("scene", {"width": mask.width, "height": mask.height, "road_cells": mask.count,
                        "road_fraction": mask.count / mask.bits.size,
                        "noise_cells": int((scene.provenance.values > 0).sum())})],
            [paths[name] for name in sorted(paths)])
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
        variant = replace(config, **{key: _CASTERS[key](value)
                                     for key, value in changes.items()})
        variant.validate()
    except ValueError as err:
        raise UsageError(f"--values: {err}") from None
    return variant


def cmd_ablate(args: argparse.Namespace) -> int:
    """Stages before the one the swept key feeds run once; the rest once per value."""
    config = build_config(args)
    values = [_csv_cell(v, "--values") for v in args.values.split(",") if v]
    if not values:
        raise UsageError("--values must list at least one value")
    variants = [_ablation_variant(config, args.param, raw) for raw in values]
    key = "road_rate" if args.param == "sampling_rates" else args.param
    first = [name for name, _ in STAGES].index(_SECTION_STAGE[_SECTIONS[key]])
    path = _out_dir(config.out_dir, "--out-dir") / "ablate.csv"
    shared = run_stages(config, SimpleNamespace(args=args, record=[], reports={}),
                        STAGES[:first])
    reports = [row.reports["nurbs"]
               for row in run_rows(shared, [(variant, STAGES[first:]) for variant in variants])]
    try:
        write_metrics_csv(path, ("param", "value"),
                          [([args.param, raw], report) for raw, report in zip(values, reports)])
    except OSError as err:
        raise UsageError(f"--out-dir: {err}") from None
    _report(shared.record + [(f"{args.param}={raw}", asdict(report))
                             for raw, report in zip(values, reports)], [path])
    return 0


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
                            default=None, help=f"overrides [{section}] {ini_key}")
    config.set_defaults(func=cmd_pipeline)
    subcommands = {name: subs.add_parser(name, parents=[config], help=f"{name} stage")
                   for name in ("filter", "fit", "mesh", "eval", "run", "ablate")}
    subcommands["ablate"].set_defaults(func=cmd_ablate)
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
