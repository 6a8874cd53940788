"""Georeferenced elevation rasters and binary masks.

``Raster`` is the one type for elevation grids and for point sets on grid
cells: an extracted set of road or terrain points is a raster whose cells
without a point are NaN.

Conventions shared by the whole package:

* Arrays have shape ``(H, W)`` and are indexed ``[j, i]``, where ``i`` is the
  column (x axis, west to east) and ``j`` is the row (y axis, south to
  north).  Row ``j = 0`` is the southernmost row.
* Cells are square, as the one ``cellsize`` of the file format makes them.
  World coordinates refer to cell centers: ``x = origin_x + i * cell_size``
  and ``y = origin_y + j * cell_size``.
* Missing elevations are held as NaN in memory and serialized as the NODATA
  value of the ASCII grid format.

The on-disk format is the plain-text ASCII grid (``.asc``): a header of
``ncols``, ``nrows``, ``xllcorner``, ``yllcorner``, ``cellsize`` and an
optional ``NODATA_value``, followed by ``nrows`` rows of ``ncols`` values
ordered north to south.  Because files run north to south and arrays run
south to north, rows are flipped on load and save.

Data values are separated by any whitespace; blank lines between rows are
skipped, and ``#`` starts no comment.  A value is a decimal number as
numpy's text reader parses it: an optional sign, digits with an optional
point and exponent (``+5``, ``.5``, ``5.``, ``1E+05``), or ``nan``, ``inf``
or ``infinity`` in any case, correctly rounded as ``float`` rounds it.
Unlike ``float``, the reader takes no digit-group underscores (``1_0``) and
no non-ASCII digits.  An infinite value must equal ``NODATA_value``.
Header values are read by ``float``.

The writer puts each cell down as ``repr`` of its float, NaN as NODATA, so
a saved raster loads back bit for bit, -0.0 with its sign; ``save_rasters``
writes several files and formats each distinct value once for all of them.

Every text file the package reads or writes, ``.asc`` or not, is UTF-8:
``read_lines`` reads it with lines ending at ``\\n``, ``\\r\\n`` or ``\\r``, and
``write_lines`` writes it with lines ending at ``\\n``.

A record check whose failure a file reader blames on a line raises
``FieldError``, which names the fields the check read.

``runs`` and ``blocks`` are the index helpers the other modules share: ``runs``
expands counts into ranges, ``blocks`` cuts sizes into blocks of bounded sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

NODATA = -9999.0

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


class AsciiGridError(ValueError):
    """Malformed ``.asc`` content; message carries file path and line number."""

    def __init__(self, path: str | Path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 text file, without their endings.

    Raises ValueError naming the file and line of a byte that is not UTF-8.
    """
    lines = []
    for line_no, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}:{line_no}: {err}") from None
    return lines


def write_lines(path: str | Path, lines: list[str]) -> None:
    """Write lines to a UTF-8 text file as bytes, each ending at ``\\n`` on any platform."""
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


class FieldError(ValueError):
    """A failed record check: ``keys`` are the fields it read, the one to blame
    first, ``index`` an array field's first rejected element in C order or 0."""

    def __init__(self, keys: tuple[str, ...], message: str, index: int = 0):
        super().__init__(message)
        self.keys, self.index = keys, index


def check_finite(record) -> None:
    """Raise ValueError naming the first float field of the dataclass
    ``record`` that is NaN or infinite."""
    for spec in fields(record):
        value = getattr(record, spec.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{spec.name} must be finite, got {value}")


def runs(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated, in the dtype of counts."""
    out = np.arange(counts.sum(), dtype=counts.dtype)
    out -= np.repeat(np.cumsum(counts, dtype=counts.dtype) - counts, counts)
    return out


def blocks(sizes: np.ndarray, limit: int):
    """Bounds (a, b) of consecutive runs of sizes that sum to at most limit,
    or of one size alone above it."""
    ends = np.cumsum(sizes)
    a = 0
    while a < len(sizes):
        b = max(a + 1, int(np.searchsorted(ends, (ends[a - 1] if a else 0) + limit, "right")))
        yield a, b
        a = b


@dataclass
class GridGeoref:
    """Placement of a W x H cell grid in world coordinates.

    ``origin_x``/``origin_y`` are the world coordinates of the center of
    cell (0, 0), the southwest cell.
    """

    width: int
    height: int
    cell_size: float
    origin_x: float
    origin_y: float

    def _check_georef(self, array: np.ndarray, name: str) -> None:
        """Checks the georeference and that ``array``, the grid's ``name``
        field, has shape (height, width)."""
        if self.width < 2 or self.height < 2:
            raise ValueError(f"grid must be at least 2x2, got {self.width}x{self.height}")
        if not self.cell_size > 0:
            raise ValueError("cell size must be positive")
        if array.shape != (self.height, self.width):
            raise ValueError(f"{name} shape {array.shape} does not match (H, W)="
                             f"({self.height}, {self.width})")

    def cell_to_world(self, i, j):
        """World coordinates of the center of cell (i, j). Accepts arrays."""
        x = self.origin_x + np.asarray(i) * self.cell_size
        y = self.origin_y + np.asarray(j) * self.cell_size
        return x, y

    def world_to_cell(self, x, y):
        """Continuous cell coordinates of a world position. Accepts arrays."""
        ci = (np.asarray(x) - self.origin_x) / self.cell_size
        cj = (np.asarray(y) - self.origin_y) / self.cell_size
        return ci, cj

    def nearest_cell(self, x, y):
        """Indices of the cell whose center is nearest to (x, y), clipped to
        the grid. Ties between two centers round half to even. Accepts arrays."""
        ci, cj = self.world_to_cell(x, y)
        i = np.clip(np.round(ci), 0, self.width - 1).astype(int)
        j = np.clip(np.round(cj), 0, self.height - 1).astype(int)
        return i, j

    @property
    def center_extent(self) -> tuple[float, float, float, float]:
        """(x_min, x_max, y_min, y_max) spanned by cell centers."""
        return (
            self.origin_x,
            self.origin_x + (self.width - 1) * self.cell_size,
            self.origin_y,
            self.origin_y + (self.height - 1) * self.cell_size,
        )

    @property
    def edge_extent(self) -> tuple[float, float, float, float]:
        """(x_min, x_max, y_min, y_max) of the outer cell edges."""
        return (
            self.origin_x - 0.5 * self.cell_size,
            self.origin_x + (self.width - 0.5) * self.cell_size,
            self.origin_y - 0.5 * self.cell_size,
            self.origin_y + (self.height - 0.5) * self.cell_size,
        )

    def georef_equals(self, other: "GridGeoref") -> bool:
        return (
            self.width == other.width
            and self.height == other.height
            and math.isclose(self.cell_size, other.cell_size, rel_tol=1e-9, abs_tol=1e-9)
            and math.isclose(self.origin_x, other.origin_x, rel_tol=1e-9, abs_tol=1e-9)
            and math.isclose(self.origin_y, other.origin_y, rel_tol=1e-9, abs_tol=1e-9)
        )


@dataclass
class Raster(GridGeoref):
    """Elevation grid or point set. ``values`` has shape (H, W); NaN marks
    missing cells, or cells that carry no point."""

    values: np.ndarray = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self._check_georef(self.values, "values")
        bad = ~(np.isfinite(self.values) | np.isnan(self.values))
        if bad.any():
            raise ValueError("raster contains non-finite values that are not NODATA")

    @property
    def valid(self) -> np.ndarray:
        return ~np.isnan(self.values)

    @property
    def count(self) -> int:
        return int(self.valid.sum())

    def xyz(self) -> np.ndarray:
        """(N, 3) array of valid cells as points, in row-major scan order."""
        jj, ii = np.nonzero(self.valid)
        x, y = self.cell_to_world(ii, jj)
        return np.column_stack([x, y, self.values[jj, ii]])

    def subset(self, selection: np.ndarray) -> Raster:
        """Cells of self where the (H, W) boolean ``selection`` is true; the
        others become NaN.  ``dsm.subset(mask.bits == 1)`` are the road
        points, ``dtm.subset(mask.bits == 0)`` the terrain points."""
        if np.shape(selection) != self.values.shape:
            raise ValueError("mask dimensions do not match raster")
        return replace(self, values=np.where(selection, self.values, np.nan))


@dataclass
class Mask(GridGeoref):
    """Binary grid aligned with a raster. ``bits`` has shape (H, W), values 0/1."""

    bits: np.ndarray = None

    def __post_init__(self):
        self.bits = np.asarray(self.bits)
        self._check_georef(self.bits, "bits")
        if not np.isin(self.bits, (0, 1)).all():
            raise ValueError("mask bits must be 0 or 1")
        self.bits = self.bits.astype(np.uint8)

    @property
    def count(self) -> int:
        return int(self.bits.sum())

    def contains(self, x, y) -> np.ndarray:
        """True where the cell nearest to (x, y) is set: for a road mask,
        whether a plan position is on the road. Accepts arrays."""
        i, j = self.nearest_cell(x, y)
        return self.bits[j, i] == 1


def _read_header(path: Path, lines: list[str]) -> tuple[dict, int]:
    """Header values and the index of the first data line in ``lines``."""
    header: dict[str, float] = {}
    for index, line in enumerate(lines):
        parts = line.split()
        if not parts:
            continue
        line_no = index + 1
        key = parts[0].lower()
        if key not in _HEADER_KEYS:  # the first data line ends the header
            for req in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize"):
                if req not in header:
                    raise AsciiGridError(path, line_no, f"missing header line {req!r}")
            return header, index
        if key in header:
            raise AsciiGridError(path, line_no, f"repeated header key {key!r}")
        if len(parts) != 2:
            raise AsciiGridError(path, line_no, f"header line needs one value, got {line.strip()!r}")
        try:
            value = header[key] = float(parts[1])
        except ValueError:
            raise AsciiGridError(path, line_no, f"cannot parse header value {parts[1]!r}") from None
        if key in ("ncols", "nrows") and not (value.is_integer() and value > 0):
            raise AsciiGridError(path, line_no, f"{key} must be a positive integer, got {parts[1]!r}")
        if key in ("xllcorner", "yllcorner", "cellsize") and not math.isfinite(value):
            raise AsciiGridError(path, line_no, f"{key} must be finite, got {parts[1]!r}")
        if key == "cellsize" and value <= 0:
            raise AsciiGridError(path, line_no, "cellsize must be positive")
    raise AsciiGridError(path, 1, "no data rows found")


def _parse_rows(lines: list[str]) -> np.ndarray:
    """The numbers of ``lines`` as a (rows, columns) array; blank lines are
    skipped. Raises ValueError on a token it cannot parse or on rows of
    unequal length."""
    return np.loadtxt(lines, comments=None, ndmin=2)


def _not_binary(values: np.ndarray, nodata: float) -> np.ndarray:
    """Where a mask value is none of 0, 1, NODATA and NaN."""
    return ~(np.isin(values, (0.0, 1.0, nodata)) | np.isnan(values))


def _raise_at_first_bad_row(path: Path, lines: list[str], start: int,
                            ncols: int, nodata: float, mask: bool) -> None:
    """Check the data lines one at a time and raise AsciiGridError at the
    first that fails: a token that does not parse, an infinity that is not
    NODATA, a length other than ``ncols``, or in a mask a value that is not
    binary, checked in that order."""
    for line_no, line in enumerate(lines[start:], start=start + 1):
        if not line.split():
            continue
        try:
            row = _parse_rows([line])[0]
        except ValueError:
            raise AsciiGridError(path, line_no, f"cannot parse data row: {line.strip()[:60]!r}") from None
        if (np.isinf(row) & (row != nodata)).any():
            raise AsciiGridError(path, line_no, "data values must be finite or NODATA")
        if row.size != ncols:
            raise AsciiGridError(
                path, line_no,
                f"dimension mismatch: row has {row.size} values, header says ncols {ncols}")
        if mask and _not_binary(row, nodata).any():
            raise AsciiGridError(path, line_no, "mask values must be 0 or 1")


def _parse_ascii(path: str | Path, mask: bool = False) -> tuple[dict, np.ndarray]:
    """Header and data rows, in file order, of an ASCII grid file (a mask if ``mask``).

    The data lines are parsed in one call; only a file that fails a check
    is walked line by line, to name the first offending line.
    """
    path = Path(path)
    lines = read_lines(path)
    header, start = _read_header(path, lines)
    ncols = int(header["ncols"])
    nrows = int(header["nrows"])
    nodata = header.get("nodata_value", np.nan)
    try:
        values = _parse_rows(lines[start:])
    except ValueError:
        _raise_at_first_bad_row(path, lines, start, ncols, nodata, mask)
        raise
    bad = np.isinf(values) & (values != nodata)
    if mask:
        bad |= _not_binary(values, nodata)
    if values.shape[1] != ncols or bad.any():
        _raise_at_first_bad_row(path, lines, start, ncols, nodata, mask)
    if len(values) != nrows:
        raise AsciiGridError(
            path, len(lines),
            f"dimension mismatch: {len(values)} data rows, header says nrows {nrows}")
    return header, values


def load_raster(path: str | Path) -> Raster:
    """Read an ASCII grid file into a Raster.

    Raises FileNotFoundError if the file is absent and AsciiGridError (with
    the offending line number) on malformed content.
    """
    return _read_grid(path, mask=False)


def _read_grid(path: str | Path, mask: bool) -> Raster:
    header, values = _parse_ascii(path, mask)
    cell = float(header["cellsize"])
    nodata = header.get("nodata_value")
    if nodata is not None:
        values = np.where(values == nodata, np.nan, values)
    values = np.flipud(values)  # file rows run north to south
    return Raster(
        width=int(header["ncols"]),
        height=int(header["nrows"]),
        cell_size=cell,
        origin_x=float(header["xllcorner"]) + 0.5 * cell,
        origin_y=float(header["yllcorner"]) + 0.5 * cell,
        values=values,
    )


def _grid_lines(rasters: list[Raster]):
    """The ASCII grid lines of each raster in turn, NaN cells as NODATA.

    Each distinct cell value, told apart by its bit pattern so that -0.0
    stays apart from 0.0, is formatted once for all the rasters of a call:
    the layers of a scene share most of their values."""
    cells = np.concatenate([np.flipud(np.where(np.isnan(r.values), NODATA, r.values)).ravel()
                            for r in rasters])
    distinct, inverse = np.unique(cells.view(np.int64), return_inverse=True)
    del cells
    text = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    start = 0
    for raster in rasters:
        rows = text[inverse[start:start + raster.values.size]].reshape(raster.values.shape)
        start += raster.values.size
        cell = raster.cell_size
        yield [
            f"ncols {raster.width}",
            f"nrows {raster.height}",
            f"xllcorner {float(raster.origin_x - 0.5 * cell)!r}",
            f"yllcorner {float(raster.origin_y - 0.5 * cell)!r}",
            f"cellsize {float(cell)!r}",
            f"NODATA_value {NODATA!r}",
            *(" ".join(row) for row in rows.tolist()),
        ]


def save_rasters(rasters: dict[str | Path, Raster]) -> None:
    """Write each Raster of ``rasters``, keyed by path, as an ASCII grid."""
    for path, lines in zip(rasters, _grid_lines(list(rasters.values()))):
        write_lines(path, lines)


def save_raster(raster: Raster) -> list[str]:
    """A Raster's ASCII grid lines, NaN cells as NODATA, for ``write_lines``."""
    return next(_grid_lines([raster]))


def load_mask(path: str | Path) -> Mask:
    """Read a 0/1 ASCII grid as a Mask. NODATA cells become 0."""
    raster = _read_grid(path, mask=True)
    bits = np.where(np.isnan(raster.values), 0.0, raster.values)
    return Mask(raster.width, raster.height, raster.cell_size,
                raster.origin_x, raster.origin_y, bits.astype(np.uint8))


def mask_raster(mask: Mask) -> Raster:
    """The mask as a raster of 0.0 and 1.0, as ``save_mask`` formats it."""
    return Raster(mask.width, mask.height, mask.cell_size,
                  mask.origin_x, mask.origin_y, mask.bits.astype(float))


def save_mask(mask: Mask) -> list[str]:
    return save_raster(mask_raster(mask))


def resample_mask(mask: Mask, target: Raster) -> Mask:
    """Nearest-neighbor resampling of a mask onto the grid of ``target``.

    The mask and the target must cover the same world extent to within half
    of one source cell.
    """
    a = mask.edge_extent
    b = target.edge_extent
    for va, vb in zip(a, b):
        if abs(va - vb) > 0.5 * mask.cell_size:
            raise ValueError(
                f"mask extent {a} does not match target extent {b} within half a source cell")
    xs, ys = target.cell_to_world(np.arange(target.width), np.arange(target.height))
    si, _ = mask.nearest_cell(xs, np.zeros_like(xs))
    _, sj = mask.nearest_cell(np.zeros_like(ys), ys)
    bits = mask.bits[np.ix_(sj, si)]
    return Mask(target.width, target.height, target.cell_size,
                target.origin_x, target.origin_y, bits)
