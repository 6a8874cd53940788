"""Raster and mask data model, point sets as rasters, and ASCII grid round trips."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from roadsurf import grid, synth
from roadsurf.grid import (
    AsciiGridError,
    GridGeoref,
    Mask,
    Raster,
    load_mask,
    load_raster,
    mask_raster,
    resample_mask,
    save_mask,
    save_raster,
    save_rasters,
    write_lines,
)


def write_asc(path, body, ncols, nrows, xll=0.0, yll=0.0, cell=1.0, nodata=None, extra=()):
    """An ASCII grid whose header lines ``extra`` follow the standard ones."""
    lines = [f"ncols {ncols}", f"nrows {nrows}", f"xllcorner {xll}",
             f"yllcorner {yll}", f"cellsize {cell}"]
    if nodata is not None:
        lines.append(f"NODATA_value {nodata}")
    path.write_text("\n".join(lines + list(extra) + body) + "\n")
    return path


class TestLoadRaster:
    def test_basic_read_back(self, tmp_path):
        path = write_asc(tmp_path / "g.asc", ["1 2", "3 4"], 2, 2)
        raster = load_raster(path)
        assert raster.width == 2 and raster.height == 2
        # file rows run north to south; array row 0 is the south row
        npt.assert_array_equal(raster.values, [[3.0, 4.0], [1.0, 2.0]])
        # origin is the center of the southwest cell
        assert raster.origin_x == 0.5 and raster.origin_y == 0.5
        # the northwest cell center carries the file's first value
        i, j = raster.nearest_cell(0.5, 1.5)
        assert raster.values[j, i] == 1.0

    def test_row_width_mismatch(self, tmp_path):
        path = write_asc(tmp_path / "g.asc", ["1 2", "3 4"], 3, 2)
        with pytest.raises(AsciiGridError, match="dimension mismatch"):
            load_raster(path)

    def test_row_count_mismatch(self, tmp_path):
        path = write_asc(tmp_path / "g.asc", ["1 2", "3 4", "5 6"], 2, 2)
        with pytest.raises(AsciiGridError, match="dimension mismatch"):
            load_raster(path)

    def test_missing_header_key(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\n1 2\n3 4\n")
        with pytest.raises(AsciiGridError, match="missing header"):
            load_raster(path)

    def test_unparseable_value(self, tmp_path):
        path = write_asc(tmp_path / "g.asc", ["1 zz", "3 4"], 2, 2)
        with pytest.raises(AsciiGridError, match="cannot parse"):
            load_raster(path)

    def test_infinite_value_names_its_line(self, tmp_path):
        path = write_asc(tmp_path / "g.asc", ["1 2", "3 -inf"], 2, 2, nodata=-9999)
        with pytest.raises(AsciiGridError) as err:
            load_raster(path)
        assert str(err.value) == f"{path}:8: data values must be finite or NODATA"
        path = write_asc(tmp_path / "g.asc", ["1 2", "3 -inf"], 2, 2, nodata="-inf")
        assert load_raster(path).count == 3

    @pytest.mark.parametrize("header, line_no, message", [
        ({"xll": "nan"}, 3, "xllcorner must be finite, got 'nan'"),
        ({"xll": "inf"}, 3, "xllcorner must be finite, got 'inf'"),
        ({"yll": "-inf"}, 4, "yllcorner must be finite, got '-inf'"),
        ({"cell": "nan"}, 5, "cellsize must be finite, got 'nan'"),
        ({"cell": "inf"}, 5, "cellsize must be finite, got 'inf'"),
        ({"cell": "0"}, 5, "cellsize must be positive"),
        ({"cell": "-1.5"}, 5, "cellsize must be positive"),
        ({"ncols": "inf"}, 1, "ncols must be a positive integer, got 'inf'"),
        ({"ncols": "nan"}, 1, "ncols must be a positive integer, got 'nan'"),
        ({"ncols": "2.5"}, 1, "ncols must be a positive integer, got '2.5'"),
        ({"nrows": "0"}, 2, "nrows must be a positive integer, got '0'"),
        ({"nrows": "-2"}, 2, "nrows must be a positive integer, got '-2'"),
        ({"extra": ["ncols 3"]}, 6, "repeated header key 'ncols'"),
        ({"extra": ["CellSize 1.0"]}, 6, "repeated header key 'cellsize'"),
        ({"nodata": -9999, "extra": ["", "nodata_value 0"]}, 8,
         "repeated header key 'nodata_value'"),
    ])
    def test_bad_header_value(self, tmp_path, header, line_no, message):
        path = write_asc(tmp_path / "g.asc", ["1 2", "3 4"], **{"ncols": 2, "nrows": 2, **header})
        with pytest.raises(AsciiGridError) as err:
            load_raster(path)
        assert str(err.value) == f"{path}:{line_no}: {message}"

    def test_error_carries_line_number(self, tmp_path):
        path = write_asc(tmp_path / "g.asc", ["1 2", "3 oops"], 2, 2)
        with pytest.raises(AsciiGridError) as err:
            load_raster(path)
        assert err.value.line_no == 7
        assert str(path) in str(err.value)

    def test_nodata_becomes_nan(self, tmp_path):
        path = write_asc(tmp_path / "g.asc", ["1 -9999", "3 4"], 2, 2,
                         nodata=-9999)
        raster = load_raster(path)
        assert np.isnan(raster.values[1, 1])
        assert raster.valid.sum() == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_raster(tmp_path / "absent.asc")


def parse_ascii_per_line(path):
    """The ASCII grid parser before whole-array parsing: one ``float`` call
    per token, every check on each line as it is read.  It lets a repeated
    header key overwrite the earlier value."""
    header = {}
    rows = []
    ncols = nrows = None
    with open(path, "r") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            key = parts[0].lower()
            if ncols is None and key in grid._HEADER_KEYS:  # header lines precede the data
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
                continue
            if ncols is None:
                for req in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize"):
                    if req not in header:
                        raise AsciiGridError(path, line_no, f"missing header line {req!r}")
                ncols = int(header["ncols"])
                nrows = int(header["nrows"])
            try:
                row = np.array([float(v) for v in parts], dtype=float)
            except ValueError:
                raise AsciiGridError(path, line_no, f"cannot parse data row: {line.strip()[:60]!r}") from None
            if (np.isinf(row) & (row != header.get("nodata_value", np.nan))).any():
                raise AsciiGridError(path, line_no, "data values must be finite or NODATA")
            if row.size != ncols:
                raise AsciiGridError(
                    path, line_no,
                    f"dimension mismatch: row has {row.size} values, header says ncols {ncols}")
            rows.append(row)
    if ncols is None:
        raise AsciiGridError(path, 1, "no data rows found")
    if len(rows) != nrows:
        raise AsciiGridError(
            path, line_no,
            f"dimension mismatch: {len(rows)} data rows, header says nrows {nrows}")
    return header, np.vstack(rows)


def assert_parses_like_per_line(path):
    header, values = grid._parse_ascii(path)
    want_header, want_values = parse_ascii_per_line(path)
    assert header == want_header
    assert np.array_equal(values, want_values, equal_nan=True)
    assert np.array_equal(np.signbit(values), np.signbit(want_values))


def per_line_error(path):
    with pytest.raises(AsciiGridError) as err:
        parse_ascii_per_line(path)
    return str(err.value)


class TestPerLineParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_synth_layers(self, tmp_path, seed):
        paths = synth.save_scene(synth.generate(synth.SceneSpec(seed=seed)), tmp_path)
        assert len(paths) == 6
        for path in paths.values():
            assert_parses_like_per_line(path)

    def test_random_rasters_with_nodata_signed_zeros_and_extremes(self, tmp_path):
        rng = np.random.default_rng(5)
        for k in range(12):
            h, w = (int(n) for n in rng.integers(2, 12, 2))
            values = rng.normal(0.0, 10.0 ** rng.uniform(-3, 5), (h, w))
            pick = rng.random((h, w))
            values[pick < 0.15] = np.nan
            values[(pick >= 0.15) & (pick < 0.25)] = -0.0
            values[(pick >= 0.25) & (pick < 0.3)] = 1e300
            values[(pick >= 0.3) & (pick < 0.35)] = -1e300
            raster = Raster(w, h, float(rng.uniform(0.1, 5.0)),
                            float(rng.uniform(-1e6, 1e6)), float(rng.uniform(-1e6, 1e6)),
                            values)
            path = tmp_path / f"r{k}.asc"
            write_lines(path, save_raster(raster))
            assert_parses_like_per_line(path)
            back = load_raster(path)  # repr round trips every float exactly
            assert np.array_equal(back.values, raster.values, equal_nan=True)
            assert np.array_equal(np.signbit(back.values), np.signbit(raster.values))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_hand_written_body(self, tmp_path, newline):
        text = newline.join([
            "NCOLS 4", "", "nrows\t3", "  xllcorner -1.5", "yllcorner 2e3", "cellsize .5",
            "nodata_value -9999", "",
            "+5 .5 5. 1E+05",
            "",
            "\t-0.0\t nan  -9999 1e-300  ",
            "   ",
            "-1E-5 +.25e+2 NaN -nan",
            "", "",
        ])
        path = tmp_path / "g.asc"
        path.write_bytes(text.encode())
        assert_parses_like_per_line(path)
        header, values = grid._parse_ascii(path)
        assert values.shape == (3, 4) and values[0].tolist() == [5.0, 0.5, 5.0, 1e5]

    @pytest.mark.parametrize("body", [
        ["1 x 3", "4 5 6", "7 8 9"],        # bad token on the first data line
        ["1 2 3", "", "4 x 6", "7 8 9"],    # ... a middle one, after a blank line
        ["1 2 3", "4 5 6", "7 8 x"],        # ... the last one
        ["1 2 3", "4 5", "7 8 9"],          # short row
        ["1 2", "4 5 6", "7 8 9"],          # short first row
        ["1 2", "4 5", "7 8"],              # every row short
        ["1 2 3", "4 5 6 7", "7 8 9"],      # long row
        ["1 2 3", "4 5 6"],                 # too few rows
        ["1 2 3", "4 5 6", "7 8 9", "1 2 3", "", ""],  # too many rows
        ["1 2 3", "4 inf 6", "7 8 9"],      # an infinity that is not NODATA
        ["1 2 3", "4 5 6", "7 8 9", "-inf 1 2"],  # ... on a row past nrows
        ["1 2 3", "inf 5", "7 8 9"],        # the infinity is named before the width
        ["inf 2", "4 5", "7 8"],
        ["1 inf 3", "4 x 6", "7 8 9"],      # the first offending line wins
        ["1 2 3", "x 5 6", "inf 8 9"],
        ["1 2 3", "4 # 6", "7 8 9"],        # '#' starts no comment
        ["1 2 3 # north row", "4 5 6", "7 8 9"],
        ["1 2 3", "ncols 3", "7 8 9"],      # a header key after the data
        [],                                 # empty body
        ["", "   "],
    ])
    @pytest.mark.parametrize("nodata", [None, -9999])
    def test_errors_name_the_same_line(self, tmp_path, body, nodata):
        path = write_asc(tmp_path / "g.asc", body, 3, 3, nodata=nodata)
        with pytest.raises(AsciiGridError) as err:
            load_raster(path)
        assert str(err.value) == per_line_error(path)

    def test_digit_group_underscores_are_rejected(self, tmp_path):
        # the one documented divergence: float() reads "1_0" as 10.0
        path = write_asc(tmp_path / "g.asc", ["1 2", "1_0 4"], 2, 2)
        assert parse_ascii_per_line(path)[1][1, 0] == 10.0
        with pytest.raises(AsciiGridError) as err:
            load_raster(path)
        assert str(err.value) == f"{path}:7: cannot parse data row: '1_0 4'"


def per_row_bytes(raster):
    """The ASCII grid of ``raster`` as a writer that formats every cell with
    its own ``repr``, row by row, writes it: the reference for the bytes."""
    cell = raster.cell_size
    out = np.flipud(np.where(np.isnan(raster.values), grid.NODATA, raster.values))
    lines = [
        f"ncols {raster.width}",
        f"nrows {raster.height}",
        f"xllcorner {float(raster.origin_x - 0.5 * cell)!r}",
        f"yllcorner {float(raster.origin_y - 0.5 * cell)!r}",
        f"cellsize {float(cell)!r}",
        f"NODATA_value {grid.NODATA!r}",
    ]
    for row in out.tolist():
        lines.append(" ".join(map(repr, row)))
    return ("\n".join(lines) + "\n").encode("utf-8")


# values whose text is easy to get wrong: signed zeros, extremes, the
# shortest repr that is not the %.17g one, subnormals and NODATA itself
SPECIAL = [np.nan, 0.0, -0.0, 1e300, -1e300, 1e16, 9999999999999998.0, 1e-5, 5e-324,
           -5e-324, grid.NODATA, 0.1, 1.0, -1.0]


def special_raster(rng, h, w):
    values = rng.normal(0.0, 10.0 ** rng.uniform(-3, 5), (h, w))
    pick = rng.random((h, w)) < 0.6
    values[pick] = rng.choice(SPECIAL, int(pick.sum()))
    return Raster(w, h, float(rng.uniform(0.1, 5.0)),
                  float(rng.uniform(-1e6, 1e6)), float(rng.uniform(-1e6, 1e6)), values)


class TestSaveRaster:
    def test_roundtrip_random(self, tmp_path):
        rng = np.random.default_rng(42)
        for k in range(10):
            h = int(rng.integers(2, 9))
            w = int(rng.integers(2, 9))
            values = rng.normal(100.0, 25.0, (h, w))
            values[rng.random((h, w)) < 0.2] = np.nan
            cell = float(rng.uniform(0.5, 5.0))
            raster = Raster(w, h, cell,
                            float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)),
                            values)
            path = tmp_path / f"r{k}.asc"
            write_lines(path, save_raster(raster))
            back = load_raster(path)
            assert back.georef_equals(raster)
            npt.assert_array_equal(back.values, raster.values)  # repr round trips exactly

    @pytest.mark.parametrize("cell", [1.0, 0.4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scene_layers_equal_the_per_row_writer(self, tmp_path, cell, seed):
        scene = synth.generate(synth.SceneSpec(cell_size=cell, vehicles=6, trees=8, facades=2,
                                               corrupt_mask=True, jitter_sigma=0.02, seed=seed))
        paths = synth.save_scene(scene, tmp_path)
        for layer, path in paths.items():
            raster = getattr(scene, layer)
            if layer == "mask":
                raster = mask_raster(raster)
            assert path.read_bytes() == per_row_bytes(raster), layer

    def test_special_values_equal_the_per_row_writer(self, tmp_path):
        rng = np.random.default_rng(7)
        for k in range(12):
            raster = special_raster(rng, *(int(n) for n in rng.integers(2, 12, 2)))
            write_lines(tmp_path / f"r{k}.asc", save_raster(raster))
            assert (tmp_path / f"r{k}.asc").read_bytes() == per_row_bytes(raster)
            mask = Mask(raster.width, raster.height, raster.cell_size, raster.origin_x,
                        raster.origin_y, rng.random(raster.values.shape) < 0.5)
            write_lines(tmp_path / f"m{k}.asc", save_mask(mask))
            assert (tmp_path / f"m{k}.asc").read_bytes() == per_row_bytes(mask_raster(mask))

    def test_one_call_for_many_rasters_equals_one_call_each(self, tmp_path):
        rng = np.random.default_rng(11)
        first = special_raster(rng, 7, 5)
        values = first.values.copy()[::-1, :4]  # shared values in other cells
        values[0] = -0.0
        second = Raster(4, 7, 0.5, 3.0, -2.0, values)
        save_rasters({tmp_path / "a.asc": first, tmp_path / "b.asc": second})
        write_lines(tmp_path / "a1.asc", save_raster(first))
        write_lines(tmp_path / "b1.asc", save_raster(second))
        assert (tmp_path / "a.asc").read_bytes() == (tmp_path / "a1.asc").read_bytes()
        assert (tmp_path / "b.asc").read_bytes() == (tmp_path / "b1.asc").read_bytes()
        assert (tmp_path / "b.asc").read_bytes() == per_row_bytes(second)

    @settings(max_examples=80, deadline=None)
    @given(values=arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(2, 6)),
                         elements=st.floats(allow_infinity=False)))
    def test_any_grid_equals_the_per_row_writer_and_loads_back(self, tmp_path_factory, values):
        raster = Raster(values.shape[1], values.shape[0], 1.0, 0.0, 0.0, values)
        path = tmp_path_factory.mktemp("h") / "g.asc"
        write_lines(path, save_raster(raster))
        assert path.read_bytes() == per_row_bytes(raster)
        back = load_raster(path).values
        expected = np.where(values == grid.NODATA, np.nan, values)
        npt.assert_array_equal(back, expected)
        valid = ~np.isnan(expected)
        assert np.array_equal(np.signbit(back[valid]), np.signbit(expected[valid]))


class TestMaskIO:
    def test_roundtrip(self, tmp_path):
        bits = np.array([[1, 0, 1], [0, 1, 0]])
        mask = Mask(3, 2, 1.0, 0.5, 0.5, bits)
        path = tmp_path / "m.asc"
        write_lines(path, save_mask(mask))
        back = load_mask(path)
        npt.assert_array_equal(back.bits, bits)
        assert back.georef_equals(mask)

    def test_nodata_reads_as_zero(self, tmp_path):
        path = write_asc(tmp_path / "m.asc", ["1 -9999", "0 1"], 2, 2,
                         nodata=-9999)
        mask = load_mask(path)
        assert mask.bits[1, 1] == 0
        assert mask.count == 2

    def test_non_binary_rejected(self, tmp_path):
        path = write_asc(tmp_path / "m.asc", ["1 2", "0 1"], 2, 2)
        with pytest.raises(AsciiGridError, match="0 or 1"):
            load_mask(path)
        # the first offending value in file order names the line, blank lines counted
        path = write_asc(tmp_path / "m.asc", ["1 0", "", "0 2", "3 1"], 2, 3, nodata=-9999)
        with pytest.raises(AsciiGridError) as err:
            load_mask(path)
        assert str(err.value) == f"{path}:9: mask values must be 0 or 1"


class TestResampleMask:
    def test_identity_when_equal(self):
        bits = np.array([[1, 0], [0, 1]])
        mask = Mask(2, 2, 1.0, 0.5, 0.5, bits)
        target = Raster(2, 2, 1.0, 0.5, 0.5, np.zeros((2, 2)))
        out = resample_mask(mask, target)
        npt.assert_array_equal(out.bits, bits)

    def test_upsample_replicates_quadrants(self):
        # source: 2x2 cells of size 2 over the square [0, 4]^2
        mask = Mask(2, 2, 2.0, 1.0, 1.0, np.array([[1, 0], [0, 1]]))
        target = Raster(4, 4, 1.0, 0.5, 0.5, np.zeros((4, 4)))
        out = resample_mask(mask, target)
        expected = np.zeros((4, 4), dtype=int)
        for j in range(4):
            for i in range(4):
                x, y = 0.5 + i, 0.5 + j
                si = int(np.clip(round((x - 1.0) / 2.0), 0, 1))
                sj = int(np.clip(round((y - 1.0) / 2.0), 0, 1))
                expected[j, i] = mask.bits[sj, si]
        npt.assert_array_equal(out.bits, expected)
        # each source bit fills its own 2x2 quadrant
        npt.assert_array_equal(out.bits[:2, :2], 1)
        npt.assert_array_equal(out.bits[2:, 2:], 1)
        npt.assert_array_equal(out.bits[:2, 2:], 0)

    def test_all_ones_stays_all_ones(self):
        mask = Mask(3, 3, 2.0, 1.0, 1.0, np.ones((3, 3)))
        target = Raster(6, 6, 1.0, 0.5, 0.5, np.zeros((6, 6)))
        out = resample_mask(mask, target)
        npt.assert_array_equal(out.bits, 1)

    def test_extent_mismatch_rejected(self):
        mask = Mask(2, 2, 1.0, 0.5, 0.5, np.ones((2, 2)))
        target = Raster(2, 2, 1.0, 3.5, 0.5, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="extent"):
            resample_mask(mask, target)


class TestPointExtraction:
    def test_all_zero_mask_empty(self):
        dsm = Raster(3, 3, 1.0, 0.0, 0.0, np.full((3, 3), 5.0))
        mask = Mask(3, 3, 1.0, 0.0, 0.0, np.zeros((3, 3)))
        assert dsm.subset(mask.bits == 1).count == 0

    def test_single_cell(self):
        dsm = Raster(3, 3, 2.0, 10.0, 20.0, np.full((3, 3), 5.0))
        bits = np.zeros((3, 3))
        bits[1, 1] = 1
        mask = Mask(3, 3, 2.0, 10.0, 20.0, bits)
        points = dsm.subset(mask.bits == 1)
        assert points.count == 1
        npt.assert_array_equal(points.xyz(), [[12.0, 22.0, 5.0]])

    def test_count_oracle_with_nodata(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(6, 8))
        values[rng.random((6, 8)) < 0.3] = np.nan
        bits = (rng.random((6, 8)) < 0.5).astype(int)
        dsm = Raster(8, 6, 1.0, 0.0, 0.0, values)
        mask = Mask(8, 6, 1.0, 0.0, 0.0, bits)
        points = dsm.subset(mask.bits == 1)
        expected = int(((bits == 1) & ~np.isnan(values)).sum())
        assert points.count == expected

    def test_terrain_all_ones_empty(self):
        dtm = Raster(2, 2, 1.0, 0.0, 0.0, np.ones((2, 2)))
        mask = Mask(2, 2, 1.0, 0.0, 0.0, np.ones((2, 2)))
        assert dtm.subset(mask.bits == 0).count == 0

    def test_terrain_all_zero_full(self):
        dtm = Raster(2, 2, 1.0, 0.0, 0.0, np.ones((2, 2)))
        mask = Mask(2, 2, 1.0, 0.0, 0.0, np.zeros((2, 2)))
        assert dtm.subset(mask.bits == 0).count == 4

    def test_partition_of_valid_cells(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(7, 5))
        values[rng.random((7, 5)) < 0.25] = np.nan
        bits = (rng.random((7, 5)) < 0.4).astype(int)
        dsm = Raster(5, 7, 1.0, 0.0, 0.0, values)
        dtm = Raster(5, 7, 1.0, 0.0, 0.0, values + 1.0)
        mask = Mask(5, 7, 1.0, 0.0, 0.0, bits)
        road = dsm.subset(mask.bits == 1)
        terrain = dtm.subset(mask.bits == 0)
        assert road.count + terrain.count == int(dsm.valid.sum())
        assert not (road.valid & terrain.valid).any()

    def test_dimension_mismatch(self):
        dsm = Raster(3, 3, 1.0, 0.0, 0.0, np.zeros((3, 3)))
        mask = Mask(2, 2, 1.0, 0.0, 0.0, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="dimensions"):
            dsm.subset(mask.bits == 1)


class TestGeoref:
    def test_cell_world_inverse(self):
        georef = GridGeoref(9, 4, 0.7, -5.0, 12.0)
        for j in range(4):
            for i in range(9):
                x, y = georef.cell_to_world(i, j)
                ci, cj = georef.world_to_cell(x, y)
                npt.assert_allclose([ci, cj], [i, j], atol=1e-12)

    def test_extents(self):
        georef = GridGeoref(3, 2, 2.0, 10.0, 20.0)
        assert georef.center_extent == (10.0, 14.0, 20.0, 22.0)
        assert georef.edge_extent == (9.0, 15.0, 19.0, 23.0)

    def test_nearest_cell_clips(self):
        georef = GridGeoref(3, 3, 1.0, 0.0, 0.0)
        i, j = georef.nearest_cell(-100.0, 100.0)
        assert (i, j) == (0, 2)

    def test_mask_contains_reads_the_nearest_cell(self):
        # row 0 is the southern row: the set cells are (1, 0) and (0, 1)
        mask = Mask(2, 2, 1.0, 0.0, 0.0, np.array([[0, 1], [1, 0]]))
        x = np.array([[0.9, -5.0], [0.2, 0.4]])
        y = np.array([[0.4, 9.0], [0.6, 0.4]])
        npt.assert_array_equal(mask.contains(x, y), [[True, True], [True, False]])

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="at least 2x2"):
            Raster(1, 2, 1.0, 0.0, 0.0, np.zeros((2, 1)))

    def test_bad_cell_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Mask(2, 2, 0.0, 0.0, 0.0, np.zeros((2, 2)))


class TestDataModel:
    def test_raster_rejects_inf(self):
        values = np.zeros((2, 2))
        values[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            Raster(2, 2, 1.0, 0.0, 0.0, values)

    def test_raster_shape_check(self):
        with pytest.raises(ValueError, match="shape"):
            Raster(3, 2, 1.0, 0.0, 0.0, np.zeros((3, 3)))

    def test_mask_bit_check(self):
        with pytest.raises(ValueError, match="0 or 1"):
            Mask(2, 2, 1.0, 0.0, 0.0, np.full((2, 2), 2))

    def test_point_grid_xyz_row_major(self):
        z = np.array([[1.0, np.nan], [np.nan, 4.0]])
        points = Raster(2, 2, 2.0, 0.0, 0.0, z)
        xyz = points.xyz()
        npt.assert_allclose(xyz, [[0.0, 0.0, 1.0], [2.0, 2.0, 4.0]])

    def test_point_grid_subset(self):
        z = np.arange(4.0).reshape(2, 2)
        points = Raster(2, 2, 1.0, 0.0, 0.0, z)
        mask = Mask(2, 2, 1.0, 0.0, 0.0, np.array([[0, 1], [0, 1]]))
        sub = points.subset(mask.bits == 1)
        assert sub.count == 2
        assert np.isnan(sub.values[0, 0]) and sub.values[0, 1] == 1.0
