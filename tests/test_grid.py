"""Raster and mask data model, point sets as rasters, and ASCII grid round trips."""

import numpy as np
import numpy.testing as npt
import pytest

from roadsurf import grid
from roadsurf.grid import (
    AsciiGridError,
    GridGeoref,
    Mask,
    Raster,
    load_mask,
    load_raster,
    resample_mask,
    save_mask,
    save_raster,
)


def write_asc(path, body, ncols, nrows, xll=0.0, yll=0.0, cell=1.0, nodata=None):
    lines = [f"ncols {ncols}", f"nrows {nrows}", f"xllcorner {xll}",
             f"yllcorner {yll}", f"cellsize {cell}"]
    if nodata is not None:
        lines.append(f"NODATA_value {nodata}")
    path.write_text("\n".join(lines + body) + "\n")
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
            save_raster(raster, path)
            back = load_raster(path)
            assert back.georef_equals(raster)
            npt.assert_allclose(back.values, raster.values, atol=1e-6, equal_nan=True)


class TestMaskIO:
    def test_roundtrip(self, tmp_path):
        bits = np.array([[1, 0, 1], [0, 1, 0]])
        mask = Mask(3, 2, 1.0, 0.5, 0.5, bits)
        path = tmp_path / "m.asc"
        save_mask(mask, path)
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
