import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_bands
from forestinv.errors import (
    CubeFormatError,
    DataError,
    GridFormatError,
    OutOfBoundsError,
    PointCloudFormatError,
)
from forestinv.geodata import (
    CubeFile,
    Grid,
    PointCloud,
    bilinear_sample,
    read_ascii_grid,
    read_envi_cube,
    read_point_cloud,
    terrain_derivatives,
    write_ascii_grid,
    write_envi_cube,
    write_point_cloud,
    write_table,
)


def make_grid(values, xll=0.0, yll=0.0, cellsize=1.0, nodata=-9999.0):
    return Grid(np.asarray(values, dtype=float), xll, yll, cellsize, nodata)


# ---------------------------------------------------------------------------
# ASCII grid I/O
# ---------------------------------------------------------------------------


class TestAsciiGrid:
    def test_round_trip_identity(self, tmp_path):
        g = make_grid([[1.0, 2.0], [3.0, 4.0]], xll=10.0, yll=20.0, cellsize=1.0)
        path = tmp_path / "g.asc"
        write_ascii_grid(g, path)
        h = read_ascii_grid(path)
        assert h.ncols == 2 and h.nrows == 2
        assert h.xll == 10.0 and h.yll == 20.0 and h.cellsize == 1.0
        np.testing.assert_array_equal(h.values, g.values)

    def test_nodata_sentinel(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
            "NODATA_VALUE -9999\n-9999 5\n")
        g = read_ascii_grid(path)
        assert g.nodata == -9999.0
        np.testing.assert_array_equal(g.valid_mask(), [[False, True]])

    def test_row_value_count_mismatch_names_row(self, tmp_path):
        path = tmp_path / "bad.asc"
        path.write_text(
            "NCOLS 3\nNROWS 2\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n"
            "NODATA_VALUE -9999\n1 2 3 4\n5 6 7\n")
        with pytest.raises(GridFormatError, match="row 1"):
            read_ascii_grid(path)

    def test_non_numeric_token_has_line_number(self, tmp_path):
        path = tmp_path / "bad.asc"
        path.write_text(
            "NCOLS 2\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n"
            "NODATA_VALUE -9999\n1 foo\n")
        with pytest.raises(GridFormatError, match="line 7.*'foo'"):
            read_ascii_grid(path)

    def test_malformed_header_key(self, tmp_path):
        path = tmp_path / "bad.asc"
        path.write_text("NCOLZ 2\nNROWS 1\n")
        with pytest.raises(GridFormatError, match="line 1"):
            read_ascii_grid(path)

    def test_header_any_letter_case(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "nCoLs 1\nNrows 1\nxллcorner 0\n".replace("лл", "ll")
            + "YLLCORNER 0\ncellsize 2\nnodata_value -1\n7\n")
        g = read_ascii_grid(path)
        assert g.cellsize == 2.0 and g.values[0, 0] == 7.0

    def test_round_trip_precision(self, tmp_path):
        rng = np.random.default_rng(7)
        vals = rng.uniform(-1e4, 1e4, (5, 4))
        g = make_grid(vals, xll=654321.125, yll=5.0e6, cellsize=0.5)
        path = tmp_path / "g.asc"
        write_ascii_grid(g, path)
        h = read_ascii_grid(path)
        np.testing.assert_allclose(h.values, g.values, rtol=1e-6)
        assert (h.ncols, h.nrows) == (g.ncols, g.nrows)

    def test_missing_rows(self, tmp_path):
        path = tmp_path / "bad.asc"
        path.write_text(
            "NCOLS 2\nNROWS 3\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n"
            "NODATA_VALUE -9999\n1 2\n")
        with pytest.raises(GridFormatError, match="expected 3"):
            read_ascii_grid(path)

    @pytest.mark.parametrize("ncols, nrows, where", [
        (10 ** 6, 10 ** 6, "found 1 data rows, expected 1000000"),
        (10 ** 12, 1, r"row 1 \(line 6\) has 2 values, expected 1000000000000"),
    ])
    def test_header_is_checked_against_the_data_before_allocating(
            self, tmp_path, ncols, nrows, where):
        # the grids these headers declare would need terabytes
        path = tmp_path / "bad.asc"
        path.write_text(f"NCOLS {ncols}\nNROWS {nrows}\nXLLCORNER 0\n"
                        f"YLLCORNER 0\nCELLSIZE 1\n1 2\n")
        with pytest.raises(GridFormatError, match=where):
            read_ascii_grid(path)


def test_grid_world_cell_round_trip():
    g = make_grid(np.zeros((4, 5)), xll=100.0, yll=200.0, cellsize=2.0)
    for r in range(4):
        for c in range(5):
            x, y = g.cell_center(r, c)
            assert g.cell_of(x, y) == (r, c)


def near(lo, hi):
    return st.floats(lo, hi) | st.floats(allow_nan=False,
                                         allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(x=near(95.0, 115.0), y=near(195.0, 215.0))
def test_grid_contains_exactly_the_points_cell_of_places(x, y):
    g = make_grid(np.zeros((4, 5)), xll=100.0, yll=200.0, cellsize=2.0)
    if abs(x) < 1e9 and abs(y) < 1e9:
        r, c = g.cell_of(x, y)
        assert g.contains(x, y) == (0 <= r < g.nrows and 0 <= c < g.ncols)
    else:  # decided before any int cast, so nothing warns
        assert not g.contains(x, y)


def test_grid_contains_at_the_edges():
    g = make_grid(np.zeros((4, 5)), xll=100.0, yll=200.0, cellsize=2.0)
    below = np.nextafter
    assert g.contains(100.0, 200.0)
    assert g.contains(below(110.0, 0), below(208.0, 0))
    assert not g.contains(110.0, 201.0)
    assert not g.contains(101.0, 208.0)
    assert not g.contains(below(100.0, 0), 201.0)
    assert not g.contains(1e300, 201.0)


# ---------------------------------------------------------------------------
# Point cloud I/O
# ---------------------------------------------------------------------------


class TestPointCloud:
    def test_three_lines(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,y,z\n1,2,3\n4,5,6\n7,8,9\n")
        cloud = read_point_cloud(path)
        assert len(cloud) == 3
        assert cloud.return_number.tolist() == [1, 1, 1]
        assert not cloud.is_ground.any()

    def test_optional_columns(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,y,z,return_number,is_ground\n1,2,3,2,1\n")
        cloud = read_point_cloud(path)
        assert cloud.return_number[0] == 2
        assert bool(cloud.is_ground[0])

    def test_non_numeric_line_number(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,y,z\n1.0,2.0,3.0\n1.0,2.0,abc\n")
        with pytest.raises(PointCloudFormatError, match="line 3"):
            read_point_cloud(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        # np.loadtxt refuses the whitespace-only line; the table rule skips it
        path = tmp_path / "p.csv"
        path.write_text("x,y,z\n1,2,3\n\n   \n4,5,6\n")
        assert read_point_cloud(path).z.tolist() == [3.0, 6.0]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("")
        with pytest.raises(PointCloudFormatError, match="empty"):
            read_point_cloud(path)

    def test_round_trip(self, tmp_path):
        cloud = PointCloud.from_xyz([1.5, 2.5], [3.5, 4.5], [5.0, 6.0],
                                    return_number=np.array([1, 2]),
                                    is_ground=np.array([False, True]))
        path = tmp_path / "p.csv"
        write_point_cloud(cloud, path)
        back = read_point_cloud(path)
        np.testing.assert_allclose(back.x, cloud.x)
        np.testing.assert_allclose(back.z, cloud.z)
        assert back.is_ground.tolist() == [False, True]

    @pytest.mark.slow
    def test_million_points_under_two_seconds(self, tmp_path):
        import time

        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1000, (1_000_000, 3))
        path = tmp_path / "big.csv"
        with open(path, "w") as f:
            f.write("x,y,z\n")
            np.savetxt(f, pts, fmt="%.3f", delimiter=",")
        t0 = time.perf_counter()
        cloud = read_point_cloud(path)
        elapsed = time.perf_counter() - t0
        assert len(cloud) == 1_000_000
        assert elapsed < 2.0


# Values whose text form is easy to get wrong; the writers must print each
# exactly as format(v, ".10g") does.
AWKWARD_VALUES = [-0.0, 0.0, 1e-300, 5e-324, -9999.0, 0.1, 1 / 3, 1e16,
                  123456789.0123, -2.5e-7]


def test_writers_match_per_value_format(tmp_path, monkeypatch):
    # tables are written in slices of 16 rows: 13 whole ones and a part
    monkeypatch.setattr("forestinv.geodata._TABLE_ROWS", 16)
    rng = np.random.default_rng(3)
    noise = rng.standard_normal(200) * 10.0 ** rng.integers(-12, 13, 200)
    finite = np.concatenate([AWKWARD_VALUES, noise])

    values = np.concatenate([finite, [math.inf, -math.inf, math.nan]])
    values = values.reshape(3, -1)
    write_ascii_grid(make_grid(values), tmp_path / "g.asc")
    rows = (tmp_path / "g.asc").read_text().splitlines()[6:]
    assert rows == [" ".join(format(float(v), ".10g") for v in row)
                    for row in values]

    x, y, z = finite, finite[::-1], np.roll(finite, 1)
    returns = rng.integers(1, 5, len(finite))
    ground = rng.random(len(finite)) < 0.5
    cloud = PointCloud.from_xyz(x, y, z, return_number=returns,
                                is_ground=ground)
    write_point_cloud(cloud, tmp_path / "p.csv")
    lines = (tmp_path / "p.csv").read_text().splitlines()[1:]
    assert lines == [",".join([format(float(a), ".10g") for a in xyz]
                              + [str(r), str(int(g))])
                     for *xyz, r, g in zip(x, y, z, returns, ground)]

    floats = values.ravel().tolist()
    # an 11-digit int stays exact where "%.10g" would give 1.23456789e+10
    ints = [12345678901, -3] + list(range(len(floats) - 2))
    gappy = [None if i % 3 else v for i, v in enumerate(floats)]
    words = [f"sp{i}" for i in range(len(floats))]
    write_table(tmp_path / "t.csv", {"f": floats, "i": ints, "gappy": gappy,
                                     "s": words})
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "f,i,gappy,s"
    assert lines[1:] == [",".join([format(f, ".10g"), str(i),
                                   "" if g is None else format(g, ".10g"), w])
                         for f, i, g, w in zip(floats, ints, gappy, words)]
    write_table(tmp_path / "t.csv", {"f": [], "s": []})
    assert (tmp_path / "t.csv").read_text() == "f,s\n"
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", {"f": [1.0, 2.0], "s": ["a"]})


# ---------------------------------------------------------------------------
# ENVI cube I/O
# ---------------------------------------------------------------------------


class TestEnviCube:
    def _write(self, tmp_path, header_text, payload):
        hdr = tmp_path / "c.hdr"
        dat = tmp_path / "c.dat"
        hdr.write_text(header_text)
        dat.write_bytes(payload)
        return hdr, dat

    def test_float_cube_exact_values(self, tmp_path):
        vals = np.arange(12, dtype="<f4").reshape(3, 2, 2)  # bands, rows, cols
        hdr, dat = self._write(
            tmp_path,
            "ENVI\nsamples = 2\nlines = 2\nbands = 3\ndata type = 4\n"
            "interleave = bsq\nbyte order = 0\n",
            vals.tobytes())
        cube = read_envi_cube(hdr, dat)
        assert (cube.nbands, cube.nrows, cube.ncols) == (3, 2, 2)
        np.testing.assert_array_equal(all_bands(cube), vals.astype(float))
        # a narrower view reads its own bands from their byte offsets
        window = cube.bands(1, 3)
        assert window.nbands == 2
        np.testing.assert_array_equal(all_bands(window), vals[1:3])
        with pytest.raises(IndexError):
            window.band(2)
        dat.write_bytes(vals.tobytes()[:-1])
        with pytest.raises(CubeFormatError, match="band 2 is cut short"):
            window.band(1)

    def test_unsupported_interleave(self, tmp_path):
        hdr, dat = self._write(
            tmp_path,
            "samples = 1\nlines = 1\nbands = 1\ndata type = 4\n"
            "interleave = bil\nbyte order = 0\n",
            b"\x00\x00\x00\x00")
        with pytest.raises(CubeFormatError, match="bil"):
            read_envi_cube(hdr, dat)

    def test_uint16_big_endian_matches_hand_decode(self, tmp_path):
        # independent byte calculator: big-endian uint16 = 256*b0 + b1
        payload = bytes([0x02, 0x01, 0x00, 0xFF, 0x10, 0x00, 0x00, 0x01])
        expected = [256 * payload[i] + payload[i + 1] for i in range(0, 8, 2)]
        hdr, dat = self._write(
            tmp_path,
            "samples = 2\nlines = 2\nbands = 1\ndata type = 12\n"
            "interleave = bsq\nbyte order = 1\n",
            payload)
        cube = read_envi_cube(hdr, dat)
        assert cube.band(0).ravel().tolist() == expected

    def test_length_mismatch(self, tmp_path):
        hdr, dat = self._write(
            tmp_path,
            "samples = 2\nlines = 2\nbands = 1\ndata type = 4\n"
            "interleave = bsq\nbyte order = 0\n",
            b"\x00" * 12)
        with pytest.raises(CubeFormatError, match="length"):
            read_envi_cube(hdr, dat)

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = rng.uniform(0, 1, (4, 3, 5)).astype(np.float32)
        wavelengths = np.linspace(0.4, 1.0, 4)
        hdr = tmp_path / "c.hdr"
        dat = tmp_path / "c.dat"
        # each band lands at its own offset, whatever order it comes in
        write_envi_cube(((i, samples[i]) for i in (2, 0, 3, 1)), (3, 5),
                        500.0, 600.0, 0.5, wavelengths, hdr, dat)
        assert dat.read_bytes() == samples.astype("<f4").tobytes()
        back = read_envi_cube(hdr, dat)
        np.testing.assert_array_equal(all_bands(back), samples)
        np.testing.assert_allclose(back.wavelengths, wavelengths, rtol=1e-9)
        assert back.xll == 500.0 and back.yll == 600.0 and back.cellsize == 0.5

    @pytest.mark.parametrize("index, shape", [(4, (3, 5)), (-1, (3, 5)),
                                              (0, (5, 3))])
    def test_writer_refuses_a_band_outside_the_cube(self, tmp_path, index,
                                                    shape):
        with pytest.raises(ValueError, match="not in the 4 x 3 x 5 cube"):
            write_envi_cube([(index, np.zeros(shape))], (3, 5), 0.0, 0.0,
                            1.0, np.arange(4.0), tmp_path / "c.hdr",
                            tmp_path / "c.dat")

    @pytest.mark.parametrize("pixel, corner", [
        ("1, 1", (100.0, 199.0)),
        ("1.5, 1.5", (99.75, 199.25)),   # the first pixel's center
        ("3, 7", (99.0, 202.0)),
        ("nan, nan", None),
    ])
    def test_map_info_reference_pixel(self, tmp_path, pixel, corner):
        # a 2 x 2 cube of 0.5 m cells; (pixel) lies at easting 100,
        # northing 200, and pixel (1, 1) is the image's upper-left corner
        hdr, dat = self._write(
            tmp_path,
            "samples = 2\nlines = 2\nbands = 1\ndata type = 4\n"
            "interleave = bsq\nbyte order = 0\n"
            f"map info = {{projected, {pixel}, 100, 200, 0.5, 0.5}}\n",
            b"\x00" * 16)
        if corner is None:
            with pytest.raises(CubeFormatError, match="non-finite map info"):
                read_envi_cube(hdr, dat)
        else:
            cube = read_envi_cube(hdr, dat)
            assert (cube.xll, cube.yll, cube.cellsize) == (*corner, 0.5)


# ---------------------------------------------------------------------------
# Bilinear sampling
# ---------------------------------------------------------------------------


class TestGather:
    def _counting(self, cube_from, arr, monkeypatch):
        """A view of `arr` and the list of the bands it reads."""
        read = []
        band = CubeFile.band

        def counting_band(self, i):
            read.append(i)
            return band(self, i)

        monkeypatch.setattr(CubeFile, "band", counting_band)
        return cube_from(arr), read

    def test_rows_in_flat_order_on_bands_in_the_given_order(self, cube_from,
                                                            monkeypatch):
        arr = np.random.default_rng(3).normal(size=(5, 4, 6))
        cube, read = self._counting(cube_from, arr, monkeypatch)
        flat = np.array([17, 0, 23, 5, 9])
        bands = (3, 0, 4)
        kept, pixels = cube.gather(flat, bands)
        assert kept is flat
        np.testing.assert_array_equal(
            pixels, arr.reshape(5, -1)[list(bands)][:, flat].T)
        assert read == [3, 0, 4]

    def test_drops_exactly_the_rows_that_hold_a_nan(self, cube_from,
                                                    monkeypatch):
        arr = np.random.default_rng(4).normal(size=(4, 3, 5))
        arr[1, 0, 2] = np.nan   # cell 2, on a gathered band
        arr[3, 2, 4] = np.nan   # cell 14, likewise
        arr[2, 1, 1] = np.nan   # cell 6, on a band not gathered
        cube, read = self._counting(cube_from, arr, monkeypatch)
        flat = np.array([14, 6, 2, 0, 7, 13])
        kept, pixels = cube.gather(flat, [1, 3])
        np.testing.assert_array_equal(kept, [6, 0, 7, 13])
        np.testing.assert_array_equal(
            pixels, arr.reshape(4, -1)[[1, 3]][:, kept].T)
        assert read == [1, 3]


class TestBilinear:
    def test_constant_grid(self):
        g = make_grid(np.full((4, 4), 7.0))
        for x, y in [(1.0, 1.0), (2.3, 1.7), (0.5, 3.5)]:
            assert bilinear_sample(g, x, y) == pytest.approx(7.0, abs=1e-12)

    def test_hand_computed_center(self):
        # rows north to south: top row 0,0; bottom row 10,10 -> center 5
        g = make_grid([[0.0, 0.0], [10.0, 10.0]])
        assert bilinear_sample(g, 1.0, 1.0) == pytest.approx(5.0, abs=1e-12)

    def test_exact_at_cell_centers(self):
        rng = np.random.default_rng(1)
        g = make_grid(rng.uniform(0, 10, (3, 3)), xll=5.0, yll=6.0, cellsize=2.0)
        for r in range(3):
            for c in range(3):
                x, y = g.cell_center(r, c)
                assert bilinear_sample(g, x, y) == pytest.approx(
                    g.values[r, c], abs=1e-12)

    def test_out_of_hull(self):
        g = make_grid(np.zeros((2, 2)))
        with pytest.raises(OutOfBoundsError):
            bilinear_sample(g, 0.25, 1.0)

    def test_nodata_neighbor(self):
        g = make_grid([[1.0, -9999.0], [1.0, 1.0]])
        assert bilinear_sample(g, 1.0, 1.0) == -9999.0

    @given(a=st.floats(-5, 5), b=st.floats(-5, 5),
           qx=st.floats(0.5, 2.5), qy=st.floats(0.5, 2.5))
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, a, b, qx, qy):
        rng = np.random.default_rng(9)
        v1 = rng.uniform(0, 10, (3, 3))
        v2 = rng.uniform(0, 10, (3, 3))
        g1, g2 = make_grid(v1), make_grid(v2)
        combo = make_grid(a * v1 + b * v2)
        lhs = bilinear_sample(combo, qx, qy)
        rhs = a * bilinear_sample(g1, qx, qy) + b * bilinear_sample(g2, qx, qy)
        assert lhs == pytest.approx(rhs, abs=1e-9)


# ---------------------------------------------------------------------------
# Terrain derivatives
# ---------------------------------------------------------------------------


class TestTerrain:
    def test_flat_dtm(self):
        g = make_grid(np.full((5, 5), 100.0))
        d = terrain_derivatives(g)
        inner = d["slope"].values[1:-1, 1:-1]
        np.testing.assert_allclose(inner, 0.0, atol=1e-12)
        assert (d["aspect"].values[1:-1, 1:-1] == g.nodata).all()

    @pytest.mark.parametrize("k", [0.1, 0.5, 1.0, 2.0])
    def test_plane_slope_matches_atan(self, k):
        # z = k*x: analytic slope atan(k), steepest descent toward -x (west)
        nrows, ncols, cs = 6, 6, 1.0
        cols = np.arange(ncols)
        x = (cols + 0.5) * cs
        vals = np.tile(k * x, (nrows, 1))
        g = make_grid(vals, cellsize=cs)
        d = terrain_derivatives(g)
        expected = math.degrees(math.atan(k))
        np.testing.assert_allclose(d["slope"].values[1:-1, 1:-1], expected,
                                   atol=1e-6)
        np.testing.assert_allclose(d["aspect"].values[1:-1, 1:-1], 270.0,
                                   atol=1e-9)

    def test_north_facing_descent(self):
        # z decreases northward -> downhill points north -> aspect 0
        nrows, ncols = 5, 5
        rows = np.arange(nrows)
        y_per_row = (nrows - rows - 0.5)  # northing of each row center
        vals = np.tile((-2.0 * y_per_row)[:, None], (1, ncols))
        g = make_grid(vals)
        d = terrain_derivatives(g)
        np.testing.assert_allclose(d["aspect"].values[2, 2], 0.0, atol=1e-9)

    def test_elevation_classes(self):
        vals = np.linspace(950.0, 1049.0, 25).reshape(5, 5)
        g = make_grid(vals)
        d = terrain_derivatives(g, class_width=100.0)
        classes = set(np.unique(d["elevation_class"].values))
        assert classes == {9.0, 10.0}

    def test_nodata_propagates(self):
        vals = np.full((5, 5), 10.0)
        vals[2, 2] = -9999.0
        g = make_grid(vals)
        d = terrain_derivatives(g)
        # any window touching the hole is nodata
        assert (d["slope"].values[1:4, 1:4] == g.nodata).all()
        assert d["slope"].values[1, 1] == g.nodata

    @pytest.mark.parametrize("value", [1e308, -1e308])
    def test_overflowing_differences_raise(self, value):
        vals = np.full((5, 5), 10.0)
        vals[3, 1] = value
        with pytest.raises(DataError, match="row 3, column 2 overflows"):
            terrain_derivatives(make_grid(vals))

    def test_overflow_under_nodata_is_nodata(self):
        # a nodata value far out of range overflows only masked windows
        vals = np.full((5, 5), 10.0)
        vals[2, 1] = -1e308
        d = terrain_derivatives(make_grid(vals, nodata=-1e308))
        assert (d["slope"].values[1:4, 1:3] == -1e308).all()
        assert d["slope"].values[2, 3] == pytest.approx(0.0)
