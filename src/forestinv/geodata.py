"""Core geospatial data types and file I/O.

Rasters are stored row-major with row 0 at the northern edge, so the
center of cell (r, c) sits at

    x = xll + (c + 0.5) * cellsize
    y = yll + (nrows - r - 0.5) * cellsize

All values are held as float64 internally. Grids and tables are written
to 10 significant digits; the cube writer stores float32 samples.
"""

from __future__ import annotations

import contextlib
import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CubeFormatError,
    DataError,
    GridFormatError,
    OutOfBoundsError,
    PointCloudFormatError,
)

DEFAULT_NODATA = -9999.0
FLOAT_FORMAT = "%.10g"   # every float written to a grid, header or table
_TABLE_ROWS = 65536   # rows of an array column made Python values at once
HEIGHT_FLOOR = -1.0  # lowest height above ground a PointCloud accepts


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Georeferenced single-band raster.

    Parameters
    ----------
    values : ndarray, shape (nrows, ncols)
        Cell values, row 0 = north. Cells equal to `nodata` are invalid.
    xll, yll : float
        Map coordinates of the lower-left corner of the raster (m).
    cellsize : float
        Cell edge length (m), > 0.
    nodata : float
        Sentinel marking invalid cells.
    """

    values: np.ndarray
    xll: float
    yll: float
    cellsize: float
    nodata: float = DEFAULT_NODATA

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("grid values must be a 2-D array with >= 1 cell")
        if not self.cellsize > 0:
            raise ValueError("cellsize must be > 0")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def nrows(self) -> int:
        return self.values.shape[0]

    @property
    def ncols(self) -> int:
        return self.values.shape[1]

    def valid_mask(self) -> np.ndarray:
        """Boolean mask of cells that are not nodata (and not NaN)."""
        return ~np.isnan(self.values) & (self.values != self.nodata)

    def cell_center(self, row, col):
        """Map coordinates of a cell center; accepts scalars or arrays."""
        row = np.asarray(row)
        col = np.asarray(col)
        x = self.xll + (col + 0.5) * self.cellsize
        y = self.yll + (self.nrows - row - 0.5) * self.cellsize
        return x, y

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        """(row, col) of the cell containing map point (x, y)."""
        col = math.floor((x - self.xll) / self.cellsize)
        row = self.nrows - 1 - math.floor((y - self.yll) / self.cellsize)
        return row, col

    def contains(self, x: float, y: float) -> bool:
        """Whether map point (x, y) lies in a cell of the grid. Tests the
        fractional cell index, the range of `cell_of`'s floor, so a huge
        coordinate is refused before any int cast."""
        return (0 <= (x - self.xll) / self.cellsize < self.ncols
                and 0 <= (y - self.yll) / self.cellsize < self.nrows)

    def with_values(self, values: np.ndarray) -> "Grid":
        """New grid on the same georeference with different values."""
        return Grid(values, self.xll, self.yll, self.cellsize, self.nodata)


@dataclass(frozen=True)
class PointCloud:
    """Set of LiDAR returns stored as parallel column arrays.

    `height` (height above ground) is NaN until `chm.normalize_heights`
    fills it in. Heights below HEIGHT_FLOOR are rejected at
    construction; the CHM stage clamps anything negative to zero.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    return_number: np.ndarray
    is_ground: np.ndarray
    height: np.ndarray

    def __post_init__(self):
        n = len(self.x)
        cols = {}
        for name, dtype in (("x", np.float64), ("y", np.float64), ("z", np.float64),
                            ("return_number", np.int32), ("is_ground", bool),
                            ("height", np.float64)):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=dtype))
            if arr.shape != (n,):
                raise ValueError(f"column {name!r} has wrong length")
            cols[name] = arr
        for name in ("x", "y", "z"):
            if not np.all(np.isfinite(cols[name])):
                raise ValueError(f"non-finite values in column {name!r}")
        h = cols["height"]
        if np.any(h[~np.isnan(h)] < HEIGHT_FLOOR):
            raise ValueError(f"height above ground below floor {HEIGHT_FLOOR}")
        for arr in cols.values():
            arr.flags.writeable = False
        for name, arr in cols.items():
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.x)

    @classmethod
    def from_xyz(cls, x, y, z, return_number=None, is_ground=None,
                 height=None) -> "PointCloud":
        n = len(x)
        if return_number is None:
            return_number = np.ones(n, dtype=np.int32)
        if is_ground is None:
            is_ground = np.zeros(n, dtype=bool)
        if height is None:
            height = np.full(n, np.nan)
        return cls(x, y, z, return_number, is_ground, height)

    def has_heights(self) -> bool:
        return not np.any(np.isnan(self.height))


@dataclass(frozen=True)
class CubeFile:
    """Band-sequential cube file, read one band at a time.

    The view covers bands `first` to `first + nbands - 1` of the file at
    `path`, whose samples are `dtype` values in band, row, column order.
    Only `band` reads samples, so a view holds none of them. `band`
    divides what it reads by each (nrows, ncols) grid of `divisors` in
    turn; `spectral.normalize_spectrum` adds one grid of per-pixel means
    per pass, NaN at the pixels it cannot normalize.
    """

    path: str
    dtype: np.dtype
    nbands: int
    nrows: int
    ncols: int
    xll: float
    yll: float
    cellsize: float
    wavelengths: np.ndarray | None = None
    first: int = 0
    divisors: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        if not self.cellsize > 0:
            raise ValueError("cellsize must be > 0")
        if self.wavelengths is not None:
            wl = np.array(self.wavelengths, dtype=np.float64)
            if wl.shape != (self.nbands,):
                raise ValueError("one wavelength per band required")
            if np.any(np.diff(wl) <= 0):
                raise ValueError("wavelengths must be strictly increasing")
            wl.flags.writeable = False
            object.__setattr__(self, "wavelengths", wl)

    def band(self, i: int) -> np.ndarray:
        """Band `i` of the view over its divisors, as a new float64
        (nrows, ncols) array."""
        if not 0 <= i < self.nbands:
            raise IndexError(f"band {i} outside the {self.nbands}-band view")
        size = self.nrows * self.ncols
        raw = np.fromfile(self.path, dtype=self.dtype, count=size,
                          offset=(self.first + i) * size * self.dtype.itemsize)
        if raw.size != size:
            raise CubeFormatError(f"{self.path}: band {self.first + i} is "
                                  f"cut short")
        out = raw.astype(np.float64).reshape(self.nrows, self.ncols)
        for divisor in self.divisors:
            out /= divisor
        return out

    def bands(self, start: int, stop: int) -> CubeFile:
        """Bands `start` to `stop - 1` of the view; reads nothing."""
        wl = None if self.wavelengths is None else self.wavelengths[start:stop]
        return replace(self, nbands=stop - start, first=self.first + start,
                       wavelengths=wl)


@dataclass(frozen=True)
class GroundTruthPoint:
    """Field-surveyed tree position labeled with a species code."""

    x: float
    y: float
    species_code: str
    role: str = "unassigned"

    def __post_init__(self):
        if not self.species_code:
            raise ValueError("species_code must be nonempty")
        if self.role not in ("train", "test", "unassigned"):
            raise ValueError(f"unknown role {self.role!r}")


# ---------------------------------------------------------------------------
# Text files: every input is read, and every output written, as UTF-8
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def open_text(path, error):
    """`path` opened to read as UTF-8 text; bytes that are not UTF-8
    raise `error` naming the file."""
    with open(path, encoding="utf-8") as f:
        try:
            yield f
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


# ---------------------------------------------------------------------------
# ESRI ASCII grid I/O
# ---------------------------------------------------------------------------

_GRID_HEADER_KEYS = {"ncols", "nrows", "xllcorner", "yllcorner", "cellsize",
                     "nodata_value"}


def read_ascii_grid(path) -> Grid:
    """Read an ESRI ASCII grid (.asc).

    Header keys are accepted in any letter case and any order;
    NODATA_VALUE is optional and defaults to -9999. There must be NROWS
    data lines, north row first, each holding exactly NCOLS values.
    """
    with open_text(path, GridFormatError) as f:
        lines = f.read().splitlines()

    header: dict[str, float] = {}
    data_start = None
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        key = tokens[0].lower()
        if key in _GRID_HEADER_KEYS:
            if len(tokens) != 2:
                raise GridFormatError(f"{path}: line {lineno}: header key "
                                      f"{tokens[0]!r} needs exactly one value")
            value = float(tokens[1]) if _is_number(tokens[1]) else math.nan
            if not math.isfinite(value):
                raise GridFormatError(f"{path}: line {lineno}: header value "
                                      f"{tokens[1]!r} is not a finite number")
            header[key] = value
        elif _is_number(tokens[0]):
            data_start = lineno
            break
        else:
            raise GridFormatError(f"{path}: line {lineno}: malformed header key "
                                  f"{tokens[0]!r}")

    required = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")
    missing = [k for k in required if k not in header]
    if missing:
        raise GridFormatError(f"{path}: missing header key(s) {', '.join(missing)}")
    if data_start is None:
        raise GridFormatError(f"{path}: no data rows")

    ncols = int(header["ncols"])
    nrows = int(header["nrows"])
    if ncols != header["ncols"] or nrows != header["nrows"] or ncols < 1 or nrows < 1:
        raise GridFormatError(f"{path}: NCOLS/NROWS must be positive integers")
    nodata = header.get("nodata_value", DEFAULT_NODATA)

    # the header must agree with the data before the grid is allocated
    found = sum(1 for line in lines[data_start - 1:] if line.strip())
    if found != nrows:
        raise GridFormatError(f"{path}: found {found} data rows, expected {nrows}")
    width = len(lines[data_start - 1].split())
    if width != ncols:
        raise GridFormatError(f"{path}: row 1 (line {data_start}) has "
                              f"{width} values, expected {ncols}")

    values = np.empty((nrows, ncols), dtype=np.float64)
    row = 0
    for lineno, line in enumerate(lines[data_start - 1:], start=data_start):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != ncols:
            raise GridFormatError(f"{path}: row {row + 1} (line {lineno}) has "
                                  f"{len(tokens)} values, expected {ncols}")
        try:
            values[row] = [float(t) for t in tokens]
        except ValueError:
            bad = next(t for t in tokens if not _is_number(t))
            raise GridFormatError(f"{path}: row {row + 1} (line {lineno}): "
                                  f"non-numeric token {bad!r}") from None
        if not np.isfinite(values[row]).all():
            raise GridFormatError(f"{path}: row {row + 1} (line {lineno}): "
                                  f"non-finite value")
        row += 1

    try:
        return Grid(values, header["xllcorner"], header["yllcorner"],
                    header["cellsize"], nodata)
    except ValueError as exc:
        raise GridFormatError(f"{path}: {exc}") from None


def write_ascii_grid(grid: Grid, path) -> None:
    """Write an ESRI ASCII grid; one line per raster row, north first."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"NCOLS {grid.ncols}\nNROWS {grid.nrows}\n")
        for key, value in (("XLLCORNER", grid.xll), ("YLLCORNER", grid.yll),
                           ("CELLSIZE", grid.cellsize),
                           ("NODATA_VALUE", grid.nodata)):
            f.write(f"{key} {FLOAT_FORMAT % value}\n")
        line = " ".join([FLOAT_FORMAT] * grid.ncols) + "\n"
        for row in grid.values.tolist():
            f.write(line % tuple(row))


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Delimited tables
# ---------------------------------------------------------------------------


def read_table(path, columns, required, make, error=DataError) -> list:
    """Read a comma-separated table; the one reader of every input table.

    The header names the first `required` or more of `columns`, in
    order (stripped, lower-cased). Blank lines are skipped; every other
    line has the header's field count, and ``make(*fields)`` builds its
    record from the stripped fields. A ValueError from `make` becomes
    `error`, naming the file and the line.
    """
    with open_text(path, error) as f:
        nfields = len(_table_header(path, f.readline(), columns, required,
                                    error))
        records = []
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            fields = [t.strip() for t in line.split(",")]
            if len(fields) != nfields:
                raise error(f"{path}: line {lineno}: expected {nfields} "
                            f"fields, got {len(fields)}")
            try:
                records.append(make(*fields))
            except ValueError as exc:
                raise error(f"{path}: line {lineno}: {exc}") from None
    return records


def write_table(path, columns) -> None:
    """Write a comma-separated table; the one writer of every output table.

    `columns` maps each header name to its values: a list, or a 1-D
    numpy array of numbers, which is turned into Python values
    _TABLE_ROWS rows at a time, so a large array never becomes one
    whole-column list. Floats are written FLOAT_FORMAT, ints and bools
    exactly, strs as they are and None as an empty field. Types are
    checked per column, not per row. Columns of unequal length raise
    ValueError.
    """
    lengths = set(map(len, columns.values()))
    if len(lengths) > 1:
        raise ValueError("columns of unequal length")
    fields, cells = [], []
    for values in columns.values():
        if isinstance(values, np.ndarray):
            fields.append(FLOAT_FORMAT if values.dtype.kind == "f" else "%d")
            cells.append(values)
            continue
        kinds = set(map(type, values))
        if kinds <= {float}:
            fields.append(FLOAT_FORMAT)
        elif kinds == {int}:
            fields.append("%d")
        else:
            fields.append("%s")
            if kinds != {str}:  # mixed: each value formatted on its own
                values = ["" if v is None else FLOAT_FORMAT % v
                          if isinstance(v, float) else str(v) for v in values]
        cells.append(values)
    row = ",".join(fields) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(columns) + "\n")
        for start in range(0, max(lengths, default=0), _TABLE_ROWS):
            part = [v[start:start + _TABLE_ROWS] for v in cells]
            for values in zip(*[v.tolist() if isinstance(v, np.ndarray)
                                else v for v in part]):
                f.write(row % values)


def _table_header(path, line, columns, required, error) -> list[str]:
    """The column names of header `line`, checked against `columns`."""
    if not line.strip():
        raise error(f"{path}: line 1: empty file")
    names = [t.strip().lower() for t in line.split(",")]
    if names != list(columns[:len(names)]) or len(names) < required:
        form = ",".join(columns[:required]) + "".join(
            f"[,{c}]" for c in columns[required:])
        raise error(f"{path}: line 1: header must be {form}, "
                    f"got {line.strip()!r}")
    return names


# ---------------------------------------------------------------------------
# Point cloud and ground-truth I/O
# ---------------------------------------------------------------------------

_CLOUD_COLUMNS = ("x", "y", "z", "return_number", "is_ground")
_MAX_RETURN_NUMBER = 15   # the LAS 1.4 limit


def read_point_cloud(path) -> PointCloud:
    """Read a delimited point cloud: header ``x,y,z[,return_number][,is_ground]``.

    Missing optional columns default to return_number=1, is_ground=0.
    A return number is an integer from 1 to 15 and is_ground is 0 or 1.
    """
    with open_text(path, PointCloudFormatError) as f:
        names = _table_header(path, f.readline(), _CLOUD_COLUMNS, 3,
                              PointCloudFormatError)
        try:
            with warnings.catch_warnings():   # header only: refused below
                warnings.filterwarnings("ignore", "loadtxt: input contained")
                data = np.loadtxt(f, delimiter=",", comments=None, ndmin=2,
                                  dtype=np.float64)
        except ValueError:
            data = None
    if data is None or data.shape[1] != len(names):
        # the table rule names the first bad line; loadtxt also refuses
        # whitespace-only lines, which the rule skips
        rows = read_table(path, _CLOUD_COLUMNS, 3,
                          lambda *fields: [float(t) for t in fields],
                          PointCloudFormatError)
        data = np.array(rows, dtype=np.float64).reshape(-1, len(names))
    if len(data) == 0:
        raise PointCloudFormatError(f"{path}: no data lines")

    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        point, col = bad[0]
        raise PointCloudFormatError(
            f"{path}: non-finite value in column {names[col]!r} at point "
            f"{point}")

    ncol = data.shape[1]
    if ncol > 3:
        rn = data[:, 3]
        _reject_first(path, "return_number", (rn != np.floor(rn))
                      | (rn < 1) | (rn > _MAX_RETURN_NUMBER),
                      f"must be an integer from 1 to {_MAX_RETURN_NUMBER}")
    if ncol > 4:
        _reject_first(path, "is_ground", (data[:, 4] != 0) & (data[:, 4] != 1),
                      "must be 0 or 1")
    return PointCloud.from_xyz(
        data[:, 0], data[:, 1], data[:, 2],
        return_number=data[:, 3].astype(np.int32) if ncol > 3 else None,
        is_ground=data[:, 4] == 1 if ncol > 4 else None,
    )


def _reject_first(path, column, bad, rule):
    if np.any(bad):
        point = int(np.argmax(bad))
        raise PointCloudFormatError(
            f"{path}: column {column!r} at point {point} {rule}")


def write_point_cloud(cloud: PointCloud, path) -> None:
    write_table(path, dict(zip(_CLOUD_COLUMNS, (
        cloud.x, cloud.y, cloud.z, cloud.return_number, cloud.is_ground))))


_TRUTH_COLUMNS = ("x", "y", "species", "role")


def read_ground_truth(path, known_species, chm: Grid) -> list[GroundTruthPoint]:
    """Read ground-truth tree points: header ``x,y,species[,role]``.

    Every row has finite coordinates inside a cell of `chm` and a
    species code in `known_species`; an empty role reads as
    "unassigned".
    """

    def make(x, y, species, role=""):
        if not all(_is_number(t) and math.isfinite(float(t)) for t in (x, y)):
            raise ValueError("coordinate is not a finite number")
        if species not in known_species:
            raise ValueError(f"unknown species {species!r}; add it to "
                             f"[registry]")
        if not chm.contains(float(x), float(y)):
            raise ValueError(f"point ({x}, {y}) lies outside the CHM extent")
        return GroundTruthPoint(float(x), float(y), species,
                                role or "unassigned")

    return read_table(path, _TRUTH_COLUMNS, 3, make)


def write_ground_truth(points, path) -> None:
    write_table(path, dict(zip(_TRUTH_COLUMNS, (
        [p.x for p in points], [p.y for p in points],
        [p.species_code for p in points], [p.role for p in points]))))


# ---------------------------------------------------------------------------
# ENVI-style band-sequential cube I/O
# ---------------------------------------------------------------------------

_ENVI_DTYPES = {4: np.dtype(np.float32), 12: np.dtype(np.uint16)}


def read_envi_cube(header_path, data_path) -> CubeFile:
    """Open a band-sequential raw cube with a text header.

    Required header keys: samples, lines, bands, data type (4 or 12),
    interleave (bsq only), byte order (0 little / 1 big). Optional:
    wavelength list and "map info" for the georeference: a reference
    pixel, the easting and northing there, and the pixel size. Pixel
    coordinates start at (1, 1) on the upper-left corner of the image,
    so (1.5, 1.5) is the center of its first pixel. Without map info
    the cube is anchored at (0, 0) with cell size 1.

    The data file's size must be the one the header implies; no sample
    is read here (see `CubeFile.band`).
    """
    fields = _parse_envi_header(header_path)

    def need(key):
        if key not in fields:
            raise CubeFormatError(f"{header_path}: missing header key {key!r}")
        return fields[key]

    try:
        ncols = int(need("samples"))
        nrows = int(need("lines"))
        nbands = int(need("bands"))
        dtype_code = int(need("data type"))
        byte_order = int(need("byte order"))
    except ValueError as exc:
        raise CubeFormatError(f"{header_path}: non-integer header value ({exc})") from None
    for key, value in (("samples", ncols), ("lines", nrows), ("bands", nbands)):
        if value < 1:
            raise CubeFormatError(f"{header_path}: {key} must be >= 1, got {value}")

    interleave = need("interleave").strip().lower()
    if interleave != "bsq":
        raise CubeFormatError(f"{header_path}: unsupported interleave "
                              f"{interleave!r} (only bsq)")
    if dtype_code not in _ENVI_DTYPES:
        raise CubeFormatError(f"{header_path}: unsupported data type {dtype_code} "
                              f"(only 4 and 12)")
    if byte_order not in (0, 1):
        raise CubeFormatError(f"{header_path}: byte order must be 0 or 1")

    dtype = _ENVI_DTYPES[dtype_code].newbyteorder("<" if byte_order == 0 else ">")
    expected = ncols * nrows * nbands * dtype.itemsize
    length = os.path.getsize(data_path)
    if length != expected:
        raise CubeFormatError(f"{data_path}: data length {length} bytes, "
                              f"header implies {expected}")

    wavelengths = None
    if "wavelength" in fields:
        try:
            wavelengths = np.array([float(t) for t in fields["wavelength"].split(",")])
        except ValueError:
            raise CubeFormatError(f"{header_path}: non-numeric wavelength entry") from None
        if not np.isfinite(wavelengths).all():
            raise CubeFormatError(f"{header_path}: non-finite wavelength entry")

    xll, yll, cellsize = 0.0, 0.0, 1.0
    if "map info" in fields:
        parts = [t.strip() for t in fields["map info"].split(",")]
        if len(parts) < 7:
            raise CubeFormatError(f"{header_path}: map info needs >= 7 fields")
        try:
            px, py, east, north, xres, yres = map(float, parts[1:7])
        except ValueError:
            raise CubeFormatError(f"{header_path}: non-numeric map info entry") from None
        if not all(map(math.isfinite, (px, py, east, north, xres))):
            raise CubeFormatError(f"{header_path}: non-finite map info entry")
        if xres != yres:
            raise CubeFormatError(f"{header_path}: non-square pixels unsupported")
        cellsize = xres
        xll = east - (px - 1) * cellsize
        yll = north + (py - 1) * cellsize - nrows * cellsize

    try:
        return CubeFile(os.fspath(data_path), dtype, nbands, nrows, ncols,
                        xll, yll, cellsize, wavelengths)
    except ValueError as exc:
        raise CubeFormatError(f"{header_path}: {exc}") from None


def _parse_envi_header(path) -> dict[str, str]:
    with open_text(path, CubeFormatError) as f:
        text = f.read()
    fields: dict[str, str] = {}
    lines = text.splitlines()
    i = 0
    if lines and lines[0].strip().upper() == "ENVI":
        i = 1
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if "=" not in line:
            raise CubeFormatError(f"{path}: line {i}: expected 'key = value', "
                                  f"got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if value.startswith("{"):
            while "}" not in value and i < len(lines):
                value += " " + lines[i].strip()
                i += 1
            value = value.strip()
            if not value.endswith("}"):
                raise CubeFormatError(f"{path}: unterminated {{...}} for key {key!r}")
            value = value[1:-1].strip()
        fields[key] = value
    return fields


def write_envi_cube(bands, shape, xll, yll, cellsize, wavelengths,
                    header_path, data_path) -> None:
    """Write a float32 little-endian BSQ cube with its text header.

    The cube has one band per wavelength, each of `shape` (nrows,
    ncols), on the georeference `xll`, `yll`, `cellsize`. `bands` yields
    (index, band) pairs in any order, and each band is written at its
    byte offset as it comes, so only one band is held at a time.
    """
    nrows, ncols = shape
    nbands = len(wavelengths)
    size = nrows * ncols * 4
    with open(data_path, "wb") as f:
        f.truncate(nbands * size)
        for i, band in bands:
            if not 0 <= i < nbands or np.shape(band) != (nrows, ncols):
                raise ValueError(f"band {i} of shape {np.shape(band)} is not "
                                 f"in the {nbands} x {nrows} x {ncols} cube")
            f.seek(i * size)
            np.asarray(band, dtype="<f4").tofile(f)
    corner = (xll, yll + nrows * cellsize, cellsize, cellsize)
    lines = ["ENVI", f"samples = {ncols}", f"lines = {nrows}",
             f"bands = {nbands}", "data type = 4", "interleave = bsq",
             "byte order = 0", "map info = {projected, 1, 1, "
             + ", ".join(FLOAT_FORMAT % v for v in corner) + "}",
             "wavelength = {" + ", ".join(FLOAT_FORMAT % w
                                          for w in wavelengths) + "}"]
    with open(header_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Sampling and terrain derivatives
# ---------------------------------------------------------------------------


def bilinear_sample(grid: Grid, x, y):
    """Bilinear interpolation of the four surrounding cell centers.

    Exact at cell centers. Queries outside the convex hull of cell
    centers raise OutOfBoundsError naming the index of the first one;
    if any of the four neighbors is nodata the grid's nodata value is
    returned. Accepts scalars or equal-length arrays (vectorized).
    """
    if grid.nrows < 2 or grid.ncols < 2:
        raise OutOfBoundsError("bilinear interpolation needs a grid of >= 2x2 cells")
    scalar = np.isscalar(x) and np.isscalar(y)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))

    u = (x - grid.xll) / grid.cellsize - 0.5          # fractional column
    v = (y - grid.yll) / grid.cellsize - 0.5          # fractional row from south
    bad = (u < 0) | (u > grid.ncols - 1) | (v < 0) | (v > grid.nrows - 1)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise OutOfBoundsError(
            f"point {idx} at ({x[idx]}, {y[idx]}) lies outside the "
            f"cell-center hull")

    c0 = np.clip(np.floor(u).astype(np.int64), 0, grid.ncols - 2)
    r0s = np.clip(np.floor(v).astype(np.int64), 0, grid.nrows - 2)
    fx = u - c0
    fy = v - r0s
    r1 = grid.nrows - 1 - r0s       # southern row of the 2x2 block
    r0 = r1 - 1

    vals = grid.values
    q00 = vals[r1, c0]       # south-west
    q10 = vals[r1, c0 + 1]   # south-east
    q01 = vals[r0, c0]       # north-west
    q11 = vals[r0, c0 + 1]   # north-east
    out = (q00 * (1 - fx) * (1 - fy) + q10 * fx * (1 - fy)
           + q01 * (1 - fx) * fy + q11 * fx * fy)

    nod = grid.nodata
    invalid = ((q00 == nod) | (q10 == nod) | (q01 == nod) | (q11 == nod)
               | np.isnan(q00) | np.isnan(q10) | np.isnan(q01) | np.isnan(q11))
    out = np.where(invalid, nod, out)
    return float(out[0]) if scalar else out


def terrain_derivatives(dtm: Grid, class_width: float = 100.0) -> dict[str, Grid]:
    """Slope, aspect and elevation class from a DTM.

    Slope and aspect use Horn's 3x3 weighted finite differences on the
    8 neighbors; both are nodata on border cells and wherever any cell
    of the 3x3 window is nodata. Aspect is degrees from north,
    clockwise, pointing downhill; it is undefined (nodata) on flat
    cells. Elevation class is floor(z / class_width) wherever the DTM
    is valid. A valid window whose differences overflow the float range
    raises DataError naming its center cell.
    """
    if dtm.nrows < 3 or dtm.ncols < 3:
        raise ValueError("terrain derivatives need at least a 3x3 DTM")
    z = dtm.values
    valid = dtm.valid_mask()
    nod = dtm.nodata

    # Window cells, rows north to south:  a b c / d e f / g h i
    a = z[:-2, :-2]; b = z[:-2, 1:-1]; c = z[:-2, 2:]
    d = z[1:-1, :-2];                  f = z[1:-1, 2:]
    g = z[2:, :-2];  h = z[2:, 1:-1];  i = z[2:, 2:]

    win_valid = np.ones(a.shape, dtype=bool)
    for rr in range(3):
        for cc in range(3):
            win_valid &= valid[rr:rr + a.shape[0], cc:cc + a.shape[1]]

    eight = 8.0 * dtm.cellsize
    with np.errstate(over="ignore", invalid="ignore"):
        zx = ((c + 2 * f + i) - (a + 2 * d + g)) / eight      # d z / d east
        zy = ((a + 2 * b + c) - (g + 2 * h + i)) / eight      # d z / d north
    overflow = win_valid & ~(np.isfinite(zx) & np.isfinite(zy))
    if overflow.any():
        row, col = np.argwhere(overflow)[0] + 2
        raise DataError(f"the slope at row {row}, column {col} overflows: "
                        f"elevations too large for cellsize {dtm.cellsize:g}")

    slope_deg = np.degrees(np.arctan(np.hypot(zx, zy)))
    flat = (zx == 0) & (zy == 0)
    aspect_deg = np.degrees(np.arctan2(-zx, -zy)) % 360.0     # downhill compass

    slope = np.full(z.shape, nod)
    aspect = np.full(z.shape, nod)
    slope[1:-1, 1:-1] = np.where(win_valid, slope_deg, nod)
    aspect[1:-1, 1:-1] = np.where(win_valid & ~flat, aspect_deg, nod)

    elev = np.where(valid, np.floor(z / class_width), nod)

    return {
        "slope": dtm.with_values(slope),
        "aspect": dtm.with_values(aspect),
        "elevation_class": dtm.with_values(elev),
    }
