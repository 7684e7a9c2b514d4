"""Cube helpers shared by the test modules."""

import itertools

import numpy as np
import pytest

from forestinv.geodata import CubeFile


@pytest.fixture
def cube_from(tmp_path):
    """Writes an array to a fresh file as `dtype` and returns its view."""
    names = (tmp_path / f"cube{i}.dat" for i in itertools.count())

    def make(arr, dtype="<f8", wavelengths=None):
        arr = np.asarray(arr, dtype=dtype)
        path = next(names)
        arr.tofile(path)
        return CubeFile(str(path), arr.dtype, *arr.shape, 0.0, 0.0, 1.0,
                        wavelengths)

    return make


def all_bands(cube):
    return np.stack([cube.band(i) for i in range(cube.nbands)])
