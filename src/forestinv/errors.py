"""Exception hierarchy; the CLI maps these onto exit codes."""


class ForestInvError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ForestInvError):
    """Invalid or incomplete configuration (CLI exit code 2)."""


class DataError(ForestInvError):
    """Malformed or inconsistent input data (CLI exit code 3)."""


class GridFormatError(DataError):
    """Unparseable ASCII grid file."""


class PointCloudFormatError(DataError):
    """Unparseable point cloud file."""


class CubeFormatError(DataError):
    """Unparseable or unsupported hyperspectral cube."""


class OutOfBoundsError(DataError):
    """Query outside the valid interpolation domain."""


class NumericalError(ForestInvError):
    """Numerical failure such as a singular matrix (CLI exit code 4)."""


class WorkerError(ForestInvError):
    """A worker process could not be started or died before its job
    finished (CLI exit code 5)."""
