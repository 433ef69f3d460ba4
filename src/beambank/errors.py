"""Exception types shared across the package.

Every error carries an exit code so the CLI can map failures onto its
documented exit-code contract (1 usage/config, 2 data, 3 numerical).
"""

import numpy as np


def raise_first(ok, error: type, describe) -> None:
    """Raise ``error(describe(i))`` for the first index i at which the
    boolean array ``ok`` is False (a NaN comparison counts as False)."""
    bad = np.flatnonzero(~np.asarray(ok))
    if bad.size:
        raise error(describe(int(bad[0])))


class BeambankError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ConfigError(BeambankError):
    """Bad configuration: unknown keys, missing required fields, bad values."""

    exit_code = 1


class DataError(BeambankError):
    """Bad input data: malformed files, mismatched formats, invalid audio."""

    exit_code = 2


class ParseError(DataError):
    """A structured file could not be parsed; message includes the location."""


class GridMismatchError(DataError):
    """Frequency grids or channel counts of two objects do not line up."""


class InvalidSubsetError(DataError):
    """Channel subset indices are duplicated or out of range."""


class DegenerateSourceError(DataError):
    """A near-field source point sits on top of a microphone."""


class NumericalError(BeambankError):
    """Numerical failure in a solver or a matrix operation."""

    exit_code = 3


class DegenerateSteeringError(NumericalError):
    """Steering vector is zero (or numerically so); no design exists."""


class IllConditionedError(NumericalError):
    """A covariance matrix stayed singular even after regularization."""


class SolverError(NumericalError):
    """Internal solver failure (e.g. the loading bisection lost its bracket)."""
