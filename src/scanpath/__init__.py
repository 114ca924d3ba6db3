"""Probabilistic time-evolving scanpath prediction toolkit."""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    EPS,
    GazePoint,
    GridSpec,
    ProbMap,
    Scanpath,
    gaussian_map,
    spatialize,
)
