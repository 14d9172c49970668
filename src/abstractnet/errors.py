"""Exception types shared across the package, and the checks on caller integers.

The CLI maps ValidationError/FormatError to exit code 2 and anything else to 3.
:func:`check_int` is the one test of a count, index or seed a caller passes,
and :func:`seeded_rng` the one way the package turns a seed into a generator,
so every public entry point rejects a bad seed or count with ValidationError.
"""

import numpy as np


class AbstractnetError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AbstractnetError):
    """Arguments or data violate a documented precondition (shapes, ranges, labels)."""


class FormatError(AbstractnetError):
    """A file could not be parsed: bad magic, truncation, malformed JSON or CSV."""


class TrainingError(AbstractnetError):
    """Training diverged (non-finite loss or parameters)."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch


def check_int(value, what: str, minimum: int = 0) -> int:
    """``value`` as an int if it is a Python or numpy integer (not a bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValidationError(f"{what} must be >= {minimum} and an integer, got {value!r}")
    return int(value)


def seeded_rng(seed) -> np.random.Generator:
    """The package's random generator for an integer ``seed`` >= 0."""
    return np.random.default_rng(check_int(seed, "seed"))
