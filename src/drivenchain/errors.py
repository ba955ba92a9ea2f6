"""Exception types shared across the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """A configuration file or parameter set failed validation."""


class NumericalError(RuntimeError):
    """A numerical guarantee was violated (unitarity, norm, determinant...).

    A check over a batch names its first failing realization in
    ``realization_index``.
    """

    def __init__(self, message: str, realization_index: int | None = None):
        super().__init__(message)
        self.realization_index = realization_index
