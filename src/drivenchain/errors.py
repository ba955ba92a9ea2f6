"""Exception types shared across the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """A configuration file or parameter set failed validation."""


class NumericalError(RuntimeError):
    """A numerical guarantee was violated (unitarity, norm, determinant...).

    A check over a batch names its first failing realization in
    ``realization_index``, and the message opens with "realization i: ".
    Run facts travel in the run record, not here (see :mod:`drivenchain.cli`).
    """

    def __init__(self, message: str, realization_index: int | None = None):
        super().__init__(message if realization_index is None
                         else f"realization {realization_index}: {message}")
        self.reason, self.realization_index = message, realization_index
