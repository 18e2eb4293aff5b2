"""Exception taxonomy shared across the toolkit.

The CLI maps these onto its exit-code contract: configuration problems exit 1,
audit/regime failures exit 2, internal numerical faults exit 3.
"""
from __future__ import annotations


class MasskitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(MasskitError):
    """Invalid scene configuration; message carries a JSON-pointer-style path."""


class DomainError(MasskitError):
    """Evaluation requested outside the chart or without stencil margin."""


class DegenerateMetricError(MasskitError):
    """Metric not invertible (or not positive definite) at a sample point."""


class RegimeError(MasskitError):
    """Input violates a proved-regime precondition (e.g. smallness FAILED)."""


class SolverError(MasskitError):
    """Linear or nonlinear solve failed to converge."""


class EstimationError(SolverError):
    """Variational estimate did not settle; carries the last iterate."""

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class InternalFault(MasskitError):
    """Numerical fault that should be impossible within the proved regime."""
