"""Exception types shared across the package.

Errors the package raises derive from :class:`WsnGainError`; the CLI
reports any exception as one line of JSON naming its class.
"""

from __future__ import annotations


class WsnGainError(Exception):
    """Base class for all package errors."""


class InvalidEdge(WsnGainError):
    """A self-loop, an out-of-range endpoint, or a pair that is not a link."""


class DisconnectedGraph(WsnGainError):
    """The node set is not reachable from node 1."""


class GenerationFailed(WsnGainError):
    """Random graph generation exhausted its retry budget."""


class InvalidConfig(WsnGainError):
    """A configuration value is out of its documented range."""


class InconsistentPlan(WsnGainError):
    """A compression plan references nodes that are not neighbors."""


class DegenerateGains(WsnGainError):
    """Effective gains carry no information (quadratic form underflows)."""


class NoConvergence(WsnGainError):
    """Consensus failed to reach tolerance; carries the partial report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NoDescent(WsnGainError):
    """A monotone objective of the optimizer fell; signals a numerical fault."""


class TooLarge(WsnGainError):
    """An enumeration request exceeds the exhaustive-search budget."""


class ZeroVectorWarning(UserWarning):
    """Projection input had zero norm; a deterministic feasible point was
    substituted."""
