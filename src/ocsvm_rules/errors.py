"""Exception types shared across the package."""


class OcsvmRulesError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(OcsvmRulesError):
    """Column declarations do not match the data (missing, duplicate, wrong kind)."""


class ParseError(OcsvmRulesError):
    """A cell could not be ingested; carries row/column context in the message."""


class ConfigError(OcsvmRulesError):
    """Invalid run configuration or parameter value."""


class InsufficientDataError(OcsvmRulesError):
    """Too few points to build hypercubes for the requested target class."""


class SolverConvergenceError(OcsvmRulesError):
    """Dual solver hit its iteration cap.

    Carries the best iterate so callers can inspect how far the
    optimality conditions were from holding.
    """

    def __init__(self, message, alpha=None, kkt_violation=None, iterations=None):
        super().__init__(message)
        self.alpha = alpha
        self.kkt_violation = kkt_violation
        self.iterations = iterations


class ExtractionConvergenceError(OcsvmRulesError):
    """Cluster refinement exhausted the cluster budget without clean boxes."""

    def __init__(self, message, last_n_clusters=None, offending_boxes=None):
        super().__init__(message)
        self.last_n_clusters = last_n_clusters
        self.offending_boxes = offending_boxes or []
