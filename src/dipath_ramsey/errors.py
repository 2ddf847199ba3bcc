"""Exception types shared across the package."""


class DipathError(Exception):
    """Base class for all package errors."""


class GraphShapeError(DipathError):
    """Raised when a graph violates a structural precondition (self loop,
    antiparallel pair in an oriented graph, vertex id out of range, ...)."""


class CyclicGraphError(DipathError):
    """Raised by DAG-only operations when the input contains a directed cycle.

    The offending cycle is attached as a vertex list.
    """

    def __init__(self, message: str, cycle=None):
        super().__init__(message)
        self.cycle = list(cycle) if cycle is not None else None


class BudgetExceededError(DipathError):
    """An enumeration budget (subset count, coloring count, path search
    states) was exceeded, or a path search went deeper than the
    interpreter's recursion limit."""


class ColoringError(DipathError):
    """A coloring is not total, uses out-of-range colors, or mismatches its host."""


class ThreadingError(DipathError):
    """Path threading failed: a good set became empty at `index` (1-based)."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class DecompositionError(DipathError):
    """A Hamilton cycle decomposition could not be constructed or validated."""


class FormatError(DipathError):
    """Malformed text input; carries 1-based line (and column when known)."""

    def __init__(self, message: str, line: int, column: int | None = None):
        loc = f"line {line}" if column is None else f"line {line}, col {column}"
        super().__init__(f"{loc}: {message}")
        self.line = line
        self.column = column


class ManifestError(DipathError):
    """An experiment manifest is missing fields or contains bad values."""
