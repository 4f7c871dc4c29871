"""Exception types shared across the package."""


class FssError(Exception):
    """Base class for all package errors."""


class GridError(FssError):
    """Raised for invalid grid geometry (empty interior, bad spacing)."""


class FieldMismatchError(FssError):
    """Raised when fields or weights live on different grids."""


class SolverError(FssError):
    """Raised when an iterative solve fails to converge.

    Carries the last iterate and gradient norm so callers can inspect
    how far the solve got.  Inside the approximation chain it also names
    the chain ``level``, the fixed-point ``sweep`` and ``alpha``; these are
    None for a stand-alone solve.
    """

    def __init__(self, message, iterate=None, grad_norm=None, iterations=None,
                 level=None, sweep=None, alpha=None):
        super().__init__(message)
        self.iterate = iterate
        self.grad_norm = grad_norm
        self.iterations = iterations
        self.level = level
        self.sweep = sweep
        self.alpha = alpha


class StagnationError(FssError):
    """Raised when a fixed-point sweep exhausts its budget.

    Carries per-sweep difference history for diagnosis, and the chain
    ``level``, last ``sweep`` and ``alpha`` where it happened.
    """

    def __init__(self, message, iterate=None, history=None, level=None,
                 sweep=None, alpha=None):
        super().__init__(message)
        self.iterate = iterate
        self.history = history or []
        self.level = level
        self.sweep = sweep
        self.alpha = alpha


class ConfigError(FssError):
    """Raised for config parse or validation failures.

    ``field`` is the dotted path of the offending entry, empty for
    file-level problems.
    """

    def __init__(self, message, field=""):
        self.field = field
        prefix = f"{field}: " if field else ""
        super().__init__(prefix + message)


class SolutionFileError(FssError):
    """Raised for unreadable, corrupt, or incompatible solution files."""
