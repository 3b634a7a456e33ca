"""Exception hierarchy shared by the whole package.

Every error carries the name and the exit status that the command-line
layer reports it under: usage/1, data/2 and convergence/3.
"""


class FuncSvmError(Exception):
    """Base class for all package errors."""

    code = "data"
    exit_code = 2


class UsageError(FuncSvmError):
    """Bad invocation: missing arguments, empty grids, malformed config."""

    code = "usage"
    exit_code = 1


class ConfigurationError(UsageError):
    """A parameter combination that can never be valid (e.g. d > grid length)."""


class DataError(FuncSvmError):
    """Problems with the data itself rather than with how it was requested."""

    exit_code = 2


class GridMismatchError(DataError):
    """Two functions that should share a sampling grid do not."""


class ParseError(DataError):
    """Unreadable input file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class IntegrityError(DataError):
    """A persisted artifact (model file, report) is corrupt or truncated."""


class DegenerateFunctionError(DataError):
    """A transform cannot be applied (e.g. normalizing a constant curve)."""

    def __init__(self, message, index=None):
        if index is not None:
            message = f"function {index}: {message}"
        super().__init__(message)
        self.index = index


class DegenerateTrainingError(DataError):
    """Training set unusable, e.g. only one class present."""


class ConvergenceError(FuncSvmError):
    """The dual solver hit its iteration budget; carries the best iterate."""

    code = "convergence"
    exit_code = 3

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution
