"""Exception types shared across the package.

Every error carries its location where known: ``iteration``, the averaging
iterate whose lifting or retraction failed, and ``sample_index``, the
failing sample of a sample set or slice of a stack. ``str()`` appends
`` (iteration i, sample k)`` for the fields that are set, the one place a
location is written, so no message names one. ``FileFormatError`` writes
its ``line`` and ``column`` as a prefix of its message instead.
"""


class StiefelMeanError(Exception):
    """Base class for all library-specific errors."""

    def __init__(self, message, iteration=None, sample_index=None):
        super().__init__(message)
        self.iteration = iteration
        self.sample_index = sample_index

    def __str__(self):
        where = ", ".join(f"{name} {value}" for name, value in (
            ("iteration", self.iteration), ("sample", self.sample_index)) if value is not None)
        return f"{self.args[0]} ({where})" if where else str(self.args[0])


class ValidationError(StiefelMeanError, ValueError):
    """An input violates a structural invariant (shape, symmetry, orthonormality).

    ``defect`` carries the measured violation when one is meaningful,
    e.g. the Frobenius orthonormality defect of a would-be Stiefel point.
    """

    def __init__(self, message, defect=None, sample_index=None):
        super().__init__(message, sample_index=sample_index)
        self.defect = defect


class RankDeficientError(ValidationError):
    """A matrix expected to have full column rank does not; ``column`` is the
    index of the first offending column. It defaults to ``None`` so that
    unpickling, which calls the class with the message alone, then restores
    it with the other fields."""

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class DomainError(StiefelMeanError):
    """A locally-defined map was evaluated outside its domain: arguments too
    far apart, a tangent too large for an inner solver, or an unsolvable
    structured system."""


class FileFormatError(StiefelMeanError):
    """A sample-set file could not be parsed; ``line`` (1-based) and optional
    ``column`` (1-based token index) locate the problem."""

    def __init__(self, message, line=None, column=None):
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)
        self.line = line
        self.column = column
