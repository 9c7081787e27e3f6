"""Exception types shared across the package; the CLI maps them to exit codes."""


class TauwaringError(Exception):
    """Base class for package-specific failures."""


class CapacityError(TauwaringError, ValueError):
    """A requested size exceeds a configured or combinatorial limit."""


class TableFormatError(TauwaringError):
    """A persisted tau table failed to parse."""


class InfeasibleError(TauwaringError):
    """A search finished without finding a representation within its bounds."""


class InfeasibleContextError(InfeasibleError):
    """No prime window or branch produced a usable coverage context."""


class InternalCheckError(TauwaringError):
    """An internal consistency assertion failed; indicates a bug upstream."""


class LemmaViolationError(InternalCheckError):
    """Coverage guaranteed by the product-sum lemma did not materialize."""
