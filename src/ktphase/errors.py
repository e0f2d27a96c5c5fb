"""Exception hierarchy shared across the package."""


class KtError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(KtError):
    """Syntax or declaration error in a theory file or expression string.

    ``subject`` names what an error found after parsing is about (a declared
    name, or ``("boundary", i)``), for the parser to attach its line."""

    def __init__(self, message, line=None, col=None, subject=None):
        self.line = line
        self.col = col
        self.subject = subject
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", col {col}" if col is not None else "")
        super().__init__(message + loc)


class UndeclaredSymbolError(ParseError):
    """An expression references a symbol that was never declared."""


class UnboundVariableError(KtError):
    """evaluate() met a jet variable with no binding."""


class DomainError(KtError):
    """A scalar function was evaluated outside its domain (e.g. sqrt of a negative rational)."""


class OrderLimitError(KtError):
    """A total derivative pushed a jet variable past the configured maximum order."""


class ResourceLimitError(KtError):
    """Exact arithmetic exceeded the configured size limits."""


class DegreeError(KtError):
    """Vertical or form degree out of range for the requested operation."""


class NondegeneracyError(KtError):
    """A coframe that must be (metric) nondegenerate is not."""


class InconsistentSystemError(KtError):
    """An exact linear system that theory guarantees solvable turned out inconsistent.

    This signals an internal logic failure, not bad user input; callers must not
    swallow it.
    """


class UsageError(KtError):
    """A file named on the command line cannot be read or written."""


class CFLError(KtError):
    """Requested time step violates the stability bound of the integrator."""


class CheckFailure(KtError):
    """A requested verification (golden entry, lattice check) did not pass."""
