"""Error types shared across the package."""


class FockError(Exception):
    """The base of every error the library raises on its own account;
    the CLI reports one as a single ``error:`` line and exit 2."""


class LetterRangeError(FockError, ValueError):
    """A word contains a letter outside 1..d."""


class CutMismatchError(FockError, ValueError):
    """Two truncated operators with different cuts were combined
    without an explicit re-cut."""


class CutExhaustedError(FockError, ValueError):
    """An iteration consumed the whole truncation budget before the
    requested quantity stabilized."""


class ModeMixError(FockError, ValueError):
    """Exact-mode and float-mode objects were mixed in one expression."""


class TermBudgetError(FockError, RuntimeError):
    """A symbolic expression outgrew the configured term budget
    (FOCK_TERM_CAP)."""


class StabilizationError(FockError, RuntimeError):
    """The iterated product failed to stabilize inside the cut budget.

    Carries the last two iterates so the caller can inspect the
    residual drift: ``last`` is the Markov step of ``previous``
    (``previous`` is None when no step was taken).
    """

    def __init__(self, message, last=None, previous=None):
        super().__init__(message)
        self.last = last
        self.previous = previous


class SpectrumSizeError(FockError, ValueError):
    """A spectrum sample request exceeded the configured size guard."""


class InternalInconsistencyError(FockError, RuntimeError):
    """A computed invariant contradicts a structural constraint that
    the input data must satisfy (e.g. a rational ratio p/q with p > 1
    arising from a summable weight vector)."""
