"""Error types shared across the package."""


class LetterRangeError(ValueError):
    """A word contains a letter outside 1..d."""


class CutMismatchError(ValueError):
    """Two truncated operators with different cuts were combined
    without an explicit re-cut."""


class CutExhaustedError(ValueError):
    """An iteration consumed the whole truncation budget before the
    requested quantity stabilized."""


class ModeMixError(ValueError):
    """Exact-mode and float-mode objects were mixed in one expression."""


class TermBudgetError(RuntimeError):
    """A symbolic expression outgrew the configured term budget
    (FOCK_TERM_CAP)."""


class StabilizationError(RuntimeError):
    """The iterated product failed to stabilize inside the cut budget.

    Carries the last two iterates so the caller can inspect the
    residual drift: ``last`` is the Markov step of ``previous``
    (``previous`` is None when no step was taken).
    """

    def __init__(self, message, last=None, previous=None):
        super().__init__(message)
        self.last = last
        self.previous = previous


class SpectrumSizeError(ValueError):
    """A spectrum sample request exceeded the configured size guard."""


class InternalInconsistencyError(RuntimeError):
    """A computed invariant contradicts a structural constraint that
    the input data must satisfy (e.g. a rational ratio p/q with p > 1
    arising from a summable weight vector)."""
