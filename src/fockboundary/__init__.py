"""Desk-scale computations in the fixed-point algebra of a weighted
Markov operator on full Fock space.

The package exposes four layers:

* :mod:`fockboundary.fock` -- words, weights, truncated operators on
  the Fock space, the Markov operator and harmonicity checks.
* :mod:`fockboundary.algebra` -- exact symbolic arithmetic for the
  fixed-point algebra, spanned by monomials ``M(I, J) = r_I . r_J*``
  under the fixed-point product.
* :mod:`fockboundary.choi_effros` -- iterated-Markov and closed-form
  realisations of the fixed-point product, plus Cesaro projection.
* :mod:`fockboundary.modular`, :mod:`fockboundary.classification`,
  :mod:`fockboundary.quantization`, :mod:`fockboundary.structure` --
  modular data for the vacuum state, type classification of the weight
  vector, second quantization, and structural probes.
"""

from .errors import (
    CutExhaustedError,
    CutMismatchError,
    FockError,
    InternalInconsistencyError,
    LetterRangeError,
    ModeMixError,
    SpectrumSizeError,
    StabilizationError,
    TermBudgetError,
)
from .fock import TruncatedOperator, WeightVector, is_harmonic, markov_step
from .algebra import CuntzElement, Monomial

__all__ = [
    "CuntzElement",
    "CutExhaustedError",
    "CutMismatchError",
    "FockError",
    "InternalInconsistencyError",
    "LetterRangeError",
    "ModeMixError",
    "Monomial",
    "SpectrumSizeError",
    "StabilizationError",
    "TermBudgetError",
    "TruncatedOperator",
    "WeightVector",
    "is_harmonic",
    "markov_step",
]
