"""derleib: exact derivation algebras of nilpotent Leibniz algebras.

Constructs the indecomposable nilpotent Leibniz algebras with
one-dimensional commutator ideal, computes their derivation Lie algebras
and structural invariants in exact arithmetic, and re-verifies the
documented dimension formulas, bases and inclusions for these families.
"""

__version__ = "0.1.0"

from .algebra import Algebra, AlgebraKind
from .exactlin import GaussRat, Mat, Q, QI, Subspace

__all__ = [
    "Algebra",
    "AlgebraKind",
    "GaussRat",
    "Mat",
    "Q",
    "QI",
    "Subspace",
    "__version__",
]
