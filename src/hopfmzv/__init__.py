"""hopfmzv: exact renormalized multiple zeta values at non-positive integers.

Words over the alphabet {d, y} encode argument tuples: the admissible word
d^{k_1}y ... d^{k_n}y stands for the tuple (-k_1, ..., -k_n).  The package
implements the deformed shuffle products and coproducts on those words, the
regularizing characters (Laurent series in a regulator z with exact rational
coefficients), the algebraic Birkhoff decomposition that extracts finite
renormalized values, and the q-series / Rota-Baxter laboratory used to
cross-check everything.  All arithmetic is exact; there is no floating point
anywhere.
"""

from .bernoulli import bernoulli
from .birkhoff import (
    CharacterTable,
    RenormValue,
    qzeta_plus,
    zeta_plus,
    zeta_plus_via_primitives,
)
from .coproduct import coproduct_combinatorial, coproduct_recursive, reduced_coproduct
from .errors import (
    DepthOne,
    EvenWeight,
    LambdaZero,
    NonvanishingLowerTerm,
    NonzeroConstantTerm,
    NotAdmissible,
    PrecisionExceeded,
    TruncationMismatch,
)
from .realizations import mero_depth1, mero_depth2, phi, psi
from .series import LaurentSeries
from .shuffle import shuffle_lambda, shuffle_zero
from .words import clear_caches

__version__ = "0.1.0"

__all__ = [
    "CharacterTable",
    "DepthOne",
    "EvenWeight",
    "LambdaZero",
    "LaurentSeries",
    "NonvanishingLowerTerm",
    "NonzeroConstantTerm",
    "NotAdmissible",
    "PrecisionExceeded",
    "RenormValue",
    "TruncationMismatch",
    "__version__",
    "bernoulli",
    "clear_caches",
    "coproduct_combinatorial",
    "coproduct_recursive",
    "mero_depth1",
    "mero_depth2",
    "phi",
    "psi",
    "qzeta_plus",
    "reduced_coproduct",
    "shuffle_lambda",
    "shuffle_zero",
    "zeta_plus",
    "zeta_plus_via_primitives",
]
