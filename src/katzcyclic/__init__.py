"""Exact-arithmetic cyclic vectors for differential modules.

Computes the explicit candidate cyclic vector c(e, X) for a module given
by its connection matrix, builds the base change H(X) = sum_s H_s(X) G_s
as the derivative family nabla^i(c(e, X)) over ring[X] and its
determinant P(X), and certifies cyclicity over p-adic Banach rings
through exact ultrametric norm bounds.
"""

from .diffmod import (
    CharPReport,
    DifferentialModule,
    apply_nabla,
    charp_counterexample,
    is_basis,
    iterated_matrices,
    module_from_json,
    module_to_json,
    rescale_derivation,
)
from .errors import (
    FactorialNotInvertibleError,
    InternalConsistencyError,
    KatzCyclicError,
    NotInvertibleError,
    ParseError,
    PreconditionError,
    UnsupportedOperationError,
)
from .katz import (
    BaseChangeDecomposition,
    CyclicSearchResult,
    alpha,
    base_change,
    companion_form,
    derivative_coefficients,
    epsilon,
    find_cyclic,
    h_matrix,
    invert_coefficients,
    katz_vector,
    lemma_table,
    specialize_vector,
)
from .normvalue import NormValue
from .rings import (
    FiniteFieldPolyRing,
    GaussPolynomialRing,
    RationalFunctionField,
    Ring,
    ScaledDerivationRing,
    ring_from_json,
)
from .ultranorm import (
    CyclicityCertificate,
    MatrixNormKind,
    certify_lemma_2_1,
    check_prop_2_3,
    check_prop_2_5,
    check_prop_2_8,
    invertibility_witness_norm,
    matrix_norm,
)

__version__ = "0.1.0"
