"""Exact-arithmetic toolkit for classical simple Lie algebras: invariant
gradient fields and their derivatives, sl(2)-triples through nilpotent
orbits, and the index of the normalizer of a centralizer."""

__version__ = "0.1.0"

from ._scalar import Rat
from .algebras import (
    AlgebraRealization,
    Element,
    Subspace,
    bracket,
    build_algebra,
    center_of,
    centralizer,
    h_graduation,
    trace_form,
    unipotent_conjugate,
)
from .errors import (
    ContractError,
    DegreeMismatchError,
    GraduationError,
    HypothesisViolation,
    IdentityError,
    InternalError,
    NilabError,
    PartitionError,
    ShapeError,
    UnsupportedAlgebraError,
)
from .index import (
    BracketTensor,
    ConvolutionResult,
    IndexResult,
    OrbitReport,
    PairData,
    analyze_orbit,
    bracket_matrix,
    build_pair_data,
    convolution_at,
    det_shape_check,
    index_pair,
    normalizer_decomposition_check,
    structure_checks,
    sweep,
    valid_partitions,
)
from .invariants import (
    InvariantGenerator,
    TaylorTerms,
    eval_generator,
    generators,
    gradient,
    kostant_independence,
    make_samples,
    mf_shift_rank,
    mixed_term,
    pfaffian,
    sl2_vectors,
    taylor_terms,
    triangular_decomposition,
    verify_field_identities,
)
from .linalg import interpolate_vector_poly, inverse
from .poly import Poly, generic_rank_detail
from .reports import CheckReport
from .triples import (
    Partition,
    Triplet,
    nilpotent_from_partition,
    principal_triplet,
    sl2_complete,
    triple_from_partition,
)
