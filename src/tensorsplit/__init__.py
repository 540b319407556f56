"""Weighted tensor-product Hilbert space splittings, made executable.

The package turns decomposition-norm machinery for functions of many (in
principle infinitely many) variables into concrete computations: exact
eps-dimensions, redundant-versus-orthogonal weight transforms with
condition-number certificates, ANOVA and anchored decompositions with
their explicit kernels, norm-equivalence certificates, weighted sensitivity
indices with truncation bounds, and representer-theorem kernel regression.
"""

from .decomp import (
    DEFAULT_ANCHOR,
    MODE_ANCHORED,
    MODE_ANOVA,
    DecompositionTerm,
    anchored_contraction,
    anchored_kernel,
    anchored_representation,
    anchored_term,
    anova_contraction,
    anova_kernel,
    anova_term,
    averaged_anchored_kernel,
    averaged_kernel_energy,
    decompose,
    mean_representation,
    reconstruct,
    weighted_norm,
)
from .epsdim import (
    AllOneDims,
    EpsDimResult,
    FiniteUniverse,
    ProductDecay,
    SplineDims,
    auto_certificate,
    enumerate_threshold_set,
    eps_dimension,
    eps_dimension_restricted,
    spline_eps_dimension,
    stabilization_dim,
)
from .equivalence import (
    EquivalenceCertificate,
    certify_equivalence,
    certify_halving_condition,
    default_alpha,
    product_weight_equivalence,
)
from .errors import (
    ConfigInvalid,
    DegenerateDenominator,
    EnumerationCap,
    GammaL1Violated,
    InclusionViolated,
    KernelAsymmetric,
    NoCertificate,
    NormDegenerate,
    NormInfinite,
    NotCompact,
    OracleUnavailable,
    OrderOutOfRange,
    QTildeOutOfRange,
    SolveFailed,
    TailUnavailable,
    TensorsplitError,
)
from .functions import SeparableFunction, Term, UnivariateFactor
from .gammas import FiniteOrderGamma, GammaModel, ProductGamma, TableGamma
from .indexing import (
    EMPTY_SUPPORT,
    ZERO_INDEX,
    IndexSet,
    IndexVector,
    SupportSet,
    componentwise_leq,
    downward_closure,
    is_monotone,
)
from .quadrature import QuadratureRule, gauss_legendre, integrate_1d, integrate_piecewise
from .regress import (
    AnchoredKernel,
    CustomKernel,
    FittedModel,
    SampleSet,
    TensorProductKernel,
    fit,
    fit_map,
    gram_matrix,
    predict,
)
from .sensitivity import (
    SobolTable,
    l2_error,
    sobol_indices,
    total_index,
    truncate_order,
    truncation_bound,
)
from .sequences import (
    ConstantSeq,
    CoordSeq,
    FiniteSeq,
    GeometricSeq,
    PowerSeq,
    seq_ratio,
)
from .weights import (
    AnisotropicWeights,
    ConditionBound,
    CustomWeights,
    ProductWeights,
    ScaledWeights,
    SplineWeights,
    TableWeights,
    UnitWeights,
    WeightModel,
    check_embedding,
    optimal_split_value,
    orthogonalized_weight,
    redundant_condition_bound,
    redundant_norm_defined,
)

__version__ = "0.1.0"
