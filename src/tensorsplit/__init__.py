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
    anova_contraction,
    anova_kernel,
    averaged_anchored_kernel,
    averaged_kernel_energy,
    decompose,
    decomposition_table,
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
    eps_dimension_table,
    spline_eps_dimension,
)
from .equivalence import (
    EquivalenceCertificate,
    certify_equivalence,
    default_alpha,
    product_weight_equivalence,
)
from .errors import (
    ConfigInvalid,
    DegenerateDenominator,
    EnumerationCap,
    GammaL1Violated,
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
)
from .quadrature import QuadratureRule, gauss_legendre, integrate_1d, integrate_piecewise
from .regress import (
    AnchoredKernel,
    FittedModel,
    SampleSet,
    fit,
    fit_map,
    gram_matrix,
    kernel_from_json,
    load_samples,
    predict,
    regression_report,
    rmse,
)
from .sensitivity import (
    SobolTable,
    TruncationReport,
    l2_error,
    sobol_indices,
    truncate_order,
    truncation_bound,
    truncation_report,
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
    ProductWeights,
    ScaledWeights,
    SplineWeights,
    TableWeights,
    UnitWeights,
    WeightModel,
    orthogonalized_weight,
    redundant_condition_bound,
    transform_table,
)

__version__ = "0.1.0"
