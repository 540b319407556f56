"""Certificates for the equivalence of ANOVA and anchored weighted norms.

Equivalence of the two decomposition norms follows from two domination
conditions on the set weights, phrased with an auxiliary positive sequence
alpha and the averaged-kernel energy q of the anchor in use:

* superset sums of q**|set| * alpha must be controlled by the own term;
* subset sums of alpha/gamma must be controlled by the own term.

A successful check yields constants (C', C'') and the equivalence constant
C = sqrt(C' * C''): the two norms then agree up to the factor C, and total
sensitivity indices agree up to C**2.  A failed check certifies nothing --
for general weights the conditions are sufficient only.  The one sharp case
is product weights, where equivalence holds exactly when the square roots
of the coordinate weights are summable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .decomp import DEFAULT_ANCHOR, averaged_kernel_energy
from .errors import ConfigInvalid, QTildeOutOfRange, TailUnavailable
from .gammas import GammaModel, ProductGamma
from .indexing import SupportSet
from .sequences import CoordSeq, seq_ratio

__all__ = [
    "EquivalenceCertificate",
    "default_alpha",
    "certify_equivalence",
    "product_weight_equivalence",
]


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Witness that the two decomposition norms are equivalent.

    The norms differ by at most the factor ``c`` = sqrt(c_prime * c_dprime);
    ``alpha_spec`` records the auxiliary sequence used and ``q`` the kernel
    energy the first condition was checked against.
    """

    c_prime: float
    c_dprime: float
    c: float
    alpha_spec: str
    q: float


class _DerivedAlpha(GammaModel):
    """alpha = q_tilde**|set| * sqrt(gamma), for non-product gamma models."""

    def __init__(self, gamma: GammaModel, q_tilde: float):
        self.gamma = gamma
        self.q_tilde = q_tilde

    def value(self, omega: SupportSet) -> float:
        return self.q_tilde ** len(omega) * math.sqrt(self.gamma.value(omega))

    @property
    def is_finite_support(self) -> bool:
        return self.gamma.is_finite_support

    def iter_support(self):
        return self.gamma.iter_support()


def default_alpha(gamma: GammaModel, q_tilde: float = 1.0) -> GammaModel:
    """The scaled square-root auxiliary sequence q_tilde**|set| * sqrt(gamma).

    The scale must stay within [1, 3/2]; outside that window the first
    domination condition is no longer implied by the halving condition.
    """
    if not 1.0 <= q_tilde <= 1.5:
        raise QTildeOutOfRange(f"q_tilde must lie in [1, 3/2], got {q_tilde}")
    if isinstance(gamma, ProductGamma):
        return ProductGamma(gamma.seq.sqrt().scaled(q_tilde))
    return _DerivedAlpha(gamma, q_tilde)


def certify_equivalence(
    gamma: GammaModel,
    q: float | None = None,
    anchor: float = DEFAULT_ANCHOR,
    q_tilde: float = 1.0,
) -> EquivalenceCertificate | None:
    """Check the two domination conditions and return the constants.

    The auxiliary sequence is ``default_alpha(gamma, q_tilde)``, and q is
    the kernel energy of ``anchor`` unless given.  Returns None when a
    certified supremum diverges (no equivalence certificate; not a
    disproof).  Raises ``TailUnavailable`` when the weight shape admits no
    certified computation.
    """
    if q is None:
        q = averaged_kernel_energy(anchor)
    alpha = default_alpha(gamma, q_tilde)

    if gamma.is_finite_support:
        pair = _finite_conditions(gamma, alpha, q)
    elif isinstance(gamma, ProductGamma):  # then alpha is a ProductGamma too
        pair = _product_conditions(gamma.seq, alpha.seq, q)
    else:
        raise TailUnavailable(
            "certificates need finite-support weights or product weights with product alpha"
        )
    if pair is None:
        return None
    c_prime, c_dprime = pair
    return EquivalenceCertificate(
        c_prime=c_prime,
        c_dprime=c_dprime,
        c=math.sqrt(c_prime * c_dprime),
        alpha_spec=f"q_tilde**|set| * sqrt(gamma), q_tilde={q_tilde}",
        q=q,
    )


def _finite_conditions(gamma: GammaModel, alpha: GammaModel, q: float):
    supports = list(gamma.iter_support())
    # every set of the support has a positive weight, so a weight of inf or
    # 0.0 is a product past the float range
    for omega in supports:
        g_omega = gamma.value(omega)
        if g_omega == math.inf or g_omega == 0.0:
            raise ConfigInvalid(f"the set weight of {list(omega.coords)} "
                                f"{'overflows' if g_omega else 'underflows'} the float range")
    c_prime = 0.0
    c_dprime = 0.0
    for omega in supports:
        a_omega = alpha.value(omega)
        g_omega = gamma.value(omega)
        if a_omega <= 0.0:
            raise TailUnavailable(f"alpha must be positive on the support, zero at {omega!r}")
        over = math.fsum(
            q ** len(w) * alpha.value(w) for w in supports if w.issuperset(omega)
        )
        c_prime = max(c_prime, over / (q ** len(omega) * a_omega))
        under = math.fsum(
            alpha.value(w) / gamma.value(w) for w in supports if w.issubset(omega)
        )
        c_dprime = max(c_dprime, under / (a_omega / g_omega))
    return c_prime, c_dprime


def _product_conditions(gamma_seq: CoordSeq, alpha_seq: CoordSeq, q: float):
    # Superset sums factor across coordinates: the supremum over sets of
    #   prod over k outside of (1 + q * alpha_k)
    # is the full product, attained at the empty set.  Subset sums give
    #   prod over k inside of (1 + gamma_k / alpha_k), with supremum the
    # full product as the sets grow.
    first = alpha_seq.scaled(q)
    if first.sum() == math.inf:
        return None
    c_prime = _exp_constant(first.log1p_sum(), "c_prime")
    second = seq_ratio(gamma_seq, alpha_seq)
    if second.sum() == math.inf:
        return None
    c_dprime = _exp_constant(second.log1p_sum(), "c_dprime")
    return c_prime, c_dprime


def _exp_constant(log_value: float, name: str) -> float:
    """exp of a constant's log; past the float range it is ``ConfigInvalid``."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise ConfigInvalid(f"the equivalence constant {name} overflows the float range") from None


def product_weight_equivalence(gamma_seq: CoordSeq) -> bool:
    """Sharp test for product weights: sqrt of the weights must be summable."""
    return gamma_seq.sqrt().sum() < math.inf
