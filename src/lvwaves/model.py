"""Parameter containers, equilibria, and regime classification.

The two-species kinetics are

    u' = u (sigma1 - c11 u - c12 v)
    v' = v (sigma2 - c21 u - c22 v)

and the three-species system adds a third row and column.  Competition is
classified by comparing the axis intercepts of the two zero-growth lines
``sigma1 - c11 u - c12 v = 0`` and ``sigma2 - c21 u - c22 v = 0``:

* strong  (S): sigma1/c11 > sigma2/c21 and sigma2/c22 > sigma1/c12
* weak    (W): both comparisons reversed
* competitive exclusion: mixed signs (one species always wins)

All closed-form operations preserve exact fractions when the inputs are
exact; see :mod:`lvwaves.rational`.  A block's regime, intercepts, d-ratios
and (u*, v*) are derived once per instance (:attr:`TwoSpeciesParams.kernel`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import DomainError, SingularLinesError
from .rational import (
    Number,
    _compare,
    _from_dict,
    _reduce_by_init,
    _require_finite,
    _require_nonnegative,
    _require_positive,
    _to_dict,
)

#: Relative tolerance on the cross products sigma1*c21 vs sigma2*c11 and
#: sigma2*c12 vs sigma1*c22 below which a regime comparison counts as a tie.
#: Products avoid divisions, so exact inputs compare exactly.
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class TwoSpeciesParams:
    """Diffusion, growth, and competition coefficients of the two-species system."""

    d1: Number
    d2: Number
    sigma1: Number
    sigma2: Number
    c11: Number
    c12: Number
    c21: Number
    c22: Number

    def __post_init__(self):
        _require_positive(d1=self.d1, d2=self.d2, sigma1=self.sigma1, sigma2=self.sigma2,
                          c11=self.c11, c12=self.c12, c21=self.c21, c22=self.c22)

    __reduce__ = _reduce_by_init  # pickles the fields, not the cached kernel
    from_dict = classmethod(_from_dict)
    to_dict = _to_dict

    @cached_property
    def kernel(self) -> "BlockKernel":
        """Derived once, from this instance's own fields and number type."""
        u_side, v_side, d_side = _ratios(self, self.sigma1, self.sigma2)
        try:
            state = coexistence_equilibrium(self)
        except SingularLinesError as exc:
            state = exc
        return BlockKernel(classify_regime(self), min(u_side), max(u_side), min(v_side),
                           max(v_side), min(d_side), max(d_side), state)

    def swapped(self) -> "TwoSpeciesParams":
        """Relabel the species (u <-> v)."""
        return TwoSpeciesParams(
            d1=self.d2, d2=self.d1,
            sigma1=self.sigma2, sigma2=self.sigma1,
            c11=self.c22, c12=self.c21, c21=self.c12, c22=self.c11,
        )


@dataclass(frozen=True)
class ThreeSpeciesParams:
    """Full coefficient set of the three-species system.

    Diffusions, growth rates, and intra-specific rates (the diagonal
    ``c11, c22, c33``) must be strictly positive.  Off-diagonal competition
    rates may be zero: the audits for the third-species theorems are stated
    in the decoupled limit ``c13 = c23 = 0``, so that boundary value must be
    representable.
    """

    d1: Number
    d2: Number
    d3: Number
    sigma1: Number
    sigma2: Number
    sigma3: Number
    c11: Number
    c12: Number
    c13: Number
    c21: Number
    c22: Number
    c23: Number
    c31: Number
    c32: Number
    c33: Number

    def __post_init__(self):
        _require_positive(d1=self.d1, d2=self.d2, d3=self.d3, sigma1=self.sigma1,
                          sigma2=self.sigma2, sigma3=self.sigma3, c11=self.c11, c22=self.c22,
                          c33=self.c33)
        _require_nonnegative(c12=self.c12, c13=self.c13, c21=self.c21, c23=self.c23,
                             c31=self.c31, c32=self.c32)

    __reduce__ = _reduce_by_init
    from_dict = classmethod(_from_dict)
    to_dict = _to_dict

    def competition_matrix(self) -> list[list[Number]]:
        return [[getattr(self, f"c{i}{j}") for j in (1, 2, 3)] for i in (1, 2, 3)]

    def two_species_block(self) -> TwoSpeciesParams:
        """The (u, v) subsystem obtained by deleting the third row and column."""
        return TwoSpeciesParams(**{f.name: getattr(self, f.name) for f in fields(TwoSpeciesParams)})


@dataclass(frozen=True)
class Equilibrium2:
    u: Number
    v: Number

    @property
    def positive(self) -> bool:
        return self.u > 0 and self.v > 0


class Regime(Enum):
    EXCLUSION_U_WINS = "ExclusionUWins"
    EXCLUSION_V_WINS = "ExclusionVWins"
    STRONG = "Strong"
    WEAK = "Weak"
    DEGENERATE = "Degenerate"


def equilibria(p: TwoSpeciesParams) -> list[Equilibrium2]:
    """All four kinetic equilibria, in the order origin, u-only, v-only, then
    coexistence (the last only when the zero-growth lines intersect)."""
    (u_axis, _), (v_axis, _), _ = _ratios(p, p.sigma1, p.sigma2)
    out = [Equilibrium2(0, 0), Equilibrium2(u_axis, 0), Equilibrium2(0, v_axis)]
    try:
        out.append(coexistence_equilibrium(p))
    except SingularLinesError:
        pass
    return out


def coexistence_equilibrium(p: TwoSpeciesParams) -> Equilibrium2:
    """Intersection of the two zero-growth lines.

    Returns the coexistence state

        u* = (c22 sigma1 - c12 sigma2) / (c11 c22 - c12 c21)
        v* = (c11 sigma2 - c21 sigma1) / (c11 c22 - c12 c21)

    which may have nonpositive components (check ``.positive``).  Raises
    :class:`SingularLinesError` when the lines are parallel.
    """
    det = p.c11 * p.c22 - p.c12 * p.c21
    if det == 0:
        raise SingularLinesError(
            f"c11*c22 == c12*c21 ({p.c11 * p.c22}); the zero-growth lines are parallel"
        )
    u_star = (p.c22 * p.sigma1 - p.c12 * p.sigma2) / det
    v_star = (p.c11 * p.sigma2 - p.c21 * p.sigma1) / det
    return Equilibrium2(u_star, v_star)


def classify_regime(p: TwoSpeciesParams) -> Regime:
    """Classify the competition regime of the kinetics.

    The comparisons s_u of sigma1/c11 vs sigma2/c21 and s_v of sigma2/c22 vs
    sigma1/c12 are evaluated on cross products.  A comparison within
    :data:`DEGENERACY_TOL` (relative) of a tie makes the whole classification
    ``DEGENERATE``.
    """
    s_u = _compare(p.sigma1 * p.c21, p.sigma2 * p.c11, DEGENERACY_TOL)
    s_v = _compare(p.sigma2 * p.c12, p.sigma1 * p.c22, DEGENERACY_TOL)
    if s_u == 0 or s_v == 0:
        return Regime.DEGENERATE
    if s_u > 0 and s_v > 0:
        return Regime.STRONG
    if s_u < 0 and s_v < 0:
        return Regime.WEAK
    if s_u > 0:
        return Regime.EXCLUSION_U_WINS
    return Regime.EXCLUSION_V_WINS


def _ratios(p: TwoSpeciesParams | ThreeSpeciesParams, s1: Number, s2: Number) -> tuple:
    """With growth rates (s1, s2): the u-side axis intercepts (s1/c11, s2/c21),
    the v-side ones (s2/c22, s1/c12), and the d-ratios (d1/d2, d2/d1)."""
    return (s1 / p.c11, s2 / p.c21), (s2 / p.c22, s1 / p.c12), (p.d1 / p.d2, p.d2 / p.d1)


@dataclass(frozen=True)
class BlockKernel:
    """A block's regime, intercept and d-ratio extrema, and (u*, v*); reading
    that raises again any SingularLinesError solving raised.  ``bound_pairs``
    holds the N-barrier bounds already derived for the block, keyed on the
    weights' types and values (see :func:`lvwaves.nbarrier.bounds`)."""

    regime: Regime
    u_min: Number
    u_max: Number
    v_min: Number
    v_max: Number
    d_min: Number
    d_max: Number
    _coexistence: Equilibrium2 | SingularLinesError
    bound_pairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def coexistence(self) -> Equilibrium2:
        if isinstance(self._coexistence, SingularLinesError):
            raise self._coexistence.with_traceback(None)
        return self._coexistence


def evenness_index(u: Number, v: Number) -> float:
    """Normalized Shannon evenness of the two densities.

    J = -[u ln(u/(u+v)) + v ln(v/(u+v))] / (ln(2) (u+v)), with 0 ln 0 := 0.
    J lies in [0, 1] and equals 1 exactly when u == v > 0.
    """
    _require_finite(u=u, v=v)  # NaN and infinities keep the finite rule's wording
    _require_nonnegative(u=u, v=v)
    if u == 0 and v == 0:
        raise DomainError("evenness index undefined for u + v == 0")
    # the share u / (u + v) in exact arithmetic: a float u + v can overflow
    eu, ev = (x if isinstance(x, (int, Fraction)) else Fraction(float(x)) for x in (u, v))
    pu = float(eu / (eu + ev))
    pv = 1.0 - pu
    h = 0.0
    if pu > 0:
        h -= pu * math.log(pu)
    if pv > 0:
        h -= pv * math.log(pv)
    return h / math.log(2)
