"""Closed-form maximum-principle bounds on alpha*u + beta*v and the barrier
construction behind them.

For positive weights alpha, beta, every positive traveling-wave solution of
the two-species system under strong or weak competition satisfies

    q_lower <= alpha u(x) + beta v(x) <= q_upper

with

    q_lower = min[alpha min(s1/c11, s2/c21), beta min(s2/c22, s1/c12)]
              * min(d1/d2, d2/d1)
    q_upper = max[alpha max(s1/c11, s2/c21), beta max(s2/c22, s1/c12)]
              * max(d1/d2, d2/d1).

The proof traps the orbit in the (u, v) plane between three lines (levels
lambda1, lambda2 of alpha d1 u + beta d2 v and eta of alpha u + beta v).
Under strong competition one rule per side gives them: eta is a weighted
axis intercept, times a diffusion ratio in cases i and iv, and lambda1,
lambda2 are eta times the two diffusions (:func:`construct_barrier`).  The
combined weighted kinetics

    F(u, v) = alpha u (s1 - c11 u - c12 v) + beta v (s2 - c21 u - c22 v)

enters through the sign of its quadratic discriminant.

The regime, intercepts and d-ratios are read off the block's kernel, derived
once per instance, and each weight pair's bounds are stored per block, keyed
on the weights' types and values; all bound computations stay exact when the
inputs are.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import RegimeError
from .model import Regime, TwoSpeciesParams
from .profiles import WaveProfile
from .rational import Number, _require_positive
from .report import CheckItem, CheckReport

#: Relative tolerance (against the dominant squared term) below which the
#: conic discriminant counts as zero.
PARABOLA_TOL = 1e-9


@dataclass(frozen=True)
class BoundPair:
    """Two-sided bound on alpha*u + beta*v for one weight choice."""

    q_lower: Number
    q_upper: Number
    alpha: Number
    beta: Number

    @cached_property
    def float_bounds(self) -> tuple[float, float]:
        """``(float(q_lower), float(q_upper))``, converted on first read only;
        the pair is stored per block, so an audit repeated on one block and
        weight pair converts once."""
        return float(self.q_lower), float(self.q_upper)


class ConicKind(Enum):
    HYPERBOLA = "Hyperbola"
    PARABOLA = "Parabola"
    ELLIPSE = "Ellipse"


@dataclass(frozen=True)
class ConicClass:
    discriminant: Number
    kind: ConicKind


class BoundSide(Enum):
    LOWER = "LowerBound"
    UPPER = "UpperBound"


@dataclass(frozen=True)
class BarrierLines:
    """One barrier instance: levels lambda1, lambda2 of alpha d1 u + beta d2 v
    and level eta of alpha u + beta v, plus which tabulated case produced it."""

    lambda1: Number
    lambda2: Number
    eta: Number
    side: BoundSide
    case_id: str

    def __post_init__(self):
        if self.side is BoundSide.LOWER and not self.lambda1 <= self.lambda2:
            raise ValueError("lower barrier requires lambda1 <= lambda2")
        if self.side is BoundSide.UPPER and not self.lambda1 >= self.lambda2:
            raise ValueError("upper barrier requires lambda1 >= lambda2")


def F_value(p: TwoSpeciesParams, alpha: Number, beta: Number, u: Number, v: Number) -> Number:
    """Weighted sum of the two kinetic terms at the point (u, v)."""
    _require_positive(alpha=alpha, beta=beta)
    return alpha * u * (p.sigma1 - p.c11 * u - p.c12 * v) + beta * v * (
        p.sigma2 - p.c21 * u - p.c22 * v
    )


def lower_bound(p: TwoSpeciesParams, alpha: Number, beta: Number) -> Number:
    """Closed-form lower bound q_lower on alpha*u + beta*v."""
    return bounds(p, alpha, beta).q_lower


def upper_bound(p: TwoSpeciesParams, alpha: Number, beta: Number) -> Number:
    """Closed-form upper bound q_upper on alpha*u + beta*v."""
    return bounds(p, alpha, beta).q_upper


def _lower_bound_at(alpha, beta, u_min, v_min, d_min) -> Number:
    """q_lower from the least intercepts and d-ratio, unchecked: A3 feeds it
    those of the Sigma-shifted block."""
    return min(alpha * u_min, beta * v_min) * d_min


def bounds(p: TwoSpeciesParams, alpha: Number, beta: Number) -> BoundPair:
    """Both closed-form bounds on alpha*u + beta*v, read off the block's kernel.

    The pair is derived once per block and weight pair, and stored in the
    kernel keyed on the weights' types and values: ``Fraction(1, 2)`` and
    ``0.5`` are equal and hash alike, but each gets its own arithmetic.  A
    ``Fraction`` weight enters the key as its numerator and denominator, any
    other weight as its type and value; a part starts with an int in the one
    case and a type in the other, so no two weight pairs share a key.  The
    integers stand in for the Fraction because ``Fraction.__hash__`` takes a
    modular inverse: a lookup with two Fraction weights took about 2.2 us
    with the weights hashed and 0.3 us with their integers (CPython 3.11), of
    an exact audit's 13-22 us.  Refusals are not stored, so bad weights and
    blocks raise on every call.
    """
    k = p.kernel
    # _numerator and _denominator are the slots behind Fraction's properties
    key = (
        (alpha._numerator, alpha._denominator) if type(alpha) is Fraction
        else (type(alpha), alpha)
    ) + (
        (beta._numerator, beta._denominator) if type(beta) is Fraction
        else (type(beta), beta)
    )
    pair = k.bound_pairs.get(key)
    if pair is None:
        _require_positive(alpha=alpha, beta=beta)
        if k.regime not in (Regime.STRONG, Regime.WEAK):
            raise RegimeError(
                f"bounds require strong or weak competition, classification is {k.regime.value}"
            )
        pair = k.bound_pairs[key] = BoundPair(
            q_lower=_lower_bound_at(alpha, beta, k.u_min, k.v_min, k.d_min),
            q_upper=max(alpha * k.u_max, beta * k.v_max) * k.d_max,
            alpha=alpha,
            beta=beta,
        )
    return pair


def conic_classify(p: TwoSpeciesParams, alpha: Number, beta: Number) -> ConicClass:
    """Classify the quadratic curve F(u, v) = 0 by its discriminant.

    D = (alpha c12 + beta c21)^2 - 4 alpha beta c11 c22.  |D| within
    :data:`PARABOLA_TOL` of zero relative to the squared term classifies as a
    parabola.  Under strong competition D is provably positive (always a
    hyperbola).
    """
    _require_positive(alpha=alpha, beta=beta)
    cross = alpha * p.c12 + beta * p.c21
    disc = cross * cross - 4 * alpha * beta * p.c11 * p.c22
    if abs(disc) <= PARABOLA_TOL * cross * cross:
        kind = ConicKind.PARABOLA
    elif disc > 0:
        kind = ConicKind.HYPERBOLA
    else:
        kind = ConicKind.ELLIPSE
    return ConicClass(discriminant=disc, kind=kind)


def construct_barrier(
    p: TwoSpeciesParams, alpha: Number, beta: Number, side: BoundSide
) -> BarrierLines:
    """Explicit barrier-line levels under strong competition, one rule per side.

    The lower side takes w/den = alpha s2/c21 if beta s1 c21 d2 >= alpha s2 c12 d1,
    else beta s1/c12, and (near, far) = (min d, max d).  The upper side takes
    w/den = beta s2/c22 if beta s2 c11 d2 >= alpha s1 c22 d1, else alpha s1/c11,
    and (near, far) = (max d, min d).  Cases i and ii have d2 >= d1, iii and iv
    not, the first of each pair when the test holds.  eta = w near/(den far) in
    cases i and iv and w/den in ii and iii; lambda1 = eta near and lambda2 =
    eta far, so the side's ordering of lambda1, lambda2 holds by construction,
    in floats too.  The upper-side case (i) eta carries the beta factor (the
    dimensionally consistent choice); see the package notes on this point.
    Outside strong competition :class:`RegimeError` is raised.
    """
    _require_positive(alpha=alpha, beta=beta)
    regime = p.kernel.regime
    if regime is not Regime.STRONG:
        raise RegimeError(
            f"explicit barrier tables require strong competition, classification is {regime.value}"
        )
    d1, d2 = p.d1, p.d2
    if side is BoundSide.LOWER:
        first = beta * p.sigma1 * p.c21 * d2 >= alpha * p.sigma2 * p.c12 * d1
        w, den = (alpha * p.sigma2, p.c21) if first else (beta * p.sigma1, p.c12)
        near, far = min(d1, d2), max(d1, d2)
    else:
        first = beta * p.sigma2 * p.c11 * d2 >= alpha * p.sigma1 * p.c22 * d1
        w, den = (beta * p.sigma2, p.c22) if first else (alpha * p.sigma1, p.c11)
        near, far = max(d1, d2), min(d1, d2)
    ordered = d2 >= d1
    eta = w * near / (den * far) if first == ordered else w / den
    case = ("i" if first else "ii") if ordered else ("iii" if first else "iv")
    return BarrierLines(lambda1=eta * near, lambda2=eta * far, eta=eta, side=side, case_id=case)


def verify_bounds_on_profile(profile: WaveProfile, bound_pair: BoundPair) -> CheckReport:
    """Pointwise audit of ``bound_pair``'s two-sided bound on a sampled profile.

    Reports the extrema of alpha*u + beta*v, with the pair's own weights, over
    the grid and the signed margins to each bound.  The min/max reductions are
    order independent, so partitioning the grid across workers would give
    identical results.
    """
    alpha, beta = bound_pair.alpha, bound_pair.beta
    _require_positive(alpha=alpha, beta=beta)
    combo = float(alpha) * profile.u + float(beta) * profile.v
    i_min, i_max = int(np.argmin(combo)), int(np.argmax(combo))
    lo, hi = float(combo[i_min]), float(combo[i_max])
    q_lo, q_hi = bound_pair.float_bounds
    items = tuple(
        CheckItem(name=side, passed=margin >= 0, margin=margin, details={
            "side": side, "extremum": extremum, at: float(profile.x[i]), "bound": bound,
        })
        for side, extremum, at, i, bound, margin in (
            ("lower", lo, "argmin_x", i_min, q_lo, lo - q_lo),
            ("upper", hi, "argmax_x", i_max, q_hi, q_hi - hi),
        )
    )
    passed = all(it.passed for it in items)
    verdict = "bounds hold on the sampled profile" if passed else "bound violated"
    return CheckReport(title="profile-bounds", passed=passed, items=items, verdict=verdict)
