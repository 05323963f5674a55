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
once per instance; all bound computations stay exact when the inputs are.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import RegimeError
from .model import Regime, TwoSpeciesParams
from .profiles import WaveProfile
from .rational import Number, _is_finite
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


def _check_weights(alpha: Number, beta: Number) -> None:
    if not (alpha > 0 and beta > 0 and _is_finite(alpha) and _is_finite(beta)):
        raise ValueError(f"weights must be strictly positive and finite: {alpha=!s}, {beta=!s}")


def F_value(p: TwoSpeciesParams, alpha: Number, beta: Number, u: Number, v: Number) -> Number:
    """Weighted sum of the two kinetic terms at the point (u, v)."""
    _check_weights(alpha, beta)
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
    """Both closed-form bounds on alpha*u + beta*v, read off the block's kernel."""
    _check_weights(alpha, beta)
    k = p.kernel
    if k.regime not in (Regime.STRONG, Regime.WEAK):
        raise RegimeError(
            f"bounds require strong or weak competition, classification is {k.regime.value}"
        )
    return BoundPair(
        q_lower=_lower_bound_at(alpha, beta, k.u_min, k.v_min, k.d_min),
        q_upper=max(alpha * k.u_max, beta * k.v_max) * k.d_max,
        alpha=alpha,
        beta=beta,
    )


def conic_classify(p: TwoSpeciesParams, alpha: Number, beta: Number) -> ConicClass:
    """Classify the quadratic curve F(u, v) = 0 by its discriminant.

    D = (alpha c12 + beta c21)^2 - 4 alpha beta c11 c22.  |D| within
    :data:`PARABOLA_TOL` of zero relative to the squared term classifies as a
    parabola.  Under strong competition D is provably positive (always a
    hyperbola).
    """
    _check_weights(alpha, beta)
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
    _check_weights(alpha, beta)
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


def verify_bounds_on_profile(
    profile: WaveProfile, alpha: Number, beta: Number, bound_pair: BoundPair
) -> CheckReport:
    """Pointwise audit of the two-sided bound on a sampled profile.

    Reports the extrema of alpha*u + beta*v over the grid and the signed
    margins to each bound.  The min/max reductions are order independent, so
    partitioning the grid across workers would give identical results.
    """
    _check_weights(alpha, beta)
    combo = float(alpha) * profile.u + float(beta) * profile.v
    i_min = int(np.argmin(combo))
    i_max = int(np.argmax(combo))
    lo = float(combo[i_min])
    hi = float(combo[i_max])
    lower_margin = lo - float(bound_pair.q_lower)
    upper_margin = float(bound_pair.q_upper) - hi
    items = (
        CheckItem(
            name="lower",
            passed=lower_margin >= 0,
            margin=lower_margin,
            details={
                "side": "lower",
                "extremum": lo,
                "argmin_x": float(profile.x[i_min]),
                "bound": float(bound_pair.q_lower),
            },
        ),
        CheckItem(
            name="upper",
            passed=upper_margin >= 0,
            margin=upper_margin,
            details={
                "side": "upper",
                "extremum": hi,
                "argmax_x": float(profile.x[i_max]),
                "bound": float(bound_pair.q_upper),
            },
        ),
    )
    passed = all(it.passed for it in items)
    verdict = "bounds hold on the sampled profile" if passed else "bound violated"
    return CheckReport(title="profile-bounds", passed=passed, items=items, verdict=verdict)
