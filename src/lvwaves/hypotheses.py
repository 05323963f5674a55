"""Machine-readable audits of the existence and nonexistence hypothesis sets.

Existence side (four hypotheses on a candidate invader riding a two-species
wave background):

  H1  sigma3 < c31  and  sigma3 < c31 u* + c32 v*        (tail decay)
  H2  -c33 K_super - q_lower + sigma3 <= 0               (supersolution)
  H3  4 theta^2 - 4 (c33 K_sub + 6 d3)
        * (-c33 K_sub - 2 d3 - q_upper + sigma3) <= 0    (subsolution)
  H4  K_super >= K_sub > 0                               (ordering)

where q_lower/q_upper are the closed-form bounds on c31 u + c32 v (weights
alpha = c31, beta = c32).  theta must be the speed of the given background
wave.

Nonexistence side, with S1 = sigma1 c33 - sigma3 c13 and
S2 = sigma2 c33 - sigma3 c23:

  A1  S1 > 0 and S2 > 0
  A2  c21 S1 > c11 S2 and c12 S2 > c22 S1, or both reversed
  A3  min[c31 d1 min(S1/c11, S2/c21), c32 d2 min(S2/c22, S1/c12)]
        * min(d1/d2, d2/d1) >= sigma3 c33

A3's left side is the N-barrier lower bound q_lower on the Sigma-shifted block
(sigma1, sigma2 replaced by S1, S2) with weights (c31 d1, c32 d2).  A3 is also
evaluated with weights (c31, c32), the form matching the two-sided bound
formula; the verdict always states which variant passed, and neither is
declared authoritative.

Margins are signed reals (negative = violated), never bare booleans.  When
every number H1-H4 read is exact, their margins are evaluated on integer
numerator/denominator pairs with positive denominators and one correctly
rounded division per reported float; float or mixed inputs take the generic
expressions.  The two give the same floats bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

from .model import ThreeSpeciesParams, TwoSpeciesParams, _ratios
from .nbarrier import _lower_bound_at, bounds
from .rational import (
    Number,
    _reduce_by_init,
    _require_finite,
    _require_positive,
    all_exact,
    parse_fields,
)
from .report import CheckItem, CheckReport


# slotted: a lattice search holds tens of thousands of these, and none caches anything
@dataclass(frozen=True, slots=True)
class ExistenceInputs:
    """Two-species background block, third-species data, and the candidate
    sub/super amplitudes.  K_super >= K_sub > 0 is hypothesis H4: it is
    audited, not enforced at construction."""

    two_species: TwoSpeciesParams
    d3: Number
    sigma3: Number
    c31: Number
    c32: Number
    c33: Number
    theta: Number
    K_sub: Number
    K_super: Number

    def __post_init__(self):
        _require_positive(d3=self.d3, sigma3=self.sigma3, c31=self.c31, c32=self.c32, c33=self.c33)
        # their signs are H4's to audit
        _require_finite(theta=self.theta, K_sub=self.K_sub, K_super=self.K_super)

    __reduce__ = _reduce_by_init

    @classmethod
    def from_dict(cls, data: dict) -> "ExistenceInputs":
        block_names = tuple(f.name for f in fields(TwoSpeciesParams))
        values = parse_fields(data, block_names + _INVADER_FIELDS)
        block = TwoSpeciesParams(**{k: values.pop(k) for k in block_names})
        return cls(two_species=block, **values)


#: The invader's keys, after the block's in a parameter file: every other field.
_INVADER_FIELDS = tuple(f.name for f in fields(ExistenceInputs) if f.name != "two_species")


@dataclass(frozen=True)
class SigmaPair:
    """Growth rates after discounting the invader's depressive effect."""

    Sigma1: Number
    Sigma2: Number


def sigma_pair(p: ThreeSpeciesParams) -> SigmaPair:
    return SigmaPair(
        Sigma1=p.sigma1 * p.c33 - p.sigma3 * p.c13,
        Sigma2=p.sigma2 * p.c33 - p.sigma3 * p.c23,
    )


def existence_report(inputs: ExistenceInputs) -> CheckReport:
    """Audit H1-H4 with signed margins.

    Requires the background block to be strongly or weakly competitive
    (otherwise the closed-form bounds do not apply and RegimeError is
    raised).  The block's regime and (u*, v*) come from its kernel.  When
    every number the margins read is exact, they are evaluated on integer
    numerators over positive denominators, with one correctly rounded
    division per reported float; float or mixed inputs take the generic
    expressions.  Both give the same floats bit for bit.  An exact value, or
    an exact value mixed with a float, that ``float()`` cannot hold is
    refused with a ``ValueError`` naming the audit.
    """
    block = inputs.two_species
    # exact values, and exact values mixed with floats, overflow in float()
    # rather than to inf, in the block's kernel and bounds as in the margins
    try:
        pair = bounds(block, inputs.c31, inputs.c32)
        q_lo, q_hi = pair.q_lower, pair.q_upper
        eq = block.kernel.coexistence
        values = (inputs.c31, inputs.c32, inputs.sigma3, inputs.c33, inputs.d3, inputs.theta,
                  inputs.K_sub, inputs.K_super, eq.u, eq.v, q_lo, q_hi)
        if all_exact(*values):
            m_h1, m_h2, m_h3, m_h4, h4_ok = _integer_margins(*values)
        else:
            m_h1 = float(min(inputs.c31 - inputs.sigma3,
                             inputs.c31 * eq.u + inputs.c32 * eq.v - inputs.sigma3))
            m_h2 = float(inputs.c33 * inputs.K_super + q_lo - inputs.sigma3)
            a_coef = inputs.c33 * inputs.K_sub + 6 * inputs.d3
            c_coef = inputs.sigma3 - inputs.c33 * inputs.K_sub - 2 * inputs.d3 - q_hi
            m_h3 = float(4 * a_coef * c_coef - 4 * inputs.theta * inputs.theta)
            m_h4 = float(min(inputs.K_super - inputs.K_sub, inputs.K_sub))
            # the amplitude ordering is non-strict; only K_sub > 0 is strict
            h4_ok = inputs.K_super >= inputs.K_sub and inputs.K_sub > 0
        f_lo, f_hi = pair.float_bounds
    except OverflowError:
        raise _above_the_float_range("existence") from None

    h1_ok, h2_ok, h3_ok = m_h1 > 0, m_h2 >= 0, m_h3 >= 0
    items = (
        CheckItem("H1", h1_ok, m_h1, {"q_lower": f_lo, "q_upper": f_hi}),
        CheckItem("H2", h2_ok, m_h2, {}),
        CheckItem("H3", h3_ok, m_h3, {}),
        CheckItem("H4", h4_ok, m_h4, {}),
    )
    passed = h1_ok and h2_ok and h3_ok and h4_ok
    verdict = (
        "existence hypotheses all hold" if passed else "existence hypotheses violated: "
        + ", ".join([it.name for it in items if not it.passed])
    )
    return CheckReport(title="existence-audit", passed=passed, items=items, verdict=verdict)


def _above_the_float_range(audit: str) -> ValueError:
    """The refusal of an audit whose exact value (or an exact value mixed with
    a float) is too large for ``float()``."""
    return ValueError(f"the {audit} audit has a value above the float range")


def _integer_margins(*values: int | Fraction):
    """H1-H4's float margins and H4's pass for exact inputs, on integer
    numerators over products of positive denominators, with no gcd taken.
    Each sign is a numerator's, each min a cross-multiplied comparison, and
    each float one ``n / d``, correctly rounded as ``float(Fraction)`` is, so
    the floats equal the generic expressions' bit for bit."""
    # c31 = a/A, c32 = b/B, sigma3 = s/S, c33 = g/G, d3 = e/E, theta = t/T,
    # K_sub = k/K, K_super = m/M, u* = p/P, v* = r/R, q_lower = l/L, q_upper = h/H
    (a, A), (b, B), (s, S), (g, G), (e, E), (t, T), (k, K), (m, M), (p, P), (r, R), (l, L), (
        h, H) = (x.as_integer_ratio() for x in values)
    # H1 is min(c31, c31 u* + c32 v*) - sigma3; the sum is less when c32 v* < c31 (1 - u*)
    if b * r * A * P < a * (P - p) * B * R:
        n1 = (a * p * B * R + b * r * A * P) * S - s * A * P * B * R
        d1 = A * P * B * R * S
    else:
        n1, d1 = a * S - s * A, A * S
    gm = G * M
    n2 = (g * m * L + l * gm) * S - s * gm * L
    # H3's a = c33 K_sub + 6 d3 over da, c = sigma3 - c33 K_sub - 2 d3 - q_upper over dc
    gk = G * K
    na, da = g * k * E + 6 * e * gk, gk * E
    nc = ((s * gk - g * k * S) * E - 2 * e * S * gk) * H - h * S * da
    dc = S * da * H
    n3 = 4 * (na * nc * T * T - t * t * da * dc)
    gap = m * K - k * M  # K_super - K_sub over M K
    return (n1 / d1, n2 / (gm * L * S), n3 / (da * dc * T * T), min(gap, k * M) / (M * K),
            gap >= 0 and k > 0)


def nonexistence_report(p: ThreeSpeciesParams) -> CheckReport:
    """Audit A1-A3 (both A3 variants) with signed margins.

    The overall verdict predicts nonexistence when A1, A2, and at least one
    A3 variant hold, and it names the variant(s) that passed.  A value that
    ``float()`` cannot hold is refused as in :func:`existence_report`.
    """
    if p.c12 == 0 or p.c21 == 0 or p.c31 == 0 or p.c32 == 0:
        raise ValueError("nonexistence audit needs positive c12, c21, c31, c32")
    try:
        s = sigma_pair(p)
        sigmas = float(s.Sigma1), float(s.Sigma2)
        m_a1 = float(min(s.Sigma1, s.Sigma2))

        strong_branch = min(p.c21 * s.Sigma1 - p.c11 * s.Sigma2,
                            p.c12 * s.Sigma2 - p.c22 * s.Sigma1)
        weak_branch = min(p.c11 * s.Sigma2 - p.c21 * s.Sigma1,
                          p.c22 * s.Sigma1 - p.c12 * s.Sigma2)
        branches = float(strong_branch), float(weak_branch)
        m_a2 = float(max(strong_branch, weak_branch))

        a3_rhs = p.sigma3 * p.c33
        u_side, v_side, d_side = _ratios(p, s.Sigma1, s.Sigma2)
        shifted = (min(u_side), min(v_side), min(d_side))
        m_a3_lit = float(_lower_bound_at(p.c31 * p.d1, p.c32 * p.d2, *shifted) - a3_rhs)
        m_a3_var = float(_lower_bound_at(p.c31, p.c32, *shifted) - a3_rhs)
    except OverflowError:
        raise _above_the_float_range("nonexistence") from None
    a1_ok, a2_ok = m_a1 > 0, m_a2 > 0
    lit_ok, var_ok = m_a3_lit >= 0, m_a3_var >= 0

    items = (
        CheckItem("A1", a1_ok, m_a1, {"Sigma1": sigmas[0], "Sigma2": sigmas[1]}),
        CheckItem(
            "A2", a2_ok, m_a2,
            {
                "branch": "strong" if strong_branch >= weak_branch else "weak",
                "strong_margin": branches[0],
                "weak_margin": branches[1],
            },
        ),
        CheckItem("A3_literal", lit_ok, m_a3_lit, {"d_factors": True}),
        CheckItem("A3_variant", var_ok, m_a3_var, {"d_factors": False}),
    )
    passed = a1_ok and a2_ok and (lit_ok or var_ok)
    if passed:
        if lit_ok and var_ok:
            which = "literal A3 and variant both pass"
        elif lit_ok:
            which = "literal A3 passes; d-free variant fails"
        else:
            which = "d-free variant passes; literal A3 fails"
        verdict = f"nonexistence predicted ({which})"
    else:
        failed = [it.name for it in items[:2] if not it.passed]
        if not (lit_ok or var_ok):
            failed.append("A3 (both variants)")
        verdict = "nonexistence not established: " + ", ".join(failed)
    return CheckReport(title="nonexistence-audit", passed=passed, items=items, verdict=verdict)

