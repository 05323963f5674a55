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

Margins are signed reals (negative = violated), never bare booleans.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import (
    Regime,
    ThreeSpeciesParams,
    TwoSpeciesParams,
    classify_regime,
    coexistence_equilibrium,
)
from .nbarrier import _lower_bound_at, bounds
from .rational import Number, parse_number
from .report import CheckItem, CheckReport


@dataclass(frozen=True)
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
        for name in ("d3", "sigma3", "c31", "c32", "c33"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    @classmethod
    def from_dict(cls, data: dict) -> "ExistenceInputs":
        block = TwoSpeciesParams.from_dict(data)
        extra = {
            k: parse_number(data[k])
            for k in ("d3", "sigma3", "c31", "c32", "c33", "theta", "K_sub", "K_super")
        }
        return cls(two_species=block, **extra)


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
    raised).
    """
    block = inputs.two_species
    pair = bounds(block, inputs.c31, inputs.c32)
    q_lo, q_hi = pair.q_lower, pair.q_upper
    eq = coexistence_equilibrium(block)

    m_h1 = float(
        min(inputs.c31 - inputs.sigma3, inputs.c31 * eq.u + inputs.c32 * eq.v - inputs.sigma3)
    )
    m_h2 = float(inputs.c33 * inputs.K_super + q_lo - inputs.sigma3)
    a_coef = inputs.c33 * inputs.K_sub + 6 * inputs.d3
    c_coef = inputs.sigma3 - inputs.c33 * inputs.K_sub - 2 * inputs.d3 - q_hi
    m_h3 = float(4 * a_coef * c_coef - 4 * inputs.theta * inputs.theta)
    m_h4 = float(min(inputs.K_super - inputs.K_sub, inputs.K_sub))
    # the amplitude ordering is non-strict; only K_sub > 0 is strict
    h4_ok = inputs.K_super >= inputs.K_sub and inputs.K_sub > 0

    items = (
        CheckItem("H1", m_h1 > 0, m_h1, {"q_lower": float(q_lo), "q_upper": float(q_hi)}),
        CheckItem("H2", m_h2 >= 0, m_h2, {}),
        CheckItem("H3", m_h3 >= 0, m_h3, {}),
        CheckItem("H4", h4_ok, m_h4, {}),
    )
    passed = all(it.passed for it in items)
    verdict = (
        "existence hypotheses all hold" if passed else "existence hypotheses violated: "
        + ", ".join(it.name for it in items if not it.passed)
    )
    return CheckReport(title="existence-audit", passed=passed, items=items, verdict=verdict)


def nonexistence_report(p: ThreeSpeciesParams) -> CheckReport:
    """Audit A1-A3 (both A3 variants) with signed margins.

    The overall verdict predicts nonexistence when A1, A2, and at least one
    A3 variant hold, and it names the variant(s) that passed.
    """
    if p.c12 == 0 or p.c21 == 0 or p.c31 == 0 or p.c32 == 0:
        raise ValueError("nonexistence audit needs positive c12, c21, c31, c32")
    s = sigma_pair(p)
    m_a1 = float(min(s.Sigma1, s.Sigma2))

    strong_branch = min(p.c21 * s.Sigma1 - p.c11 * s.Sigma2, p.c12 * s.Sigma2 - p.c22 * s.Sigma1)
    weak_branch = min(p.c11 * s.Sigma2 - p.c21 * s.Sigma1, p.c22 * s.Sigma1 - p.c12 * s.Sigma2)
    m_a2 = float(max(strong_branch, weak_branch))

    a2_ok = m_a2 > 0
    a3_rhs = p.sigma3 * p.c33
    m_a3_lit = float(_lower_bound_at(p, p.c31 * p.d1, p.c32 * p.d2, s.Sigma1, s.Sigma2) - a3_rhs)
    m_a3_var = float(_lower_bound_at(p, p.c31, p.c32, s.Sigma1, s.Sigma2) - a3_rhs)

    items = (
        CheckItem(
            "A1", m_a1 > 0, m_a1,
            {"Sigma1": float(s.Sigma1), "Sigma2": float(s.Sigma2)},
        ),
        CheckItem(
            "A2", a2_ok, m_a2,
            {
                "branch": "strong" if strong_branch >= weak_branch else "weak",
                "strong_margin": float(strong_branch),
                "weak_margin": float(weak_branch),
            },
        ),
        CheckItem("A3_literal", m_a3_lit >= 0, m_a3_lit, {"d_factors": True}),
        CheckItem("A3_variant", m_a3_var >= 0, m_a3_var, {"d_factors": False}),
    )
    a1_ok = m_a1 > 0
    lit_ok = m_a3_lit >= 0
    var_ok = m_a3_var >= 0
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


class SW(Enum):
    S = "S"
    W = "W"
    NEITHER = "Neither"


def check_SW(p: TwoSpeciesParams) -> SW:
    """Collapse the regime classification to strong / weak / neither."""
    regime = classify_regime(p)
    if regime is Regime.STRONG:
        return SW.S
    if regime is Regime.WEAK:
        return SW.W
    return SW.NEITHER
