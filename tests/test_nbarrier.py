import itertools
import math
import pickle
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, target
from hypothesis import strategies as st

import lvwaves as lv
from lvwaves.errors import RegimeError
from lvwaves.model import Regime, classify_regime
from lvwaves.hypotheses import ExistenceInputs
from lvwaves.nbarrier import BarrierLines, BoundPair, BoundSide, ConicKind
from lvwaves.rational import _require_positive
from lvwaves.report import CheckItem

from conftest import (
    as_float,
    positive_rationals,
    strong_two_species_params,
    two_species_params,
    ulp_distance,
)

F = Fraction


def reference_construct_barrier(p, alpha, beta, side):
    """Barrier levels written out as eight cases (side x d2 >= d1 x
    cross-product test): the reference for the one-rule ``construct_barrier``."""
    _require_positive(alpha=alpha, beta=beta)
    regime = classify_regime(p)
    if regime is not Regime.STRONG:
        raise RegimeError(
            f"explicit barrier tables require strong competition, classification is {regime.value}"
        )
    d1, d2 = p.d1, p.d2
    s1, s2 = p.sigma1, p.sigma2
    if side is BoundSide.LOWER:
        if d2 >= d1:
            if beta * s1 * p.c21 * d2 >= alpha * s2 * p.c12 * d1:
                lam1 = alpha * s2 * d1 * d1 / (p.c21 * d2)
                lam2 = alpha * s2 * d1 / p.c21
                eta = alpha * s2 * d1 / (p.c21 * d2)
                case = "i"
            else:
                lam1 = beta * s1 * d1 / p.c12
                lam2 = beta * s1 * d2 / p.c12
                eta = beta * s1 / p.c12
                case = "ii"
        else:
            if beta * s1 * p.c21 * d2 >= alpha * s2 * p.c12 * d1:
                lam1 = alpha * s2 * d2 / p.c21
                lam2 = alpha * s2 * d1 / p.c21
                eta = alpha * s2 / p.c21
                case = "iii"
            else:
                lam1 = beta * s1 * d2 * d2 / (p.c12 * d1)
                lam2 = beta * s1 * d2 / p.c12
                eta = beta * s1 * d2 / (p.c12 * d1)
                case = "iv"
    else:
        if d2 >= d1:
            if beta * s2 * p.c11 * d2 >= alpha * s1 * p.c22 * d1:
                lam1 = beta * s2 * d2 * d2 / (p.c22 * d1)
                lam2 = beta * s2 * d2 / p.c22
                eta = beta * s2 * d2 / (p.c22 * d1)
                case = "i"
            else:
                lam1 = alpha * s1 * d2 / p.c11
                lam2 = alpha * s1 * d1 / p.c11
                eta = alpha * s1 / p.c11
                case = "ii"
        else:
            if beta * s2 * p.c11 * d2 >= alpha * s1 * p.c22 * d1:
                lam1 = beta * s2 * d1 / p.c22
                lam2 = beta * s2 * d2 / p.c22
                eta = beta * s2 / p.c22
                case = "iii"
            else:
                lam1 = alpha * s1 * d1 * d1 / (p.c11 * d2)
                lam2 = alpha * s1 * d1 / p.c11
                eta = alpha * s1 * d1 / (p.c11 * d2)
                case = "iv"
    return BarrierLines(lambda1=lam1, lambda2=lam2, eta=eta, side=side, case_id=case)


def reference_bounds(p, alpha, beta):
    """The bounds with the regime, intercepts and d-ratios derived again on
    every call: the reference for ``bounds``, which reads the block's kernel."""
    _require_positive(alpha=alpha, beta=beta)
    regime = classify_regime(p)
    if regime not in (Regime.STRONG, Regime.WEAK):
        raise RegimeError(
            f"bounds require strong or weak competition, classification is {regime.value}"
        )
    inner_lower = min(
        alpha * min(p.sigma1 / p.c11, p.sigma2 / p.c21),
        beta * min(p.sigma2 / p.c22, p.sigma1 / p.c12),
    )
    inner_upper = max(
        alpha * max(p.sigma1 / p.c11, p.sigma2 / p.c21),
        beta * max(p.sigma2 / p.c22, p.sigma1 / p.c12),
    )
    return BoundPair(
        q_lower=inner_lower * min(p.d1 / p.d2, p.d2 / p.d1),
        q_upper=inner_upper * max(p.d1 / p.d2, p.d2 / p.d1),
        alpha=alpha,
        beta=beta,
    )


def reference_existence_items(inputs):
    """H1-H4 items from ``reference_bounds`` and a fresh coexistence solve."""
    i = inputs
    pair = reference_bounds(i.two_species, i.c31, i.c32)
    eq = lv.coexistence_equilibrium(i.two_species)
    m_h1 = float(min(i.c31 - i.sigma3, i.c31 * eq.u + i.c32 * eq.v - i.sigma3))
    m_h2 = float(i.c33 * i.K_super + pair.q_lower - i.sigma3)
    a_coef = i.c33 * i.K_sub + 6 * i.d3
    c_coef = i.sigma3 - i.c33 * i.K_sub - 2 * i.d3 - pair.q_upper
    m_h3 = float(4 * a_coef * c_coef - 4 * i.theta * i.theta)
    m_h4 = float(min(i.K_super - i.K_sub, i.K_sub))
    details = {"q_lower": float(pair.q_lower), "q_upper": float(pair.q_upper)}
    return (
        CheckItem("H1", m_h1 > 0, m_h1, details),
        CheckItem("H2", m_h2 >= 0, m_h2, {}),
        CheckItem("H3", m_h3 >= 0, m_h3, {}),
        CheckItem("H4", i.K_super >= i.K_sub and i.K_sub > 0, m_h4, {}),
    )


@st.composite
def kernel_bound_cases(draw):
    """A strong or weak block, swapped half the time, and k-scaled weights."""
    p = draw(strong_two_species_params(allow_weak=True))
    if draw(st.booleans()):
        p = p.swapped()
    k = draw(positive_rationals)
    return p, k * draw(positive_rationals), k * draw(positive_rationals)


@st.composite
def exclusion_or_degenerate_params(draw):
    p = draw(two_species_params())
    if draw(st.booleans()):  # a tie on the u-side comparison
        p = replace(p, c21=p.sigma2 * p.c11 / p.sigma1)
    assume(classify_regime(p) not in (Regime.STRONG, Regime.WEAK))
    return p


@st.composite
def strong_params_some_equal_diffusions(draw):
    p = draw(strong_two_species_params())
    return replace(p, d2=p.d1) if draw(st.booleans()) else p


def fraction_bound_oracle(p, alpha, beta, which):
    """Independent exact evaluation of the closed-form bound."""
    ratios_u = (F(p.sigma1) / F(p.c11), F(p.sigma2) / F(p.c21))
    ratios_v = (F(p.sigma2) / F(p.c22), F(p.sigma1) / F(p.c12))
    dr = (F(p.d1) / F(p.d2), F(p.d2) / F(p.d1))
    if which == "lower":
        return min(alpha * min(ratios_u), beta * min(ratios_v)) * min(dr)
    return max(alpha * max(ratios_u), beta * max(ratios_v)) * max(dr)


@pytest.fixture(scope="module")
def paper_block(paper_spec):
    return paper_spec.params.two_species_block()


class TestFValue:
    def test_vanishes_at_origin(self, strong_params):
        assert lv.F_value(strong_params, F(1), F(1), 0, 0) == 0

    def test_vanishes_at_u_only_state(self, strong_params):
        u2 = strong_params.sigma1 / strong_params.c11
        assert lv.F_value(strong_params, F(7), F(3), u2, 0) == 0

    def test_derived_point(self, strong_params):
        # direct polynomial oracle: 1*(1-1-2) + 1*(1-3-1)
        expected = 1 * (1 - 1 - 2) + 1 * (1 - 3 - 1)
        assert expected == -5
        assert lv.F_value(strong_params, F(1), F(1), F(1), F(1)) == -5


class TestBounds:
    def test_lower_strong_substitution(self, strong_params):
        assert lv.lower_bound(strong_params, F(1), F(1)) == F(1, 3)

    def test_upper_strong_substitution(self, strong_params):
        assert lv.upper_bound(strong_params, F(1), F(1)) == 1

    def test_lower_beta_to_zero_limit(self, strong_params):
        tiny = F(1, 10**30)
        assert lv.lower_bound(strong_params, F(1), tiny) == tiny * F(1, 2)
        assert lv.lower_bound(strong_params, F(1), tiny) < F(1, 10**29)

    def test_upper_alpha_to_zero_limit(self, strong_params):
        tiny = F(1, 10**30)
        expected = max(
            strong_params.sigma2 / strong_params.c22,
            strong_params.sigma1 / strong_params.c12,
        )
        assert lv.upper_bound(strong_params, tiny, F(1)) == expected

    def test_lower_matches_barrier_level(self):
        # the d2=2 lower-barrier instance: q_lower equals lambda1 there
        p = lv.TwoSpeciesParams(
            d1=F(1), d2=F(2), sigma1=F(1), sigma2=F(1),
            c11=F(1), c12=F(2), c21=F(3), c22=F(1),
        )
        assert lv.lower_bound(p, F(17), F(18)) == F(17, 6)

    def test_upper_paper_reduced_block(self, paper_block):
        oracle = fraction_bound_oracle(paper_block, F(1), F(1), "upper")
        assert oracle == F(205, 34)
        assert lv.upper_bound(paper_block, F(1), F(1)) == F(205, 34)

    def test_regime_error_outside_strong_weak(self):
        p = lv.TwoSpeciesParams(
            d1=F(1), d2=F(1), sigma1=F(1), sigma2=F(1),
            c11=F(1), c12=F(1, 2), c21=F(3), c22=F(1),
        )
        with pytest.raises(RegimeError):
            lv.lower_bound(p, F(1), F(1))
        with pytest.raises(RegimeError):
            lv.upper_bound(p, F(1), F(1))

    def test_weights_must_be_positive(self, strong_params):
        with pytest.raises(ValueError):
            lv.lower_bound(strong_params, 0, 1)


class TestConic:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_parabola_instances(self, weak_params, sign):
        beta = 7.5 + sign * 3 * np.sqrt(6)
        conic = lv.conic_classify(weak_params, 2.0, beta)
        assert conic.kind is ConicKind.PARABOLA
        assert abs(conic.discriminant) < 1e-9

    def test_ellipse_instance(self, weak_params):
        conic = lv.conic_classify(weak_params, F(2), F(3))
        assert conic.kind is ConicKind.ELLIPSE
        assert conic.discriminant == F(9) - F(24)

    @pytest.mark.parametrize("alpha, beta", [(F(1, 2), F(4)), (F(2), F(3, 20))])
    def test_hyperbola_instances(self, weak_params, alpha, beta):
        assert lv.conic_classify(weak_params, alpha, beta).kind is ConicKind.HYPERBOLA


class TestBarrier:
    FIG2 = [
        # alpha, beta, d2, expected (lambda1, lambda2, eta), case
        (F(17), F(18), F(2), (F(17, 6), F(17, 3), F(17, 6)), "i"),
        (F(17), F(5), F(2), (F(5, 2), F(5), F(5, 2)), "ii"),
        (F(17), F(18), F(2, 3), (F(34, 9), F(17, 3), F(17, 3)), "iii"),
        (F(17), F(18), F(1, 2), (F(9, 4), F(9, 2), F(9, 2)), "iv"),
    ]
    FIG3 = [
        (F(17), F(18), F(2), (F(72), F(36), F(36)), "i"),
        (F(17), F(5), F(2), (F(34), F(17), F(17)), "ii"),
        (F(17), F(33), F(2, 3), (F(33), F(22), F(33)), "iii"),
        (F(17), F(18), F(1, 2), (F(34), F(17), F(34)), "iv"),
    ]

    @staticmethod
    def _params(d2):
        return lv.TwoSpeciesParams(
            d1=F(1), d2=d2, sigma1=F(1), sigma2=F(1),
            c11=F(1), c12=F(2), c21=F(3), c22=F(1),
        )

    @pytest.mark.parametrize("alpha, beta, d2, expected, case", FIG2)
    def test_lower_tabulated_triples(self, alpha, beta, d2, expected, case):
        b = lv.construct_barrier(self._params(d2), alpha, beta, BoundSide.LOWER)
        assert (b.lambda1, b.lambda2, b.eta) == expected
        assert b.case_id == case

    @pytest.mark.parametrize("alpha, beta, d2, expected, case", FIG3)
    def test_upper_tabulated_triples(self, alpha, beta, d2, expected, case):
        b = lv.construct_barrier(self._params(d2), alpha, beta, BoundSide.UPPER)
        assert (b.lambda1, b.lambda2, b.eta) == expected
        assert b.case_id == case

    def test_regime_error_under_weak(self, weak_params):
        with pytest.raises(RegimeError):
            lv.construct_barrier(weak_params, F(1), F(1), BoundSide.LOWER)


class TestVerifyProfile:
    def test_constant_coexistence_passes(self, strong_params):
        eq = lv.coexistence_equilibrium(strong_params)
        x = np.linspace(-5, 5, 101)
        prof = lv.WaveProfile(
            x=x, u=np.full_like(x, float(eq.u)), v=np.full_like(x, float(eq.v))
        )
        pair = lv.bounds(strong_params, F(1), F(1))
        report = lv.verify_bounds_on_profile(prof, pair)
        assert report.passed

    def test_synthetic_violation_fails_upper(self, strong_params):
        pair = lv.bounds(strong_params, F(1), F(1))
        x = np.linspace(-1, 1, 11)
        u = np.full_like(x, 0.4)
        v = np.full_like(x, 0.4)
        v[5] = float(pair.q_upper) + 0.5
        report = lv.verify_bounds_on_profile(lv.WaveProfile(x=x, u=u, v=v), pair)
        assert not report.passed
        assert not report.item("upper").passed
        assert report.item("lower").passed

    def test_paper_wave_margin(self, paper_spec, paper_block):
        # grid-search oracle over x for max(u+v); increasing toward +inf
        xs = np.linspace(-40, 40, 16001)
        u, v, _ = lv.evaluate_wave(paper_spec, xs)
        oracle_max = float(np.max(u + v))
        assert oracle_max == pytest.approx(4.2, abs=1e-12)
        # combined density increases toward +inf; tanh saturates in floats
        assert xs[int(np.argmax(u + v))] >= 18.0

        pair = lv.bounds(paper_block, F(1), F(1))
        prof = lv.wave_profile(paper_spec, np.linspace(-40, 40, 4001))
        report = lv.verify_bounds_on_profile(prof, pair)
        assert report.passed
        margin = report.item("upper").margin
        assert margin == pytest.approx(float(F(311, 170)), abs=1e-12)

    def test_report_serialization_shape(self, strong_params):
        eq = lv.coexistence_equilibrium(strong_params)
        x = np.linspace(-2, 2, 21)
        prof = lv.WaveProfile(
            x=x, u=np.full_like(x, float(eq.u)), v=np.full_like(x, float(eq.v))
        )
        pair = lv.bounds(strong_params, F(1), F(1))
        data = lv.verify_bounds_on_profile(prof, pair).to_json_dict()
        assert set(data) == {"title", "pass", "verdict", "checks"}
        assert data["checks"]["lower"]["side"] == "lower"
        assert "argmin_x" in data["checks"]["lower"]
        assert "argmax_x" in data["checks"]["upper"]
        assert "margin" in data["checks"]["upper"]


@settings(max_examples=150)
@given(kernel_bound_cases())
def test_kernel_bounds_match_reference_exactly(case):
    p, alpha, beta = case
    ref = reference_bounds(p, alpha, beta)
    for _ in range(2):  # the first call derives the kernel, the second reuses it
        got = lv.bounds(p, alpha, beta)
        assert got == ref
        assert [type(v) for v in (got.q_lower, got.q_upper)] == [Fraction, Fraction]
        assert [type(v) for v in (ref.q_lower, ref.q_upper)] == [Fraction, Fraction]


@settings(max_examples=150)
@given(kernel_bound_cases())
def test_kernel_bounds_bit_equal_to_reference_in_floats(case):
    p, alpha, beta = as_float(case[0]), float(case[1]), float(case[2])
    got, ref = lv.bounds(p, alpha, beta), reference_bounds(p, alpha, beta)
    assert (got.q_lower.hex(), got.q_upper.hex()) == (ref.q_lower.hex(), ref.q_upper.hex())


#: How the invader's numbers are typed: (block in floats, field index -> converter).
#: Exact blocks under exact fields take the integer margins; the rest, the
#: generic expressions.
INVADER_KINDS = {
    "exact": (False, lambda i: Fraction),
    "float": (True, lambda i: float),
    "float invader": (False, lambda i: float),
    "mixed invader": (False, lambda i: (Fraction, float)[i % 2]),
    "int invader": (False, lambda i: math.ceil),
}
INVADER_TIES = ("none", "K_super = K_sub", "c31 = sigma3", "H1 terms equal")
INVADER_FIELDS = ("d3", "sigma3", "c31", "c32", "c33", "theta", "K_sub", "K_super")
#: A weak block with u* = 3/4 < 1, so the two H1 terms can tie.
WEAK_BLOCK = lv.TwoSpeciesParams(
    d1=F(1), d2=F(2), sigma1=F(1), sigma2=F(1), c11=F(1), c12=F(1, 2), c21=F(2, 3), c22=F(1),
)
SMALL_INVADER = (F(1), F(2), F(3), F(1, 2), F(1), F(6), F(1, 4), F(2))


@settings(max_examples=100)
@given(
    strong_two_species_params(allow_weak=True),
    st.lists(st.tuples(*[positive_rationals] * 8), min_size=1, max_size=3),
    st.sampled_from(sorted(INVADER_KINDS)),
    st.sampled_from(INVADER_TIES),
    st.booleans(),
)
@example(WEAK_BLOCK, [SMALL_INVADER], "exact", "H1 terms equal", False)
@example(WEAK_BLOCK, [SMALL_INVADER], "exact", "c31 = sigma3", False)
@example(WEAK_BLOCK, [SMALL_INVADER], "exact", "K_super = K_sub", True)
@example(WEAK_BLOCK, [SMALL_INVADER], "exact", "H1 terms equal", True)
@example(WEAK_BLOCK, [SMALL_INVADER], "int invader", "none", False)
@example(WEAK_BLOCK, [SMALL_INVADER], "mixed invader", "c31 = sigma3", True)
def test_existence_items_match_reference(p, invaders, kind, tie, huge):
    in_floats, converter = INVADER_KINDS[kind]
    block = as_float(p) if in_floats else p
    eq = lv.coexistence_equilibrium(p)
    for fields in invaders:
        values = dict(zip(INVADER_FIELDS, fields))
        if huge:  # numerators and denominators near 10^30
            values = {
                k: F(v.numerator * 10**30 + 1, v.denominator * 10**30 + 1)
                for k, v in values.items()
            }
        if tie == "K_super = K_sub":
            values["K_super"] = values["K_sub"]
        elif tie == "c31 = sigma3":  # H1 margin 0
            values["c31"] = values["sigma3"]
        elif tie == "H1 terms equal" and eq.u < 1:  # c31 = c31 u* + c32 v*
            values["c32"] = values["c31"] * (1 - eq.u) / eq.v
        inputs = ExistenceInputs(
            two_species=block,
            **{k: converter(i)(v) for i, (k, v) in enumerate(values.items())},
        )
        # pickled, so the margins compare bit for bit
        items = lv.existence_report(inputs).items
        assert pickle.dumps(items) == pickle.dumps(reference_existence_items(inputs))


def fresh(p):
    """A copy of a block with its own, not yet derived, kernel."""
    return lv.TwoSpeciesParams(**p.to_dict())


@settings(max_examples=50)
@given(
    strong_two_species_params(allow_weak=True),
    st.lists(st.tuples(positive_rationals, positive_rationals), min_size=2, max_size=2),
    st.lists(st.tuples(*[positive_rationals] * 6), min_size=3, max_size=3),
)
def test_existence_items_on_a_shared_block_match_reference(p, weights, others):
    """One block audits a lattice of invaders, so most weight pairs are repeat
    lookups; exact invaders go first, then float and mixed ones of equal
    value, then all-float ones on the block's float twin."""

    def audit(block, kind):
        converter = INVADER_KINDS[kind][1]
        for (c31, c32), (d3, sigma3, c33, theta, k_sub, k_super) in itertools.product(
            weights, others
        ):
            values = (d3, sigma3, c31, c32, c33, theta, k_sub, k_super)
            inputs = ExistenceInputs(
                two_species=block,
                **{k: converter(i)(v) for i, (k, v) in enumerate(zip(INVADER_FIELDS, values))},
            )
            items = lv.existence_report(inputs).items
            assert pickle.dumps(items) == pickle.dumps(reference_existence_items(inputs))

    exact = fresh(p)
    for kind in ("exact", "exact", "float invader", "mixed invader"):
        audit(exact, kind)
    twin = as_float(p)
    for _ in range(2):
        audit(twin, "float")


@pytest.mark.parametrize("reverse", [False, True])
def test_stored_pairs_keep_each_weight_type(strong_params, reverse):
    """Fraction(1, 2) == 0.5 and 1 == 1.0 == Fraction(1) hash alike; each weight
    type still gets its own pair, in whichever order the types are asked."""
    weights = [F(1, 2), 0.5, 1, 1.0, F(1)]
    pairs = list(itertools.product(weights, weights))
    if reverse:
        pairs.reverse()
    p = fresh(strong_params)
    for _ in range(2):
        for alpha, beta in pairs:
            got = lv.bounds(p, alpha, beta)
            assert pickle.dumps(got) == pickle.dumps(reference_bounds(p, alpha, beta))
    assert len(p.kernel.bound_pairs) == len(pairs)


@pytest.mark.parametrize("arithmetic", ["exact", "float"])
def test_h1_details_are_the_pairs_float_bounds(strong_params, arithmetic):
    """H1's q_lower and q_upper are float(pair.q_lower) and float(pair.q_upper)
    bit for bit, converted once per stored pair."""
    block = fresh(strong_params)
    values = dict(zip(INVADER_FIELDS, SMALL_INVADER))
    if arithmetic == "float":
        block, values = as_float(block), {k: float(v) for k, v in values.items()}
    inputs = ExistenceInputs(two_species=block, **values)
    pair = lv.bounds(block, inputs.c31, inputs.c32)
    first, second = (lv.existence_report(inputs).item("H1").details for _ in range(2))
    for key, exact in (("q_lower", pair.q_lower), ("q_upper", pair.q_upper)):
        assert first[key].hex() == float(exact).hex()
        assert first[key] is second[key]
    assert first is not second


def refused_weight(alpha, beta) -> str:
    """The refusal of a weight pair in which exactly one weight is bad."""
    name, value = ("beta", beta) if alpha > 0 else ("alpha", alpha)
    return f"{name} must be strictly positive and finite, got {value}"


@pytest.mark.parametrize(
    "alpha, beta", [(0, 1), (1, F(0)), (F(-1, 2), 1), (1, -0.5), (math.nan, 1), (1, math.nan)]
)
def test_refused_weights_refused_again(strong_params, alpha, beta):
    p = fresh(strong_params)
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            lv.bounds(p, alpha, beta)
        assert str(info.value) == refused_weight(alpha, beta)
    assert p.kernel.bound_pairs == {}


def test_exclusion_block_refused_again(strong_params):
    p = replace(strong_params, c21=F(1, 2))
    for _ in range(2):
        with pytest.raises(RegimeError, match="classification is ExclusionVWins"):
            lv.bounds(p, F(1), F(1))
    assert p.kernel.bound_pairs == {}


def test_stored_pairs_not_pickled(strong_params):
    p = fresh(strong_params)
    before = pickle.dumps(p)
    for alpha, beta in [(F(1), F(2)), (1.0, 2.0), (F(1), F(2))]:
        lv.bounds(p, alpha, beta)
    assert p.kernel.bound_pairs
    assert pickle.dumps(p) == before
    assert pickle.loads(before).kernel.bound_pairs == {}


@settings(max_examples=100)
@given(exclusion_or_degenerate_params(), positive_rationals, positive_rationals)
def test_kernel_bounds_refuse_same_regimes_with_same_message(p, alpha, beta):
    with pytest.raises(RegimeError) as ref:
        reference_bounds(p, alpha, beta)
    with pytest.raises(RegimeError) as got:
        lv.bounds(p, alpha, beta)
    assert str(got.value) == str(ref.value)
    inputs = ExistenceInputs(
        two_species=p, d3=F(1), sigma3=F(1), c31=alpha, c32=beta, c33=F(1),
        theta=F(1), K_sub=F(1), K_super=F(2),
    )
    with pytest.raises(RegimeError, match=re.escape(str(ref.value))):
        lv.existence_report(inputs)


@pytest.mark.parametrize("alpha, beta", [(float("nan"), 1), (1, float("inf")), (-float("inf"), 1)])
def test_non_finite_weights_refused(strong_params, alpha, beta):
    with pytest.raises(ValueError) as info:
        lv.bounds(strong_params, alpha, beta)
    assert str(info.value) == refused_weight(alpha, beta)


@settings(max_examples=150)
@given(
    strong_two_species_params(allow_weak=True), positive_rationals, positive_rationals,
    positive_rationals,
)
def test_bounds_homogeneous_in_weights(p, alpha, beta, k):
    assert lv.lower_bound(p, k * alpha, k * beta) == k * lv.lower_bound(p, alpha, beta)
    assert lv.upper_bound(p, k * alpha, k * beta) == k * lv.upper_bound(p, alpha, beta)


@settings(max_examples=150)
@given(strong_two_species_params(allow_weak=True), positive_rationals, positive_rationals)
def test_bounds_symmetric_under_relabeling(p, alpha, beta):
    q = p.swapped()
    assert lv.lower_bound(q, beta, alpha) == lv.lower_bound(p, alpha, beta)
    assert lv.upper_bound(q, beta, alpha) == lv.upper_bound(p, alpha, beta)


@settings(max_examples=150)
@given(
    strong_two_species_params(allow_weak=True), positive_rationals, positive_rationals,
    positive_rationals,
)
def test_equal_diffusions_drop_out(p, alpha, beta, d):
    base = lv.TwoSpeciesParams(
        d1=F(1), d2=F(1), sigma1=p.sigma1, sigma2=p.sigma2,
        c11=p.c11, c12=p.c12, c21=p.c21, c22=p.c22,
    )
    scaled = lv.TwoSpeciesParams(
        d1=d, d2=d, sigma1=p.sigma1, sigma2=p.sigma2,
        c11=p.c11, c12=p.c12, c21=p.c21, c22=p.c22,
    )
    assert lv.lower_bound(scaled, alpha, beta) == lv.lower_bound(base, alpha, beta)
    assert lv.upper_bound(scaled, alpha, beta) == lv.upper_bound(base, alpha, beta)


@settings(max_examples=150)
@given(strong_two_species_params(), positive_rationals, positive_rationals)
def test_strong_regime_always_hyperbola(p, alpha, beta):
    assert lv.classify_regime(p) is Regime.STRONG
    assert lv.conic_classify(p, alpha, beta).kind is ConicKind.HYPERBOLA


@settings(max_examples=150)
@given(strong_two_species_params(), positive_rationals, positive_rationals)
def test_lower_barrier_levels_tied_to_eta(p, alpha, beta):
    b = lv.construct_barrier(p, alpha, beta, BoundSide.LOWER)
    assert b.lambda1 == b.eta * min(p.d1, p.d2)
    assert b.lambda2 == b.eta * max(p.d1, p.d2)
    assert b.lambda1 <= b.lambda2


@settings(max_examples=200)
@given(
    strong_params_some_equal_diffusions(), positive_rationals, positive_rationals,
    st.sampled_from(BoundSide),
)
def test_barrier_rule_matches_reference_exactly(p, alpha, beta, side):
    rule = lv.construct_barrier(p, alpha, beta, side)
    ref = reference_construct_barrier(p, alpha, beta, side)
    assert rule == ref
    levels = ("lambda1", "lambda2", "eta")
    assert [type(getattr(rule, k)) for k in levels] == [type(getattr(ref, k)) for k in levels]


@settings(max_examples=200)
@given(
    strong_params_some_equal_diffusions(), positive_rationals, positive_rationals,
    st.sampled_from(BoundSide),
)
def test_float_barrier_ordered_and_within_2_ulp_of_reference(p, alpha, beta, side):
    # in floats the eight cases could order lambda1, lambda2 wrongly by an
    # ulp (d1 == d2 most of all) and raise; the rule never does
    p, alpha, beta = as_float(p), float(alpha), float(beta)
    rule = lv.construct_barrier(p, alpha, beta, side)
    if side is BoundSide.LOWER:
        assert rule.lambda1 <= rule.lambda2
    else:
        assert rule.lambda1 >= rule.lambda2
    if p.d1 == p.d2:
        assert rule.lambda1 == rule.lambda2
    try:
        ref = reference_construct_barrier(p, alpha, beta, side)
    except ValueError:
        return
    assert (rule.case_id, rule.eta) == (ref.case_id, ref.eta)
    assert ulp_distance(rule.lambda1, ref.lambda1) <= 2
    assert ulp_distance(rule.lambda2, ref.lambda2) <= 2


@settings(max_examples=200)
@given(strong_two_species_params(allow_weak=True), positive_rationals, positive_rationals)
def test_coexistence_state_within_bounds(p, alpha, beta):
    # the coexistence state is a constant positive wave, so the bounds hold there
    pair = lv.bounds(p, alpha, beta)
    eq = lv.coexistence_equilibrium(p)
    assert eq.u > 0 and eq.v > 0
    assert pair.q_lower <= alpha * eq.u + beta * eq.v <= pair.q_upper


@settings(max_examples=150)
@given(strong_two_species_params(allow_weak=True), positive_rationals, positive_rationals)
def test_bound_pair_ordered(p, alpha, beta):
    pair = lv.bounds(p, alpha, beta)
    assert pair.q_lower <= pair.q_upper


def test_exact_wave_combined_density_below_upper_bound(paper_spec, paper_block):
    # the wave's coupling term has a nonnegative sign, so the upper bound
    # applies to its (u, v) pair with unit weights
    pair = lv.bounds(paper_block, F(1), F(1))
    x = np.linspace(-40, 40, 8001)
    u, v, w = lv.evaluate_wave(paper_spec, x)
    assert np.all(w >= 0)
    assert float(np.max(u + v)) <= float(pair.q_upper) + 1e-12


def tanh_family_extrema(wave, alpha, beta):
    """Exact min and max of alpha u + beta v over the two-species tanh wave.

    With t = tanh x in [-1, 1], u = (u* + 1)/2 + (u* - 1)/2 t and
    v = k1 (1 + t)^2, so alpha u + beta v = a t^2 + b t + c with a > 0: the
    max sits at an endpoint, the min at the vertex when it lies inside.
    """
    a = beta * wave.k1
    b = alpha * (wave.u_star - 1) / 2 + 2 * beta * wave.k1
    c = alpha * (wave.u_star + 1) / 2 + beta * wave.k1

    def q(t):
        return (a * t + b) * t + c

    ends = (q(F(-1)), q(F(1)))
    vertex = -b / (2 * a)
    inside = (q(vertex),) if -1 < vertex < 1 else ()
    return min(ends + inside), max(ends)


@settings(max_examples=150)
@given(
    positive_rationals, positive_rationals, positive_rationals, positive_rationals,
    positive_rationals, positive_rationals,
)
def test_tanh_family_wave_within_bounds(d1, d2, excess, k1, alpha, beta):
    # an oracle that shares no code with bounds(): every family member is a
    # strong-regime wave, so q_lower <= alpha u + beta v <= q_upper on it
    wave = lv.two_species_wave_family(d1, d2, 8 * d1 + excess, k1)
    pair = lv.bounds(wave.params, alpha, beta)
    low, high = tanh_family_extrema(wave, alpha, beta)
    target(float(pair.q_lower / low), label="q_lower / min")
    target(float(high / pair.q_upper), label="max / q_upper")
    assert pair.q_lower <= low and high <= pair.q_upper


def test_near_tight_tanh_family_member():
    # a member within 0.4 % of q_lower whose limit state (1, 0) attains
    # q_upper: a loosened bound lowers a ratio below its pinned value
    wave = lv.two_species_wave_family(F(397, 16), F(397, 16), F(3183, 16), F(1, 16))
    alpha, beta = F(15, 2), F(99, 8)
    pair = lv.bounds(wave.params, alpha, beta)
    low, high = tanh_family_extrema(wave, alpha, beta)
    lower_ratio, upper_ratio = pair.q_lower / low, high / pair.q_upper
    print(f"q_lower / min = {float(lower_ratio):.6f}, max / q_upper = {float(upper_ratio):.6f}")
    assert F(996, 1000) < lower_ratio < 1
    assert upper_ratio == 1


def settled_front(p, left, right, centre):
    """A second-order run to t = 40 from a tanh front at ``centre`` joining
    the constant states ``left`` and ``right`` (Neumann ends); its last six
    of 21 snapshots."""
    grid = lv.GridSpec(-60.0, 60.0, 1001)
    x = grid.x()
    step = 0.5 * (1.0 + np.tanh(x - centre))
    init = lv.WaveProfile(
        x=x,
        u=left[0] + (right[0] - left[0]) * step,
        v=left[1] + (right[1] - left[1]) * step,
    )
    cfg = lv.SimConfig(grid=grid, t_end=40.0, n_snapshots=21, space_order=2)
    return lv.simulate_pde(p, init, cfg).profiles[-6:]


@pytest.mark.parametrize(
    "c12, c21, regime, margins",
    [
        # (alpha, beta): (lower, upper) smallest margins over the late snapshots
        (F(2), F(3), Regime.STRONG,
         {(1, 1): (0.58, 3.0), (1, 3): (0.90, 9.0), (2, 1): (0.68, 6.0)}),
        (F(1, 2), F(2, 3), Regime.WEAK,
         {(1, 1): (0.75, 6.75), (1, 3): (0.75, 21.75), (2, 1): (1.75, 9.96)}),
    ],
    ids=["strong", "weak"],
)
def test_pde_settled_front_within_bounds(c12, c21, regime, margins):
    # an oracle that shares no code with bounds(): the fronts the PDE itself
    # settles into, with d1 != d2, the case the N-barrier construction is for
    one = F(1)
    p = lv.TwoSpeciesParams(
        d1=one, d2=F(4), sigma1=one, sigma2=one, c11=one, c12=c12, c21=c21, c22=one
    )
    assert classify_regime(p) is regime
    if regime is Regime.STRONG:
        # a bistable front, nearly standing (speed 0.17)
        profiles = settled_front(p, (1.0, 0.0), (0.0, 1.0), 0.0)
    else:
        # coexistence invades (1, 0) at about 2.1: started at x = -50, the
        # front is near x = 20 at t = 40, with both states still on the grid
        eq = lv.coexistence_equilibrium(p)
        profiles = settled_front(p, (float(eq.u), float(eq.v)), (1.0, 0.0), -50.0)
    for (alpha, beta), (lower, upper) in margins.items():
        pair = lv.bounds(p, F(alpha), F(beta))
        reports = [lv.verify_bounds_on_profile(prof, pair) for prof in profiles]
        low = min(rep.item("lower").margin for rep in reports)
        high = min(rep.item("upper").margin for rep in reports)
        print(f"{regime.value} (alpha, beta) = ({alpha}, {beta}): smallest margins "
              f"lower {low:.4f}, upper {high:.4f}")
        assert all(rep.passed for rep in reports)
        # a loosened bound widens a margin past its pinned value
        assert (low, high) == pytest.approx((lower, upper), abs=0.01)


def test_profile_audit_reads_the_pairs_weights(demo_two_wave):
    p = demo_two_wave.params
    prof = lv.wave_profile(demo_two_wave, np.linspace(-40.0, 40.0, 801))
    # the audit weighs the profile with the pair's own weights (10, 10)
    report = lv.verify_bounds_on_profile(prof, lv.bounds(p, 10, 10))
    assert report.passed
    assert report.item("lower").details["extremum"] == float(np.min(10.0 * prof.u + 10.0 * prof.v))
    # equal weights of another number type weigh alike
    assert lv.verify_bounds_on_profile(prof, lv.bounds(p, F(1, 2), F(1, 2))).passed
