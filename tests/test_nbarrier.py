import pickle
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lvwaves as lv
from lvwaves.errors import RegimeError
from lvwaves.model import Regime, classify_regime
from lvwaves.hypotheses import ExistenceInputs
from lvwaves.nbarrier import BarrierLines, BoundPair, BoundSide, ConicKind, _check_weights
from lvwaves.rational import ulp_distance
from lvwaves.report import CheckItem

from conftest import (
    as_float,
    positive_rationals,
    strong_two_species_params,
    two_species_params,
)

F = Fraction


def reference_construct_barrier(p, alpha, beta, side):
    """Barrier levels written out as eight cases (side x d2 >= d1 x
    cross-product test): the reference for the one-rule ``construct_barrier``."""
    _check_weights(alpha, beta)
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
    _check_weights(alpha, beta)
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
        report = lv.verify_bounds_on_profile(prof, 1.0, 1.0, pair)
        assert report.passed

    def test_synthetic_violation_fails_upper(self, strong_params):
        pair = lv.bounds(strong_params, F(1), F(1))
        x = np.linspace(-1, 1, 11)
        u = np.full_like(x, 0.4)
        v = np.full_like(x, 0.4)
        v[5] = float(pair.q_upper) + 0.5
        report = lv.verify_bounds_on_profile(lv.WaveProfile(x=x, u=u, v=v), 1.0, 1.0, pair)
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
        report = lv.verify_bounds_on_profile(prof, 1.0, 1.0, pair)
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
        data = lv.verify_bounds_on_profile(prof, 1.0, 1.0, pair).to_json_dict()
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


@settings(max_examples=100)
@given(
    strong_two_species_params(allow_weak=True),
    st.lists(st.tuples(*[positive_rationals] * 8), min_size=1, max_size=3),
    st.booleans(),
)
def test_existence_items_match_reference(p, invaders, in_floats):
    num = float if in_floats else Fraction
    block = as_float(p) if in_floats else p
    for d3, sigma3, c31, c32, c33, theta, k_sub, k_super in invaders:
        inputs = ExistenceInputs(
            two_species=block, d3=num(d3), sigma3=num(sigma3), c31=num(c31), c32=num(c32),
            c33=num(c33), theta=num(theta), K_sub=num(k_sub), K_super=num(k_super),
        )
        # pickled, so the margins compare bit for bit
        items = lv.existence_report(inputs).items
        assert pickle.dumps(items) == pickle.dumps(reference_existence_items(inputs))


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
    with pytest.raises(ValueError, match="weights must be strictly positive and finite"):
        lv.bounds(strong_params, alpha, beta)


@settings(max_examples=150)
@given(two_species_params(), positive_rationals, positive_rationals, positive_rationals)
def test_bounds_homogeneous_in_weights(p, alpha, beta, k):
    regime = lv.classify_regime(p)
    assume(regime in (Regime.STRONG, Regime.WEAK))
    assert lv.lower_bound(p, k * alpha, k * beta) == k * lv.lower_bound(p, alpha, beta)
    assert lv.upper_bound(p, k * alpha, k * beta) == k * lv.upper_bound(p, alpha, beta)


@settings(max_examples=150)
@given(two_species_params(), positive_rationals, positive_rationals)
def test_bounds_symmetric_under_relabeling(p, alpha, beta):
    regime = lv.classify_regime(p)
    assume(regime in (Regime.STRONG, Regime.WEAK))
    q = p.swapped()
    assert lv.lower_bound(q, beta, alpha) == lv.lower_bound(p, alpha, beta)
    assert lv.upper_bound(q, beta, alpha) == lv.upper_bound(p, alpha, beta)


@settings(max_examples=150)
@given(two_species_params(), positive_rationals, positive_rationals, positive_rationals)
def test_equal_diffusions_drop_out(p, alpha, beta, d):
    base = lv.TwoSpeciesParams(
        d1=F(1), d2=F(1), sigma1=p.sigma1, sigma2=p.sigma2,
        c11=p.c11, c12=p.c12, c21=p.c21, c22=p.c22,
    )
    scaled = lv.TwoSpeciesParams(
        d1=d, d2=d, sigma1=p.sigma1, sigma2=p.sigma2,
        c11=p.c11, c12=p.c12, c21=p.c21, c22=p.c22,
    )
    regime = lv.classify_regime(base)
    assume(regime in (Regime.STRONG, Regime.WEAK))
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
@given(two_species_params(), positive_rationals, positive_rationals)
def test_bound_pair_ordered(p, alpha, beta):
    regime = lv.classify_regime(p)
    assume(regime in (Regime.STRONG, Regime.WEAK))
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
