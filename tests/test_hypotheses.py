from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lvwaves as lv
from lvwaves.errors import RegimeError
from lvwaves.hypotheses import SW, ExistenceInputs, SigmaPair, sigma_pair

from conftest import (
    as_float,
    positive_rationals,
    strong_two_species_params,
)

F = Fraction


def reference_a3_margin(p: lv.ThreeSpeciesParams, s: SigmaPair, with_d: bool) -> float:
    """A3 margin written out directly: the reference for the shared N-barrier
    lower bound that ``nonexistence_report`` evaluates on the Sigma-shifted block."""
    f1 = p.d1 if with_d else 1
    f2 = p.d2 if with_d else 1
    lhs = min(
        p.c31 * f1 * min(s.Sigma1 / p.c11, s.Sigma2 / p.c21),
        p.c32 * f2 * min(s.Sigma2 / p.c22, s.Sigma1 / p.c12),
    ) * min(p.d1 / p.d2, p.d2 / p.d1)
    return float(lhs - p.sigma3 * p.c33)


def derived_nonexistence_params(sigma3=F(1, 10)):
    return lv.ThreeSpeciesParams(
        d1=F(1), d2=F(1), d3=F(1),
        sigma1=F(1), sigma2=F(1), sigma3=sigma3,
        c11=F(1), c12=F(2), c13=F(0),
        c21=F(3), c22=F(1), c23=F(0),
        c31=F(1), c32=F(1), c33=F(1),
    )


@pytest.fixture(scope="module")
def demo_inputs(demo_two_wave):
    return ExistenceInputs(
        two_species=demo_two_wave.params,
        d3=F(2), sigma3=F(10), c31=F(1, 2), c32=F(1, 100), c33=F(1),
        theta=demo_two_wave.theta,
        K_sub=F(1), K_super=F(12),
    )


class TestExistenceReport:
    def test_demo_margins(self, demo_inputs):
        report = lv.existence_report(demo_inputs)
        assert report.item("H2").passed
        assert report.item("H2").margin == pytest.approx(2.025)
        assert report.item("H3").passed
        assert report.item("H3").margin == pytest.approx(64.0)
        assert report.item("H4").passed
        assert not report.item("H1").passed  # sigma3 >= c31 here
        assert not report.passed
        assert report.item("H1").details["q_lower"] == pytest.approx(0.025)
        assert report.item("H1").details["q_upper"] == pytest.approx(1.0)

    def test_h4_violation(self, demo_inputs):
        bad = ExistenceInputs(
            two_species=demo_inputs.two_species,
            d3=demo_inputs.d3, sigma3=demo_inputs.sigma3,
            c31=demo_inputs.c31, c32=demo_inputs.c32, c33=demo_inputs.c33,
            theta=demo_inputs.theta, K_sub=F(13), K_super=F(12),
        )
        report = lv.existence_report(bad)
        assert not report.item("H4").passed
        assert report.item("H4").margin < 0

    def test_h4_equal_amplitudes_allowed(self, demo_inputs):
        boundary = ExistenceInputs(
            two_species=demo_inputs.two_species,
            d3=demo_inputs.d3, sigma3=demo_inputs.sigma3,
            c31=demo_inputs.c31, c32=demo_inputs.c32, c33=demo_inputs.c33,
            theta=demo_inputs.theta, K_sub=F(12), K_super=F(12),
        )
        assert lv.existence_report(boundary).item("H4").passed

    def test_h1_violation_when_growth_dominates(self, demo_inputs):
        report = lv.existence_report(demo_inputs)
        assert report.item("H1").margin <= float(
            demo_inputs.c31 - demo_inputs.sigma3
        )

    def test_regime_error(self):
        exclusion = lv.TwoSpeciesParams(
            d1=F(1), d2=F(1), sigma1=F(1), sigma2=F(1),
            c11=F(1), c12=F(1, 2), c21=F(3), c22=F(1),
        )
        inputs = ExistenceInputs(
            two_species=exclusion, d3=F(1), sigma3=F(1),
            c31=F(1), c32=F(1), c33=F(1), theta=F(1), K_sub=F(1), K_super=F(2),
        )
        with pytest.raises(RegimeError):
            lv.existence_report(inputs)


@st.composite
def normalized_background_block(draw):
    """Strong or weak block with sigma1 = c11 (the wave's left state is 1)."""
    sigma1 = draw(positive_rationals)
    sigma2 = draw(positive_rationals)
    c22 = draw(positive_rationals)
    gap1 = 1 + draw(positive_rationals)
    gap2 = 1 + draw(positive_rationals)
    if draw(st.booleans()):  # strong: c21 > sigma2, c12 sigma2 > sigma1 c22
        c21 = sigma2 * gap1
        c12 = sigma1 * c22 * gap2 / sigma2
    else:  # weak: both reversed
        c21 = sigma2 / gap1
        c12 = sigma1 * c22 / (sigma2 * gap2)
    return lv.TwoSpeciesParams(
        d1=draw(positive_rationals), d2=draw(positive_rationals),
        sigma1=sigma1, sigma2=sigma2, c11=sigma1, c12=c12, c21=c21, c22=c22,
    )


@settings(max_examples=300)
@given(
    st.one_of(normalized_background_block(), strong_two_species_params(allow_weak=True)),
    positive_rationals, positive_rationals, positive_rationals,
    positive_rationals, positive_rationals, positive_rationals,
    st.fractions(min_value=F(-8), max_value=F(8), max_denominator=16),
)
def test_h1_h3_mutually_exclusive(block, d3, sigma3, c31, c32, c33, k_sub, theta):
    """On any strong or weak background the decay condition H1 and the
    subsolution condition H3 can never hold together: H3 forces sigma3 above
    the upper coupling bound, H1 below c31 u* + c32 v*, which the bounds
    contain."""
    assert lv.classify_regime(block) in (lv.Regime.STRONG, lv.Regime.WEAK)
    inputs = ExistenceInputs(
        two_species=block, d3=d3, sigma3=sigma3,
        c31=c31, c32=c32, c33=c33, theta=theta,
        K_sub=k_sub, K_super=2 * k_sub,
    )
    report = lv.existence_report(inputs)
    assert not (report.item("H1").passed and report.item("H3").passed)


class TestNonexistenceReport:
    def test_derived_instance(self):
        report = lv.nonexistence_report(derived_nonexistence_params())
        s = sigma_pair(derived_nonexistence_params())
        assert (s.Sigma1, s.Sigma2) == (F(1), F(1))
        assert report.item("A1").passed
        assert report.item("A2").passed
        assert report.item("A2").details["branch"] == "strong"
        assert report.item("A3_literal").passed
        assert report.item("A3_literal").margin == pytest.approx(float(F(1, 3) - F(1, 10)))
        assert report.item("A3_variant").passed
        assert report.passed
        assert report.verdict == "nonexistence predicted (literal A3 and variant both pass)"

    def test_sigma1_nonpositive_fails_a1(self):
        p = lv.ThreeSpeciesParams(
            d1=F(1), d2=F(1), d3=F(1),
            sigma1=F(1), sigma2=F(1), sigma3=F(2),
            c11=F(1), c12=F(2), c13=F(1),
            c21=F(3), c22=F(1), c23=F(0),
            c31=F(1), c32=F(1), c33=F(1),
        )
        report = lv.nonexistence_report(p)
        assert not report.item("A1").passed
        assert not report.passed

    def test_a3_fails_when_sigma3_large(self):
        report = lv.nonexistence_report(derived_nonexistence_params(sigma3=F(1)))
        assert report.item("A1").passed and report.item("A2").passed
        assert not report.item("A3_literal").passed
        assert not report.item("A3_variant").passed
        assert not report.passed
        assert "A3" in report.verdict

    def test_zero_inner_couplings_rejected(self):
        p = lv.ThreeSpeciesParams(
            d1=F(1), d2=F(1), d3=F(1),
            sigma1=F(1), sigma2=F(1), sigma3=F(1),
            c11=F(1), c12=F(0), c13=F(0),
            c21=F(3), c22=F(1), c23=F(0),
            c31=F(1), c32=F(1), c33=F(1),
        )
        with pytest.raises(ValueError):
            lv.nonexistence_report(p)


@st.composite
def three_species_params(draw, zero_invader_couplings=False):
    zero = F(0)
    return lv.ThreeSpeciesParams(
        d1=draw(positive_rationals), d2=draw(positive_rationals), d3=draw(positive_rationals),
        sigma1=draw(positive_rationals), sigma2=draw(positive_rationals),
        sigma3=draw(positive_rationals),
        c11=draw(positive_rationals), c22=draw(positive_rationals),
        c33=draw(positive_rationals),
        c12=draw(positive_rationals), c21=draw(positive_rationals),
        c13=zero if zero_invader_couplings else draw(positive_rationals),
        c23=zero if zero_invader_couplings else draw(positive_rationals),
        c31=draw(positive_rationals), c32=draw(positive_rationals),
    )


def _swap_species(p):
    return lv.ThreeSpeciesParams(
        d1=p.d2, d2=p.d1, d3=p.d3,
        sigma1=p.sigma2, sigma2=p.sigma1, sigma3=p.sigma3,
        c11=p.c22, c12=p.c21, c13=p.c23,
        c21=p.c12, c22=p.c11, c23=p.c13,
        c31=p.c32, c32=p.c31, c33=p.c33,
    )


@settings(max_examples=200)
@given(three_species_params(), st.booleans())
def test_a3_margins_match_reference(p, floats):
    # c13, c23 > 0 here, so Sigma1 or Sigma2 is often nonpositive
    if floats:
        p = as_float(p)
    s = sigma_pair(p)
    report = lv.nonexistence_report(p)
    assert report.item("A3_literal").margin == reference_a3_margin(p, s, with_d=True)
    assert report.item("A3_variant").margin == reference_a3_margin(p, s, with_d=False)


@settings(max_examples=200)
@given(three_species_params())
def test_a2_invariant_under_species_swap(p):
    original = lv.nonexistence_report(p)
    swapped = lv.nonexistence_report(_swap_species(p))
    assert original.item("A2").passed == swapped.item("A2").passed


@settings(max_examples=200)
@given(three_species_params(zero_invader_couplings=True))
def test_decoupled_a2_equivalent_to_strong_or_weak(p):
    s = sigma_pair(p)
    assert s.Sigma1 == p.sigma1 * p.c33
    assert s.Sigma2 == p.sigma2 * p.c33
    report = lv.nonexistence_report(p)
    sw = lv.check_SW(p.two_species_block())
    assert report.item("A2").passed == (sw in (SW.S, SW.W))


@settings(max_examples=100)
@given(strong_two_species_params(), positive_rationals, positive_rationals,
       positive_rationals, positive_rationals, positive_rationals)
def test_small_invader_growth_gives_a3(block, d3, sigma3, c31, c32, c33):
    # decoupled invader: A2 reduces to the block regime, which is strong here
    p = lv.ThreeSpeciesParams(
        d1=block.d1, d2=block.d2, d3=d3,
        sigma1=block.sigma1, sigma2=block.sigma2, sigma3=sigma3,
        c11=block.c11, c12=block.c12, c13=F(0),
        c21=block.c21, c22=block.c22, c23=F(0),
        c31=c31, c32=c32, c33=c33,
    )
    assert lv.nonexistence_report(p).item("A2").passed
    # shrink the invader growth rate below the closed-form threshold; with
    # c13 = c23 = 0 that threshold is the A3 left-hand side over c33, which
    # is at least about 2.7e-14 over these strategies (1e-9 is not)
    shrunk = lv.ThreeSpeciesParams(**{**p.to_dict(), "sigma3": F(1, 10**20)})
    report = lv.nonexistence_report(shrunk)
    assert report.item("A1").passed
    assert report.item("A3_literal").passed
    assert report.item("A3_variant").passed
    assert report.passed


def test_existence_margins_are_lipschitz(demo_inputs):
    base = lv.existence_report(demo_inputs)
    eps = 1e-6
    fields = ("d3", "sigma3", "c31", "c32", "c33", "theta", "K_sub", "K_super")
    for name in fields:
        bumped_values = {f: getattr(demo_inputs, f) for f in fields}
        bumped_values[name] = float(bumped_values[name]) + eps
        bumped = ExistenceInputs(two_species=demo_inputs.two_species, **bumped_values)
        report = lv.existence_report(bumped)
        for item in report.items:
            delta = abs(item.margin - base.item(item.name).margin)
            assert delta <= 1e3 * eps, (name, item.name, delta)


class TestCheckSW:
    def test_strong(self, strong_params):
        assert lv.check_SW(strong_params) is SW.S

    def test_weak(self, weak_params):
        assert lv.check_SW(weak_params) is SW.W

    def test_neither(self):
        exclusion = lv.TwoSpeciesParams(
            d1=F(1), d2=F(1), sigma1=F(1), sigma2=F(1),
            c11=F(1), c12=F(1, 2), c21=F(3), c22=F(1),
        )
        assert lv.check_SW(exclusion) is SW.NEITHER


@pytest.mark.parametrize("name, message", [
    ("c31", "c31 must be strictly positive and finite, got"),
    ("d3", "d3 must be strictly positive and finite, got"),
    ("theta", "theta must be finite, got"),
    ("K_sub", "K_sub must be finite, got"),
    ("K_super", "K_super must be finite, got"),
])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_existence_inputs_refuse_non_finite(demo_inputs, name, value, message):
    fields = {k: getattr(demo_inputs, k) for k in ExistenceInputs.__dataclass_fields__}
    with pytest.raises(ValueError, match=message):
        ExistenceInputs(**{**fields, name: value})


def test_existence_inputs_leave_amplitude_signs_to_h4(demo_inputs):
    fields = {k: getattr(demo_inputs, k) for k in ExistenceInputs.__dataclass_fields__}
    report = lv.existence_report(ExistenceInputs(**{**fields, "K_sub": F(-1)}))
    assert not report.item("H4").passed
