import math
import pickle
from dataclasses import replace
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lvwaves as lv
from lvwaves.errors import DomainError, RegimeError, SingularLinesError
from lvwaves.model import Regime
from lvwaves.rational import parse_number

from conftest import as_float, positive_rationals, two_species_params

F = Fraction


def cramer_oracle(s1, s2, c11, c12, c21, c22):
    """Independent exact 2x2 solve of the zero-growth line system."""
    det = c11 * c22 - c12 * c21
    return F(c22 * s1 - c12 * s2, det), F(c11 * s2 - c21 * s1, det)


class TestCoexistence:
    def test_paper_example(self):
        p = lv.TwoSpeciesParams(
            d1=F(1), d2=F(1), sigma1=F(41), sigma2=F(41),
            c11=F(41), c12=F(41, 5), c21=F(69), c22=F(34, 5),
        )
        eq = lv.coexistence_equilibrium(p)
        assert (eq.u, eq.v) == (F(1, 5), F(4))

    def test_symmetric(self):
        p = lv.TwoSpeciesParams(
            d1=F(1), d2=F(1), sigma1=F(1), sigma2=F(1),
            c11=F(1), c12=F(1, 2), c21=F(1, 2), c22=F(1),
        )
        eq = lv.coexistence_equilibrium(p)
        assert (eq.u, eq.v) == (F(2, 3), F(2, 3))

    def test_derived_against_oracle(self):
        expected = cramer_oracle(F(1), F(1), F(1), F(2), F(3), F(1))
        assert expected == (F(1, 5), F(2, 5))
        p = lv.TwoSpeciesParams(
            d1=F(1), d2=F(1), sigma1=F(1), sigma2=F(1),
            c11=F(1), c12=F(2), c21=F(3), c22=F(1),
        )
        eq = lv.coexistence_equilibrium(p)
        assert (eq.u, eq.v) == expected

    def test_singular_lines(self):
        p = lv.TwoSpeciesParams(
            d1=F(1), d2=F(1), sigma1=F(1), sigma2=F(2),
            c11=F(1), c12=F(2), c21=F(2), c22=F(4),
        )
        with pytest.raises(SingularLinesError):
            lv.coexistence_equilibrium(p)

    def test_nonpositive_component_flagged_not_fatal(self):
        # exclusion-type parameters give a negative component
        p = lv.TwoSpeciesParams(
            d1=F(1), d2=F(1), sigma1=F(1), sigma2=F(1),
            c11=F(1), c12=F(1, 2), c21=F(3), c22=F(1),
        )
        eq = lv.coexistence_equilibrium(p)
        assert not eq.positive


class TestClassify:
    def test_strong(self):
        p = lv.TwoSpeciesParams(
            d1=F(1), d2=F(1), sigma1=F(1), sigma2=F(1),
            c11=F(1), c12=F(2), c21=F(3), c22=F(1),
        )
        assert lv.classify_regime(p) is Regime.STRONG

    def test_weak_paper_instance(self, weak_params):
        assert lv.classify_regime(weak_params) is Regime.WEAK

    def test_degenerate_all_ones(self):
        p = lv.TwoSpeciesParams(
            d1=F(1), d2=F(1), sigma1=F(1), sigma2=F(1),
            c11=F(1), c12=F(1), c21=F(1), c22=F(1),
        )
        assert lv.classify_regime(p) is Regime.DEGENERATE

    @pytest.mark.parametrize(
        "c12, c21, expected",
        [
            (F(1, 2), F(3), Regime.EXCLUSION_U_WINS),
            (F(2), F(1, 2), Regime.EXCLUSION_V_WINS),
        ],
    )
    def test_exclusion_cases(self, c12, c21, expected):
        p = lv.TwoSpeciesParams(
            d1=F(1), d2=F(1), sigma1=F(1), sigma2=F(1),
            c11=F(1), c12=c12, c21=c21, c22=F(1),
        )
        assert lv.classify_regime(p) is expected

    def test_positivity_rejected(self):
        with pytest.raises(ValueError):
            lv.TwoSpeciesParams(
                d1=F(0), d2=F(1), sigma1=F(1), sigma2=F(1),
                c11=F(1), c12=F(1), c21=F(1), c22=F(1),
            )


class TestEvenness:
    def test_balanced(self):
        assert lv.evenness_index(1, 1) == 1.0

    def test_single_species(self):
        assert lv.evenness_index(1, 0) == 0.0
        assert lv.evenness_index(0, 3) == 0.0

    def test_derived_high_precision(self):
        # independent oracle: Decimal evaluation at 40 digits
        getcontext().prec = 40
        u, v = Decimal(1), Decimal(3)
        tot = u + v
        h = -((u / tot) * (u / tot).ln() + (v / tot) * (v / tot).ln())
        expected = h / Decimal(2).ln()
        frozen = 0.8112781244591328
        assert abs(float(expected) - frozen) < 1e-15
        assert lv.evenness_index(1, 3) == pytest.approx(frozen, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lv.evenness_index(0, 0)
        with pytest.raises(DomainError):
            lv.evenness_index(-1, 2)


@settings(max_examples=150)
@given(two_species_params())
def test_coexistence_satisfies_both_lines(p):
    try:
        eq = lv.coexistence_equilibrium(p)
    except SingularLinesError:
        return
    r1 = float(p.sigma1 - p.c11 * eq.u - p.c12 * eq.v)
    r2 = float(p.sigma2 - p.c21 * eq.u - p.c22 * eq.v)
    assert abs(r1) <= 1e-12 * float(p.sigma1)
    assert abs(r2) <= 1e-12 * float(p.sigma2)


@settings(max_examples=150)
@given(two_species_params())
def test_positive_coexistence_iff_strong_or_weak(p):
    regime = lv.classify_regime(p)
    if regime is Regime.DEGENERATE:
        return
    try:
        eq = lv.coexistence_equilibrium(p)
    except SingularLinesError:
        return
    assert eq.positive == (regime in (Regime.STRONG, Regime.WEAK))


@settings(max_examples=150)
@given(positive_rationals, positive_rationals, positive_rationals)
def test_evenness_properties(u, v, k):
    j = lv.evenness_index(u, v)
    assert 0.0 <= j <= 1.0 + 1e-15
    assert lv.evenness_index(v, u) == pytest.approx(j, abs=1e-12)
    assert lv.evenness_index(k * u, k * v) == pytest.approx(j, abs=1e-12)
    if u == v:
        assert j == 1.0


@settings(max_examples=150)
@given(two_species_params(), positive_rationals)
def test_classify_invariant_under_uniform_scaling(p, k):
    scaled = lv.TwoSpeciesParams(
        d1=p.d1, d2=p.d2,
        sigma1=k * p.sigma1, sigma2=k * p.sigma2,
        c11=k * p.c11, c12=k * p.c12, c21=k * p.c21, c22=k * p.c22,
    )
    assert lv.classify_regime(scaled) is lv.classify_regime(p)


@settings(max_examples=50)
@given(st.floats(min_value=0.01, max_value=100), st.floats(min_value=0.01, max_value=100))
def test_evenness_float_inputs(u, v):
    j = lv.evenness_index(u, v)
    assert 0.0 <= j <= 1.0 + 1e-12
    assert j == pytest.approx(
        -(u * math.log(u / (u + v)) + v * math.log(v / (u + v))) / (math.log(2) * (u + v)),
        rel=1e-12,
    )


@pytest.mark.parametrize("value", ["nan", "-inf", "1e400", float("nan"), float("inf")])
def test_parse_number_rejects_non_finite(value):
    with pytest.raises(ValueError, match="not finite"):
        parse_number(value)


class TestBlockKernel:
    def test_fraction_block_and_float_twin_get_own_kernels(self, strong_params):
        twin = as_float(strong_params)
        assert twin == strong_params and hash(twin) == hash(strong_params)
        assert type(strong_params.kernel.u_min) is Fraction
        assert type(twin.kernel.u_min) is float
        assert type(lv.bounds(strong_params, 1, 1).q_lower) is Fraction
        assert type(lv.bounds(twin, 1, 1).q_lower) is float
        assert type(strong_params.kernel.coexistence.u) is Fraction
        assert type(twin.kernel.coexistence.u) is float

    def test_reading_kernel_changes_no_observable(self):
        p = lv.TwoSpeciesParams(
            d1=F(1), d2=F(3), sigma1=F(2), sigma2=F(1),
            c11=F(1), c12=F(5, 2), c21=F(3), c22=F(1),
        )
        before = (hash(p), repr(p), p.to_dict(), pickle.dumps(p))
        assert p.kernel.regime is Regime.STRONG
        assert (hash(p), repr(p), p.to_dict(), pickle.dumps(p)) == before
        copy = pickle.loads(pickle.dumps(p))
        assert copy == p and copy.kernel == p.kernel

    def test_replaced_block_gets_fresh_kernel(self, strong_params):
        assert lv.bounds(strong_params, 1, 1).q_lower == F(1, 3)
        exclusion = replace(strong_params, c21=F(1, 2))
        with pytest.raises(RegimeError, match="classification is ExclusionVWins"):
            lv.bounds(exclusion, 1, 1)
        assert lv.check_SW(exclusion) is lv.SW.NEITHER

    def test_classify_regime_honours_tol(self):
        # sigma1 c21 exceeds sigma2 c11 by a relative 1e-6
        p = lv.TwoSpeciesParams(
            d1=F(1), d2=F(1), sigma1=F(1), sigma2=F(1),
            c11=F(1), c12=F(2), c21=F(1000001, 1000000), c22=F(1),
        )
        assert p.kernel.regime is Regime.STRONG
        assert lv.classify_regime(p, tol=1e-3) is Regime.DEGENERATE
        assert lv.classify_regime(p) is Regime.STRONG

    def test_parallel_lines_raise_on_every_read(self):
        p = lv.TwoSpeciesParams(
            d1=F(1), d2=F(1), sigma1=F(1), sigma2=F(1),
            c11=F(1), c12=F(2), c21=F(2), c22=F(4),
        )
        assert p.kernel.regime is Regime.EXCLUSION_U_WINS
        for _ in range(2):
            with pytest.raises(SingularLinesError, match="parallel"):
                p.kernel.coexistence


_BLOCK = dict(d1=1, d2=1, sigma1=1, sigma2=1, c11=1, c12=2, c21=3, c22=1)
_NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("name", ["sigma1", "d2", "c12"])
@pytest.mark.parametrize("value", _NON_FINITE)
def test_two_species_params_refuse_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be strictly positive and finite, got"):
        lv.TwoSpeciesParams(**{**_BLOCK, name: value})


@pytest.mark.parametrize("name, wording", [
    ("sigma3", "strictly positive and finite"), ("c13", "nonnegative and finite"),
])
@pytest.mark.parametrize("value", _NON_FINITE)
def test_three_species_params_refuse_non_finite(name, wording, value):
    three = dict(_BLOCK, d3=1, sigma3=1, c13=0, c23=0, c31=1, c32=1, c33=1)
    with pytest.raises(ValueError, match=f"{name} must be {wording}, got"):
        lv.ThreeSpeciesParams(**{**three, name: value})


@pytest.mark.parametrize("u, v, name", [
    (math.nan, 1, "u"), (math.inf, 1, "u"), (1, math.nan, "v"), (1, math.inf, "v"),
])
def test_evenness_refuses_non_finite(u, v, name):
    with pytest.raises(ValueError, match=f"{name} must be finite, got"):
        lv.evenness_index(u, v)


def test_equilibria_come_in_their_documented_order(strong_params):
    origin, u_only, v_only, coexistence = lv.model.equilibria(strong_params)
    assert (origin.u, origin.v, u_only.v, v_only.u) == (0, 0, 0, 0)
    assert (u_only.u, v_only.v) == (1, 1)
    assert coexistence == lv.coexistence_equilibrium(strong_params)
