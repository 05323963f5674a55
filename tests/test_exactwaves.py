import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lvwaves as lv
from lvwaves.errors import ConsistencyError, InfeasibleError, NonPositiveCoefficientError
from lvwaves.model import Regime
from lvwaves.rational import ulp_distance

from conftest import positive_rationals

F = Fraction

PAPER_MATRIX = [
    [F(41), F(41, 5), F(31, 5)],
    [F(69), F(34, 5), F(4, 5)],
    [F(51), F(36, 5), F(6, 5)],
]


def sympy_substitution_oracle(free):
    """Expand the tanh ansatz in the traveling-wave system symbolically and
    return (coefficient matrix, u*, max residual coefficient)."""
    import sympy as sp

    k1, k2 = sp.nsimplify(free.k1), sp.nsimplify(free.k2)
    d1, d2, d3 = sp.nsimplify(free.d1), sp.nsimplify(free.d2), sp.nsimplify(free.d3)
    th = sp.nsimplify(free.theta)
    s1, s2, s3 = (
        sp.nsimplify(free.sigma1),
        sp.nsimplify(free.sigma2),
        sp.nsimplify(free.sigma3),
    )
    den1, den2 = k1 * (2 * d1 + th), k2 * (2 * d1 + th)
    c = [
        [s1, d1 * s1 / den1, d1 * (s1 - 2 * th - 4 * d1) / den2],
        [
            16 * d2 + 4 * th + s2,
            (2 * d1 * th - 4 * d2 * th + d1 * s2 + 8 * d1 * d2 - th**2) / den1,
            (2 * d1 * th - 10 * d2 * th + d1 * s2 - 4 * d1 * d2 - th**2) / den2,
        ],
        [
            4 * d3 + 2 * th + s3,
            (d1 * s3 + 4 * d1 * d3 - th**2) / den1,
            (-6 * d3 * th + d1 * s3 - 8 * d1 * d3 - th**2) / den2,
        ],
    ]
    det = c[0][0] * c[1][1] - c[0][1] * c[1][0]
    us = sp.simplify((c[1][1] * s1 - c[0][1] * s2) / det)
    T = sp.symbols("T")
    u = (us + 1) / 2 + (us - 1) / 2 * T
    v = k1 * (1 + T) ** 2
    w = k2 * (1 - T**2)

    def dx(expr):
        return sp.diff(expr, T) * (1 - T**2)

    residues = []
    for d, field, row, s in ((d1, u, c[0], s1), (d2, v, c[1], s2), (d3, w, c[2], s3)):
        expr = d * dx(dx(field)) + th * dx(field) + field * (
            s - row[0] * u - row[1] * v - row[2] * w
        )
        poly = sp.Poly(sp.expand(expr), T)
        residues.extend(abs(sp.simplify(coef)) for coef in poly.all_coeffs())
    worst = max(residues) if residues else 0
    return c, us, worst


class TestInduceCoefficients:
    def test_paper_matrix_exact(self, paper_spec):
        assert paper_spec.params.competition_matrix() == PAPER_MATRIX
        assert paper_spec.u_star == F(1, 5)
        assert paper_spec.v_star == F(4)

    def test_paper_matrix_float_mode(self):
        free = lv.FreeParams(
            k1=1.0, k2=1.0, d1=1.0, d2=1.0, d3=1.0,
            theta=3.0, sigma1=41.0, sigma2=41.0, sigma3=41.0,
        )
        spec = lv.induce_coefficients(free)
        for row, expected_row in zip(spec.params.competition_matrix(), PAPER_MATRIX):
            for got, expected in zip(row, expected_row):
                assert got == pytest.approx(float(expected), rel=1e-14)
        assert spec.u_star == pytest.approx(0.2, rel=1e-12)
        assert spec.v_star == pytest.approx(4.0, rel=1e-12)

    def test_symbolic_oracle_agrees(self, paper_free, paper_spec):
        import sympy as sp

        matrix, us, worst = sympy_substitution_oracle(paper_free)
        assert worst == 0
        assert us == sp.Rational(1, 5)
        for row, got_row in zip(matrix, paper_spec.params.competition_matrix()):
            for sym_val, got in zip(row, got_row):
                assert sp.Rational(got.numerator, got.denominator) == sym_val

    def test_nonpositive_coefficient_identified(self):
        free = lv.FreeParams(
            k1=F(1), k2=F(1), d1=F(1), d2=F(1), d3=F(1),
            theta=F(41), sigma1=F(41), sigma2=F(41), sigma3=F(41),
        )
        with pytest.raises(NonPositiveCoefficientError) as err:
            lv.induce_coefficients(free)
        assert "c13" in err.value.entries

    def test_closed_form_u_star(self, paper_spec):
        free = paper_spec.free
        assert paper_spec.u_star == (free.theta - 2 * free.d1) / (free.theta + 2 * free.d1)


class TestEvaluateWave:
    def test_center_values(self, paper_spec):
        assert lv.evaluate_wave(paper_spec, 0.0) == pytest.approx((0.6, 1.0, 1.0), abs=1e-15)

    def test_limits(self, paper_spec):
        u, v, w = lv.evaluate_wave(paper_spec, -40.0)
        assert (u, v, w) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
        u, v, w = lv.evaluate_wave(paper_spec, 40.0)
        assert (u, v, w) == pytest.approx((0.2, 4.0, 0.0), abs=1e-12)

    def test_derived_point(self, paper_spec):
        # frozen from a high-precision tanh evaluation:
        # 3/5 - (2/5) * 0.76159415595576489...
        u, _, _ = lv.evaluate_wave(paper_spec, 1.0)
        assert u == pytest.approx(0.29536233761769404, abs=1e-15)
        assert u == pytest.approx(0.6 - 0.4 * math.tanh(1.0), abs=1e-16)


class TestResidual:
    def test_paper_wave_residual_tiny(self, paper_spec):
        grid = np.linspace(-10, 10, 2001)
        assert max(lv.residual(paper_spec, grid)) < 1e-10

    def test_perturbed_coefficient_detected(self, paper_spec):
        p = paper_spec.params
        perturbed = lv.ThreeSpeciesParams(
            **{**p.to_dict(), "c11": float(p.c11) + 1e-3}
        )
        spec = lv.ExactWaveSpec(
            free=paper_spec.free,
            params=perturbed,
            u_star=paper_spec.u_star,
            v_star=paper_spec.v_star,
        )
        r1, _, _ = lv.residual(spec, np.linspace(-10, 10, 2001))
        assert r1 >= 1e-4

    def test_empty_grid_rejected(self, paper_spec):
        with pytest.raises(ValueError):
            lv.residual(paper_spec, np.array([]))


@pytest.mark.parametrize("name", ["k1", "sigma3"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0])
def test_free_params_refuse_bad_values(paper_free, name, value):
    fields = {k: getattr(paper_free, k) for k in lv.FreeParams.__dataclass_fields__}
    with pytest.raises(ValueError, match=f"{name} must be strictly positive and finite"):
        lv.FreeParams(**{**fields, name: value})


class TestTwoSpeciesWave:
    def test_family_closed_forms(self):
        wave = lv.two_species_wave_family(F(1), F(1), F(41), F(1))
        assert wave.theta == F(37, 2)
        assert wave.u_star == F(33, 41)
        assert wave.v_star == F(4)
        p = wave.params
        assert (p.c11, p.c12, p.c22) == (F(41), F(2), F(6))
        assert p.c21 == F(2337, 4)
        assert p.sigma2 == F(1977, 4)

    def test_family_residual_tiny(self):
        wave = lv.two_species_wave_family(F(1), F(1), F(41), F(1))
        assert max(wave.residual(np.linspace(-10, 10, 2001))) < 1e-10

    def test_family_is_coexistence_consistent(self, demo_two_wave):
        eq = lv.coexistence_equilibrium(demo_two_wave.params)
        assert eq.u == demo_two_wave.u_star
        assert eq.v == demo_two_wave.v_star == 4 * demo_two_wave.k1

    def test_family_always_strong(self, demo_two_wave):
        assert lv.classify_regime(demo_two_wave.params) is Regime.STRONG

    def test_boundary_values(self, demo_two_wave):
        u, v = demo_two_wave.evaluate(-40.0)
        assert (u, v) == pytest.approx((1.0, 0.0), abs=1e-12)
        u, v = demo_two_wave.evaluate(40.0)
        assert u == pytest.approx(float(demo_two_wave.u_star), abs=1e-12)
        assert v == pytest.approx(float(4 * demo_two_wave.k1), abs=1e-12)

    def test_requested_values_checked(self):
        wave = lv.two_species_wave_family(F(1), F(1), F(41), F(1))
        ok = lv.two_species_exact_wave(
            F(1), F(1), F(37, 2), F(41), F(1977, 4), F(1)
        )
        assert ok.params == wave.params
        with pytest.raises(InfeasibleError, match="theta"):
            lv.two_species_exact_wave(F(1), F(1), F(3), F(41), F(1977, 4), F(1))
        with pytest.raises(InfeasibleError, match="sigma2"):
            lv.two_species_exact_wave(F(1), F(1), F(37, 2), F(41), F(41), F(1))

    def test_infeasible_when_growth_too_small(self):
        with pytest.raises(InfeasibleError, match="sigma1"):
            lv.two_species_wave_family(F(1), F(1), F(8), F(1))

    @pytest.mark.parametrize("index,name", enumerate(["d1", "d2", "sigma1", "k1"]))
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_family_input_is_bad_input(self, index, name, bad):
        args = [F(1), F(1), F(41), F(1)]
        args[index] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite, got {bad}"):
            lv.two_species_wave_family(*args)

    def test_sympy_two_species_oracle(self):
        # residual of the ansatz under the induced two-species constraints
        import sympy as sp

        d1, d2, s1, k1 = sp.Integer(1), sp.Integer(1), sp.Integer(41), sp.Integer(1)
        th = s1 / 2 - 2 * d1
        us = 1 - 8 * d1 / s1
        c11, c12, c22 = s1, 2 * d1 / k1, 6 * d2 / k1
        c21 = s1 * (20 * d2 + s1 - 4 * d1) / (4 * d1)
        s2 = ((8 * d2 + s1 - 4 * d1) * (s1 - 8 * d1) + 12 * d2 * s1) / (4 * d1)
        T = sp.symbols("T")
        u = (us + 1) / 2 + (us - 1) / 2 * T
        v = k1 * (1 + T) ** 2

        def dx(expr):
            return sp.diff(expr, T) * (1 - T**2)

        r1 = sp.expand(d1 * dx(dx(u)) + th * dx(u) + u * (s1 - c11 * u - c12 * v))
        r2 = sp.expand(d2 * dx(dx(v)) + th * dx(v) + v * (s2 - c21 * u - c22 * v))
        assert sp.simplify(r1) == 0
        assert sp.simplify(r2) == 0


@st.composite
def feasible_free_params(draw):
    free = lv.FreeParams(
        k1=draw(positive_rationals),
        k2=draw(positive_rationals),
        d1=draw(st.fractions(min_value=F(1, 4), max_value=F(2), max_denominator=16)),
        d2=draw(st.fractions(min_value=F(1, 4), max_value=F(2), max_denominator=16)),
        d3=draw(st.fractions(min_value=F(1, 4), max_value=F(1), max_denominator=16)),
        theta=draw(st.fractions(min_value=F(1, 2), max_value=F(4), max_denominator=16)),
        sigma1=draw(st.fractions(min_value=F(15), max_value=F(60), max_denominator=8)),
        sigma2=draw(st.fractions(min_value=F(15), max_value=F(60), max_denominator=8)),
        sigma3=draw(st.fractions(min_value=F(15), max_value=F(60), max_denominator=8)),
    )
    try:
        return lv.induce_coefficients(free)
    except (NonPositiveCoefficientError, ConsistencyError):
        assume(False)


@settings(max_examples=60, deadline=None)
@given(feasible_free_params())
def test_feasible_specs_have_tiny_residual(spec):
    grid = np.linspace(-50, 50, 801)
    assert max(lv.residual(spec, grid)) < 1e-8


@settings(max_examples=60, deadline=None)
@given(feasible_free_params())
def test_boundary_conditions_at_saturation(spec):
    u, v, w = lv.evaluate_wave(spec, -40.0)
    assert u == pytest.approx(1.0, abs=1e-12)
    assert abs(v) < 1e-12 and abs(w) < 1e-12
    u, v, w = lv.evaluate_wave(spec, 40.0)
    assert u == pytest.approx(float(spec.u_star), abs=1e-12)
    assert v == pytest.approx(float(spec.v_star), abs=1e-12)
    assert abs(w) < 1e-12


@settings(max_examples=60, deadline=None)
@given(feasible_free_params())
def test_combined_density_respects_block_ceiling(spec):
    # the invader coupling pushes the (u, v) pair below the block's ceiling;
    # applies to positive waves under strong or weak competition
    if spec.u_star <= 0:
        return
    block = spec.params.two_species_block()
    if lv.classify_regime(block) not in (Regime.STRONG, Regime.WEAK):
        return
    q_up = float(lv.upper_bound(block, 1, 1))
    x = np.linspace(-40, 40, 1601)
    u, v, w = lv.evaluate_wave(spec, x)
    assert np.all(w >= 0)
    assert float(np.max(u + v)) <= q_up + 1e-12


@settings(max_examples=60, deadline=None)
@given(feasible_free_params())
def test_pulse_shape_and_monotonicity(spec):
    # within the range where tanh is not saturated in double precision
    x = np.linspace(-18, 18, 721)
    u, v, w = lv.evaluate_wave(spec, x)
    assert np.all(w > 0)
    t = np.tanh(x)
    du_sign = np.sign(float(spec.u_star) - 1.0)
    du = 0.5 * (float(spec.u_star) - 1.0) * (1 - t * t)
    dv = 2.0 * float(spec.free.k1) * (1 + t) * (1 - t * t)
    if spec.u_star < 1:
        assert np.all(np.sign(du) == du_sign)
    assert np.all(dv > 0)


def _dyadic(lo_num, hi_num, denom):
    return st.builds(Fraction, st.integers(min_value=lo_num, max_value=hi_num), st.just(denom))


@settings(max_examples=60, deadline=None)
@given(
    _dyadic(1, 16, 4), _dyadic(1, 16, 4),                    # k1, k2
    _dyadic(1, 8, 4), _dyadic(1, 8, 4), _dyadic(1, 4, 4),    # d1, d2, d3
    _dyadic(1, 16, 4),                                       # theta
    _dyadic(60, 256, 4), _dyadic(60, 256, 4), _dyadic(60, 256, 4),
)
def test_exact_and_float_modes_agree_to_one_ulp(k1, k2, d1, d2, d3, th, s1, s2, s3):
    exact_free = lv.FreeParams(
        k1=k1, k2=k2, d1=d1, d2=d2, d3=d3, theta=th, sigma1=s1, sigma2=s2, sigma3=s3
    )
    try:
        exact_spec = lv.induce_coefficients(exact_free)
    except (NonPositiveCoefficientError, ConsistencyError):
        assume(False)
    float_free = lv.FreeParams(
        k1=float(k1), k2=float(k2), d1=float(d1), d2=float(d2), d3=float(d3),
        theta=float(th), sigma1=float(s1), sigma2=float(s2), sigma3=float(s3),
    )
    try:
        float_spec = lv.induce_coefficients(float_free)
    except (NonPositiveCoefficientError, ConsistencyError):
        assume(False)
    for exact_row, float_row in zip(
        exact_spec.params.competition_matrix(), float_spec.params.competition_matrix()
    ):
        for e_val, f_val in zip(exact_row, float_row):
            assert ulp_distance(float(e_val), f_val) <= 1.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_free_params_refuse_non_finite_theta(paper_free, value):
    fields = {k: getattr(paper_free, k) for k in lv.FreeParams.__dataclass_fields__}
    with pytest.raises(ValueError, match=f"theta must be finite, got {value}"):
        lv.FreeParams(**{**fields, "theta": value})
