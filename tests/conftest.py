import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

import lvwaves as lv

# pytester runs a falsified property in a subprocess (tests/test_tooling.py)
pytest_plugins = ["pytester"]

# On a falsified property hypothesis imports this module to print a patch; it
# imports libcst, whose mypy_extensions.TypedDict warns with a DeprecationWarning
# that the "error::DeprecationWarning" filter would raise inside pytest's report
# hook, ending the session.  Imported here once, with that warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # hypothesis then prints no patch, and warns of nothing
        pass

# No per-example deadline: example times swing with the load of a shared
# machine, and the deadline also caps the draw time of hypothesis's too_slow
# health check at 5x its value (1 s at the 200 ms default).
settings.register_profile("lvwaves", deadline=None)
settings.load_profile("lvwaves")


@st.composite
def _positive_rationals(draw):
    """n/d from two integer draws: d in 1..32, then n in 1..32 d.  Every
    Fraction in [1/32, 32] with denominator at most 32 is reachable, and
    examples shrink toward d = 1, n = 1."""
    d = draw(st.integers(min_value=1, max_value=32))
    return Fraction(draw(st.integers(min_value=1, max_value=32 * d)), d)


# bounded positive rationals, exact by construction
positive_rationals = _positive_rationals()

# dyadic rationals: float products of a few of these stay exact, so the
# exact-vs-float comparisons are meaningful at the 1 ulp level
dyadic_rationals = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=512),
    st.sampled_from([1, 2, 4, 8, 16]),
)


@st.composite
def two_species_params(draw):
    return lv.TwoSpeciesParams(
        d1=draw(positive_rationals),
        d2=draw(positive_rationals),
        sigma1=draw(positive_rationals),
        sigma2=draw(positive_rationals),
        c11=draw(positive_rationals),
        c12=draw(positive_rationals),
        c21=draw(positive_rationals),
        c22=draw(positive_rationals),
    )


@st.composite
def strong_two_species_params(draw, allow_weak=False):
    """Constructively strong-competition parameters (no filtering); with
    ``allow_weak``, half the draws invert both gaps and so are weak."""
    sigma1 = draw(positive_rationals)
    sigma2 = draw(positive_rationals)
    c11 = draw(positive_rationals)
    c22 = draw(positive_rationals)
    gap1 = 1 + draw(positive_rationals)
    gap2 = 1 + draw(positive_rationals)
    if allow_weak and draw(st.booleans()):
        gap1, gap2 = 1 / gap1, 1 / gap2
    return lv.TwoSpeciesParams(
        d1=draw(positive_rationals),
        d2=draw(positive_rationals),
        sigma1=sigma1,
        sigma2=sigma2,
        c11=c11,
        c22=c22,
        c21=(sigma2 * c11 / sigma1) * gap1,
        c12=(sigma1 * c22 / sigma2) * gap2,
    )


def ulp_distance(a: float, b: float) -> float:
    """Distance between two floats in units of the larger one's ulp."""
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def as_float(p):
    """A float copy of a parameter set."""
    return type(p)(**{k: float(v) for k, v in p.to_dict().items()})


@pytest.fixture(scope="session")
def paper_free():
    one = Fraction(1)
    return lv.FreeParams(
        k1=one, k2=one, d1=one, d2=one, d3=one,
        theta=Fraction(3), sigma1=Fraction(41), sigma2=Fraction(41), sigma3=Fraction(41),
    )


@pytest.fixture(scope="session")
def paper_spec(paper_free):
    return lv.induce_coefficients(paper_free)


@pytest.fixture(scope="session")
def strong_params():
    one = Fraction(1)
    return lv.TwoSpeciesParams(
        d1=one, d2=one, sigma1=one, sigma2=one,
        c11=one, c12=Fraction(2), c21=Fraction(3), c22=one,
    )


@pytest.fixture(scope="session")
def weak_params():
    one = Fraction(1)
    return lv.TwoSpeciesParams(
        d1=one, d2=one, sigma1=one, sigma2=one,
        c11=one, c12=Fraction(1, 2), c21=Fraction(2, 3), c22=one,
    )


@pytest.fixture(scope="session")
def demo_two_wave():
    # sigma1 > 8 d1 keeps the two-species tanh wave feasible
    return lv.two_species_wave_family(
        Fraction(2), Fraction(1), Fraction(20), Fraction(1)
    )
