"""Exact tanh-form traveling waves connecting (1, 0[, 0]) to the coexistence
state.

With T(x) = tanh(x) the three-species ansatz is

    u(x) = (u* + 1)/2 + (u* - 1)/2 * T(x)
    v(x) = k1 (1 + T(x))^2
    w(x) = k2 (1 - T(x)^2)

Substituting it into the traveling-wave system and equating every power of
T(x) to zero yields ten algebraic equations whose solution expresses the
nine competition coefficients through the free parameters
(k1, k2, d1, d2, d3, theta, sigma1, sigma2, sigma3).  With D = 2 d1 + theta:

    c11 = sigma1
    c12 = d1 sigma1 / (k1 D)
    c13 = d1 (sigma1 - 2 theta - 4 d1) / (k2 D)
    c21 = 16 d2 + 4 theta + sigma2
    c22 = (2 d1 theta - 4 d2 theta + d1 sigma2 + 8 d1 d2 - theta^2) / (k1 D)
    c23 = (2 d1 theta - 10 d2 theta + d1 sigma2 - 4 d1 d2 - theta^2) / (k2 D)
    c31 = 4 d3 + 2 theta + sigma3
    c32 = (d1 sigma3 + 4 d1 d3 - theta^2) / (k1 D)
    c33 = (-6 d3 theta + d1 sigma3 - 8 d1 d3 - theta^2) / (k2 D)

The ansatz hard-wires the limits (1, 0, 0) at -inf and (u*, 4 k1, 0) at
+inf, so the coexistence intersection of the induced (u, v) block must have
v* = 4 k1; this is asserted at runtime.  Closed form: u* = (theta - 2 d1) /
(theta + 2 d1).

Two-species reduction
---------------------

Dropping w and repeating the expansion (four cubic coefficients from the u
equation, three quadratic ones from the v equation, seven equations total)
leaves too few coefficients to absorb every input: the u equation forces

    c11 = sigma1,   c12 = 2 d1 / k1,
    u*  = 1 - 8 d1 / sigma1,   theta = sigma1 / 2 - 2 d1,

and the v equation then forces

    c22 = 6 d2 / k1,
    c21 = sigma1 (20 d2 + sigma1 - 4 d1) / (4 d1),
    sigma2 = [(8 d2 + sigma1 - 4 d1)(sigma1 - 8 d1) + 12 d2 sigma1] / (4 d1).

So only (d1, d2, sigma1, k1) are genuinely free; the wave exists iff
sigma1 > 8 d1, and the induced system is always strongly competitive.  The
derivation was performed by computer algebra (expand in powers of T, set
each coefficient to zero, solve) and the resulting closed forms are
hard-coded below.

Both families are one record, :class:`ExactWaveSpec`, whose ``k2`` is None
for the two-species wave, and :func:`evaluate_wave`, :func:`wave_profile`
and :func:`residual` read either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InfeasibleError, NonPositiveCoefficientError
from .model import ThreeSpeciesParams, TwoSpeciesParams, coexistence_equilibrium
from .profiles import WaveProfile
from .rational import Number, _compare, _from_dict, _require_finite, _require_positive, all_exact

#: Relative tolerance for runtime identity checks (v* = 4 k1, input matching).
IDENTITY_TOL = 1e-12
#: Relative tolerance when matching float inputs against induced requirements.
MATCH_TOL = 1e-9


@dataclass(frozen=True)
class FreeParams:
    """Free parameters of the three-species tanh wave."""

    k1: Number
    k2: Number
    d1: Number
    d2: Number
    d3: Number
    theta: Number
    sigma1: Number
    sigma2: Number
    sigma3: Number

    def __post_init__(self):
        _require_positive(k1=self.k1, k2=self.k2, d1=self.d1, d2=self.d2, d3=self.d3,
                          sigma1=self.sigma1, sigma2=self.sigma2, sigma3=self.sigma3)
        _require_finite(theta=self.theta)
        if 2 * self.d1 + self.theta == 0:
            raise ValueError("2*d1 + theta must be nonzero")

    from_dict = classmethod(_from_dict)


@dataclass(frozen=True)
class ExactWaveSpec:
    """A feasible tanh wave: the induced coefficients, the ansatz constants
    k1 and k2, the speed theta, and the coexistence components.  ``params``
    is a :class:`ThreeSpeciesParams`, or a :class:`TwoSpeciesParams` with
    ``k2=None`` for the two-species family (w = 0)."""

    params: ThreeSpeciesParams | TwoSpeciesParams
    k1: Number
    k2: Number | None
    theta: Number
    u_star: Number
    v_star: Number


def induce_coefficients(free: FreeParams) -> ExactWaveSpec:
    """Compute the induced coefficient matrix and validate feasibility.

    Raises :class:`NonPositiveCoefficientError` naming every entry that comes
    out nonpositive, and :class:`ConsistencyError` if the coexistence state of
    the induced (u, v) block does not satisfy v* = 4 k1.
    """
    k1, k2 = free.k1, free.k2
    d1, d2, d3 = free.d1, free.d2, free.d3
    th = free.theta
    s1, s2, s3 = free.sigma1, free.sigma2, free.sigma3
    den1 = k1 * (2 * d1 + th)
    den2 = k2 * (2 * d1 + th)

    c = {
        "c11": s1,
        "c12": d1 * s1 / den1,
        "c13": d1 * (s1 - 2 * th - 4 * d1) / den2,
        "c21": 16 * d2 + 4 * th + s2,
        "c22": (2 * d1 * th - 4 * d2 * th + d1 * s2 + 8 * d1 * d2 - th * th) / den1,
        "c23": (2 * d1 * th - 10 * d2 * th + d1 * s2 - 4 * d1 * d2 - th * th) / den2,
        "c31": 4 * d3 + 2 * th + s3,
        "c32": (d1 * s3 + 4 * d1 * d3 - th * th) / den1,
        "c33": (-6 * d3 * th + d1 * s3 - 8 * d1 * d3 - th * th) / den2,
    }
    bad = {name: value for name, value in c.items() if value <= 0}
    if bad:
        raise NonPositiveCoefficientError(bad)

    params = ThreeSpeciesParams(
        d1=d1, d2=d2, d3=d3, sigma1=s1, sigma2=s2, sigma3=s3, **c
    )
    eq = coexistence_equilibrium(params.two_species_block())
    if _compare(eq.v, 4 * k1, IDENTITY_TOL) != 0:
        raise ConsistencyError(
            f"induced coexistence v* = {eq.v} differs from 4*k1 = {4 * k1}"
        )
    return ExactWaveSpec(params=params, k1=k1, k2=k2, theta=th, u_star=eq.u, v_star=eq.v)


def evaluate_wave(spec: ExactWaveSpec, x):
    """(u, v[, w]) of the exact wave at x (scalar or array); ``k2=None``
    drops w (two species)."""
    us = float(spec.u_star)
    t = np.tanh(x)
    fields = [0.5 * (us + 1.0) + 0.5 * (us - 1.0) * t, float(spec.k1) * (1.0 + t) ** 2]
    if spec.k2 is not None:
        fields.append(float(spec.k2) * (1.0 - t * t))
    if np.isscalar(x):
        return tuple(float(f) for f in fields)
    return tuple(fields)


def _tanh_pulse(k: float, t):
    """(w, w', w'') of the pulse w = k (1 - tanh^2 x), given t = tanh(x)."""
    s = 1.0 - t * t  # d tanh / dx
    return k * s, -2.0 * k * t * s, -2.0 * k * s * (1.0 - 3.0 * t * t)


def wave_profile(spec: ExactWaveSpec, x: np.ndarray) -> WaveProfile:
    return WaveProfile(x, *evaluate_wave(spec, np.asarray(x, dtype=float)))


def residual(spec: ExactWaveSpec, grid: np.ndarray) -> tuple[float, ...]:
    """Max absolute residual of each traveling-wave equation on the grid, two
    of them for the two-species wave.

    Derivatives of the ansatz are analytic (via d tanh/dx = 1 - tanh^2), so
    the result measures only algebraic correctness plus roundoff.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("residual grid must be nonempty")
    fields = evaluate_wave(spec, grid)
    t = np.tanh(grid)
    s = 1.0 - t * t  # d tanh / dx
    b = 0.5 * (float(spec.u_star) - 1.0)
    k1 = float(spec.k1)
    derivs = [
        (b * s, -2.0 * b * t * s),
        (2.0 * k1 * (1.0 + t) * s, 2.0 * k1 * s * (1.0 - 2.0 * t - 3.0 * t * t)),
    ]
    if spec.k2 is not None:
        derivs.append(_tanh_pulse(float(spec.k2), t)[1:])
    p, th = spec.params, float(spec.theta)
    out = []
    for i, (f, (df, d2f)) in enumerate(zip(fields, derivs), start=1):
        growth = float(getattr(p, f"sigma{i}"))
        for j, g in enumerate(fields, start=1):
            growth = growth - float(getattr(p, f"c{i}{j}")) * g
        r = float(getattr(p, f"d{i}")) * d2f + th * df + f * growth
        out.append(float(np.max(np.abs(r))))
    return tuple(out)


def two_species_wave_family(
    d1: Number, d2: Number, sigma1: Number, k1: Number
) -> ExactWaveSpec:
    """The unique two-species tanh wave for the genuinely free parameters.

    Requires sigma1 > 8 d1 (equivalently u* > 0).  The wave speed and the
    second growth rate come out of the algebra; use this entry point when
    you want the family member rather than checking given values.
    """
    _require_positive(d1=d1, d2=d2, sigma1=sigma1, k1=k1)
    if not sigma1 > 8 * d1:
        raise InfeasibleError(
            f"two-species tanh wave needs sigma1 > 8*d1 (got sigma1={sigma1}, d1={d1})"
        )
    theta = sigma1 / 2 - 2 * d1
    u_star = 1 - 8 * d1 / sigma1
    sigma2 = ((8 * d2 + sigma1 - 4 * d1) * (sigma1 - 8 * d1) + 12 * d2 * sigma1) / (4 * d1)
    params = TwoSpeciesParams(
        d1=d1,
        d2=d2,
        sigma1=sigma1,
        sigma2=sigma2,
        c11=sigma1,
        c12=2 * d1 / k1,
        c21=sigma1 * (20 * d2 + sigma1 - 4 * d1) / (4 * d1),
        c22=6 * d2 / k1,
    )
    return ExactWaveSpec(params=params, k1=k1, k2=None, theta=theta, u_star=u_star, v_star=4 * k1)


def two_species_exact_wave(
    d1: Number,
    d2: Number,
    theta: Number,
    sigma1: Number,
    sigma2: Number,
    k1: Number,
) -> ExactWaveSpec:
    """Two-species tanh wave for the requested parameter set.

    The seven coefficient equations over-determine the four induced
    coefficients plus u*, so the requested theta and sigma2 must equal the
    induced values

        theta  = sigma1/2 - 2 d1
        sigma2 = [(8 d2 + sigma1 - 4 d1)(sigma1 - 8 d1) + 12 d2 sigma1]/(4 d1)

    (exactly for exact inputs, to 1e-9 relative for floats).  Raises
    :class:`InfeasibleError` otherwise, with the induced values in the
    message.
    """
    wave = two_species_wave_family(d1, d2, sigma1, k1)
    tol = 0.0 if all_exact(d1, d2, theta, sigma1, sigma2, k1) else MATCH_TOL
    for name, requested, forced in (("theta", theta, wave.theta),
                                    ("sigma2", sigma2, wave.params.sigma2)):
        if _compare(requested, forced, tol) != 0:
            raise InfeasibleError(
                f"requested {name}={requested} but the ansatz forces {name}={forced}"
            )
    return wave
