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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InfeasibleError, NonPositiveCoefficientError
from .model import ThreeSpeciesParams, TwoSpeciesParams, _require_positive, coexistence_equilibrium
from .profiles import WaveProfile
from .rational import Number, _require_finite, all_exact, parse_number, rel_close

_FREE_FIELDS = ("k1", "k2", "d1", "d2", "d3", "theta", "sigma1", "sigma2", "sigma3")

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
        _require_positive(self, ("k1", "k2", "d1", "d2", "d3", "sigma1", "sigma2", "sigma3"))
        _require_finite(theta=self.theta)
        if 2 * self.d1 + self.theta == 0:
            raise ValueError("2*d1 + theta must be nonzero")

    @classmethod
    def from_dict(cls, data: dict) -> "FreeParams":
        return cls(**{k: parse_number(data[k]) for k in _FREE_FIELDS})

    def is_exact(self) -> bool:
        return all_exact(*(getattr(self, k) for k in _FREE_FIELDS))


@dataclass(frozen=True)
class ExactWaveSpec:
    """A feasible three-species tanh wave: free parameters, the induced
    coefficient matrix, and the coexistence components."""

    free: FreeParams
    params: ThreeSpeciesParams
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
    if not rel_close(eq.v, 4 * k1, IDENTITY_TOL):
        raise ConsistencyError(
            f"induced coexistence v* = {eq.v} differs from 4*k1 = {4 * k1}"
        )
    return ExactWaveSpec(free=free, params=params, u_star=eq.u, v_star=eq.v)


def _ansatz(u_star: Number, k1: Number, k2: Number | None, x):
    """(u, v[, w]) of the tanh ansatz at x; ``k2=None`` drops w (two species)."""
    us = float(u_star)
    t = np.tanh(x)
    fields = [0.5 * (us + 1.0) + 0.5 * (us - 1.0) * t, float(k1) * (1.0 + t) ** 2]
    if k2 is not None:
        fields.append(float(k2) * (1.0 - t * t))
    if np.isscalar(x):
        return tuple(float(f) for f in fields)
    return tuple(fields)


def _ansatz_residual(
    p: TwoSpeciesParams | ThreeSpeciesParams,
    u_star: Number,
    k1: Number,
    k2: Number | None,
    theta: Number,
    grid,
) -> tuple[float, ...]:
    """Max absolute residual of each traveling-wave equation of ``p`` for the
    tanh ansatz on the grid; ``k2=None`` is the two-species wave (w = 0).

    Derivatives of the ansatz are analytic (via d tanh/dx = 1 - tanh^2), so
    the result measures only algebraic correctness plus roundoff.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("residual grid must be nonempty")
    fields = _ansatz(u_star, k1, k2, grid)
    t = np.tanh(grid)
    s = 1.0 - t * t  # d tanh / dx
    b = 0.5 * (float(u_star) - 1.0)
    k1 = float(k1)
    derivs = [
        (b * s, -2.0 * b * t * s),
        (2.0 * k1 * (1.0 + t) * s, 2.0 * k1 * s * (1.0 - 2.0 * t - 3.0 * t * t)),
    ]
    if k2 is not None:
        k2 = float(k2)
        derivs.append((-2.0 * k2 * t * s, -2.0 * k2 * s * (1.0 - 3.0 * t * t)))
    th = float(theta)
    out = []
    for i, (f, (df, d2f)) in enumerate(zip(fields, derivs), start=1):
        growth = float(getattr(p, f"sigma{i}"))
        for j, g in enumerate(fields, start=1):
            growth = growth - float(getattr(p, f"c{i}{j}")) * g
        r = float(getattr(p, f"d{i}")) * d2f + th * df + f * growth
        out.append(float(np.max(np.abs(r))))
    return tuple(out)


def evaluate_wave(spec: ExactWaveSpec, x):
    """Evaluate (u, v, w) of the exact wave at x (scalar or array)."""
    return _ansatz(spec.u_star, spec.free.k1, spec.free.k2, x)


def wave_profile(spec: ExactWaveSpec, x: np.ndarray) -> WaveProfile:
    u, v, w = evaluate_wave(spec, np.asarray(x, dtype=float))
    return WaveProfile(x=x, u=u, v=v, w=w)


def residual(spec: ExactWaveSpec, grid: np.ndarray) -> tuple[float, float, float]:
    """Max absolute residual of each traveling-wave equation on the grid."""
    free = spec.free
    return _ansatz_residual(spec.params, spec.u_star, free.k1, free.k2, free.theta, grid)


@dataclass(frozen=True)
class TwoSpeciesWave:
    """The two-species tanh wave and its induced coefficient constraints."""

    params: TwoSpeciesParams
    k1: Number
    theta: Number
    u_star: Number
    v_star: Number

    def evaluate(self, x):
        return _ansatz(self.u_star, self.k1, None, x)

    def profile(self, x: np.ndarray) -> WaveProfile:
        u, v = self.evaluate(np.asarray(x, dtype=float))
        return WaveProfile(x=x, u=u, v=v)

    def residual(self, grid: np.ndarray) -> tuple[float, float]:
        return _ansatz_residual(self.params, self.u_star, self.k1, None, self.theta, grid)


def two_species_wave_family(
    d1: Number, d2: Number, sigma1: Number, k1: Number
) -> TwoSpeciesWave:
    """The unique two-species tanh wave for the genuinely free parameters.

    Requires sigma1 > 8 d1 (equivalently u* > 0).  The wave speed and the
    second growth rate come out of the algebra; use this entry point when
    you want the family member rather than checking given values.
    """
    _require_finite(d1=d1, d2=d2, sigma1=sigma1, k1=k1)
    if d1 <= 0 or d2 <= 0 or sigma1 <= 0 or k1 <= 0:
        raise ValueError("d1, d2, sigma1, k1 must be strictly positive")
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
    return TwoSpeciesWave(
        params=params, k1=k1, theta=theta, u_star=u_star, v_star=4 * k1
    )


def two_species_exact_wave(
    d1: Number,
    d2: Number,
    theta: Number,
    sigma1: Number,
    sigma2: Number,
    k1: Number,
) -> TwoSpeciesWave:
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
    exact = all_exact(d1, d2, theta, sigma1, sigma2, k1)
    tol = 0.0 if exact else MATCH_TOL
    if not rel_close(theta, wave.theta, tol):
        raise InfeasibleError(
            f"requested theta={theta} but the ansatz forces theta={wave.theta}"
        )
    if not rel_close(sigma2, wave.params.sigma2, tol):
        raise InfeasibleError(
            f"requested sigma2={sigma2} but the ansatz forces sigma2={wave.params.sigma2}"
        )
    return wave
