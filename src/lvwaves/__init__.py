"""Closed-form bounds, exact tanh waves, and numerical stress tests for
competitive Lotka-Volterra traveling waves."""

from .model import (
    Equilibrium2,
    Regime,
    ThreeSpeciesParams,
    TwoSpeciesParams,
    classify_regime,
    coexistence_equilibrium,
    evenness_index,
)
from .nbarrier import (
    BarrierLines,
    BoundPair,
    BoundSide,
    ConicClass,
    ConicKind,
    F_value,
    bounds,
    conic_classify,
    construct_barrier,
    lower_bound,
    upper_bound,
    verify_bounds_on_profile,
)
from .profiles import ScalarProfile, WaveProfile
from .exactwaves import (
    ExactWaveSpec,
    FreeParams,
    TwoSpeciesWave,
    evaluate_wave,
    induce_coefficients,
    residual,
    two_species_exact_wave,
    two_species_wave_family,
    wave_profile,
)
from .numerics import (
    BoundaryKind,
    FisherContext,
    FisherSolution,
    GridSpec,
    Scheme,
    Side,
    SimConfig,
    Snapshots,
    check_sub_super,
    constant_candidate,
    estimate_front_speed,
    integrate_ode,
    sampled_candidate,
    simulate_pde,
    solve_fisher_bvp,
    tanh_pulse_candidate,
)
from .hypotheses import (
    SW,
    ExistenceInputs,
    SigmaPair,
    check_SW,
    existence_report,
    nonexistence_report,
    sigma_pair,
)
from .report import CheckItem, CheckReport

__version__ = "0.1.0"
