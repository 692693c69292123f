"""Pseudoperturbative shifted angular-momentum expansion for quantum dots.

A numpy/scipy library that solves radial bound states of oscillator-plus-
Coulomb potentials by a resummed 1/lbar expansion and applies it to the
spectra of parabolic quantum dots in a perpendicular magnetic field: one
electron with a charged-ion impurity, and two interacting electrons split
into center-of-mass and relative motion.

Typical use::

    from pslet import DotParams, StateLabel, ion_energy

    d = DotParams(gamma=0.0, gamma_d=0.2)
    e = ion_energy(d, StateLabel(k=0, m=0))   # 0.8162 Ry*

The `pslet` command-line tool exposes single solves, golden-table
reproduction, figure data and field scans.
"""

from .engine import (
    DEFAULT_ORDER,
    DEFAULT_PADE,
    ORDER_CAP,
    STABILITY_TOL,
    EnergyExpansion,
    HierarchyState,
    ShiftParams,
    SolveResult,
    StaircaseResult,
    StateIndex,
    b_coefficients,
    leading_energy,
    locate_q0,
    pade_stability,
    resum,
    resummed_energy,
    shift_params,
    solve_hierarchy,
    solve_state,
    subleading_coefficient,
    v_series,
    wavefunction_eval,
)
from .errors import (
    DomainTooSmall,
    HierarchyResidual,
    NoRootInDomain,
    NonIntegralCluster,
    NonPositiveRadius,
    NotConverged,
    OmegaDomainError,
    OrderOverflow,
    PoleProximity,
    PsletError,
    SingularPadeSystem,
    ZeroPivot,
)
from .oracle import RadialProblem, cross_check, solve_radial_fd, sturm_count
from .potentials import HybridPotential, PotentialModel, effective_potential, hybrid_derivative
from .quantum_dot import (
    Crossing,
    DotParams,
    SpectrumRecord,
    StateLabel,
    TwoElectronLevel,
    cm_energy,
    ee_interaction,
    ion_energy,
    ion_free_energy,
    ion_interaction,
    ion_record,
    landau_cluster,
    level_order,
    rm_energy,
    rm_free_energy,
    scan_spectrum,
    spectrum_record,
    spin_of_m,
    total_energy,
    two_electron_record,
)
from .series import (
    PadeApproximant,
    Polynomial,
    pade_eval,
    pade_fit,
    poly_combine,
    staircase_orders,
)

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_ORDER",
    "DEFAULT_PADE",
    "ORDER_CAP",
    "STABILITY_TOL",
    "Crossing",
    "DomainTooSmall",
    "HierarchyResidual",
    "DotParams",
    "EnergyExpansion",
    "HierarchyState",
    "HybridPotential",
    "NoRootInDomain",
    "NonIntegralCluster",
    "NonPositiveRadius",
    "NotConverged",
    "OmegaDomainError",
    "OrderOverflow",
    "PadeApproximant",
    "PoleProximity",
    "Polynomial",
    "PotentialModel",
    "PsletError",
    "RadialProblem",
    "ShiftParams",
    "SingularPadeSystem",
    "SolveResult",
    "SpectrumRecord",
    "StaircaseResult",
    "StateIndex",
    "StateLabel",
    "TwoElectronLevel",
    "ZeroPivot",
    "b_coefficients",
    "cm_energy",
    "cross_check",
    "ee_interaction",
    "effective_potential",
    "hybrid_derivative",
    "ion_energy",
    "ion_free_energy",
    "ion_interaction",
    "ion_record",
    "landau_cluster",
    "leading_energy",
    "level_order",
    "locate_q0",
    "pade_eval",
    "pade_fit",
    "pade_stability",
    "poly_combine",
    "resum",
    "resummed_energy",
    "rm_energy",
    "rm_free_energy",
    "scan_spectrum",
    "shift_params",
    "solve_hierarchy",
    "solve_radial_fd",
    "solve_state",
    "spectrum_record",
    "spin_of_m",
    "staircase_orders",
    "sturm_count",
    "subleading_coefficient",
    "total_energy",
    "two_electron_record",
    "v_series",
    "wavefunction_eval",
]
