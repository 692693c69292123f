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

The root exports the dot-level API and the radial solver's entry points;
the layers beneath (origin search, hierarchy, Pade ladder) are importable
from their modules, pslet.engine, pslet.series and pslet.oracle.  The
`pslet` command-line tool exposes single solves, golden-table reproduction,
figure data and field scans.

Importing pslet (or pslet.cli) loads numpy and pslet alone.  scipy.linalg
loads on the first finite-difference solve (solve_radial_fd, oracle_delta,
--oracle), and the process pool on the first scan with jobs > 1.
"""

from . import tables
from .engine import StateIndex, solve_state, wavefunction_eval
from .errors import (
    DomainTooSmall,
    HierarchyResidual,
    NoRootInDomain,
    NonIntegralCluster,
    NonPositiveRadius,
    NotConverged,
    OmegaDomainError,
    OrderOverflow,
    OutsideSeriesTable,
    PoleProximity,
    PsletError,
    SingularPadeSystem,
    ZeroPivot,
)
from .oracle import RadialProblem, solve_radial_fd
from .potentials import HybridPotential
from .quantum_dot import (
    DotParams,
    StateLabel,
    TwoElectronLevel,
    ee_interaction,
    ion_energy,
    ion_free_energy,
    ion_interaction,
    landau_cluster,
    level_order,
    scan_spectrum,
    spectrum_record,
    total_energy,
)

__version__ = "1.0.0"

__all__ = [
    "DomainTooSmall",
    "DotParams",
    "HierarchyResidual",
    "HybridPotential",
    "NoRootInDomain",
    "NonIntegralCluster",
    "NonPositiveRadius",
    "NotConverged",
    "OmegaDomainError",
    "OrderOverflow",
    "OutsideSeriesTable",
    "PoleProximity",
    "PsletError",
    "RadialProblem",
    "SingularPadeSystem",
    "StateIndex",
    "StateLabel",
    "TwoElectronLevel",
    "ZeroPivot",
    "ee_interaction",
    "ion_energy",
    "ion_free_energy",
    "ion_interaction",
    "landau_cluster",
    "level_order",
    "scan_spectrum",
    "solve_radial_fd",
    "solve_state",
    "spectrum_record",
    "tables",
    "total_energy",
    "wavefunction_eval",
]
