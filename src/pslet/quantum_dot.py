"""Parabolic quantum-dot spectra in a perpendicular magnetic field.

Two systems map onto the radial solver:

* one electron with a negatively charged ion impurity, whose half-scaled
  radial equation carries V(q) = (G^2/8) q^2 + 1/q with G^2 = gamma^2 +
  gamma_d^2 and energy E = 2 eps + m gamma;
* the relative motion of two interacting electrons, with V(r) =
  (G^2/32) r^2 + 1/(2 r) and E = 4 eps + m gamma, while the center of mass
  is an exact oscillator.

Energies are in effective Rydberg Ry*, the magnetic measure gamma is half
the cyclotron energy in Ry*, and gamma_d fixes the parabolic confinement.
The Zeeman term m*gamma is the only place gamma enters beyond G, so the
radial eigenvalue depends on (k, |m|, G) alone.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .engine import (
    DEFAULT_ORDER,
    DEFAULT_PADE,
    SolveResult,
    StateIndex,
    solve_state,
)
from .errors import NonIntegralCluster, PsletError
from .potentials import HybridPotential

# spectroscopic letters for |m| = 0, 1, 2, ... (j is skipped by convention)
_LETTERS = "spdfghiklmnoqrtuvwxyz"


@dataclass(frozen=True)
class DotParams:
    """Field and confinement measures of one dot configuration."""

    gamma: float
    gamma_d: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and math.isfinite(self.gamma_d)):
            raise ValueError(f"gamma and gamma_d must be finite, got {self.gamma}, {self.gamma_d}")
        if self.gamma < 0.0:
            raise ValueError("gamma must be non-negative")
        if self.gamma_d <= 0.0:
            raise ValueError("gamma_d must be positive")

    @property
    def gamma_eff(self) -> float:
        """sqrt(gamma^2 + gamma_d^2), the combined oscillator measure."""
        return math.hypot(self.gamma, self.gamma_d)


@dataclass(frozen=True)
class StateLabel:
    """Radial/azimuthal quantum numbers of one single-particle state."""

    k: int
    m: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be non-negative")

    @property
    def name(self) -> str:
        """Spectroscopic name: n-letter with a sign superscript, e.g. 4d-."""
        n = self.k + abs(self.m) + 1
        letter = _LETTERS[abs(self.m)]
        sign = "+" if self.m > 0 else ("-" if self.m < 0 else "")
        return f"{n}{letter}{sign}"


@dataclass(frozen=True)
class TwoElectronLevel:
    """Relative-motion state, center-of-mass state and total energy."""

    rm: StateLabel
    cm_k: int
    cm_m: int
    energy: float | None = None

    @property
    def s(self) -> int:
        """Spin from the antisymmetry of the relative wavefunction."""
        return spin_of_m(self.rm.m)

    @property
    def name(self) -> str:
        return f"({self.rm.k},{self.rm.m};{self.cm_k},{self.cm_m};{self.s})"


@dataclass(frozen=True)
class SpectrumRecord:
    """One solved energy with its convergence diagnostics."""

    label: str
    gamma: float
    gamma_d: float
    gamma_eff: float
    energy: float
    leading_fraction: float
    pade_spread: float
    converged: bool
    oracle_delta: float | None = None
    error: str | None = None


def spin_of_m(m: int) -> int:
    """Pauli rule for the pair, (1 - (-1)^m)/2: even m singlet, odd m triplet."""
    return abs(m) % 2


def _annotate(err: PsletError, label: str) -> PsletError:
    err.args = (f"{label}: {err.args[0]}",) + err.args[1:] if err.args else (label,)
    return err


def _radial_solve(
    d: DotParams,
    st: StateLabel,
    system: str,
    coulomb: bool = True,
    order: int = DEFAULT_ORDER,
    pade: tuple[int, int] = DEFAULT_PADE,
    precision: str = "auto",
) -> SolveResult:
    g = d.gamma_eff
    if system == "ion":
        pot = HybridPotential(a_osc=g * g / 8.0, c_coul=1.0 if coulomb else 0.0)
    elif system == "rm":
        pot = HybridPotential(a_osc=g * g / 32.0, c_coul=0.5 if coulomb else 0.0)
    else:
        raise ValueError(f"unknown system {system!r}")
    state = StateIndex.from_azimuthal(st.k, st.m)
    try:
        return solve_state(pot, state, order=order, pade=pade, precision=precision)
    except PsletError as err:
        raise _annotate(err, f"{system} state {st.name} (k={st.k}, m={st.m})") from None


def ion_energy(d: DotParams, st: StateLabel, **opts) -> float:
    """Energy of one electron with the ion impurity, E = 2 eps + m gamma."""
    return 2.0 * _radial_solve(d, st, "ion", **opts).energy + st.m * d.gamma


def ion_free_energy(d: DotParams, st: StateLabel) -> float:
    """Closed form without the impurity: (2k + |m| + 1) G + m gamma."""
    return (2 * st.k + abs(st.m) + 1) * d.gamma_eff + st.m * d.gamma


def ion_interaction(d: DotParams, st: StateLabel, **opts) -> float:
    """Energy shift caused by the impurity."""
    return ion_energy(d, st, **opts) - ion_free_energy(d, st)


def rm_energy(d: DotParams, st: StateLabel, **opts) -> float:
    """Relative-motion energy of the interacting pair, E = 4 eps + m gamma."""
    return 4.0 * _radial_solve(d, st, "rm", **opts).energy + st.m * d.gamma


def rm_free_energy(d: DotParams, st: StateLabel) -> float:
    """Relative motion without the Coulomb repulsion (same closed form)."""
    return (2 * st.k + abs(st.m) + 1) * d.gamma_eff + st.m * d.gamma


def ee_interaction(d: DotParams, st: StateLabel, **opts) -> float:
    """Electron-electron interaction energy; depends on G only (m gamma cancels)."""
    return rm_energy(d, st, **opts) - rm_free_energy(d, st)


def cm_energy(d: DotParams, K: int, M: int) -> float:
    """Center-of-mass oscillator: (2K + |M| + 1) G + M gamma, exact."""
    if K < 0:
        raise ValueError("K must be non-negative")
    return (2 * K + abs(M) + 1) * d.gamma_eff + M * d.gamma


def total_energy(d: DotParams, k: int, m: int, K: int, M: int, **opts) -> TwoElectronLevel:
    """Total two-electron level: relative motion plus center of mass."""
    rm = StateLabel(k, m)
    e = rm_energy(d, rm, **opts) + cm_energy(d, K, M)
    return TwoElectronLevel(rm=rm, cm_k=K, cm_m=M, energy=e)


def landau_cluster(kp: int, mp: int) -> tuple[int, int]:
    """The s state (k, 0) that state (kp, mp) merges into at infinite field."""
    offset = abs(mp) + mp
    if offset % 2 != 0:
        raise NonIntegralCluster(f"|m| + m = {offset} is not even for m = {mp}")
    k = kp + offset // 2
    if k < 0:
        raise NonIntegralCluster(f"clustering of ({kp}, {mp}) gives negative k = {k}")
    return k, 0


# ----------------------------------------------------------------------
# records, scans, crossings, orderings
# ----------------------------------------------------------------------

def _record_from_solve(label: str, d: DotParams, energy: float, res: SolveResult) -> SpectrumRecord:
    return SpectrumRecord(
        label=label,
        gamma=d.gamma,
        gamma_d=d.gamma_d,
        gamma_eff=d.gamma_eff,
        energy=energy,
        leading_fraction=res.leading_fraction,
        pade_spread=res.staircase.spread,
        converged=res.staircase.converged,
    )


def ion_record(d: DotParams, st: StateLabel, interaction: bool = True, **opts) -> SpectrumRecord:
    """Solve one impurity state and package it with diagnostics."""
    if not interaction:
        return SpectrumRecord(
            label=st.name,
            gamma=d.gamma,
            gamma_d=d.gamma_d,
            gamma_eff=d.gamma_eff,
            energy=ion_free_energy(d, st),
            leading_fraction=1.0,
            pade_spread=0.0,
            converged=True,
        )
    res = _radial_solve(d, st, "ion", **opts)
    return _record_from_solve(st.name, d, 2.0 * res.energy + st.m * d.gamma, res)


def two_electron_record(
    d: DotParams, lvl: TwoElectronLevel, interaction: bool = True, **opts
) -> SpectrumRecord:
    """Solve one two-electron level and package it with diagnostics."""
    cm = cm_energy(d, lvl.cm_k, lvl.cm_m)
    if not interaction:
        return SpectrumRecord(
            label=lvl.name,
            gamma=d.gamma,
            gamma_d=d.gamma_d,
            gamma_eff=d.gamma_eff,
            energy=rm_free_energy(d, lvl.rm) + cm,
            leading_fraction=1.0,
            pade_spread=0.0,
            converged=True,
        )
    res = _radial_solve(d, lvl.rm, "rm", **opts)
    return _record_from_solve(lvl.name, d, 4.0 * res.energy + lvl.rm.m * d.gamma + cm, res)


def spectrum_record(
    state, d: DotParams, interaction: bool = True, oracle: bool = False, **opts
) -> SpectrumRecord:
    """Dispatch a state to the matching solver and package the result.

    opts (order, pade, precision) go to the solver.  With oracle set (and
    the interaction on), the record also carries the finite-difference
    cross-check delta.
    """
    if isinstance(state, TwoElectronLevel):
        rec = two_electron_record(d, state, interaction=interaction, **opts)
        if oracle and interaction:
            from .oracle import cross_check

            rec = replace(rec, oracle_delta=cross_check(state.rm, d, "two_electron_rm"))
        return rec
    rec = ion_record(d, state, interaction=interaction, **opts)
    if oracle and interaction:
        from .oracle import cross_check

        rec = replace(rec, oracle_delta=cross_check(state, d, "ion"))
    return rec


@dataclass(frozen=True)
class Crossing:
    """A sign change of E_a - E_b refined to a gamma interval."""

    state_a: str
    state_b: str
    gamma_lo: float
    gamma_hi: float


def _state_label(state) -> str:
    return state.name


def scan_spectrum(
    states,
    d0: DotParams,
    gamma_grid,
    evaluator=None,
    refine_tol: float = 1e-4,
    jobs: int = 1,
):
    """Evaluate every state across a magnetic-field grid and locate crossings.

    Returns (records, crossings).  records is a flat list ordered by state
    then gamma; per-point solver failures become records with NaN energy and
    the error message attached, and the scan continues.  Every adjacent-grid
    sign change of an energy difference is refined by bisection to a gamma
    interval no wider than refine_tol.
    """
    gamma_grid = [float(g) for g in gamma_grid]
    if any(b <= a for a, b in zip(gamma_grid, gamma_grid[1:])):
        raise ValueError("gamma grid must be strictly increasing")
    evaluator = evaluator or spectrum_record

    tasks = [(state, replace(d0, gamma=g)) for state in states for g in gamma_grid]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_scan_one, [(evaluator, s, d) for s, d in tasks], chunksize=4))
    else:
        results = [_scan_one((evaluator, s, d)) for s, d in tasks]
    records = list(results)

    n_g = len(gamma_grid)
    energies = {}
    for i, state in enumerate(states):
        energies[i] = [records[i * n_g + j].energy for j in range(n_g)]

    def diff_at(ia: int, ib: int, g: float) -> float:
        d = replace(d0, gamma=g)
        try:
            return evaluator(states[ia], d).energy - evaluator(states[ib], d).energy
        except PsletError:
            return math.nan

    crossings = []
    for ia in range(len(states)):
        for ib in range(ia + 1, len(states)):
            for j in range(n_g - 1):
                fa = energies[ia][j] - energies[ib][j]
                fb = energies[ia][j + 1] - energies[ib][j + 1]
                if not (np.isfinite(fa) and np.isfinite(fb)) or fa == 0.0 or fa * fb >= 0.0:
                    continue
                lo, hi, flo = gamma_grid[j], gamma_grid[j + 1], fa
                while hi - lo > refine_tol:
                    mid = 0.5 * (lo + hi)
                    fm = diff_at(ia, ib, mid)
                    if not math.isfinite(fm):
                        break  # keep the unrefined interval
                    if fm == 0.0:
                        lo = hi = mid
                        break
                    if (fm > 0.0) == (flo > 0.0):
                        lo, flo = mid, fm
                    else:
                        hi = mid
                crossings.append(
                    Crossing(
                        state_a=_state_label(states[ia]),
                        state_b=_state_label(states[ib]),
                        gamma_lo=lo,
                        gamma_hi=hi,
                    )
                )
    return records, crossings


def _scan_one(args):
    evaluator, state, d = args
    try:
        return evaluator(state, d)
    except PsletError as err:
        return SpectrumRecord(
            label=_state_label(state),
            gamma=d.gamma,
            gamma_d=d.gamma_d,
            gamma_eff=d.gamma_eff,
            energy=math.nan,
            leading_fraction=math.nan,
            pade_spread=math.inf,
            converged=False,
            error=str(err),
        )


def level_order(d: DotParams, levels, **opts):
    """Sort tagged two-electron levels by energy at one dot configuration.

    levels is a sequence of (tag, TwoElectronLevel); returns a list of
    (tag, level-with-energy) sorted ascending, ties broken by the quantum
    numbers (k, |m|, m, K, |M|, M) in lexicographic order.
    """
    solved = []
    for tag, lvl in levels:
        filled = total_energy(d, lvl.rm.k, lvl.rm.m, lvl.cm_k, lvl.cm_m, **opts)
        solved.append((tag, filled))
    def sort_key(item):
        tag, lvl = item
        return (
            lvl.energy,
            lvl.rm.k,
            abs(lvl.rm.m),
            lvl.rm.m,
            lvl.cm_k,
            abs(lvl.cm_m),
            lvl.cm_m,
        )
    return sorted(solved, key=sort_key)
