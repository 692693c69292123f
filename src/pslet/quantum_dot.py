"""Parabolic quantum-dot spectra in a perpendicular magnetic field.

Two systems map onto one half-scaled radial problem, V(q) = (G^2/div) q^2
+ c/q with G^2 = gamma^2 + gamma_d^2, and one energy rule, E = f eps +
m gamma; _SYSTEMS holds (div, c, f) for each, and radial_potential is the
one place that builds V from it:

* "ion": one electron with a negatively charged ion impurity, (8, 1, 2);
* "rm": the relative motion of two interacting electrons, (32, 1/2, 4),
  while the center of mass is an exact oscillator.

Energies are in effective Rydberg Ry*, the magnetic measure gamma is half
the cyclotron energy in Ry*, and gamma_d fixes the parabolic confinement.
The Zeeman term m*gamma is the only place gamma enters beyond G, so the
radial eigenvalue depends on (k, |m|, G) alone.

Every level is solved by engine.solve_state, which has one configuration,
so a radial solve depends on (system, G, k, |m|) alone and is memoised on
exactly that.  Every output row of a table, figure or scan follows one row
rule, spectrum_row: solve the state, attach its oracle delta if asked, and
turn a PsletError from either step into a failed record.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .engine import StateIndex, solve_state
from .errors import NonIntegralCluster, PsletError, check_integers
from .potentials import HybridPotential

# spectroscopic letters for |m| = 0, 1, 2, ... (j is skipped by convention)
_LETTERS = "spdfghiklmnoqrtuvwxyz"

# scan_spectrum refines each crossing to a leaf of the bisection of its grid
# cell: halvings mid = 0.5 * (lo + hi) while hi - lo > CROSSING_TOL.
CROSSING_TOL = 1e-4

# A grid cell is no crossing when the level difference at both of its ends
# is within 8 ulps of the larger level energy there: exactly degenerate
# levels that round apart differ by that noise alone.
DEGENERATE_RTOL = 8 * sys.float_info.epsilon

# rounds of predicted leaves tried before a crossing falls back to bisection
_LEAF_ROUNDS = 3

# system -> (Gamma^2 divisor, Coulomb strength, energy factor)
_SYSTEMS = {"ion": (8.0, 1.0, 2.0), "rm": (32.0, 0.5, 4.0)}


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
        check_integers(k=self.k, m=self.m)
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


@dataclass(frozen=True)
class RadialSolution:
    """What the records read of one radial solve, in engine units."""

    energy: float
    leading_fraction: float
    pade_spread: float
    converged: bool


def radial_potential(system: str, gamma_eff: float) -> HybridPotential:
    """The engine-unit potential (G^2/div) q^2 + c/q of one system at G."""
    if system not in _SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    divisor, c_coul, _ = _SYSTEMS[system]
    return HybridPotential(a_osc=gamma_eff * gamma_eff / divisor, c_coul=c_coul)


@lru_cache(maxsize=4096)
def radial_solution(
    system: str,
    gamma_eff: float,
    k: int,
    abs_m: int,
) -> RadialSolution:
    """Memoised radial solve, keyed on the radial problem (system, G, k, |m|).

    States with +m and -m, and all (gamma, gamma_d) with one gamma_eff, share
    an entry, so each distinct radial problem is solved once per process.
    An entry keeps a few floats, not the SolveResult with its coefficient
    arrays.  A solve that raises is not cached: every call raises afresh.
    """
    state = StateIndex.from_azimuthal(k, abs_m)
    res = solve_state(radial_potential(system, gamma_eff), state)
    return RadialSolution(
        energy=res.energy,
        leading_fraction=res.leading_fraction,
        pade_spread=res.staircase.spread,
        converged=res.staircase.converged,
    )


# diagnostics of a closed-form level and of a point that failed to solve
_EXACT = RadialSolution(energy=math.nan, leading_fraction=1.0, pade_spread=0.0, converged=True)
_FAILED = RadialSolution(
    energy=math.nan, leading_fraction=math.nan, pade_spread=math.inf, converged=False
)


def _level(
    d: DotParams,
    st: StateLabel,
    system: str,
    interaction: bool = True,
) -> tuple[float, RadialSolution]:
    """(E, radial solution) of one state, E = factor * eps + m gamma.

    Without the interaction E is the closed-form oscillator level and the
    solution is _EXACT.
    """
    if not interaction:
        return ion_free_energy(d, st), _EXACT
    try:
        res = radial_solution(system, d.gamma_eff, st.k, abs(st.m))
    except PsletError as err:
        raise _annotate(err, f"{system} state {st.name} (k={st.k}, m={st.m})") from None
    return _SYSTEMS[system][2] * res.energy + st.m * d.gamma, res


def ion_energy(d: DotParams, st: StateLabel) -> float:
    """Energy of one electron with the ion impurity, E = 2 eps + m gamma."""
    return _level(d, st, "ion")[0]


def _oscillator_level(d: DotParams, k: int, m: int) -> float:
    """(2k + |m| + 1) G + m gamma: one particle in the dot without interaction."""
    return (2 * k + abs(m) + 1) * d.gamma_eff + m * d.gamma


def ion_free_energy(d: DotParams, st: StateLabel) -> float:
    """Closed form without the impurity: (2k + |m| + 1) G + m gamma.

    The relative motion without the Coulomb repulsion has the same level.
    """
    return _oscillator_level(d, st.k, st.m)


def ion_interaction(d: DotParams, st: StateLabel) -> float:
    """Energy shift caused by the impurity."""
    return ion_energy(d, st) - ion_free_energy(d, st)


def rm_energy(d: DotParams, st: StateLabel) -> float:
    """Relative-motion energy of the interacting pair, E = 4 eps + m gamma."""
    return _level(d, st, "rm")[0]


def ee_interaction(d: DotParams, st: StateLabel) -> float:
    """Electron-electron interaction energy; depends on G only (m gamma cancels)."""
    return rm_energy(d, st) - ion_free_energy(d, st)


def cm_energy(d: DotParams, K: int, M: int) -> float:
    """Center-of-mass oscillator: (2K + |M| + 1) G + M gamma, exact."""
    check_integers(K=K, M=M)
    if K < 0:
        raise ValueError("K must be non-negative")
    return _oscillator_level(d, K, M)


def total_energy(d: DotParams, k: int, m: int, K: int, M: int) -> TwoElectronLevel:
    """Total two-electron level: relative motion plus center of mass."""
    rm = StateLabel(k, m)
    e = rm_energy(d, rm) + cm_energy(d, K, M)
    return TwoElectronLevel(rm=rm, cm_k=K, cm_m=M, energy=e)


def landau_cluster(kp: int, mp: int) -> tuple[int, int]:
    """The s state (k, 0) that state (kp, mp) merges into at infinite field."""
    check_integers(kp=kp, mp=mp)
    k = kp + max(mp, 0)
    if k < 0:
        raise NonIntegralCluster(f"clustering of ({kp}, {mp}) gives negative k = {k}")
    return k, 0


# ----------------------------------------------------------------------
# records, scans, crossings, orderings
# ----------------------------------------------------------------------

def _record(
    label: str, d: DotParams, energy: float, res: RadialSolution, error: str | None = None
) -> SpectrumRecord:
    """Solved, closed-form (_EXACT) and failed (_FAILED) records alike."""
    return SpectrumRecord(
        label=label,
        gamma=d.gamma,
        gamma_d=d.gamma_d,
        gamma_eff=d.gamma_eff,
        energy=energy,
        leading_fraction=res.leading_fraction,
        pade_spread=res.pade_spread,
        converged=res.converged,
        error=error,
    )


def ion_record(d: DotParams, st: StateLabel, interaction: bool = True) -> SpectrumRecord:
    """Solve one impurity state and package it with diagnostics."""
    energy, res = _level(d, st, "ion", interaction)
    return _record(st.name, d, energy, res)


def two_electron_record(
    d: DotParams, lvl: TwoElectronLevel, interaction: bool = True
) -> SpectrumRecord:
    """Solve one two-electron level and package it with diagnostics."""
    cm = cm_energy(d, lvl.cm_k, lvl.cm_m)
    energy, res = _level(d, lvl.rm, "rm", interaction)
    return _record(lvl.name, d, energy + cm, res)


def spectrum_record(state, d: DotParams, interaction: bool = True) -> SpectrumRecord:
    """Dispatch a state to the matching solver and package the result.

    The record carries no oracle delta; scan_spectrum(oracle=True) attaches
    one to grid records.
    """
    if isinstance(state, TwoElectronLevel):
        return two_electron_record(d, state, interaction=interaction)
    return ion_record(d, state, interaction=interaction)


def oracle_delta(state, d: DotParams, energy: float) -> float:
    """|energy - E_FD| for the energy a record of this state reports.

    An impurity state reports its ion energy, a two-electron level its
    relative-motion energy plus the exact center-of-mass energy.  The
    oracle's full-scale problem is twice the engine's, with eigenvalue
    2 eps, so E_FD = (f/2) E_full + m gamma; the powers of two are exact.
    """
    # read at call time, so that a wrapper on oracle.solve_radial_fd sees the call
    from .oracle import RadialProblem, solve_radial_fd

    two_electron = isinstance(state, TwoElectronLevel)
    system, st = ("rm", state.rm) if two_electron else ("ion", state)
    pot = radial_potential(system, d.gamma_eff)
    full = HybridPotential(a_osc=2.0 * pot.a_osc, c_coul=2.0 * pot.c_coul)
    e_full = solve_radial_fd(RadialProblem.auto_sized(st.m, full, st.k), st.k)
    e_fd = _SYSTEMS[system][2] / 2.0 * e_full + st.m * d.gamma
    if two_electron:
        e_fd += cm_energy(d, state.cm_k, state.cm_m)
    return abs(energy - e_fd)


def spectrum_row(
    state, d: DotParams, evaluator=spectrum_record, oracle: bool = False,
    delta=oracle_delta, label: str | None = None,
) -> SpectrumRecord:
    """The row rule of every table, figure and scan.

    evaluator(state, d) solves the row; with oracle set, delta(state, d,
    energy) is attached as its oracle delta.  A PsletError from either step
    makes the row a failed record: NaN energy, the error message attached.
    The row is labelled label, by default the state's name.
    """
    label = state.name if label is None else label
    try:
        rec = evaluator(state, d)
        return replace(
            rec, label=label, oracle_delta=delta(state, d, rec.energy) if oracle else None
        )
    except PsletError as err:
        return _record(label, d, math.nan, _FAILED, str(err))


@dataclass(frozen=True)
class Crossing:
    """A sign change of E_a - E_b refined to a gamma interval."""

    state_a: str
    state_b: str
    gamma_lo: float
    gamma_hi: float


def _bisect(f, lo: float, hi: float, flo: float) -> tuple[float, float]:
    """Bisect the sign change of f on [lo, hi] down to width CROSSING_TOL.

    flo = f(lo).  A non-finite f(mid) keeps the interval reached so far, and
    an exact zero returns (mid, mid).
    """
    while hi - lo > CROSSING_TOL:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if not math.isfinite(fm):
            break  # keep the unrefined interval
        if fm == 0.0:
            return mid, mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return lo, hi


def _leaf(lo: float, hi: float, root_left_of) -> tuple[float, float]:
    """The leaf of _bisect's tree on [lo, hi] that root_left_of(mid) steers to."""
    while hi - lo > CROSSING_TOL:
        mid = 0.5 * (lo + hi)
        if root_left_of(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _interpolant(xs, ys):
    """The polynomial through the points (xs, ys), in Lagrange form."""

    def p(x: float) -> float:
        total = 0.0
        for i, (xi, yi) in enumerate(zip(xs, ys)):
            for m, xm in enumerate(xs):
                if m != i:
                    yi *= (x - xm) / (xi - xm)
            total += yi
        return total

    return p


def _crossing_leaf(f, grid, diffs, j: int) -> tuple[float, float]:
    """_bisect(f, grid[j], grid[j + 1], diffs[j]) from a predicted leaf.

    diffs holds f at every grid point (NaN where a point failed), with a
    sign change in cell j.  The first prediction is the root of the
    polynomial through the finite diffs at points j - 1 .. j + 2: walking
    bisection's tree by its sign reaches the leaf that holds its root, with
    no call of f.  f at the leaf's two ends (a grid end reuses its diff)
    either straddles the sign change, and the leaf is the answer, or
    narrows the bracket, and the next prediction is the regula falsi root
    on it.  After _LEAF_ROUNDS predictions, or at once on a non-finite or
    zero f, the plain bisection runs; each value of f is computed once.

    The bits are bisection's: with one sign change in the cell, the sign of
    f at each midpoint sends bisection towards the root, so it ends in the
    leaf that straddles the sign change, and the walk computes that leaf's
    ends with bisection's own arithmetic.  The one exception is a midpoint
    that bisection visits and the search skips, should f fail there: it
    would have stopped bisection short.
    """
    lo, hi = grid[j], grid[j + 1]
    known = {lo: diffs[j], hi: diffs[j + 1]}
    blo, bhi = lo, hi  # the bracket, nodes of the tree on [lo, hi]

    def cached(g: float) -> float:
        if g not in known:
            known[g] = f(g)
        return known[g]

    positive_left = diffs[j] > 0.0
    near = [i for i in range(j - 1, j + 3) if 0 <= i < len(grid) and math.isfinite(diffs[i])]
    model = _interpolant([grid[i] for i in near], [diffs[i] for i in near])
    for _ in range(_LEAF_ROUNDS):
        a, b = _leaf(lo, hi, lambda g: (model(g) > 0.0) != positive_left)
        fa, fb = cached(a), cached(b)
        if not (math.isfinite(fa) and math.isfinite(fb)) or fa == 0.0 or fb == 0.0:
            break
        left_a, left_b = (fa > 0.0) == positive_left, (fb > 0.0) == positive_left
        if left_a != left_b:
            if left_a:
                return a, b
            break  # the sign changes back inside the leaf
        if left_a:
            blo = b
        else:
            bhi = a
        model = _interpolant([blo, bhi], [known[blo], known[bhi]])
    return _bisect(cached, lo, hi, diffs[j])


def scan_spectrum(
    states,
    d0: DotParams,
    gamma_grid,
    evaluator=None,
    jobs: int = 1,
    oracle: bool = False,
):
    """Evaluate every state across a magnetic-field grid and locate crossings.

    Returns (records, crossings).  records is a flat list ordered by state
    then gamma, one spectrum_row per point, so a point that fails to solve
    becomes a failed record and the scan continues.  Every adjacent-grid
    sign change of an energy difference is refined to the gamma interval,
    no wider than CROSSING_TOL, that bisection of the grid cell ends in.
    _crossing_leaf finds that leaf of the bisection from a predicted root
    and checks it with the level difference at its two ends, which takes
    about two evaluations where bisection takes seven halvings of a 0.01
    cell.  A sign change between levels that agree to DEGENERATE_RTOL at
    both ends of the cell is rounding noise and no crossing.

    The crossing search calls the evaluator alone, so the evaluator should
    not run the oracle.  With oracle set, each grid record instead gets its
    finite-difference cross-check delta right after it is solved; a failing
    cross-check fails its grid point.
    """
    gamma_grid = [float(g) for g in gamma_grid]
    if any(b <= a for a, b in zip(gamma_grid, gamma_grid[1:])):
        raise ValueError("gamma grid must be strictly increasing")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    evaluator = evaluator or spectrum_record

    row = partial(spectrum_row, evaluator=evaluator, oracle=oracle)
    row_states = [state for state in states for _ in gamma_grid]
    row_params = [replace(d0, gamma=g) for _ in states for g in gamma_grid]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(row, row_states, row_params, chunksize=4))
    else:
        records = list(map(row, row_states, row_params))

    n_g = len(gamma_grid)
    energies = [[records[i * n_g + j].energy for j in range(n_g)] for i in range(len(states))]

    def diff_at(ia: int, ib: int, g: float) -> float:
        d = replace(d0, gamma=g)
        try:
            return evaluator(states[ia], d).energy - evaluator(states[ib], d).energy
        except PsletError:
            return math.nan

    crossings = []
    for ia in range(len(states)):
        for ib in range(ia + 1, len(states)):
            ea, eb = energies[ia], energies[ib]
            diffs = [a - b for a, b in zip(ea, eb)]
            for j in range(n_g - 1):
                fa, fb = diffs[j], diffs[j + 1]
                if not (np.isfinite(fa) and np.isfinite(fb)) or fa == 0.0 or fa * fb >= 0.0:
                    continue
                if all(
                    abs(diffs[i]) <= DEGENERATE_RTOL * max(abs(ea[i]), abs(eb[i]))
                    for i in (j, j + 1)
                ):
                    continue  # rounding noise between degenerate levels
                lo, hi = _crossing_leaf(partial(diff_at, ia, ib), gamma_grid, diffs, j)
                crossings.append(
                    Crossing(
                        state_a=states[ia].name,
                        state_b=states[ib].name,
                        gamma_lo=lo,
                        gamma_hi=hi,
                    )
                )
    return records, crossings


def level_order(d: DotParams, levels):
    """Sort tagged two-electron levels by energy at one dot configuration.

    levels is a sequence of (tag, TwoElectronLevel); returns a list of
    (tag, level-with-energy) sorted ascending, ties broken by the quantum
    numbers (k, |m|, m, K, |M|, M) in lexicographic order.
    """
    solved = []
    for tag, lvl in levels:
        filled = total_energy(d, lvl.rm.k, lvl.rm.m, lvl.cm_k, lvl.cm_m)
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
