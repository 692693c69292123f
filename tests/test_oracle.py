"""Finite-difference eigensolver: exact limits, convergence order, and the
cross-check against the expansion pipeline."""

import math

import numpy as np
import pytest

from pslet import (
    DotParams,
    HybridPotential,
    RadialProblem,
    StateIndex,
    StateLabel,
    TwoElectronLevel,
    ion_energy,
    solve_radial_fd,
    solve_state,
    spectrum_record,
    tables,
    wavefunction_eval,
)
from pslet.errors import DomainTooSmall
from pslet.oracle import sturm_count
from pslet.quantum_dot import cm_energy, ion_free_energy, oracle_delta, radial_potential


def oscillator_problem(g_eff, m, k):
    w = HybridPotential(a_osc=g_eff * g_eff / 4.0, c_coul=0.0)
    return RadialProblem.auto_sized(m, w, k)


class TestOscillatorLimit:
    def test_ground_state(self):
        problem = oscillator_problem(0.2, 0, 0)
        eps = solve_radial_fd(problem, 0)
        assert eps == pytest.approx(0.2, abs=1e-6)

    def test_excited_state(self):
        problem = oscillator_problem(0.2, 1, 2)
        eps = solve_radial_fd(problem, 2)
        assert eps == pytest.approx(6 * 0.2, abs=1e-6)

    def test_grid_halving_ratio(self):
        problem = oscillator_problem(0.2, 0, 0)
        exact = 0.2
        d1, o1 = problem.tridiagonal(problem.n_points)
        d2, o2 = problem.tridiagonal(2 * problem.n_points)
        from pslet.oracle import _kth_eigenpair

        e1, _ = _kth_eigenpair(d1, o1, 0, False)
        e2, _ = _kth_eigenpair(d2, o2, 0, False)
        ratio = (e1 - exact) / (e2 - exact)
        assert 3.0 <= ratio <= 5.0


class TestPhysicalProblems:
    def test_impurity_ground_state(self):
        w = HybridPotential(a_osc=0.2**2 / 4.0, c_coul=2.0)
        problem = RadialProblem.auto_sized(0, w, 0)
        eps = solve_radial_fd(problem, 0)
        assert eps == pytest.approx(0.8162, abs=1e-3)

    def test_relative_motion_convention(self):
        # eigenvalue of -u'' + [(m^2-1/4)/r^2 + G^2 r^2/16 + 1/r] u is
        # (E - m gamma)/2, so the total at G = 1, gamma = 0 is twice it
        w = HybridPotential(a_osc=1.0 / 16.0, c_coul=1.0)
        problem = RadialProblem.auto_sized(0, w, 0)
        eps = solve_radial_fd(problem, 0)
        assert 2.0 * eps == pytest.approx(2.3196, abs=1e-3)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_nodal_counts(self, k):
        w = HybridPotential(a_osc=0.2**2 / 4.0, c_coul=2.0)
        problem = RadialProblem.auto_sized(0, w, k)
        _, q, u = solve_radial_fd(problem, k, return_vector=True)
        core = np.abs(u) > 1e-6 * np.max(np.abs(u))
        signs = np.sign(u[core])
        assert int(np.sum(signs[1:] * signs[:-1] < 0)) == k


class TestSturmProperty:
    def test_count_is_monotone(self):
        problem = oscillator_problem(0.5, 0, 0)
        diag, off = problem.tridiagonal(2000)
        sigmas = np.linspace(0.0, 5.0, 21)
        counts = [sturm_count(diag, off, s) for s in sigmas]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_count_brackets_known_spectrum(self):
        # 2D oscillator at m = 0: eps_k = (2k+1) * 0.5
        problem = oscillator_problem(0.5, 0, 0)
        diag, off = problem.tridiagonal(4000)
        assert sturm_count(diag, off, 0.4) == 0
        assert sturm_count(diag, off, 0.6) == 1
        assert sturm_count(diag, off, 1.6) == 2


class TestGuards:
    def test_domain_too_small(self):
        w = HybridPotential(a_osc=0.05**2 / 4.0, c_coul=0.0)
        problem = RadialProblem(m=0, W=w, L=5.0, n_points=2000)
        with pytest.raises(DomainTooSmall):
            solve_radial_fd(problem, 0)

    @pytest.mark.parametrize("L", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_domain_rejected(self, L):
        w = HybridPotential(a_osc=1.0, c_coul=0.0)
        with pytest.raises(ValueError, match="domain length"):
            RadialProblem(m=0, W=w, L=L, n_points=2000)

    def test_point_minimum_enforced(self):
        w = HybridPotential(a_osc=1.0, c_coul=0.0)
        with pytest.raises(ValueError):
            RadialProblem(m=0, W=w, L=10.0, n_points=100)

    @pytest.mark.parametrize("k", [1.5, math.nan], ids=["fractional", "nan"])
    def test_non_integral_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            solve_radial_fd(oscillator_problem(0.5, 0, 0), k)

    def test_numpy_integer_k_solves(self):
        problem = oscillator_problem(0.5, 0, 0)
        assert solve_radial_fd(problem, np.int64(0)) == solve_radial_fd(problem, 0)


class TestCrossCheck:
    def test_ion_ground_state(self):
        st, d = StateLabel(0, 0), DotParams(0.0, 0.2)
        assert oracle_delta(st, d, ion_energy(d, st)) <= 1e-3

    def test_relative_motion_high_state(self):
        lvl, d = TwoElectronLevel(rm=StateLabel(0, 4), cm_k=0, cm_m=0), DotParams(0.0, 5.0)
        assert oracle_delta(lvl, d, spectrum_record(lvl, d).energy) <= 1e-3

    def test_oscillator_limit_agrees_tightly(self):
        # both solvers are exact without the Coulomb term
        g = 0.3
        engine = solve_state(HybridPotential(g * g / 8.0, 0.0), StateIndex.from_azimuthal(0, 1))
        w = HybridPotential(a_osc=g * g / 4.0, c_coul=0.0)
        eps_fd = solve_radial_fd(RadialProblem.auto_sized(1, w, 0), 0)
        assert 2.0 * engine.energy == pytest.approx(eps_fd, abs=1e-6)

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            radial_potential("three_electron", 0.2)


def full_scale_fd_energy(st, d, system):
    """The FD energy in Ry* from the full-scale problems written out.

    Ion: W = G^2 q^2/4 + 2/q, E = eps + m gamma.  Relative motion:
    W = G^2 q^2/16 + 1/q, E = 2 eps + m gamma.
    """
    g = d.gamma_eff
    if system == "ion":
        w, scale = HybridPotential(a_osc=g * g / 4.0, c_coul=2.0), 1.0
    else:
        w, scale = HybridPotential(a_osc=g * g / 16.0, c_coul=1.0), 2.0
    problem = RadialProblem.auto_sized(st.m, w, st.k)
    return scale * solve_radial_fd(problem, st.k) + st.m * d.gamma


class TestOracleDeltaMap:
    """oracle_delta, built from radial_potential, equals the written-out
    full-scale problems bit for bit."""

    def test_ion_state(self):
        st, d = StateLabel(1, -2), DotParams(0.3, 0.2)
        energy = ion_energy(d, st)
        assert oracle_delta(st, d, energy) == abs(energy - full_scale_fd_energy(st, d, "ion"))

    def test_two_electron_level(self):
        lvl, d = TwoElectronLevel(rm=StateLabel(1, 1), cm_k=1, cm_m=-1), DotParams(0.25, 0.2)
        energy = spectrum_record(lvl, d).energy
        e_fd = full_scale_fd_energy(lvl.rm, d, "rm") + cm_energy(d, 1, -1)
        assert oracle_delta(lvl, d, energy) == abs(energy - e_fd)

    def test_table_2_pair_row(self):
        row = {"k": "1", "m": "1", "Gamma": "0.2", "energy": "0.3170"}
        assert row in tables.load_golden(2)
        st, d = tables._row_state(row), tables._row_params(row)
        rec = tables._pair_row(st, d, oracle=True)
        total = rec.energy + cm_energy(d, 0, 0) + ion_free_energy(d, st)
        e_fd = full_scale_fd_energy(st, d, "rm") + cm_energy(d, 0, 0)
        assert rec.error is None and rec.oracle_delta == abs(total - e_fd)


# Two published cells that sit well off the eigenvalue while pslet and the
# oracle agree to about 5e-9 Ry*: the printed digits look like misprints.
# (table, golden row's state, gamma, gamma_d, published energy)
PUBLISHED_OFF_THE_EIGENVALUE = [
    (1, StateLabel(0, -1), 0.4, 0.2, 1.2282),
    (5, ("B", TwoElectronLevel(rm=StateLabel(0, -1), cm_k=0, cm_m=0)), 0.3, 0.2, 1.2599),
]


class TestPublishedDigits:
    @pytest.mark.parametrize(
        "table_id, state, gamma, gamma_d, published",
        PUBLISHED_OFF_THE_EIGENVALUE,
        ids=["table1-2p-gamma0.4", "table5-B-gamma0.3"],
    )
    def test_pslet_holds_the_oracle_not_the_printed_digits(
        self, table_id, state, gamma, gamma_d, published
    ):
        rows = [r for r in tables.load_golden(table_id)
                if tables._row_state(r) == state and float(r["gamma"]) == gamma]
        assert [float(r["energy"]) for r in rows] == [published]
        level = state[1] if table_id == 5 else state
        d = DotParams(gamma, gamma_d)
        energy = spectrum_record(level, d).energy
        assert oracle_delta(level, d, energy) <= 1e-6
        # more than one unit of the last printed digit (1e-4) off the paper
        assert abs(energy - published) > 1e-4


class TestWavefunctionAgainstEigenvector:
    def test_impurity_ground_state_shape(self):
        # expansion wavefunction vs finite-difference eigenvector, both
        # max-normalized, on the central trust region
        d = DotParams(0.0, 0.2)
        pot, state = HybridPotential(d.gamma_eff**2 / 8.0, 1.0), StateIndex.from_azimuthal(0, 0)
        sp = solve_state(pot, state).shift
        w = HybridPotential(a_osc=d.gamma_eff**2 / 4.0, c_coul=2.0)
        problem = RadialProblem.auto_sized(0, w, 0)
        _, q, u = solve_radial_fd(problem, 0, return_vector=True)
        x = np.sqrt(sp.lbar) * (q - sp.q0) / sp.q0
        center = np.abs(x) <= 2.0
        psi = np.abs(wavefunction_eval(pot, state, q[center], x_max=2.5))
        ref = np.abs(u[center])
        psi /= psi.max()
        ref /= ref.max()
        assert float(np.max(np.abs(psi - ref))) <= 5e-2
