"""Shift geometry, hierarchy, and resummation against independent oracles."""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from pslet import (
    EnergyExpansion,
    HybridPotential,
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
from pslet.errors import HierarchyResidual, NoRootInDomain, OmegaDomainError, OrderOverflow
from pslet.series import Polynomial

# ion impurity state 1s at combined confinement 0.2: the standard workhorse
ION = HybridPotential(a_osc=0.2**2 / 8.0, c_coul=1.0)
S00 = StateIndex.from_azimuthal(0, 0)

# frozen by the plain-bisection oracle below (test_matches_bisection_oracle)
ION_Q0 = 5.292647259076476


def bisection_root(p, s, lo, hi, iters=200):
    """Plain bisection on the origin condition; no Newton, no scan logic."""

    def g(q):
        vp = p.derivative(q, 1)
        om = math.sqrt(3.0 + q * p.derivative(q, 2) / vp)
        return math.sqrt(q**3 * vp) - (s.l_eff + 0.5 + (s.k + 0.5) * om)

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestStateIndex:
    def test_azimuthal_mapping(self):
        s = StateIndex.from_azimuthal(2, -3)
        assert s.k == 2
        assert s.l_eff == 2.5

    def test_centrifugal_factor_matches_m_squared(self):
        for m in range(-4, 5):
            s = StateIndex.from_azimuthal(0, m)
            assert s.centrifugal_factor == pytest.approx(m * m - 0.25)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            StateIndex(k=-1, l_eff=0.5)


class TestLocateQ0:
    @pytest.mark.parametrize("b,k,l_eff", [(1.0, 0, 0.0), (0.3, 2, 1.5), (2.0, 1, 3.5)])
    def test_oscillator_closed_form(self, b, k, l_eff):
        p = HybridPotential(a_osc=b * b / 2.0, c_coul=0.0)
        s = StateIndex(k=k, l_eff=l_eff)
        expect = math.sqrt((l_eff + 2 * k + 1.5) / b)
        assert locate_q0(p, s) == pytest.approx(expect, rel=1e-10)

    def test_matches_bisection_oracle(self):
        lo = 1.01 * (1.0 / (2 * ION.a_osc)) ** (1.0 / 3.0)
        oracle = bisection_root(ION, S00, lo, 1e3)
        got = locate_q0(ION, S00)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(ION_Q0, rel=1e-12)

    def test_residual_is_tiny(self):
        q0 = locate_q0(ION, S00)
        sp = shift_params(ION, q0, S00)
        lhs = math.sqrt(q0**3 * ION.derivative(q0, 1))
        assert abs(lhs - sp.lbar) <= 1e-9 * sp.lbar

    def test_no_root_reports_interval(self):
        p = HybridPotential(a_osc=0.5, c_coul=0.0)
        s = StateIndex(k=0, l_eff=0.0)
        with pytest.raises(NoRootInDomain) as err:
            locate_q0(p, s, q_lo=50.0, q_hi=100.0)
        assert err.value.q_lo == 50.0
        assert err.value.q_hi == 100.0

    def test_unbound_potential_has_no_frequency_domain(self):
        # pure repulsive Coulomb: V' < 0 everywhere, no expansion origin
        p = HybridPotential(a_osc=0.0, c_coul=1.0)
        with pytest.raises(OmegaDomainError):
            locate_q0(p, StateIndex(k=0, l_eff=0.5))


class TestShiftParams:
    def test_oscillator_frequency_exact(self):
        p = HybridPotential(a_osc=0.7, c_coul=0.0)
        sp = shift_params(p, 1.3, StateIndex(k=0, l_eff=0.0))
        assert sp.omega == pytest.approx(2.0, abs=1e-14)

    def test_shift_from_frequency(self):
        p = HybridPotential(a_osc=0.7, c_coul=0.0)
        sp = shift_params(p, 2.0, StateIndex(k=0, l_eff=0.0))
        assert sp.beta == pytest.approx(-1.5, abs=1e-14)

    def test_balanced_hybrid_gives_sqrt_seven(self):
        # 2 a q^3 = 2 c at q = 1 makes 3 + q V''/V' = 7
        sp = shift_params(HybridPotential(1.0, 1.0), 1.0, S00)
        assert sp.omega == pytest.approx(math.sqrt(7.0), rel=1e-14)

    def test_subleading_coefficient_vanishes(self):
        q0 = locate_q0(ION, S00)
        sp = shift_params(ION, q0, S00)
        e_m2 = leading_energy(ION, sp)
        assert abs(subleading_coefficient(sp, S00.k)) <= 1e-10 * abs(e_m2)

    def test_frozen_geometry(self):
        sp = shift_params(ION, ION_Q0, S00)
        assert sp.omega == pytest.approx(3.196334534246006, rel=1e-12)
        assert sp.beta == pytest.approx(-2.098167267123003, rel=1e-12)
        assert sp.lbar == pytest.approx(1.598167267123003, rel=1e-12)
        assert sp.q_scale == pytest.approx(sp.lbar**2, abs=0.0)


class TestBCoefficients:
    @pytest.fixture()
    def geometry(self):
        q0 = locate_q0(ION, S00)
        return shift_params(ION, q0, S00)

    def test_first_coefficient_vanishes(self, geometry):
        b = b_coefficients(ION, geometry, 6)
        assert abs(b[1]) <= 1e-9

    def test_second_fixes_frequency(self, geometry):
        b = b_coefficients(ION, geometry, 6)
        assert 2.0 * b[2] == pytest.approx(geometry.omega**2, rel=1e-10)

    def test_third_against_direct_formula(self, geometry):
        b = b_coefficients(HybridPotential(0.5, 2.0), geometry, 6)
        q0, Q = geometry.q0, geometry.q_scale
        direct = -2.0 + HybridPotential(0.5, 2.0).derivative(q0, 3) * q0**5 / (6.0 * Q)
        assert b[3] == pytest.approx(direct, rel=1e-12)

    def test_frozen_regression(self, geometry):
        b = b_coefficients(ION, geometry, 6)
        assert b[3] == pytest.approx(-4.07218481827121, rel=1e-12)

    def test_minimum_order_enforced(self, geometry):
        with pytest.raises(ValueError):
            b_coefficients(ION, geometry, 1)


class TestVSeries:
    def test_low_order_terms(self):
        b = np.zeros(8)
        b[2], b[3], b[4] = 2.0, 0.3, 0.1
        beta = -1.5
        v = v_series(b, beta, 4)
        assert v[0].coefficient(0) == pytest.approx(-1.0)     # (2 beta + 1)/2
        assert v[0].coefficient(2) == pytest.approx(2.0)
        assert v[1].coefficient(1) == pytest.approx(2.0)      # -(2 beta + 1)
        assert v[1].coefficient(3) == pytest.approx(0.3)

    def test_second_order_termwise(self):
        b = np.zeros(8)
        b[4] = 0.37
        beta = -1.2
        v = v_series(b, beta, 4)
        assert v[2].coefficient(4) == pytest.approx(0.37)
        assert v[2].coefficient(2) == pytest.approx((2 * beta + 1) * 1.5)
        assert v[2].coefficient(0) == pytest.approx(beta * (beta + 1) / 2.0)

    def test_needs_enough_b(self):
        with pytest.raises(ValueError):
            v_series(np.zeros(4), -1.5, 4)


def _solve_pieces(p, s, order=19):
    q0 = locate_q0(p, s)
    sp = shift_params(p, q0, s)
    b = b_coefficients(p, sp, 2 * order + 4)
    v = v_series(b, sp.beta, 2 * order + 2)
    e, h = solve_hierarchy(v, s.k, order, sp, leading_energy(p, sp))
    return sp, e, h


class TestHierarchy:
    def test_oscillator_is_exact(self):
        p = HybridPotential(a_osc=0.5, c_coul=0.0)
        s = StateIndex.from_azimuthal(1, 2)
        sp, e, h = _solve_pieces(p, s)
        assert float(np.max(np.abs(e.corrections))) <= 1e-9
        assert e.leading_term == pytest.approx(5.0 * math.sqrt(1.0), rel=1e-12)

    def test_order_zero_algebra_by_hand(self):
        # for k = 0: -(U0' + U0^2)/2 + v0 must be q0^2 E^(-1) = 0 identically
        sp, e, h = _solve_pieces(ION, S00)
        omega = sp.omega
        u0 = np.array([0.0, -omega])                     # U0 = -Omega x
        u0_sq = np.convolve(u0, u0)
        residual = np.zeros(3)
        residual[:2] -= 0.5 * np.array([u0[1], 0.0])     # -U0'/2
        residual[: len(u0_sq)] -= 0.5 * u0_sq
        residual[2] += omega * omega / 2.0               # v0 = B2 x^2 + (2b+1)/2
        residual[0] += (2.0 * sp.beta + 1.0) / 2.0
        assert np.max(np.abs(residual)) <= 1e-12 * omega

    def test_odd_log_derivative_rows_vanish(self):
        sp, e, h = _solve_pieces(ION, S00)
        assert np.all(h.d_table[0, :] == 0.0)
        # odd half-orders carry no odd-parity piece
        assert np.max(np.abs(h.d_table[:, 1::2])) == 0.0

    def test_prefactor_is_monic(self):
        p = HybridPotential(a_osc=0.9**2 / 8.0, c_coul=1.0)
        s = StateIndex.from_azimuthal(2, 0)
        sp, e, h = _solve_pieces(p, s)
        assert h.f_polys[0][s.k] == 1.0

    def test_ion_ground_state_energy(self):
        sp, e, h = _solve_pieces(ION, S00)
        assert 2.0 * resum(e) == pytest.approx(0.8162, abs=1e-3)

    def test_order_cap(self):
        with pytest.raises(OrderOverflow):
            solve_state(ION, S00, order=31)

    def test_insufficient_v_rejected(self):
        sp, _, _ = _solve_pieces(ION, S00, order=3)
        b = b_coefficients(ION, sp, 8)
        v = v_series(b, sp.beta, 6)
        with pytest.raises(ValueError):
            solve_hierarchy(v, 0, 19, sp, 0.1)

    def test_corrupted_v_raises_residual_error(self):
        v, sp = _corrupted_v(order=3)
        with pytest.raises(HierarchyResidual, match="half-order 1"):
            solve_hierarchy(v, S00.k, 3, sp, leading_energy(ION, sp))

    def test_residual_check_survives_optimized_mode(self):
        # under python -O every assert is stripped; the check must still fire
        script = textwrap.dedent(
            """
            import sys
            from test_engine import ION, S00, _corrupted_v
            from pslet import HierarchyResidual, leading_energy, solve_hierarchy

            assert False, "asserts are live"  # stripped under -O
            v, sp = _corrupted_v(order=3)
            try:
                solve_hierarchy(v, S00.k, 3, sp, leading_energy(ION, sp))
            except HierarchyResidual:
                sys.exit(0)
            sys.exit(1)
            """
        )
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(here), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (here, src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


def _corrupted_v(order):
    """v^(0)..v^(2 order + 2) of the ion 1s state with an even x^2 term in the odd v^(1)."""
    q0 = locate_q0(ION, S00)
    sp = shift_params(ION, q0, S00)
    v = v_series(b_coefficients(ION, sp, 2 * order + 4), sp.beta, 2 * order + 2)
    c = v[1].coeffs.copy()
    c[2] += 0.1
    v[1] = Polynomial(c, v[1].cap)
    return v, sp


class TestResummation:
    def test_zero_corrections_return_leading(self):
        e = EnergyExpansion(leading_coeff=0.25, corrections=np.zeros(20), lbar=2.0, order=19)
        assert resummed_energy(e) == pytest.approx(1.0, abs=0.0)

    def test_plain_sum_equals_pade_on_exact_series(self):
        p = HybridPotential(a_osc=0.5, c_coul=0.0)
        sp, e, h = _solve_pieces(p, StateIndex.from_azimuthal(0, 1))
        assert resum(e, 19, 0) == pytest.approx(resummed_energy(e), abs=1e-10)

    def test_needs_enough_corrections(self):
        e = EnergyExpansion(leading_coeff=0.25, corrections=np.ones(5), lbar=2.0, order=4)
        with pytest.raises(ValueError):
            resum(e, 9, 10)

    def test_stability_flags_divergent_toy(self):
        corr = np.array([math.factorial(n) * 1.5**n for n in range(20)])
        e = EnergyExpansion(leading_coeff=1.0, corrections=corr, lbar=1.0, order=19)
        stair = pade_stability(e)
        assert not stair.converged
        assert stair.spread > 1e-2

    def test_stability_on_oscillator_is_exactly_stable(self):
        p = HybridPotential(a_osc=0.5, c_coul=0.0)
        sp, e, h = _solve_pieces(p, StateIndex.from_azimuthal(0, 0))
        stair = pade_stability(e)
        assert stair.converged
        assert stair.spread <= 1e-10

    def test_ion_ground_state_ladder_is_stable(self):
        sp, e, h = _solve_pieces(ION, S00)
        stair = pade_stability(e)
        assert stair.converged
        assert stair.spread <= 5e-5


class TestSolveState:
    def test_deterministic(self):
        a = solve_state(ION, S00)
        b = solve_state(ION, S00)
        assert a.energy == b.energy
        assert np.array_equal(a.expansion.corrections, b.expansion.corrections)

    def test_double_and_extended_agree(self):
        # energies may differ by the double-precision fit noise, which is
        # exactly what the measured ladder spread bounds
        a = solve_state(ION, S00, precision="double")
        b = solve_state(ION, S00, precision="extended")
        assert abs(a.energy - b.energy) <= max(a.staircase.spread, 1e-12)

    def test_double_coefficients_track_extended_on_growing_series(self):
        # a divergent tail has no cancellation, so the double-precision
        # coefficients must track double-double almost to the last bit;
        # cancellation-dominated tails (like the 1s impurity state) are
        # covered by the ladder-spread bound above instead
        p = HybridPotential(a_osc=0.2**2 / 32.0, c_coul=0.5)
        s = StateIndex.from_azimuthal(2, 0)
        a = solve_state(p, s, precision="double")
        b = solve_state(p, s, precision="extended")
        rel = np.abs(a.expansion.corrections - b.expansion.corrections) / np.abs(
            b.expansion.corrections
        )
        assert float(np.max(rel)) < 1e-10

    def test_auto_escalates_unstable_state(self):
        # k = 3 at weak confinement: the double-precision ladder is noise-limited
        p = HybridPotential(a_osc=0.1**2 / 32.0, c_coul=0.5)
        s = StateIndex.from_azimuthal(3, 0)
        res = solve_state(p, s)
        assert res.precision == "extended"
        assert 4.0 * res.energy - 0.7 == pytest.approx(0.2565, abs=5e-4)

    def test_leading_fraction_dominates(self):
        res = solve_state(ION, S00)
        assert res.leading_fraction > 0.9

    def test_invalid_precision(self):
        with pytest.raises(ValueError):
            solve_state(ION, S00, precision="quad")

    def test_pade_needs_order(self):
        with pytest.raises(ValueError):
            solve_state(ION, S00, order=10, pade=(9, 10))


class TestWavefunction:
    def test_oscillator_leading_order_is_gaussian(self):
        # the zeroth-order exponent is exactly -Omega x^2 / 2
        p = HybridPotential(a_osc=0.5, c_coul=0.0)
        res = solve_state(p, StateIndex.from_azimuthal(0, 0))
        np.testing.assert_allclose(res.hierarchy.w_polys[0], [0.0, -res.shift.omega])
        np.testing.assert_allclose(res.hierarchy.f_polys[0], [1.0])

    @pytest.mark.parametrize("m", [0, 3])
    def test_oscillator_full_wavefunction_matches_exact(self, m):
        # the resummed exponent reproduces q**(|m|+1/2) exp(-omega q^2 / 2)
        p = HybridPotential(a_osc=0.5, c_coul=0.0)
        res = solve_state(p, StateIndex.from_azimuthal(0, m))
        sp = res.shift
        q = np.linspace(max(0.3 * sp.q0, 0.05), 1.7 * sp.q0, 101)
        x = math.sqrt(sp.lbar) * (q - sp.q0) / sp.q0
        center = np.abs(x) <= 1.0
        psi = np.abs(wavefunction_eval(res.hierarchy, sp, q))
        exact = q ** (abs(m) + 0.5) * np.exp(-q * q / 2.0)  # omega_1 = sqrt(2 a) = 1
        psi /= np.max(psi[center])
        exact /= np.max(exact[center])
        assert float(np.max(np.abs(psi - exact)[center])) < 1e-8

    def test_single_node_for_k_one(self):
        p = HybridPotential(a_osc=0.2**2 / 8.0, c_coul=1.0)
        s = StateIndex.from_azimuthal(1, 0)
        res = solve_state(p, s)
        sp = res.shift
        q = np.linspace(0.4 * sp.q0, 1.8 * sp.q0, 301)
        psi = wavefunction_eval(res.hierarchy, sp, q)
        signs = np.sign(psi[np.abs(psi) > 1e-10 * np.max(np.abs(psi))])
        assert int(np.sum(signs[1:] * signs[:-1] < 0)) == 1

    def test_trust_region_warning(self):
        res = solve_state(ION, S00)
        sp = res.shift
        with pytest.warns(UserWarning):
            wavefunction_eval(res.hierarchy, sp, np.array([sp.q0 * 20.0]))
