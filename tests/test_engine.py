"""Shift geometry, hierarchy, and resummation against independent oracles."""

import dataclasses
import inspect
import math
import os
import subprocess
import sys
import textwrap

import mpmath
import numpy as np
import pytest

from pslet import _dd, engine
from pslet.engine import (
    EnergyExpansion,
    StateIndex,
    b_coefficients,
    leading_energy,
    locate_q0,
    pade_stability,
    resum,
    shift_params,
    solve_hierarchy,
    solve_state,
    subleading_coefficient,
    v_series,
    wavefunction_eval,
)
from pslet.errors import HierarchyResidual, NoRootInDomain, OmegaDomainError, OrderOverflow
from pslet.potentials import HybridPotential
from pslet.quantum_dot import radial_potential

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


def origin_states(n: int):
    """A seeded sweep: ion, relative motion and c = 0; Gamma 1e-4-1e3; k 0-11; |m| 0-11."""
    rng = np.random.default_rng(16)
    for _ in range(n):
        system = ["ion", "rm", None][int(rng.integers(3))]
        gamma = 1e-4 * 1e7 ** float(rng.random())
        # the pure oscillator is no system of radial_potential's
        pot = HybridPotential(gamma * gamma / 8.0, 0.0) if system is None else \
            radial_potential(system, gamma)
        yield pot, StateIndex.from_azimuthal(int(rng.integers(12)), int(rng.integers(12)))


def scalar_scan_brackets(p, s) -> list:
    """Every rising bracket of _root_function, run point by point over locate_q0's grid."""
    osc_len = p.a_osc**-0.25
    if p.c_coul > 0.0:
        q_lo = 1.01 * (p.c_coul / (2.0 * p.a_osc)) ** (1.0 / 3.0)
    else:
        q_lo = 1e-8 * osc_len
    grid = np.geomspace(q_lo, 1e3 * osc_len, engine._N_SCAN)
    vals = [engine._root_function(p, q, s) for q in grid]
    return [(grid[i], grid[i + 1]) for i in range(len(grid) - 1) if vals[i] < 0.0 <= vals[i + 1]]


class TestStateIndex:
    def test_azimuthal_mapping(self):
        s = StateIndex.from_azimuthal(2, -3)
        assert s.k == 2
        assert s.l_eff == 2.5

    def test_centrifugal_factor_matches_m_squared(self):
        for m in range(-4, 5):
            s = StateIndex.from_azimuthal(0, m)
            assert s.l_eff * (s.l_eff + 1.0) == pytest.approx(m * m - 0.25)

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

    def test_locate_q0_is_the_scalar_scans_root(self):
        # g rises wherever V' > 0, so the full scalar scan has exactly one
        # rising bracket, and the index bisection must return its polished root
        for p, s in origin_states(300):
            brackets = scalar_scan_brackets(p, s)
            assert len(brackets) == 1, (p, s)
            assert locate_q0(p, s).hex() == engine._polish_root(p, s, *brackets[0]).hex()

    def test_no_root_reports_interval(self):
        # the origin of l_eff = 1e7 lies near 3e3, past the scan's 1e3 oscillator lengths
        p = HybridPotential(a_osc=0.5, c_coul=0.0)
        with pytest.raises(NoRootInDomain, match=r"in \[1\.189e-08, 1\.189e\+03\]"):
            locate_q0(p, StateIndex(k=0, l_eff=1e7))

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
        assert v[0][0] == pytest.approx(-1.0)     # (2 beta + 1)/2
        assert v[0][2] == pytest.approx(2.0)
        assert v[1][1] == pytest.approx(2.0)      # -(2 beta + 1)
        assert v[1][3] == pytest.approx(0.3)

    def test_second_order_termwise(self):
        b = np.zeros(8)
        b[4] = 0.37
        beta = -1.2
        v = v_series(b, beta, 4)
        assert v[2][4] == pytest.approx(0.37)
        assert v[2][2] == pytest.approx((2 * beta + 1) * 1.5)
        assert v[2][0] == pytest.approx(beta * (beta + 1) / 2.0)

    def test_needs_enough_b(self):
        with pytest.raises(ValueError):
            v_series(np.zeros(4), -1.5, 4)


def _solve_pieces(p, s, order=19):
    q0 = locate_q0(p, s)
    sp = shift_params(p, q0, s)
    b = b_coefficients(p, sp, 2 * order + 4)
    v = v_series(b, sp.beta, 2 * order + 2)
    e, _, _ = solve_hierarchy(v, s.k, order, sp, leading_energy(p, sp))
    return sp, e


class TestHierarchy:
    def test_oscillator_is_exact(self):
        p = HybridPotential(a_osc=0.5, c_coul=0.0)
        s = StateIndex.from_azimuthal(1, 2)
        sp, e = _solve_pieces(p, s)
        assert float(np.max(np.abs(e.corrections))) <= 1e-9
        assert e.leading_term == pytest.approx(5.0 * math.sqrt(1.0), rel=1e-12)

    def test_order_zero_algebra_by_hand(self):
        # for k = 0: -(U0' + U0^2)/2 + v0 must be q0^2 E^(-1) = 0 identically
        sp, e = _solve_pieces(ION, S00)
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
        _, W, _ = engine._solve(ION, S00, "double")
        for j, w in enumerate(W):
            # odd half-orders carry no odd-parity piece, even ones no even-parity piece
            assert np.all(w[j % 2 :: 2] == 0.0), j
            assert np.any(w[1 - j % 2 :: 2] != 0.0), j

    def test_prefactor_is_monic(self):
        p = HybridPotential(a_osc=0.9**2 / 8.0, c_coul=1.0)
        s = StateIndex.from_azimuthal(2, 0)
        _, _, F = engine._solve(p, s, "double")
        assert F[0][s.k] == 1.0

    def test_ion_ground_state_energy(self):
        sp, e = _solve_pieces(ION, S00)
        assert 2.0 * resum(e) == pytest.approx(0.8162, abs=1e-3)

    def test_order_cap(self):
        sp, _ = _solve_pieces(ION, S00, order=3)
        v = v_series(b_coefficients(ION, sp, 2 * 31 + 4), sp.beta, 2 * 31 + 2)
        with pytest.raises(OrderOverflow):
            solve_hierarchy(v, S00.k, 31, sp, leading_energy(ION, sp))

    def test_insufficient_v_rejected(self):
        sp, _ = _solve_pieces(ION, S00, order=3)
        b = b_coefficients(ION, sp, 8)
        v = v_series(b, sp.beta, 6)
        with pytest.raises(ValueError):
            solve_hierarchy(v, 0, 19, sp, 0.1)

    def test_corrupted_v_raises_residual_error(self):
        v, sp = _corrupted_v(order=3)
        with pytest.raises(HierarchyResidual, match="half-order 1"):
            solve_hierarchy(v, S00.k, 3, sp, leading_energy(ION, sp))

    def test_overflowed_v_raises_residual_error(self):
        # an overflowed coefficient leaves R and the scale both infinite, so
        # the ratio test alone (inf <= tol * inf) would let it through; a
        # NaN residual must fail it too
        for delta in (math.inf, math.nan):
            v, sp = _corrupted_v(order=3, delta=delta)
            with pytest.raises(HierarchyResidual, match=f"residual {delta} at half-order 1"):
                solve_hierarchy(v, S00.k, 3, sp, leading_energy(ION, sp))

    def test_residual_check_survives_optimized_mode(self):
        # under python -O every assert is stripped; the check must still fire
        script = textwrap.dedent(
            """
            import sys
            from test_engine import ION, S00, _corrupted_v
            from pslet.engine import leading_energy, solve_hierarchy
            from pslet.errors import HierarchyResidual

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


def _corrupted_v(order, delta=0.1):
    """v^(0)..v^(2 order + 2) of the ion 1s state with an even x^2 term in the odd v^(1)."""
    q0 = locate_q0(ION, S00)
    sp = shift_params(ION, q0, S00)
    v = v_series(b_coefficients(ION, sp, 2 * order + 4), sp.beta, 2 * order + 2)
    v[1] = v[1].copy()
    v[1][2] += delta
    return v, sp


class TestResummation:
    def test_zero_corrections_return_leading(self):
        e = EnergyExpansion(leading_coeff=0.25, corrections=np.zeros(20), lbar=2.0)
        assert pade_stability(e).member(9, 10) == pytest.approx(1.0, abs=0.0)

    def test_plain_sum_equals_pade_on_exact_series(self):
        p = HybridPotential(a_osc=0.5, c_coul=0.0)
        sp, e = _solve_pieces(p, StateIndex.from_azimuthal(0, 1))
        assert resum(e, 19, 0) == pytest.approx(pade_stability(e).member(9, 10), abs=1e-10)

    def test_needs_enough_corrections(self):
        e = EnergyExpansion(leading_coeff=0.25, corrections=np.ones(5), lbar=2.0)
        with pytest.raises(ValueError):
            resum(e, 9, 10)

    def test_stability_flags_divergent_toy(self):
        corr = np.array([math.factorial(n) * 1.5**n for n in range(20)])
        e = EnergyExpansion(leading_coeff=1.0, corrections=corr, lbar=1.0)
        stair = pade_stability(e)
        assert not stair.converged
        assert stair.spread > 1e-2

    def test_stability_on_oscillator_is_exactly_stable(self):
        p = HybridPotential(a_osc=0.5, c_coul=0.0)
        sp, e = _solve_pieces(p, StateIndex.from_azimuthal(0, 0))
        stair = pade_stability(e)
        assert stair.converged
        assert stair.spread <= 1e-10

    def test_ion_ground_state_ladder_is_stable(self):
        sp, e = _solve_pieces(ION, S00)
        stair = pade_stability(e)
        assert stair.converged
        assert stair.spread <= 5e-5


def _path(path, p, s):
    """The solve of one arithmetic path, "double" or "extended", whatever solve_state takes."""
    return engine._solve_path(path, p, s, locate_q0(p, s))


class TestSolveState:
    def test_takes_a_state_and_nothing_else(self):
        assert list(inspect.signature(solve_state).parameters) == ["p", "s"]
        assert list(inspect.signature(locate_q0).parameters) == ["p", "s"]

    def test_returns_the_eigenvalue_and_its_certificate(self):
        # the hierarchy tables are not part of a solve; wavefunction_eval
        # gets them from the double path of engine._solve
        names = [f.name for f in dataclasses.fields(engine.SolveResult)]
        assert names == ["energy", "expansion", "shift", "staircase", "precision"]

    def test_deterministic(self):
        a = solve_state(ION, S00)
        b = solve_state(ION, S00)
        assert a.energy == b.energy
        assert np.array_equal(a.expansion.corrections, b.expansion.corrections)

    def test_double_and_extended_agree(self):
        # energies may differ by the double-precision fit noise, which is
        # exactly what the measured ladder spread bounds
        a = _path("double", ION, S00)
        b = _path("extended", ION, S00)
        assert abs(a.energy - b.energy) <= max(a.staircase.spread, 1e-12)

    def test_double_coefficients_track_extended_on_growing_series(self):
        # a divergent tail has no cancellation, so the double-precision
        # coefficients must track double-double almost to the last bit;
        # cancellation-dominated tails (like the 1s impurity state) are
        # covered by the ladder-spread bound above instead
        p = HybridPotential(a_osc=0.2**2 / 32.0, c_coul=0.5)
        s = StateIndex.from_azimuthal(2, 0)
        a = _path("double", p, s)
        b = _path("extended", p, s)
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

    def test_double_solve_fits_each_ladder_member_once(self, monkeypatch):
        fits = []
        real = engine.pade_fit

        def counting(c, M, N):
            fits.append((M, N))
            return real(c, M, N)

        monkeypatch.setattr(engine, "pade_fit", counting)
        res = _path("double", ION, S00)
        # the solve fits the five top members its spread reads, and the
        # resummed [9/10] value is the ladder's own, not a second fit;
        # reading the ladder fits the other twelve, and a second read none
        assert fits == [(9, 10), (9, 9), (8, 9), (8, 8), (7, 8)]
        assert res.energy == res.staircase.member(9, 10)
        assert None not in res.staircase.values
        assert len(fits) == 17
        assert sorted(fits) == sorted(set(fits))
        assert len(res.staircase.values) == 17
        assert len(fits) == 17

    def test_extended_solve_calls_dd_pade_fit_once(self, monkeypatch):
        # one qd pass builds every member; reading the whole ladder fits
        # nothing more, and the [9/10] value is the ladder's own
        calls = []
        real = _dd.dd_pade_fit

        def counting(c):
            calls.append(len(c))
            return real(c)

        monkeypatch.setattr(_dd, "dd_pade_fit", counting)
        res = _path("extended", ION, S00)
        assert calls == [engine.DEFAULT_ORDER + 1]
        assert res.energy == res.staircase.member(9, 10)
        assert None not in res.staircase.values
        assert len(res.staircase.values) == 17
        assert calls == [engine.DEFAULT_ORDER + 1]

    @staticmethod
    def _count_double_fits(monkeypatch):
        fits = []
        real = engine.pade_fit
        monkeypatch.setattr(
            engine, "pade_fit", lambda c, M, N: fits.append((M, N)) or real(c, M, N)
        )
        return fits

    def test_failed_double_member_falls_to_the_next_ladder_member(self, monkeypatch):
        # the [9/10] fit fails here and the solve stays in double; the energy
        # is the ladder's [9/9] value, read off the ladder, not fitted a
        # second time, and the walk down fits no member below the spread's
        fits = self._count_double_fits(monkeypatch)
        p = HybridPotential(a_osc=0.05**2 / 8.0, c_coul=1.0)
        res = solve_state(p, StateIndex.from_azimuthal(1, 0))
        assert res.precision == "double"
        assert fits == [(9, 10), (9, 9), (8, 9), (8, 8), (7, 8), (7, 7)]
        assert len(fits) == len(set(fits))
        assert res.staircase.member(9, 10) is None
        assert res.energy == res.staircase.member(9, 9)

    def test_failed_dd_member_falls_to_the_dd_ladder(self, monkeypatch):
        # a dd solve whose own [9/10] fit fails takes the dd [9/9] member;
        # it never refits the rounded corrections in double precision
        fits = self._count_double_fits(monkeypatch)
        p = HybridPotential(a_osc=0.0881**2 / 32.0, c_coul=0.5)
        res = _path("extended", p, StateIndex.from_azimuthal(3, 0))
        assert res.staircase.member(9, 10) is None
        assert res.energy == res.staircase.member(9, 9)
        assert fits == []

    @pytest.mark.parametrize(
        "a_osc,c_coul,k,m",
        [
            (0.2**2 / 8.0, 1.0, 0, 0),
            (0.05**2 / 8.0, 1.0, 1, 0),  # double [9/10] fails
            (0.0881**2 / 32.0, 0.5, 3, 0),  # dd [9/10] fails
            (0.1**2 / 32.0, 0.5, 3, 0),  # escalates
            (2.0**2 / 32.0, 0.5, 0, 1),
        ],
        ids=["ion-1s", "ion-2s-G0.05", "rm-4s-G0.0881", "rm-4s-G0.1", "rm-2p-G2"],
    )
    def test_energy_is_the_top_of_the_spread_window(self, a_osc, c_coul, k, m):
        # the certificate speaks for the energy: the energy is the top member
        # of the last five the spread is taken over, on either path
        p = HybridPotential(a_osc=a_osc, c_coul=c_coul)
        s = StateIndex.from_azimuthal(k, m)
        for res in (solve_state(p, s), _path("double", p, s), _path("extended", p, s)):
            window = [v for v in res.staircase.values if v is not None][-5:]
            assert res.energy == window[-1]
            assert res.staircase.spread == max(window) - min(window)

    def test_dd_origin_polish_must_converge(self, monkeypatch):
        # a seed frequency 1e-3 off in Omega^2 leaves the third dd Newton
        # step on the frequency equation near 1e-14 (omega - 2) instead of at
        # dd rounding level
        q0 = locate_q0(ION, S00)
        real = engine._omega_sq
        monkeypatch.setattr(engine, "_omega_sq", lambda p, q: real(p, q) + 1e-3)
        with pytest.raises(NoRootInDomain, match="did not converge"):
            engine._dd_shift(ION, S00, q0)


class TestDDOrigin:
    @pytest.mark.parametrize("a_osc", [0.005, 0.3, 2.0])
    @pytest.mark.parametrize("k,m", [(0, 0), (2, 1), (1, 3)])
    def test_extended_path_gives_the_oscillator_levels(self, a_osc, k, m):
        # c = 0: omega = 2 and q0^4 = lbar^2/(2a), and the energy is the
        # level (2k + |m| + 1) sqrt(2a) rounded once to double
        p = HybridPotential(a_osc=a_osc, c_coul=0.0)
        res = _path("extended", p, StateIndex.from_azimuthal(k, m))
        with mpmath.workdps(50):
            assert res.energy == float((2 * k + abs(m) + 1) * mpmath.sqrt(2 * mpmath.mpf(a_osc)))

    def test_matches_an_mpmath_root_of_the_frequency_equation(self):
        # lbar^6 (omega^2 - 4)^4 = (27 c^4/2a)(omega^2 - 1) at 50 digits, and
        # its q0 = lbar^2 (omega^2 - 4)/(3c) meets the origin condition
        # q^3 V' = 2a q^4 - c q = lbar^2
        rng = np.random.default_rng(33)
        with mpmath.workdps(50):
            for _ in range(60):
                system = ["ion", "rm"][int(rng.integers(2))]
                gamma = 1e-4 * 1e7 ** float(rng.random())
                p = radial_potential(system, gamma)
                s = StateIndex.from_azimuthal(int(rng.integers(6)), int(rng.integers(12)))
                q, omega, *_ = engine._dd_shift(p, s, locate_q0(p, s))
                a, c = mpmath.mpf(p.a_osc), mpmath.mpf(p.c_coul)

                def lbar(w):
                    return s.l_eff + 0.5 + (s.k + 0.5) * w

                w = mpmath.findroot(
                    lambda w: lbar(w) ** 6 * (w * w - 4) ** 4 - 27 * c**4 / (2 * a) * (w * w - 1),
                    float(omega),
                )
                q_mp = lbar(w) ** 2 * (w * w - 4) / (3 * c)
                assert abs(2 * a * q_mp**4 - c * q_mp - lbar(w) ** 2) <= 1e-40 * lbar(w) ** 2
                for got, exact in ((omega, w), (q, q_mp)):
                    assert abs(mpmath.mpf(got.hi) + got.lo - exact) <= 1e-28 * exact, (p, s)


@pytest.mark.parametrize(
    "build",
    [
        lambda: HybridPotential(math.nan, 1.0),
        lambda: HybridPotential(math.inf, 1.0),
        lambda: HybridPotential(1.0, math.nan),
        lambda: HybridPotential(1.0, math.inf),
        lambda: StateIndex(0, l_eff=math.inf),
        lambda: StateIndex(0, l_eff=math.nan),
        lambda: wavefunction_eval(ION, S00, [5.0, math.nan]),
        lambda: wavefunction_eval(ION, S00, [5.0, math.inf]),
        lambda: wavefunction_eval(ION, S00, [5.0, -math.inf]),
        lambda: wavefunction_eval(ION, S00, [5.0], x_max=math.nan),
        lambda: wavefunction_eval(ION, S00, [5.0], x_max=math.inf),
        lambda: wavefunction_eval(ION, S00, [5.0], x_max=0.0),
        lambda: wavefunction_eval(ION, S00, [5.0], x_max=-1.0),
    ],
    ids=["a_osc-nan", "a_osc-inf", "c_coul-nan", "c_coul-inf", "l_eff-inf", "l_eff-nan",
         "psi-q-nan", "psi-q-inf", "psi-q-minus-inf", "psi-x_max-nan", "psi-x_max-inf",
         "psi-x_max-zero", "psi-x_max-negative"],
)
def test_non_finite_input_rejected(build):
    with pytest.raises(ValueError):
        build()


def _psi_from_tables(res, W, F, q):
    """psi(q) from one path's float W and F tables, by wavefunction_eval's arithmetic."""
    sp = res.shift
    x = math.sqrt(sp.lbar) * (q - sp.q0) / sp.q0
    rt = 1.0 / math.sqrt(sp.lbar)
    exponent = np.zeros_like(x)
    prefactor = np.zeros_like(x)
    scale = 1.0
    for w, f in zip(W, F):
        u_int = np.concatenate(([0.0], w / np.arange(1, len(w) + 1)))
        exponent += scale * np.polynomial.polynomial.polyval(x, u_int)
        prefactor += scale * np.polynomial.polynomial.polyval(x, f)
        scale *= rt
    return prefactor * np.exp(exponent)


class TestWavefunction:
    def test_oscillator_leading_order_is_gaussian(self):
        # the zeroth-order exponent is exactly -Omega x^2 / 2
        p = HybridPotential(a_osc=0.5, c_coul=0.0)
        res, W, F = engine._solve(p, StateIndex.from_azimuthal(0, 0), "double")
        np.testing.assert_allclose(W[0], [0.0, -res.shift.omega])
        np.testing.assert_allclose(F[0], [1.0])

    @pytest.mark.parametrize("m", [0, 3])
    def test_oscillator_full_wavefunction_matches_exact(self, m):
        # the resummed exponent reproduces q**(|m|+1/2) exp(-omega q^2 / 2)
        p = HybridPotential(a_osc=0.5, c_coul=0.0)
        s = StateIndex.from_azimuthal(0, m)
        sp = solve_state(p, s).shift
        q = np.linspace(max(0.3 * sp.q0, 0.05), 1.7 * sp.q0, 101)
        x = math.sqrt(sp.lbar) * (q - sp.q0) / sp.q0
        center = np.abs(x) <= 1.0
        psi = np.abs(wavefunction_eval(p, s, q))
        exact = q ** (abs(m) + 0.5) * np.exp(-q * q / 2.0)  # omega_1 = sqrt(2 a) = 1
        psi /= np.max(psi[center])
        exact /= np.max(exact[center])
        assert float(np.max(np.abs(psi - exact)[center])) < 1e-8

    def test_single_node_for_k_one(self):
        p = HybridPotential(a_osc=0.2**2 / 8.0, c_coul=1.0)
        s = StateIndex.from_azimuthal(1, 0)
        sp = solve_state(p, s).shift
        q = np.linspace(0.4 * sp.q0, 1.8 * sp.q0, 301)
        psi = wavefunction_eval(p, s, q)
        signs = np.sign(psi[np.abs(psi) > 1e-10 * np.max(np.abs(psi))])
        assert int(np.sum(signs[1:] * signs[:-1] < 0)) == 1

    def test_trust_region_warning(self):
        sp = solve_state(ION, S00).shift
        with pytest.warns(UserWarning):
            wavefunction_eval(ION, S00, np.array([sp.q0 * 20.0]))

    def test_escalated_state_reads_the_double_tables(self):
        # relative motion, Gamma = 0.0881, k = 3, m = 0 escalates to dd; its
        # energy comes from the compiled table, which has no W and F, and psi
        # is the double path's, bit for bit
        p = HybridPotential(a_osc=0.0881**2 / 32.0, c_coul=0.5)
        s = StateIndex.from_azimuthal(3, 0)
        res = solve_state(p, s)
        assert res.precision == "extended"
        sp = res.shift
        q = np.linspace(0.6 * sp.q0, 1.4 * sp.q0, 41)
        psi = wavefunction_eval(p, s, q)
        double = _psi_from_tables(*engine._solve(p, s, "double"), q)
        assert [v.hex() for v in psi.tolist()] == [v.hex() for v in double.tolist()]
        assert engine._solve(p, s, "extended")[1:] == (None, None)
