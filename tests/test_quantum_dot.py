"""Dot Hamiltonians mapped onto the radial solver: closed forms, symmetry,
interaction energies, orderings and crossings."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from pslet import quantum_dot
from pslet.engine import StateIndex, solve_state
from pslet.errors import NonIntegralCluster, PsletError
from pslet.oracle import RadialProblem
from pslet.potentials import HybridPotential
from pslet.quantum_dot import (
    DotParams,
    StateLabel,
    TwoElectronLevel,
    cm_energy,
    ee_interaction,
    ion_energy,
    ion_free_energy,
    ion_interaction,
    landau_cluster,
    level_order,
    rm_energy,
    scan_spectrum,
    spectrum_record,
    spin_of_m,
    total_energy,
)


class TestDotParams:
    def test_combined_measure(self):
        d = DotParams(gamma=0.3, gamma_d=0.4)
        assert d.gamma_eff == pytest.approx(0.5, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            DotParams(gamma=-0.1, gamma_d=0.2)
        with pytest.raises(ValueError):
            DotParams(gamma=0.1, gamma_d=0.0)

    @pytest.mark.parametrize(
        "gamma,gamma_d",
        [
            (math.nan, 0.2),
            (math.inf, 0.2),
            (-math.inf, 0.2),
            (0.1, math.nan),
            (0.1, math.inf),
            (0.1, -math.inf),
        ],
    )
    def test_non_finite_rejected(self, gamma, gamma_d):
        with pytest.raises(ValueError, match="finite"):
            DotParams(gamma=gamma, gamma_d=gamma_d)


_D = DotParams(gamma=0.2, gamma_d=0.2)
_W = HybridPotential(a_osc=0.01, c_coul=2.0)


class TestQuantumNumbersAreIntegers:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: ion_energy(_D, StateLabel(math.nan, 0)),
            lambda: StateLabel(1.5, 0),
            lambda: ion_energy(_D, StateLabel(0, 1.5)),
            lambda: rm_energy(_D, StateLabel(0, 0.5)),
            lambda: StateLabel(0, math.inf),
            lambda: StateLabel(2.0, 0),
            lambda: StateIndex(k=1.5, l_eff=0.5),
            lambda: StateIndex(k=math.nan, l_eff=0.5),
            lambda: cm_energy(_D, math.nan, 0),
            lambda: cm_energy(_D, 0, 0.5),
            lambda: total_energy(_D, 0, 0, math.nan, 0),
            lambda: landau_cluster(math.nan, 0),
            lambda: landau_cluster(0, 0.5),
            lambda: RadialProblem.auto_sized(1.5, _W, 0),
            lambda: RadialProblem(m=math.nan, W=_W, L=10.0, n_points=4000),
        ],
        ids=["ion-k-nan", "label-k-1.5", "ion-m-1.5", "rm-m-0.5", "label-m-inf",
             "label-k-float-2", "index-k-1.5", "index-k-nan", "cm-K-nan", "cm-M-0.5",
             "total-K-nan", "cluster-kp-nan", "cluster-mp-0.5", "fd-m-1.5", "fd-m-nan"],
    )
    def test_non_integral_rejected(self, build):
        with pytest.raises(ValueError, match="must be an integer"):
            build()

    def test_numpy_integers_accepted(self):
        k, m = np.int64(1), np.int64(-2)
        assert StateLabel(k, m).name == StateLabel(1, -2).name
        assert cm_energy(_D, k, m) == cm_energy(_D, 1, -2)
        assert landau_cluster(k, np.int32(3)) == (4, 0)


class TestLabels:
    @pytest.mark.parametrize(
        "k,m,name",
        [
            (0, 0, "1s"),
            (0, -1, "2p-"),
            (0, 1, "2p+"),
            (1, -2, "4d-"),
            (2, -3, "6f-"),
            (2, 0, "3s"),
            (0, 3, "4f+"),
            (0, 4, "5g+"),
            (1, 0, "2s"),
        ],
    )
    def test_spectroscopic_names(self, k, m, name):
        assert StateLabel(k, m).name == name

    def test_spin_rule(self):
        for m in range(-5, 6):
            expect = 0 if m % 2 == 0 else 1
            assert spin_of_m(m) == expect

    def test_level_name_carries_spin(self):
        lvl = TwoElectronLevel(rm=StateLabel(0, -3), cm_k=0, cm_m=0)
        assert lvl.s == 1
        assert lvl.name == "(0,-3;0,0;1)"


class TestClosedForms:
    def test_ion_free_examples(self):
        assert ion_free_energy(DotParams(0.0, 0.2), StateLabel(0, 0)) == pytest.approx(0.2)
        assert ion_free_energy(DotParams(0.1, 0.2), StateLabel(0, 1)) == pytest.approx(
            2.0 * math.sqrt(0.05) + 0.1
        )
        assert ion_free_energy(DotParams(0.1, 0.2), StateLabel(0, -1)) == pytest.approx(
            2.0 * math.sqrt(0.05) - 0.1
        )

    def test_cm_examples(self):
        assert cm_energy(DotParams(0.0, 1.0), 0, 0) == pytest.approx(1.0)
        assert cm_energy(DotParams(0.2, 0.2), 0, -1) == pytest.approx(
            2.0 * math.sqrt(0.08) - 0.2
        )
        assert cm_energy(DotParams(0.0, 0.2), 1, 0) == pytest.approx(0.6)

    def test_cm_validation(self):
        with pytest.raises(ValueError):
            cm_energy(DotParams(0.0, 0.2), -1, 0)


class TestIonEnergies:
    def test_ground_state(self):
        assert ion_energy(DotParams(0.0, 0.2), StateLabel(0, 0)) == pytest.approx(
            0.8162, abs=1e-3
        )

    def test_negative_m_in_field(self):
        assert ion_energy(DotParams(0.4, 0.2), StateLabel(0, -1)) == pytest.approx(
            1.2282, abs=1e-3
        )

    def test_high_excited_state(self):
        assert ion_energy(DotParams(0.2, 0.2), StateLabel(2, -3)) == pytest.approx(
            2.0218, abs=1e-3
        )

    def test_interaction_shifts(self):
        d = DotParams(0.0, 0.2)
        assert ion_interaction(d, StateLabel(0, 0)) == pytest.approx(0.6162, abs=1e-3)
        assert ion_interaction(d, StateLabel(0, -1)) == pytest.approx(0.4666, abs=1e-3)
        assert ion_interaction(d, StateLabel(0, 1)) == pytest.approx(0.4666, abs=1e-3)
        assert ion_interaction(d, StateLabel(0, 3)) == pytest.approx(0.3305, abs=1e-3)

    def test_interaction_is_positive(self):
        d = DotParams(0.1, 0.2)
        for k, m in [(0, 0), (0, -2), (1, 1)]:
            assert ion_interaction(d, StateLabel(k, m)) > 0.0

    def test_coulomb_off_reproduces_closed_form(self):
        # the ion's radial problem without its Coulomb term: E = 2 eps + m gamma
        d = DotParams(0.1, 0.2)
        st = StateLabel(0, 1)
        pot = HybridPotential(a_osc=d.gamma_eff**2 / 8.0, c_coul=0.0)
        got = 2.0 * solve_state(pot, StateIndex.from_azimuthal(st.k, st.m)).energy + st.m * d.gamma
        assert got == pytest.approx(ion_free_energy(d, st), abs=1e-10)
        assert got == pytest.approx(0.547214, abs=1e-6)

    def test_ion_4s_oracle_miss_is_flagged(self):
        # the [9/10] value misses the finite-difference oracle by 1.5e-3 here
        # ([9/9] is within 2e-6); the ladder spread of 8e-4 already says so
        rec = quantum_dot.ion_record(DotParams(0.0, 0.179876), StateLabel(3, 0))
        assert not rec.converged
        assert rec.pade_spread > 5e-5

    def test_error_annotated_with_label(self, failing_solver):
        d = DotParams(0.0, 0.2)
        with pytest.raises(PsletError, match="2p-.*forced failure"):
            ion_energy(d, StateLabel(0, -1))


class TestTwoElectron:
    def test_rm_weak_confinement(self):
        assert rm_energy(DotParams(0.0, 0.05), StateLabel(0, 0)) == pytest.approx(
            0.2463, abs=1e-3
        )

    def test_rm_unit_confinement(self):
        assert rm_energy(DotParams(0.0, 1.0), StateLabel(0, 0)) == pytest.approx(
            2.3196, abs=1e-3
        )

    @pytest.mark.parametrize("abs_m", range(4))
    def test_quasi_exact_anchor(self, abs_m):
        # Taut, PRA 48, 3561 (1993): at gamma = 0, k = 0 and
        # Gamma = 2/(2|m|+1) the relative motion has the exact energy
        # 2(|m|+2)/(2|m|+1).  E_rm = 4 eps, so 4 x the record's (radial)
        # pade_spread is the ladder spread in Ry*.
        d = DotParams(0.0, 2.0 / (2 * abs_m + 1))
        st = StateLabel(0, abs_m)
        exact = 2.0 * (abs_m + 2) / (2 * abs_m + 1)
        rec = quantum_dot.two_electron_record(d, TwoElectronLevel(rm=st, cm_k=0, cm_m=0))
        assert abs(rm_energy(d, st) - exact) <= 4.0 * rec.pade_spread

    def test_rm_coulomb_off_exact(self):
        d = DotParams(0.2, 0.3)
        pot = HybridPotential(a_osc=d.gamma_eff**2 / 32.0, c_coul=0.0)
        for k, m in [(0, 0), (1, -2), (2, 1)]:
            # relative motion without the repulsion: E = 4 eps + m gamma
            got = 4.0 * solve_state(pot, StateIndex.from_azimuthal(k, m)).energy + m * d.gamma
            expect = (2 * k + abs(m) + 1) * d.gamma_eff + m * d.gamma
            assert got == pytest.approx(expect, abs=1e-9)

    @pytest.mark.parametrize(
        "k,m,g_eff,expect",
        [(1, 0, 0.2, 0.4413), (0, 4, 5.0, 1.0772), (1, 2, 2.5, 0.9496)],
    )
    def test_ee_interaction_values(self, k, m, g_eff, expect):
        assert ee_interaction(DotParams(0.0, g_eff), StateLabel(k, m)) == pytest.approx(
            expect, abs=1e-3
        )

    def test_ee_interaction_positive(self):
        d = DotParams(0.0, 0.3)
        for k, m in [(0, 0), (1, 1), (0, 3)]:
            assert ee_interaction(d, StateLabel(k, m)) > 0.0

    def test_ee_depends_on_combined_measure_only(self):
        a = ee_interaction(DotParams(0.3, 0.4), StateLabel(0, 1))
        b = ee_interaction(DotParams(0.0, 0.5), StateLabel(0, 1))
        assert a == pytest.approx(b, abs=1e-10)

    def test_ee_monotone_orderings(self):
        d = DotParams(0.0, 0.2)
        s_states = [ee_interaction(d, StateLabel(k, 0)) for k in range(3)]
        assert s_states[0] > s_states[1] > s_states[2]
        by_m = [ee_interaction(d, StateLabel(0, m)) for m in range(4)]
        assert all(a > b for a, b in zip(by_m, by_m[1:]))

    def test_totals(self):
        lvl = total_energy(DotParams(0.0, 1.0), 0, 0, 0, 0)
        assert lvl.energy == pytest.approx(3.3196, abs=1e-3)
        assert lvl.s == 0
        lvl = total_energy(DotParams(0.2, 0.2), 0, -1, 0, 0)
        assert lvl.energy == pytest.approx(1.0667, abs=1e-3)
        assert lvl.s == 1
        lvl = total_energy(DotParams(0.0, 0.05), 0, 1, 0, 0)
        assert lvl.energy == pytest.approx(0.3062, abs=1e-3)
        assert lvl.s == 1

    def test_interaction_off_totals_are_closed_form(self):
        d = DotParams(0.15, 0.2)
        lvl = TwoElectronLevel(rm=StateLabel(1, -2), cm_k=0, cm_m=-1)
        rec = spectrum_record(lvl, d, interaction=False)
        expect = (
            (2 * 1 + 2 + 1) * d.gamma_eff
            - 2 * d.gamma
            + (2 * 0 + 1 + 1) * d.gamma_eff
            - d.gamma
        )
        assert rec.energy == pytest.approx(expect, abs=1e-10)


class TestZeemanSymmetry:
    def test_antisymmetry_small_grid(self):
        for gamma in (0.05, 0.2):
            for gamma_d in (0.2, 0.6):
                d = DotParams(gamma, gamma_d)
                for k, m in [(0, 1), (0, 2), (1, 1)]:
                    up = ion_energy(d, StateLabel(k, m))
                    down = ion_energy(d, StateLabel(k, -m))
                    assert up - down == pytest.approx(2 * m * gamma, abs=1e-9)

    def test_table_spot_check(self):
        d = DotParams(0.1, 0.2)
        gap = ion_energy(d, StateLabel(0, 1)) - ion_energy(d, StateLabel(0, -1))
        assert gap == pytest.approx(0.2, abs=1e-9)

    def test_zero_field_degeneracy(self):
        d = DotParams(0.0, 0.2)
        assert rm_energy(d, StateLabel(0, 2)) == pytest.approx(
            rm_energy(d, StateLabel(0, -2)), abs=1e-9
        )


class TestScaledRouteEquivalence:
    def test_native_vs_rescaled_radial_equation(self):
        # the same impurity state through V = (G^2/8) q^2 + 1/q and through
        # the rescaled form V = 2 G^2 s^2 + 2/s (s = q/2, energies x4)
        g = 0.2
        s00 = StateIndex.from_azimuthal(0, 0)
        native = solve_state(HybridPotential(g * g / 8.0, 1.0), s00).energy
        rescaled = solve_state(HybridPotential(2.0 * g * g, 2.0), s00).energy
        assert 4.0 * native == pytest.approx(rescaled, abs=1e-9)


class TestLandauClustering:
    @pytest.mark.parametrize("kp,mp,expect", [(0, -2, (0, 0)), (0, 2, (2, 0)), (1, 3, (4, 0))])
    def test_examples(self, kp, mp, expect):
        assert landau_cluster(kp, mp) == expect

    def test_negative_m_keeps_radial_index(self):
        for kp in range(3):
            for mp in range(-4, 0):
                assert landau_cluster(kp, mp) == (kp, 0)

    def test_negative_radial_index_rejected(self):
        with pytest.raises(NonIntegralCluster):
            landau_cluster(-1, -2)


class TestScanAndOrdering:
    def test_free_states_split_linearly_and_never_recross(self):
        states = [StateLabel(0, -1), StateLabel(0, 1)]
        d0 = DotParams(0.0, 0.2)
        grid = [0.0, 0.1, 0.2, 0.3, 0.4]
        from functools import partial

        records, crossings = scan_spectrum(
            states, d0, grid, evaluator=partial(spectrum_record, interaction=False)
        )
        assert len(records) == 10
        # degenerate at zero field, then split by exactly 2 m gamma
        assert records[0].energy == pytest.approx(records[5].energy, abs=1e-12)
        assert crossings == []

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            scan_spectrum([StateLabel(0, 0)], DotParams(0.0, 0.2), [0.1, 0.1])

    def test_singlet_triplet_crossing_detected(self):
        levels = [
            TwoElectronLevel(rm=StateLabel(0, 0), cm_k=0, cm_m=0),   # singlet
            TwoElectronLevel(rm=StateLabel(0, -1), cm_k=0, cm_m=0),  # triplet
        ]
        d0 = DotParams(0.0, 0.2)
        records, crossings = scan_spectrum(levels, d0, [0.05, 0.1])
        assert len(crossings) == 1
        c = crossings[0]
        assert 0.05 < c.gamma_lo < c.gamma_hi < 0.1
        assert c.gamma_hi - c.gamma_lo <= 1e-4

    def test_level_order_tags_sorted(self):
        d = DotParams(0.0, 1.0)
        levels = [
            ("a", TwoElectronLevel(rm=StateLabel(0, 0), cm_k=0, cm_m=0)),
            ("b", TwoElectronLevel(rm=StateLabel(0, 1), cm_k=0, cm_m=0)),
            ("c", TwoElectronLevel(rm=StateLabel(0, 0), cm_k=0, cm_m=1)),
        ]
        ordered = level_order(d, levels)
        assert [tag for tag, _ in ordered] == ["a", "b", "c"]
        energies = [lvl.energy for _, lvl in ordered]
        assert energies == sorted(energies)

    def test_parallel_scan_matches_serial(self):
        states = [StateLabel(0, 0), StateLabel(0, -1)]
        d0 = DotParams(0.0, 0.2)
        grid = [0.0, 0.2]
        serial, _ = scan_spectrum(states, d0, grid)
        parallel, _ = scan_spectrum(states, d0, grid, jobs=2)
        assert [r.energy for r in serial] == [r.energy for r in parallel]
        assert [r.label for r in serial] == [r.label for r in parallel]


class TestRadialMemo:
    """Each distinct radial problem is solved once; records stay bit for bit."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """Cold memo; the list collects every solve_state call that misses it."""
        calls = []
        real = quantum_dot.solve_state

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        quantum_dot.radial_solution.cache_clear()
        monkeypatch.setattr(quantum_dot, "solve_state", counting)
        yield calls
        quantum_dot.radial_solution.cache_clear()

    def test_same_state_solved_once(self, solves):
        d, st = DotParams(0.1, 0.2), StateLabel(1, -1)
        first = quantum_dot.ion_record(d, st)
        second = quantum_dot.ion_record(d, st)
        assert len(solves) == 1
        assert first == second

    def test_plus_and_minus_m_share_a_solve(self, solves):
        d = DotParams(0.3, 0.2)
        up = ion_energy(d, StateLabel(0, 2))
        down = ion_energy(d, StateLabel(0, -2))
        assert len(solves) == 1
        assert up - down == pytest.approx(4 * 0.3, abs=1e-12)

    def test_same_gamma_eff_shares_a_solve(self, solves):
        lvl = TwoElectronLevel(rm=StateLabel(0, 1), cm_k=0, cm_m=0)
        a = quantum_dot.two_electron_record(DotParams(3.0, 4.0), lvl)
        b = quantum_dot.two_electron_record(DotParams(0.0, 5.0), lvl)
        assert len(solves) == 1
        assert a.gamma_eff == b.gamma_eff == 5.0
        assert a.pade_spread == b.pade_spread

    def test_warm_record_equals_cold_record(self, solves):
        d = DotParams(0.2, 0.2)
        lvl = TwoElectronLevel(rm=StateLabel(1, -1), cm_k=0, cm_m=-1)
        cold = quantum_dot.two_electron_record(d, lvl)
        quantum_dot.radial_solution.cache_clear()
        # warm the memo through another level with the same relative motion
        # at another field with the same gamma_eff
        g = d.gamma_eff
        sibling = TwoElectronLevel(rm=StateLabel(1, 1), cm_k=1, cm_m=0)
        quantum_dot.two_electron_record(DotParams(0.0, g), sibling)
        warm = quantum_dot.two_electron_record(d, lvl)
        assert len(solves) == 2
        assert dataclasses.astuple(warm) == dataclasses.astuple(cold)

    def test_failing_state_raises_its_own_error_on_every_call(self, failing_solver):
        d = DotParams(0.0, 0.2)
        for _ in range(2):
            with pytest.raises(PsletError, match="2p-"):
                ion_energy(d, StateLabel(0, -1))
        with pytest.raises(PsletError) as info:
            ion_energy(d, StateLabel(0, 1))
        assert "2p+" in str(info.value) and "2p-" not in str(info.value)
        assert len(failing_solver) == 3
        assert quantum_dot.radial_solution.cache_info().currsize == 0

    def test_memo_is_bounded(self, monkeypatch):
        # a stand-in solver keeps the fill cheap; past the bound the memo
        # evicts instead of growing
        result = SimpleNamespace(
            energy=1.0,
            leading_fraction=1.0,
            staircase=SimpleNamespace(spread=0.0, converged=True),
        )
        monkeypatch.setattr(quantum_dot, "solve_state", lambda *args, **kwargs: result)
        quantum_dot.radial_solution.cache_clear()
        try:
            bound = quantum_dot.radial_solution.cache_info().maxsize
            for i in range(bound + 10):
                quantum_dot.radial_solution("ion", 1.0 + i, 0, 0)
            info = quantum_dot.radial_solution.cache_info()
            assert info.currsize == bound
            assert info.misses == bound + 10
        finally:
            quantum_dot.radial_solution.cache_clear()
