"""Acceptance gate: every shipped claim at its stated tolerance.

Each test prints one PASS/FAIL line.  Two criteria are implemented exactly
as stated and are known to fail honestly:

* criterion 7 (leading-term fraction >= 0.90 for every table 1-3 state):
  the excited s states (2s, 3s, 4s) carry 87-89% in their zeroth-order
  term; the 90% figure holds for all nodeless states.
* criterion 8 (last-five order-ladder spread <= 5e-5 for every tabulated
  state): a set of strongly divergent states wobbles at the 1e-4 level in
  the late ladder members even in extended (double-double, ~32 digit)
  arithmetic, where the computation is exact for all practical purposes.

In both cases the resummed energies of the affected states still match the
reference tables within their tolerances (criteria 1-4).  The failure
messages list the exact cells.
"""

import math
import time

import pytest

from pslet import (
    DotParams,
    HybridPotential,
    RadialProblem,
    StateIndex,
    StateLabel,
    TwoElectronLevel,
    ee_interaction,
    ion_energy,
    level_order,
    scan_spectrum,
    solve_state,
    spectrum_record,
    tables,
)
from pslet.engine import (
    b_coefficients,
    leading_energy,
    locate_q0,
    shift_params,
    subleading_coefficient,
)
from pslet.oracle import _kth_eigenpair
from pslet.quantum_dot import oracle_delta


def _oracle_delta(st, d, system: str) -> float:
    """oracle_delta of the energy a record of st reports, as an ion or a pair state."""
    state = st if system == "ion" else TwoElectronLevel(rm=st, cm_k=0, cm_m=0)
    return oracle_delta(state, d, spectrum_record(state, d).energy)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def report1():
    return tables.compute_table(1)


@pytest.fixture(scope="module")
def report2():
    return tables.compute_table(2)


@pytest.fixture(scope="module")
def report3():
    return tables.compute_table(3)


@pytest.fixture(scope="module")
def report4():
    return tables.compute_table(4)


@pytest.fixture(scope="module")
def report5():
    return tables.compute_table(5)


def test_criterion_1_table1_reproduction():
    from pslet import quantum_dot
    quantum_dot.radial_solution.cache_clear()
    start = time.perf_counter()
    report = tables.compute_table(1)
    elapsed = time.perf_counter() - start
    ok = not report.failures and report.max_delta <= 1e-3 and elapsed < 10.0
    _report(
        1,
        ok,
        f"{len(report.cells)} impurity energies, max |delta| = {report.max_delta:.2e} "
        f"(tol 1e-3), runtime {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_2_tables23_reproduction(report2, report3):
    worst_weak = worst_strong = 0.0
    for report in (report2, report3):
        assert not report.failures
        for cell in report.cells:
            if cell.gamma_eff <= 0.4:
                worst_weak = max(worst_weak, cell.delta)
            else:
                worst_strong = max(worst_strong, cell.delta)
    typo_cell = [
        c for c in report3.cells if c.label == "2p" and abs(c.gamma_eff - 4.0) < 1e-12
    ][0]
    oracle_worst = 0.0
    for st in tables.golden_states(2):
        delta = _oracle_delta(st, DotParams(0.0, 0.4), "two_electron_rm")
        oracle_worst = max(oracle_worst, delta)
    ok = (
        worst_weak <= 5e-4
        and worst_strong <= 1e-3
        and abs(typo_cell.value - 1.7107) <= 1e-3
        and oracle_worst <= 1e-3
    )
    _report(
        2,
        ok,
        f"96 pair interaction energies: weak-confinement max |delta| = {worst_weak:.2e} "
        f"(tol 5e-4), strong {worst_strong:.2e} (tol 1e-3); transposed cell vs 1.7107: "
        f"{abs(typo_cell.value - 1.7107):.2e}; Gamma=0.4 column vs oracle max "
        f"{oracle_worst:.2e} (tol 1e-3)",
    )


def test_criterion_3_table4_reproduction(report4):
    assert not report4.failures
    corrected = [
        c for c in report4.cells if c.label.startswith("l:") and abs(c.gamma_d - 0.2) < 1e-12
    ][0]
    d = DotParams(gamma=0.0, gamma_d=0.05)
    ordered = [tag for tag, _ in level_order(d, tables.golden_states(4))]
    ordering_ok = ordered.index("e") < ordered.index("h") and ordered.index("n") < ordered.index("k")
    ok = report4.max_delta <= 1e-3 and abs(corrected.value - 1.4413) <= 1e-3 and ordering_ok
    _report(
        3,
        ok,
        f"64 two-electron totals, max |delta| = {report4.max_delta:.2e} (tol 1e-3); "
        f"corrected level l at 0.2 -> {corrected.value:.4f} vs 1.4413; weak-confinement "
        f"orderings e<h and n<k: {ordering_ok}",
    )


def test_criterion_4_table5_and_crossings(report5):
    assert not report5.failures
    levels = dict(tables.golden_states(5))
    d0 = DotParams(gamma=0.0, gamma_d=0.2)
    _, crossings = scan_spectrum(
        [levels["A"], levels["B"], levels["D"]], d0, [0.0, 0.05, 0.1, 0.2]
    )
    def found(a, b, lo, hi):
        for c in crossings:
            if {c.state_a, c.state_b} == {levels[a].name, levels[b].name}:
                if lo < c.gamma_lo and c.gamma_hi < hi:
                    return True
        return False

    ba = found("B", "A", 0.05, 0.1)
    bd = found("B", "D", 0.1, 0.2)
    ok = report5.max_delta <= 1e-3 and ba and bd
    _report(
        4,
        ok,
        f"66 field-dependent totals, max |delta| = {report5.max_delta:.2e} (tol 1e-3); "
        f"singlet-triplet B/A crossing in (0.05, 0.1): {ba}; B/D in (0.1, 0.2): {bd}",
    )


def test_criterion_5_exact_limit_suite():
    # pure-oscillator spectrum is exact
    worst_osc = 0.0
    a = 0.5
    for k in range(4):
        for m in range(4):
            res = solve_state(HybridPotential(a, 0.0), StateIndex.from_azimuthal(k, m))
            exact = (2 * k + m + 1) * math.sqrt(2.0 * a)
            worst_osc = max(worst_osc, abs(res.energy - exact) / exact)

    # Zeeman antisymmetry across a 5 x 5 x 4 grid of (m, gamma, gamma_d)
    worst_zeeman = 0.0
    for m in range(1, 6):
        for gamma in (0.05, 0.1, 0.2, 0.3, 0.4):
            for gamma_d in (0.1, 0.2, 0.5, 1.0):
                d = DotParams(gamma, gamma_d)
                gap = ion_energy(d, StateLabel(0, m)) - ion_energy(d, StateLabel(0, -m))
                worst_zeeman = max(worst_zeeman, abs(gap - 2 * m * gamma))

    # the pair interaction depends on the combined measure only
    pair_gap = abs(
        ee_interaction(DotParams(0.3, 0.4), StateLabel(1, 1))
        - ee_interaction(DotParams(0.0, 0.5), StateLabel(1, 1))
    )

    # first-coefficient and subleading-coefficient cancellations per solve
    worst_b1 = worst_sub = 0.0
    for a_osc, c_coul, k, m in [
        (0.2**2 / 8.0, 1.0, 0, 0),
        (0.2**2 / 8.0, 1.0, 2, -3),
        (1.0 / 32.0, 0.5, 0, 0),
        (5.0**2 / 32.0, 0.5, 0, 4),
        (0.05**2 / 32.0, 0.5, 3, 0),
    ]:
        pot = HybridPotential(a_osc, c_coul)
        s = StateIndex.from_azimuthal(k, m)
        sp = shift_params(pot, locate_q0(pot, s), s)
        worst_b1 = max(worst_b1, abs(b_coefficients(pot, sp, 3)[1]))
        worst_sub = max(
            worst_sub,
            abs(subleading_coefficient(sp, k)) / abs(leading_energy(pot, sp)),
        )

    ok = worst_osc <= 1e-9 and worst_zeeman <= 1e-9 and pair_gap <= 1e-10 and worst_b1 <= 1e-9 and worst_sub <= 1e-10
    _report(
        5,
        ok,
        f"oscillator exactness {worst_osc:.1e} (tol 1e-9); Zeeman antisymmetry "
        f"{worst_zeeman:.1e} (tol 1e-9); combined-measure dependence {pair_gap:.1e} "
        f"(tol 1e-10); B1 {worst_b1:.1e} (tol 1e-9); subleading coefficient "
        f"{worst_sub:.1e} (tol 1e-10)",
    )


# ten impurity states and ten relative-motion states spanning tables 1-3
_ORACLE_SAMPLE = [
    ("ion", 0, 0, 0.0, 0.2),
    ("ion", 0, -1, 0.4, 0.2),
    ("ion", 0, 3, 0.2, 0.2),
    ("ion", 1, 0, 0.3, 0.2),
    ("ion", 1, -2, 0.1, 0.2),
    ("ion", 2, 0, 0.1, 0.2),
    ("ion", 2, -3, 0.2, 0.2),
    ("ion", 0, -2, 0.05, 0.2),
    ("ion", 1, 1, 0.15, 0.2),
    ("ion", 2, -1, 0.05, 0.2),
    ("two_electron_rm", 0, 0, 0.0, 0.05),
    ("two_electron_rm", 0, 0, 0.0, 1.0),
    ("two_electron_rm", 1, 0, 0.0, 0.2),
    ("two_electron_rm", 2, 0, 0.0, 2.5),
    ("two_electron_rm", 3, 0, 0.0, 0.05),
    ("two_electron_rm", 0, 1, 0.0, 4.0),
    ("two_electron_rm", 1, 1, 0.0, 0.4),
    ("two_electron_rm", 0, 2, 0.0, 5.0),
    ("two_electron_rm", 1, 2, 0.0, 1.0),
    ("two_electron_rm", 0, 4, 0.0, 5.0),
]


def test_criterion_6_oracle_equivalence():
    worst = 0.0
    worst_state = None
    for system, k, m, gamma, gamma_d in _ORACLE_SAMPLE:
        delta = _oracle_delta(StateLabel(k, m), DotParams(gamma, gamma_d), system)
        if delta > worst:
            worst, worst_state = delta, (system, k, m, gamma, gamma_d)

    problem = RadialProblem.auto_sized(0, HybridPotential(0.2**2 / 4.0, 0.0), 0)
    d1, o1 = problem.tridiagonal(problem.n_points)
    d2, o2 = problem.tridiagonal(2 * problem.n_points)
    e1, _ = _kth_eigenpair(d1, o1, 0, False)
    e2, _ = _kth_eigenpair(d2, o2, 0, False)
    ratio = (e1 - 0.2) / (e2 - 0.2)
    ok = worst <= 1e-3 and 3.0 <= ratio <= 5.0
    _report(
        6,
        ok,
        f"20 states vs finite differences, max |delta| = {worst:.2e} at {worst_state} "
        f"(tol 1e-3); grid-halving error ratio {ratio:.2f} (must lie in [3, 5])",
    )


def test_criterion_7_leading_term_dominance(report1, report2, report3):
    below = []
    worst = math.inf
    for report in (report1, report2, report3):
        for cell in report.cells:
            worst = min(worst, cell.leading_fraction)
            if cell.leading_fraction < 0.90:
                below.append(
                    f"table {report.table_id}: {cell.label} at gamma={cell.gamma:g}, "
                    f"gamma_d={cell.gamma_d:g}: {cell.leading_fraction:.4f}"
                )
    ok = not below
    detail = (
        f"every table 1-3 state has leading-term fraction >= 0.90 (min {worst:.4f})"
        if ok
        else (
            f"{len(below)} tabulated cells fall below the 0.90 leading-term fraction; "
            "all are excited s states (2s, 3s, 4s), whose zeroth-order term honestly "
            "carries 87-89% of the eigenvalue (the 90% figure holds for every "
            "nodeless state):\n    " + "\n    ".join(below)
        )
    )
    _report(7, ok, detail)


def test_criterion_8_ladder_stability(report1, report2, report3, report4, report5):
    flagged = []
    for report in (report1, report2, report3, report4, report5):
        for cell in report.cells:
            if not cell.converged:
                flagged.append(
                    f"table {report.table_id}: {cell.label} at gamma={cell.gamma:g}, "
                    f"gamma_d={cell.gamma_d:g} (spread {cell.pade_spread:.2e} Ry*, "
                    f"|delta| vs reference {cell.delta:.2e})"
                )
    ok = not flagged
    detail = (
        "every tabulated state within the 5e-5 ladder-stability tolerance"
        if ok
        else (
            f"{len(flagged)} tabulated cells exceed the 5e-5 last-five ladder spread "
            "(engine units) even in extended precision (their resummed energies still match the "
            "reference within tolerance; the spread honestly reports the ladder's "
            "intrinsic wobble for these strongly divergent series):\n    "
            + "\n    ".join(flagged)
        )
    )
    _report(8, ok, detail)
