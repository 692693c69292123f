"""The compiled correction table data/series.npz against the dd hierarchy.

An escalated solve reads its double-double corrections from the table
(engine._table_corrections) wherever it covers the state, k <= K_TAB and
omega in TABLE_OMEGA, and runs the dd hierarchy elsewhere.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pslet import HybridPotential, StateIndex, engine
from pslet._dd import DD
from pslet.errors import SeriesTableMismatch

ROOT = Path(__file__).resolve().parents[1]
PIN = json.loads((ROOT / "tests" / "data" / "corrections_pin.json").read_text())
SYSTEMS = {"ion": (8.0, 1.0), "rm": (32.0, 0.5)}

# twelve seeded off-node frequencies, and two next to the ends of the domain
OMEGAS = sorted(np.random.default_rng(25).uniform(2.0, 8.0, 12).tolist()) + [2.0 + 1e-7, 7.999]


def _hierarchy(k: int, omega: float) -> list[DD]:
    """F_0..F_19 at (k, omega) from the dd hierarchy, with q0 = 1 and B_1 = 0."""
    J = 2 * engine.DEFAULT_ORDER + 2
    w = DD(omega)
    cq = (w * w - DD(4.0)) / DD(3.0)
    b = [DD(0.0), DD(0.0), w * w * DD(0.5)]
    b += [DD((-1.0) ** n) * (DD((n + 1) / 2.0) + cq) for n in range(3, J + 5)]
    beta = -(DD(0.5) + DD(k + 0.5) * w)
    be = engine._DDBackend()
    corr, _, _ = engine._hierarchy_core(
        engine._v_polys(b, beta, J, be), k, engine.DEFAULT_ORDER, w, DD(1.0), be
    )
    return corr


@pytest.mark.parametrize("k", range(engine.K_TAB + 1))
def test_table_matches_the_dd_hierarchy(k):
    hier = np.array([[(c.hi, c.lo) for c in _hierarchy(k, w)] for w in OMEGAS])
    table = np.array([[(c.hi, c.lo) for c in engine._table_corrections(k, DD(w), DD(1.0))]
                      for w in OMEGAS])
    diff = np.abs((table[..., 0] - hier[..., 0]) + (table[..., 1] - hier[..., 1]))
    scale = np.max(np.abs(hier[..., 0]), axis=0)  # max over omega, per n
    assert np.all(diff <= 1e-16 * scale), np.max(diff / scale, axis=0)


@pytest.mark.parametrize(
    "row", [r for r in PIN if r["precision"] == "extended"],
    ids=lambda r: f"{r['system']}-k{r['k']}-m{r['m']}-G{r['Gamma']}",
)
def test_pinned_extended_corrections_come_from_the_table(row):
    divisor, coulomb = SYSTEMS[row["system"]]
    pot = HybridPotential(a_osc=row["Gamma"] ** 2 / divisor, c_coul=coulomb)
    s = StateIndex.from_azimuthal(row["k"], row["m"])
    J = 2 * engine.DEFAULT_ORDER + 2
    q, omega, *_ = engine._dd_shift_and_b(pot, s, engine.locate_q0(pot, s), J + 4)
    table = engine._table_corrections(s.k, omega, q)
    assert table is not None
    assert [float(c).hex() for c in table] == row["corrections"]


def test_node_count_past_the_table_runs_the_hierarchy():
    # ion, Gamma = 0.2, k = K_TAB + 1 escalates; its energy is the one the
    # dd hierarchy gave before the table existed
    pot = HybridPotential(a_osc=0.2**2 / 8.0, c_coul=1.0)
    s = StateIndex.from_azimuthal(engine.K_TAB + 1, 0)
    res = engine.solve_state(pot, s)
    assert res.precision == "extended"
    assert engine._table_corrections(s.k, DD(res.shift.omega), DD(res.shift.q0)) is None
    assert res.energy.hex() == "0x1.86b4871d2570bp+0"


def test_frequency_past_the_table_runs_the_hierarchy():
    # ion, Gamma = 1e-4, k = 0, m = 0 has omega = 9.83; no state that far
    # out escalates, so its extended path is solved directly
    pot = HybridPotential(a_osc=1e-4**2 / 8.0, c_coul=1.0)
    s = StateIndex.from_azimuthal(0, 0)
    res = engine._solve_path("extended", pot, s, engine.locate_q0(pot, s))
    assert res.shift.omega > engine.TABLE_OMEGA[1]
    assert engine._table_corrections(s.k, DD(res.shift.omega), DD(res.shift.q0)) is None
    assert res.energy.hex() == "0x1.1081c31d94d3fp-9"


def test_wavefunction_of_an_escalated_state_is_unchanged():
    # relative motion, Gamma = 0.0881, k = 3, m = 0 escalates; psi is built
    # from the dd hierarchy's W and F, the digest recorded before the table
    pot = HybridPotential(a_osc=0.0881**2 / 32.0, c_coul=0.5)
    s = StateIndex.from_azimuthal(3, 0)
    res = engine.solve_state(pot, s)
    assert res.precision == "extended"
    q = np.linspace(0.6 * res.shift.q0, 1.4 * res.shift.q0, 41)
    psi = engine.wavefunction_eval(pot, s, q)
    digest = hashlib.sha256(",".join(v.hex() for v in psi.tolist()).encode()).hexdigest()
    assert digest == "d20f0479138e313c56537d16935a82a6b693f5dfe975d94c718465a25027bc0c"


@pytest.mark.parametrize(
    "name, value", [("DEFAULT_ORDER", 18), ("K_TAB", 4), ("TABLE_OMEGA", (2.0, 9.0))]
)
def test_table_built_for_other_constants_is_rejected(monkeypatch, name, value):
    monkeypatch.setattr(engine, name, value)
    with pytest.raises(SeriesTableMismatch):
        engine._series_table.__wrapped__()


def test_rebuilt_slice_is_bit_identical():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "series_table.py"), "--check", "0"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "k = 0: identical to series.npz"
