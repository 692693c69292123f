"""Correction coefficients pinned bit for bit in both precisions.

data/corrections_pin.json holds float.hex of E^(0)..E^(19) for a fixed set
of ion and relative-motion states (k 0-3, |m| 0-2, several Gamma), each
solved with precision "double" and "extended".  A change to the arithmetic
of the correction hierarchy, however small, changes some of these bits.
"""

import json
from pathlib import Path

import pytest

from pslet import HybridPotential, StateIndex, solve_state

PIN = json.loads((Path(__file__).parent / "data" / "corrections_pin.json").read_text())

# (a_osc divisor, Coulomb strength): a_osc = Gamma^2 / divisor
SYSTEMS = {"ion": (8.0, 1.0), "rm": (32.0, 0.5)}


@pytest.mark.parametrize(
    "row", PIN, ids=[f"{r['system']}-k{r['k']}-m{r['m']}-G{r['Gamma']}-{r['precision']}" for r in PIN]
)
def test_corrections_bit_identical(row):
    divisor, coulomb = SYSTEMS[row["system"]]
    pot = HybridPotential(a_osc=row["Gamma"] ** 2 / divisor, c_coul=coulomb)
    state = StateIndex.from_azimuthal(row["k"], row["m"])
    res = solve_state(pot, state, precision=row["precision"])
    assert res.precision == row["precision"]
    assert [float(c).hex() for c in res.expansion.corrections] == row["corrections"]
