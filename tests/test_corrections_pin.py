"""Correction coefficients pinned bit for bit in both precisions.

data/corrections_pin.json holds float.hex of E^(0)..E^(19) for a fixed set
of ion and relative-motion states (k 0-3, |m| 0-2, several Gamma), each
solved on both arithmetic paths of the engine, "double" and "extended"
(engine._double and engine._extended; the "precision" field names the
path).  A change to the arithmetic of the correction hierarchy, however
small, changes some of these bits.
"""

import json
from pathlib import Path

import pytest

from pslet import StateIndex
from pslet.engine import _double, _extended, locate_q0
from pslet.quantum_dot import radial_potential

PIN = json.loads((Path(__file__).parent / "data" / "corrections_pin.json").read_text())


@pytest.mark.parametrize(
    "row", PIN, ids=[f"{r['system']}-k{r['k']}-m{r['m']}-G{r['Gamma']}-{r['precision']}" for r in PIN]
)
def test_corrections_bit_identical(row):
    pot = radial_potential(row["system"], row["Gamma"])
    state = StateIndex.from_azimuthal(row["k"], row["m"])
    q0 = locate_q0(pot, state)
    res = _double(pot, state, q0)[0] if row["precision"] == "double" else _extended(pot, state, q0)
    assert res.precision == row["precision"]
    assert [float(c).hex() for c in res.expansion.corrections] == row["corrections"]
