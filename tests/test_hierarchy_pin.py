"""The whole double-precision correction hierarchy pinned bit for bit.

data/hierarchy_pin.json holds, for the double-path states of
corrections_pin.json, one SHA-256 over the float.hex of the energy, every
Pade ladder value, E^(0)..E^(19) and every coefficient of the W and F
tables (tools/hexsweep.py, solve_digest).  A change to the arithmetic of
the hierarchy that leaves the corrections alone still changes these.  The
extended path runs no hierarchy; corrections_pin.json pins its energies,
ladders and corrections.

The pinned digests hold for one BLAS kernel.  The hierarchy's products
with two or more nonzero coefficients on both sides are np.correlate
calls.  An output where the reversed shorter operand only partly overlaps
the longer is a BLAS ddot, whose summation order is the kernel's: with
OpenBLAS 0.3.31 (DYNAMIC_ARCH, Haswell kernel) the sequential sum with
fused multiply-adds for 1-15 terms.  An output of full overlap comes from
numpy's own loop, the plain sequential sum for a shorter operand of up to
11 coefficients and the fused sum at 12.  Under another kernel these
digests may differ with no change to pslet.  A product whose F side has
one nonzero coefficient (a scaled shift) rounds the same under any kernel.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from hexsweep import solve, solve_digest  # noqa: E402

PIN = json.loads((Path(__file__).parent / "data" / "hierarchy_pin.json").read_text())


@pytest.mark.parametrize(
    "row", PIN, ids=[f"{r['system']}-k{r['k']}-m{r['m']}-G{r['Gamma']}-{r['precision']}" for r in PIN]
)
def test_hierarchy_bit_identical(row):
    res, W, F = solve(row["system"], row["Gamma"], row["k"], row["m"], row["precision"])
    assert res.precision == row["precision"]
    assert solve_digest(res, W, F) == row["sha256"]
