"""The benchmark's workloads: inputs, one closed-loop pass, output checks.

Each pass is one client calling pslet's public entry points one after the
other with the CLI's default settings (jobs=1).  Every call goes through its
module attribute (``tables.compute_table``, ``quantum_dot.ion_record``, ...)
so that the traced run's wrappers see it.  A row that raises, comes out
non-finite or misses its tolerance is counted as failed; it never stops the
pass.
"""

from __future__ import annotations

import json
import math
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from pslet import oracle, quantum_dot, tables
from pslet.errors import PsletError
from pslet.potentials import HybridPotential
from pslet.quantum_dot import DotParams, StateLabel, TwoElectronLevel

FIELD_REFERENCE = Path(__file__).resolve().parent / "field_scan_reference.json"

# Figure 7 plots two-electron levels, E = 4 eps + ..., so one engine-unit
# ladder spread moves a row by 4x that spread in Ry*.  The largest spread of
# the 451 rows is 3.9e-5, i.e. 1.6e-4 Ry*: a change of arithmetic that keeps
# every value within its ladder spread stays inside this tolerance.
FIELD_TOL_RY = 2e-4
# A crossing is matched by its state pair and its interval midpoint within
# one grid step (0.01) of the recorded one.
CROSSING_TOL = 0.01
# The finite-difference oracle is a 3-4 digit reference.
ORACLE_TOL_RY = 1e-3

# distinct_states: log-uniform Gamma, stratified per (system, k, |m|) cell so
# that the share of s states that escalate to double-double (and with it the
# pass time) varies little from seed to seed.
GAMMA_RANGE = (0.05, 5.0)
FIELD_MAX = 0.4
S_STRATA = 8  # s states per (system, k): half of all draws
OTHER_STRATA = 2  # states per (system, k, |m|) with 1 <= |m| <= 4
SYSTEMS = ("ion", "rm")
K_MAX, M_MAX = 3, 4


@dataclass
class Check:
    """Outcome of one pass's output check."""

    attempted: int = 0
    failed: int = 0
    rows: int = 0
    unconverged: int = 0
    max_error_ry: float = 0.0
    notes: list = field(default_factory=list)

    def row(self, ok: bool, error: float, converged: bool, note: str) -> None:
        self.attempted += 1
        self.rows += 1
        self.unconverged += not converged
        if math.isfinite(error):
            self.max_error_ry = max(self.max_error_ry, error)
        if not ok:
            self.fail(1, note)

    def fail(self, n: int, note: str) -> None:
        self.failed += n
        if len(self.notes) < 20:
            self.notes.append(note)


def _timed(calls: list, fn, *args):
    """Call fn and append its (start, end) perf_counter times to calls.

    A crash becomes the returned value, so the pass goes on.
    """
    t0 = time.perf_counter()
    try:
        return fn(*args)
    except Exception:
        return RuntimeError(traceback.format_exc())
    finally:
        calls.append((t0, time.perf_counter()))


# ----------------------------------------------------------------------
# golden_tables: reproduce tables 1-5
# ----------------------------------------------------------------------

class GoldenTables:
    name = "golden_tables"
    hit = (
        "tables.compute_table", "quantum_dot.solve_state", "engine.locate_q0",
        "engine.solve_hierarchy", "engine.pade_stability", "engine.pade_fit",
        "_dd.dd_pade_fit",
    )

    def prepare(self, seed: int):
        return list(tables.TABLE_IDS)

    def describe(self, inputs) -> dict:
        return {"tables": inputs, "seed_used": False}

    def run(self, inputs, calls: list):
        return [_timed(calls, tables.compute_table, t) for t in inputs]

    def check(self, inputs, reports) -> Check:
        chk = Check()
        for table_id, rep in zip(inputs, reports):
            if isinstance(rep, Exception):
                n = len(tables.load_golden(table_id))
                chk.attempted += n
                chk.rows += n
                chk.unconverged += n
                chk.fail(n, f"table {table_id} raised: {rep}")
                continue
            bad = 0
            for c in rep.cells:
                ok = c.error is None and math.isfinite(c.value) and c.delta <= rep.tolerance
                bad += not ok
                note = f"table {table_id} {c.label} gamma={c.gamma:g}: delta={c.delta:.3e} {c.error or ''}"
                chk.row(ok, c.delta, c.converged, note)
            if not rep.passed and not bad:
                chk.fail(1, f"table {table_id} report did not pass")
        return chk


# ----------------------------------------------------------------------
# field_scan: figure 7 on its default grid
# ----------------------------------------------------------------------

class FieldScan:
    name = "field_scan"
    hit = (
        "tables.figure_curves", "tables.scan_spectrum", "quantum_dot.solve_state",
        "engine.locate_q0", "engine.shift_params", "engine.b_coefficients",
        "engine.v_series", "engine.solve_hierarchy", "engine.pade_stability",
        "engine.pade_fit",
    )

    def prepare(self, seed: int):
        return json.loads(FIELD_REFERENCE.read_text())

    def describe(self, reference) -> dict:
        return {"figure": 7, "grid": list(tables.DEFAULT_GAMMA_GRID), "seed_used": False}

    def run(self, reference, calls: list):
        return _timed(calls, tables.figure_curves, 7)

    def check(self, reference, out) -> Check:
        chk = Check()
        ref_rows, ref_x = reference["rows"], reference["crossings"]
        if isinstance(out, Exception):
            chk.attempted = len(ref_rows) + len(ref_x)
            chk.rows = chk.unconverged = len(ref_rows)
            chk.fail(chk.attempted, f"figure_curves(7) raised: {out}")
            return chk
        records, crossings = out
        for i in range(max(len(records), len(ref_rows))):
            if i >= len(records) or i >= len(ref_rows):
                chk.row(False, math.nan, False, f"row {i}: missing or extra")
                continue
            r, (label, gamma, energy) = records[i], ref_rows[i]
            err = abs(r.energy - energy)
            ok = r.label == label and r.gamma == gamma and r.error is None and err <= FIELD_TOL_RY
            chk.row(ok, err, r.converged, f"{r.label} gamma={r.gamma:g}: |dE|={err:.3e} {r.error or ''}")
        unmatched = [(c.state_a, c.state_b, 0.5 * (c.gamma_lo + c.gamma_hi)) for c in crossings]
        matched = 0
        for a, b, lo, hi in ref_x:
            mid = 0.5 * (lo + hi)
            match = next((u for u in unmatched if u[:2] == (a, b) and abs(u[2] - mid) <= CROSSING_TOL), None)
            if match is None:
                chk.notes.append(f"missing crossing {a} x {b} near gamma={mid:.4f}")
            else:
                unmatched.remove(match)
                matched += 1
        n_x = max(len(ref_x), len(crossings))
        chk.attempted += n_x
        if n_x > matched:
            chk.fail(n_x - matched, f"{len(unmatched)} extra crossings: {unmatched[:3]}")
        return chk


def record_field_reference(path: Path = FIELD_REFERENCE) -> None:
    """Write figure 7's rows and crossings as the field_scan reference."""
    records, crossings = tables.figure_curves(7)
    if any(not math.isfinite(r.energy) for r in records):
        raise RuntimeError("figure 7 has non-finite rows; refusing to record them")
    data = {
        "source": "tables.figure_curves(7) on the default grid",
        "max_pade_spread": max(r.pade_spread for r in records),
        "rows": [[r.label, r.gamma, r.energy] for r in records],
        "crossings": [[c.state_a, c.state_b, c.gamma_lo, c.gamma_hi] for c in crossings],
    }
    path.write_text(json.dumps(data, indent=0) + "\n")


# ----------------------------------------------------------------------
# distinct_states: seeded single solves, no radial problem repeated
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Draw:
    """One drawn state: system "ion" or "rm", quantum numbers and field."""

    system: str
    k: int
    m: int
    gamma: float
    gamma_d: float

    @property
    def params(self) -> DotParams:
        return DotParams(gamma=self.gamma, gamma_d=self.gamma_d)

    @property
    def key(self) -> tuple:
        """(k, |m|, kappa) with kappa = Gamma^2/8 (ion) or Gamma^2/2 (rm)."""
        g = self.params.gamma_eff
        kappa = g * g / (8.0 if self.system == "ion" else 2.0)
        return (self.k, abs(self.m), float(f"{kappa:.12g}"))


def draw_states(seed: int) -> list[Draw]:
    """Stratified draw of distinct states; a draw that repeats a key is redrawn.

    In each (system, k, |m|) cell, log Gamma takes one value in each of
    `strata` equal slices, all at the same random offset within their slice
    (systematic sampling), so every value is log-uniform while the number of
    values that fall in any Gamma interval varies by at most one per interval.
    """
    rng = random.Random(seed)
    lo, hi = (math.log(x) for x in GAMMA_RANGE)
    draws, keys = [], set()
    for system in SYSTEMS:
        for k in range(K_MAX + 1):
            for am in range(M_MAX + 1):
                strata = S_STRATA if am == 0 else OTHER_STRATA
                offset = rng.random()
                for stratum in range(strata):
                    frac = offset
                    while True:
                        g_eff = math.exp(lo + (stratum + frac) / strata * (hi - lo))
                        gamma = rng.uniform(0.0, min(FIELD_MAX, 0.5 * g_eff))
                        m = am * rng.choice((1, -1))
                        draw = Draw(system, k, m, gamma, math.sqrt(g_eff * g_eff - gamma * gamma))
                        if draw.key not in keys:
                            break
                        frac = rng.random()
                    keys.add(draw.key)
                    draws.append(draw)
    rng.shuffle(draws)
    return draws


def check_keys_distinct(draws: list[Draw]) -> None:
    keys = [d.key for d in draws]
    if len(set(keys)) != len(keys):
        raise ValueError(f"{len(keys) - len(set(keys))} radial keys repeat in the draw")


def oracle_energy(draw: Draw) -> float:
    """Finite-difference energy in Ry*, the same mapping as oracle.cross_check."""
    d = draw.params
    g = d.gamma_eff
    if draw.system == "ion":
        w, scale = HybridPotential(a_osc=g * g / 4.0, c_coul=2.0), 1.0
    else:
        w, scale = HybridPotential(a_osc=g * g / 16.0, c_coul=1.0), 2.0
    problem = oracle.RadialProblem.auto_sized(draw.m, w, draw.k)
    return scale * oracle.solve_radial_fd(problem, draw.k) + draw.m * d.gamma


class DistinctStates:
    name = "distinct_states"
    hit = (
        "quantum_dot.ion_record", "quantum_dot.two_electron_record",
        "quantum_dot.solve_state", "engine.locate_q0", "engine.solve_hierarchy",
        "engine.pade_stability", "engine.pade_fit", "_dd.dd_pade_fit",
        "oracle.solve_radial_fd",
    )

    def prepare(self, seed: int):
        draws = draw_states(seed)
        check_keys_distinct(draws)
        calls = []
        for dr in draws:
            st = StateLabel(dr.k, dr.m)
            target = st if dr.system == "ion" else TwoElectronLevel(rm=st, cm_k=0, cm_m=0)
            calls.append((dr, dr.params, target))
        return calls

    def describe(self, calls) -> dict:
        draws = [dr for dr, _, _ in calls]
        return {
            "states": len(draws),
            "s_states": sum(dr.m == 0 for dr in draws),
            "ion_states": sum(dr.system == "ion" for dr in draws),
            "gamma_eff_range": list(GAMMA_RANGE),
            "seed_used": True,
        }

    def run(self, inputs, calls: list):
        out = []
        for dr, d, target in inputs:
            fn = quantum_dot.ion_record if dr.system == "ion" else quantum_dot.two_electron_record
            out.append(_timed(calls, fn, d, target))
        return out

    def check(self, calls, records) -> Check:
        chk = Check()
        for (dr, _, _), rec in zip(calls, records):
            where = f"{dr.system} k={dr.k} m={dr.m} Gamma={dr.params.gamma_eff:.6g}"
            if isinstance(rec, Exception):
                chk.row(False, math.nan, False, f"{where}: {rec}")
                continue
            energy = rec.energy
            if dr.system == "rm":
                energy -= quantum_dot.cm_energy(dr.params, 0, 0)
            try:
                err = abs(energy - oracle_energy(dr))
            except PsletError as e:
                chk.row(False, math.nan, rec.converged, f"{where}: oracle failed: {e}")
                continue
            ok = math.isfinite(energy) and err <= ORACLE_TOL_RY
            chk.row(ok, err, rec.converged, f"{where}: |E - FD| = {err:.3e}")
        return chk


WORKLOADS = {w.name: w for w in (GoldenTables(), FieldScan(), DistinctStates())}
