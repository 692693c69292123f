"""The crossing search of scan_spectrum: bisection's leaf from far fewer probes.

_crossing_leaf must return the very floats that the plain bisection of a
grid cell ends in.  _bisection below is a copy of that loop, kept here as
the reference the search is held to.
"""

import math
import random
from functools import partial

import pytest

from pslet import quantum_dot, tables
from pslet.errors import NotConverged
from pslet.quantum_dot import (
    CROSSING_TOL,
    DotParams,
    StateLabel,
    TwoElectronLevel,
    _crossing_leaf,
    scan_spectrum,
    spectrum_record,
)


def _bisection(f, lo, hi, flo):
    """The crossing bisection of scan_spectrum, as a plain loop."""
    while hi - lo > CROSSING_TOL:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if not math.isfinite(fm):
            break  # keep the unrefined interval
        if fm == 0.0:
            lo = hi = mid
            break
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return lo, hi


class Counted:
    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, g):
        self.calls += 1
        return self.f(g)


def _smooth_cell(rng):
    """A grid, a cell j on it and a smooth f with its one root inside the cell."""
    n = rng.choice([2, 2, 3, 4, 5, 6, 8])
    step = rng.uniform(0.002, 0.05)
    g0 = rng.uniform(0.0, 0.5)
    grid = [g0 + i * step for i in range(n)]
    j = rng.randrange(n - 1)
    root = rng.uniform(grid[j], grid[j + 1])
    scale = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4, 1)
    # (g - root) times a factor that stays within [0.5, 2.5] on the grid
    c1 = rng.uniform(-0.5, 0.5) / (n * step)
    c2 = rng.uniform(0.0, 1.0) / (n * step) ** 2

    def f(g):
        x = g - root
        return scale * x * (1.0 + c1 * x + c2 * x * x)

    return f, grid, j


def test_search_matches_bisection_bit_for_bit_on_smooth_cells():
    rng = random.Random(20)
    probes = bisect_calls = 0
    four_point_probes = []
    for _ in range(400):
        f, grid, j = _smooth_cell(rng)
        diffs = [f(g) for g in grid]
        if diffs[j] == 0.0 or diffs[j] * diffs[j + 1] >= 0.0:
            continue
        # a failed neighbour point narrows the fit, never the answer
        for i in (j - 1, j + 2):
            if 0 <= i < len(grid) and rng.random() < 0.2:
                diffs[i] = math.nan
        want = Counted(f)
        got = Counted(f)
        lo, hi = _crossing_leaf(got, grid, diffs, j)
        ref_lo, ref_hi = _bisection(want, grid[j], grid[j + 1], diffs[j])
        assert (lo.hex(), hi.hex()) == (ref_lo.hex(), ref_hi.hex()), (grid, j)
        probes += got.calls
        bisect_calls += want.calls
        if 0 < j < len(grid) - 2 and not any(map(math.isnan, diffs[j - 1 : j + 3])):
            four_point_probes.append(got.calls)
    assert bisect_calls > 3000
    # a cubic through four points finds the leaf at once; fewer points, on
    # these strongly curved f, may take a regula falsi round or two
    assert len(four_point_probes) > 50 and max(four_point_probes) <= 2
    assert probes < 0.5 * bisect_calls


@pytest.mark.parametrize("where", ["first", "last", "only"])
def test_search_matches_bisection_at_grid_ends(where):
    rng = random.Random(7)
    for _ in range(50):
        n = 2 if where == "only" else 6
        grid = [0.1 + 0.01 * i for i in range(n)]
        j = 0 if where in ("first", "only") else n - 2
        root = rng.uniform(grid[j], grid[j + 1])
        f = lambda g, r=root: math.expm1(3.0 * (g - r)) + 0.2 * (g - r) ** 2
        diffs = [f(g) for g in grid]
        got = _crossing_leaf(f, grid, diffs, j)
        assert got == _bisection(f, grid[j], grid[j + 1], diffs[j])


def test_roots_on_tree_nodes_give_bisections_zero_interval():
    # f vanishes exactly at a node of the bisection tree: bisection stops
    # there with lo == hi, and so must the search
    grid = [0.2, 0.21, 0.22]
    lo, hi = grid[0], grid[1]
    nodes = []
    while hi - lo > CROSSING_TOL:
        mid = 0.5 * (lo + hi)
        nodes.append(mid)
        lo = mid
    for node in nodes:
        f = lambda g, r=node: g - r
        diffs = [f(g) for g in grid]
        got = _crossing_leaf(f, grid, diffs, 0)
        assert got == _bisection(f, grid[0], grid[1], diffs[0])
        assert got[0] == got[1] == node


def test_three_sign_changes_in_a_cell_are_left_to_bisection():
    # the straight line through a two-point grid has its root at r2, the
    # middle of three roots, where f changes sign the other way; bisection
    # ends at r3, and so must the search
    r1, r2, r3 = 0.101, 0.1043, 0.109
    f = lambda g: (g - r1) * (g - r2) * (g - r3)
    grid = [0.1, 0.11]
    diffs = [f(g) for g in grid]
    want = _bisection(f, grid[0], grid[1], diffs[0])
    assert want[0] < r3 < want[1]
    assert _crossing_leaf(f, grid, diffs, 0) == want


def test_cells_no_wider_than_the_tolerance_need_no_probe():
    f = Counted(lambda g: g - 0.10004)
    grid = [0.1, 0.10008]
    assert _crossing_leaf(f, grid, [f.f(g) for g in grid], 0) == (0.1, 0.10008)
    assert f.calls == 0


class _Level:
    """A synthetic state with energy e(gamma)."""

    def __init__(self, name, e):
        self.name, self.e = name, e


def _record(state, d, fail=lambda g: False):
    if fail(d.gamma):
        raise NotConverged(f"no solve at {d.gamma}")
    return quantum_dot._record(state.name, d, state.e(d.gamma), quantum_dot._EXACT)


def test_failing_probe_keeps_the_unrefined_interval():
    states = [_Level("a", lambda g: g), _Level("b", lambda g: 0.0531)]
    grid = [0.0, 0.05, 0.1]
    off_grid = partial(_record, fail=lambda g: g not in grid)
    _, crossings = scan_spectrum(states, DotParams(0.0, 0.2), grid, evaluator=off_grid)
    assert [(c.gamma_lo, c.gamma_hi) for c in crossings] == [(0.05, 0.1)]


def test_scan_crossing_equals_bisection_with_real_solves():
    levels = [
        TwoElectronLevel(rm=StateLabel(0, 0), cm_k=0, cm_m=0),
        TwoElectronLevel(rm=StateLabel(0, -1), cm_k=0, cm_m=0),
    ]
    d0 = DotParams(0.0, 0.2)
    grid = [0.05, 0.1]
    _, crossings = scan_spectrum(levels, d0, grid)

    def diff(g):
        d = DotParams(g, 0.2)
        return spectrum_record(levels[0], d).energy - spectrum_record(levels[1], d).energy

    ref = _bisection(diff, grid[0], grid[1], diff(grid[0]))
    assert len(crossings) == 1
    assert (crossings[0].gamma_lo.hex(), crossings[0].gamma_hi.hex()) == tuple(x.hex() for x in ref)


class TestSolveCounts:
    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        real = quantum_dot.solve_state

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        quantum_dot.radial_solution.cache_clear()
        monkeypatch.setattr(quantum_dot, "solve_state", counting)
        yield calls
        quantum_dot.radial_solution.cache_clear()

    def test_singlet_triplet_scan(self, solves):
        # bisection made 22 solves: 4 grid rows and 9 halvings of 2 states
        levels = [
            TwoElectronLevel(rm=StateLabel(0, 0), cm_k=0, cm_m=0),
            TwoElectronLevel(rm=StateLabel(0, -1), cm_k=0, cm_m=0),
        ]
        _, crossings = scan_spectrum(levels, DotParams(0.0, 0.2), [0.05, 0.1])
        assert len(crossings) == 1
        assert len(solves) <= 12

    def test_table5_crossing_scan(self, solves):
        # the scan of acceptance criterion 4; bisection made 69 solves
        levels = dict(tables.golden_states(5))
        _, crossings = scan_spectrum(
            [levels["A"], levels["B"], levels["D"]], DotParams(0.0, 0.2), [0.0, 0.05, 0.1, 0.2]
        )
        assert len(crossings) == 3
        assert len(solves) <= 32


class TestDegenerateLevels:
    def test_degenerate_pair_has_no_crossing(self):
        # (1,-2;0,0;0) and (1,-1;0,-1;1) have one closed-form energy; their
        # rounded difference changes sign five times on this grid
        levels = [
            TwoElectronLevel(rm=StateLabel(1, -2), cm_k=0, cm_m=0),
            TwoElectronLevel(rm=StateLabel(1, -1), cm_k=0, cm_m=-1),
        ]
        evaluator = partial(spectrum_record, interaction=False)
        grid = [0.01 * i for i in range(41)]
        records, crossings = scan_spectrum(levels, DotParams(0.0, 0.2), grid, evaluator=evaluator)
        assert max(abs(a.energy - b.energy) for a, b in zip(records[:41], records[41:])) < 1e-15
        assert crossings == []

    def test_figure6_keeps_its_one_true_crossing(self):
        _, crossings = tables.figure_curves(6)
        assert len(crossings) == 1
        c = crossings[0]
        assert (c.state_a, c.state_b) == ("(0,-3;0,0;1)", "(1,0;0,0;0)")
        assert 0.07 < c.gamma_lo < c.gamma_hi < 0.0708
