"""tools/hexsweep.py --compare, the check behind every bit-identity claim."""

import hashlib
import importlib.util
import os
import subprocess
import sys

from pslet.quantum_dot import SpectrumRecord

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEXSWEEP = os.path.join(ROOT, "tools", "hexsweep.py")

LINES = [
    "ion G=0.05 k=0 m=0 double 9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08",
    "rm G=2.0 k=5 m=3 double error:HierarchyResidual",
    "figure 7 row 0 1s 0x1.8p+0,0x1.fp-1,0x0.0p+0",
    "origin oscillator G=0.01 k=0 m=0 0x1.4p+3,0x1.0p+1,-0x1.0p+0,0x1.0p-1",
]


def _compare(tmp_path, a_lines, b_lines, *flags):
    a, b = tmp_path / "parent.txt", tmp_path / "change.txt"
    a.write_text("".join(line + "\n" for line in a_lines))
    b.write_text("".join(line + "\n" for line in b_lines))
    proc = subprocess.run(
        [sys.executable, HEXSWEEP, "--compare", str(a), str(b), *flags],
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc, a, b


def test_equal_files_differ_nowhere(tmp_path):
    proc, _, _ = _compare(tmp_path, LINES, LINES)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 of 4 entries differ"]


def test_changed_and_one_sided_entries_are_named(tmp_path):
    changed = LINES[0][:-1] + "9"  # one hex digit of the digest
    proc, a, b = _compare(tmp_path, LINES[:3], [changed] + LINES[1:])
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "differs: ion G=0.05 k=0 m=0 double",
        f"differs: origin oscillator G=0.01 k=0 m=0 (only in {b})",
        "2 of 4 entries differ",
    ]
    proc, a, b = _compare(tmp_path, LINES, LINES[1:])
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        f"differs: ion G=0.05 k=0 m=0 double (only in {a})",
        "1 of 4 entries differ",
    ]


def _solve_line(key, digest, energy, spread, converged=True):
    return (f"{key} {digest} energy={energy.hex()} spread={spread.hex()} "
            f"converged={converged} ladder=None,{energy.hex()}")


KEY = "rm G=0.2 k=1 m=0 extended"
PARENT = [_solve_line(KEY, "aa", 1.0, 2.0**-10), LINES[0]]


def test_move_inside_its_spread_is_listed_and_passes(tmp_path):
    change = [_solve_line(KEY, "bb", 1.0 + 2.0**-12, 2.0**-11), LINES[0]]
    proc, _, _ = _compare(tmp_path, PARENT, change, "--moves")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"moved: {KEY} |dE| 2.441e-04, 0.25 / 0.5 of the spread",
        f"1 of 2 entries differ; largest move |dE| 2.441e-04 (larger spread 9.766e-04) at {KEY}"
        "; 0 past their spread or unjudged",
    ]
    # plain --compare keeps its bit-exact verdict on the same files
    proc, _, _ = _compare(tmp_path, PARENT, change)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [f"differs: {KEY}", "1 of 2 entries differ"]


def test_move_past_its_spread_fails(tmp_path):
    change = [_solve_line(KEY, "bb", 1.0 + 2.0**-8, 2.0**-10), LINES[0]]
    proc, _, _ = _compare(tmp_path, PARENT, change, "--moves")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[0] == f"moved: {KEY} |dE| 3.906e-03, 4 / 4 of the spread"
    assert proc.stdout.splitlines()[-1].endswith("; 1 past their spread or unjudged")


def test_converged_flip_is_named(tmp_path):
    change = [_solve_line(KEY, "bb", 1.0, 2.0**-10, converged=False), LINES[0]]
    proc, _, _ = _compare(tmp_path, PARENT, change, "--moves")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == (
        f"moved: {KEY} |dE| 0.000e+00, 0 / 0 of the spread, converged True -> False"
    )


def test_entry_without_a_spread_is_unjudged(tmp_path):
    changed = LINES[0][:-1] + "9"
    proc, a, _ = _compare(tmp_path, LINES, [changed] + LINES[1:3], "--moves")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "differs: ion G=0.05 k=0 m=0 double (no energy and spread to judge)",
        f"differs: origin oscillator G=0.01 k=0 m=0 (only in {a})",
        "2 of 4 entries differ; 2 past their spread or unjudged",
    ]


def _hexsweep():
    spec = importlib.util.spec_from_file_location("hexsweep", HEXSWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_extended_digest_covers_energy_corrections_and_ladder():
    # the extended path reads the compiled table and has no W and F tables
    hexsweep = _hexsweep()
    res, W, F = hexsweep.solve("ion", 0.2, 0, 0, "extended")
    assert res.precision == "extended" and (W, F) == ([], [])
    hexes = [res.energy.hex()] + [float(c).hex() for c in res.expansion.corrections]
    hexes += ["None" if v is None else v.hex() for v in res.staircase.values]
    assert hexsweep.solve_digest(res, W, F) == hashlib.sha256("\n".join(hexes).encode()).hexdigest()


def _figure_row(fig_id, energy, spread=2.0**-10):
    rec = SpectrumRecord(label="1s", gamma=0.1, gamma_d=0.2, gamma_eff=0.5, energy=energy,
                         leading_fraction=0.95, pade_spread=spread, converged=True)
    return _hexsweep().figure_row_line(fig_id, 0, rec)


def test_figure_row_spread_is_in_ry_like_its_energy():
    # ion rows (figures 1-4) carry 2 eps, relative-motion rows (5-7) 4 eps
    assert _figure_row(2, 1.0).endswith(f"spread={(2.0**-9).hex()} converged=True")
    assert _figure_row(7, 1.0).endswith(f"spread={(2.0**-8).hex()} converged=True")
    # the hex list keeps the record's own pade_spread, in engine units
    assert f",{(2.0**-10).hex()} energy=" in _figure_row(7, 1.0)


def test_figure_row_move_is_judged_by_its_spread_in_ry(tmp_path):
    # an ion row moved by 1.5 spreads in eps is 0.75 of its spread in Ry*
    ion = [_figure_row(2, 1.0)], [_figure_row(2, 1.0 + 1.5 * 2.0**-10)]
    proc, _, _ = _compare(tmp_path, *ion, "--moves")
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.splitlines()[0] == (
        "moved: figure 2 row 0 1s |dE| 1.465e-03, 0.75 / 0.75 of the spread"
    )
    # a relative-motion row passes at 3 spreads in eps and fails at 5
    rm = [_figure_row(7, 1.0)], [_figure_row(7, 1.0 + 3.0 * 2.0**-10)]
    proc, _, _ = _compare(tmp_path, *rm, "--moves")
    assert proc.returncode == 0, proc.stdout
    assert "0.75 / 0.75 of the spread" in proc.stdout
    rm = [_figure_row(7, 1.0)], [_figure_row(7, 1.0 + 5.0 * 2.0**-10)]
    proc, _, _ = _compare(tmp_path, *rm, "--moves")
    assert proc.returncode == 1, proc.stdout
    assert "1.25 / 1.25 of the spread" in proc.stdout
