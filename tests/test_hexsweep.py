"""tools/hexsweep.py --compare, the check behind every bit-identity claim."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEXSWEEP = os.path.join(ROOT, "tools", "hexsweep.py")

LINES = [
    "ion G=0.05 k=0 m=0 double 9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08",
    "rm G=2.0 k=5 m=3 extended error:HierarchyResidual",
    "figure 7 row 0 1s 0x1.8p+0,0x1.fp-1,0x0.0p+0",
    "origin oscillator G=0.01 k=0 m=0 0x1.4p+3,0x1.0p+1,-0x1.0p+0,0x1.0p-1",
]


def _compare(tmp_path, a_lines, b_lines):
    a, b = tmp_path / "parent.txt", tmp_path / "change.txt"
    a.write_text("".join(line + "\n" for line in a_lines))
    b.write_text("".join(line + "\n" for line in b_lines))
    proc = subprocess.run(
        [sys.executable, HEXSWEEP, "--compare", str(a), str(b)],
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
