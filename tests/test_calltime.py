"""tools/calltime.py at one round: a row per k, every layer timed where it runs."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import calltime  # noqa: E402


def test_one_round_times_every_layer_of_every_k(capsys):
    assert calltime.main(["--rounds", "1", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    ks = [f"k{k}" for k in range(7)]
    assert out["rounds"] == 1 and len(out["states"]) == 6
    for layer in ("hierarchy", "ladder", "extended"):
        assert list(out["ms"][layer]) == ks
    # every state solves at every k on the double path; the compiled table
    # ends at K_TAB = 5, so k = 6 has no extended step
    for layer, times in out["ms"].items():
        for k, t in times.items():
            timed = out["states_timed"][layer][k]
            if layer == "extended" and k == "k6":
                assert t is None and timed == 0
            else:
                assert timed == 6 and 0.0 < t < 1e3
    assert calltime.main(["--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("best of 1 rounds") and len(lines) == 2 + 7
