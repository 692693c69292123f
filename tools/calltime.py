"""Best-of-N wall time of one call of each solve layer, for k = 0 to 6.

Times the checkout the script sits in (its src/ goes first on sys.path).
The layers are one engine.solve_hierarchy call (the double correction
hierarchy at the default order), one engine.pade_stability call (the
double Pade ladder) and one extended step (engine._extended: the dd
origin polish, the compiled-table corrections and the dd Pade ladder).  Each runs on six fixed sweep states per k, the ion and relative
motion at Gamma 0.2, 0.7 and 2 with |m| = 1, from the inputs a double solve
hands it.  Each call is timed on its own with time.perf_counter.  A row
gives, per layer, each state's fastest call over N rounds, averaged over
the states.  A round times every state of every k once, so host drift
reaches all rows alike.  A call that raises is left out (the ladder of a
state whose hierarchy fails; the extended step above the compiled table's
K_TAB), and the row's count says how many states each average holds.

    python tools/calltime.py                 # best of 20 rounds
    python tools/calltime.py --rounds 5 --json

To compare two checkouts, run each one's copy in turn, alternating, with
OPENBLAS_NUM_THREADS=1 as the benchmark sets it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pslet import engine  # noqa: E402
from pslet.errors import PsletError  # noqa: E402
from pslet.quantum_dot import radial_potential  # noqa: E402

KS = range(7)
STATES = tuple((system, gamma, 1) for system in ("ion", "rm") for gamma in (0.2, 0.7, 2.0))
LAYERS = ("hierarchy", "ladder", "extended")


def _calls(system: str, gamma: float, k: int, m: int) -> dict:
    """{layer: a no-argument callable} for one state, its inputs made here."""
    p = radial_potential(system, gamma)
    s = engine.StateIndex.from_azimuthal(k, m)
    q0 = engine.locate_q0(p, s)
    sp = engine.shift_params(p, q0, s)
    J = 2 * engine.DEFAULT_ORDER + 2
    v = engine.v_series(engine.b_coefficients(p, sp, J + 2), sp.beta, J)
    lead = engine.leading_energy(p, sp)

    def hierarchy():
        return engine.solve_hierarchy(v, k, engine.DEFAULT_ORDER, sp, lead)[0]

    calls = {"hierarchy": hierarchy, "extended": lambda: engine._extended(p, s, q0)}
    try:
        expansion = hierarchy()
    except PsletError:
        return calls
    return calls | {"ladder": lambda: engine.pade_stability(expansion)}


def _seconds(call) -> float | None:
    start = time.perf_counter()
    try:
        call()
    except PsletError:
        return None
    return time.perf_counter() - start


def measure(rounds: int) -> dict:
    """{layer: {k: (mean of the states' fastest ms, states averaged)}} over rounds rounds."""
    calls = {(k, state): _calls(*state[:2], k, state[2]) for k in KS for state in STATES}
    best = {}
    for _ in range(rounds):
        for key, layers in calls.items():
            for layer, call in layers.items():
                t = _seconds(call)
                if t is not None:
                    best[key, layer] = min(t, best.get((key, layer), t))
    out = {layer: {} for layer in LAYERS}
    for layer in LAYERS:
        for k in KS:
            times = [best[(k, state), layer] for state in STATES if ((k, state), layer) in best]
            out[layer][k] = (1e3 * sum(times) / len(times) if times else None, len(times))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=20, help="N: each call's best of N")
    parser.add_argument("--json", action="store_true", help="print one JSON object instead")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    ms = measure(args.rounds)
    if args.json:
        print(json.dumps({
            "rounds": args.rounds,
            "states": [list(state) for state in STATES],
            "ms": {layer: {f"k{k}": t for k, (t, _) in rows.items()} for layer, rows in ms.items()},
            "states_timed": {layer: {f"k{k}": n for k, (_, n) in rows.items()}
                             for layer, rows in ms.items()},
        }))
        return 0
    print(f"best of {args.rounds} rounds, ms per call, mean over {len(STATES)} states "
          "(states timed in brackets)")
    print(f"{'k':>2} " + " ".join(f"{layer:>16}" for layer in LAYERS))
    for k in KS:
        cells = []
        for layer in LAYERS:
            t, n = ms[layer][k]
            cells.append(f"{'-' if t is None else f'{t:.3f}':>12} ({n})")
        print(f"{k:>2} " + " ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
