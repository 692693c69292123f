"""Spans around pslet's layer boundaries, recorded only in the traced run.

The tracer replaces module attributes with wrappers for the length of one
traced pass.  pslet resolves these names through the module namespace at
call time (``solve_state`` calls ``locate_q0`` as an ``engine`` global,
``figure_curves`` calls ``scan_spectrum`` as a ``tables`` global), so a
wrapper on the attribute sees every call that crosses the boundary.  Each
span is (name, start, end, parent, row): row is the ordinal of the
``quantum_dot.solve_state`` call the span belongs to, or -1 outside solves.
Spans stay in memory and are written out once the pass has ended.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time

SOLVE = "quantum_dot.solve_state"
SCAN = "tables.scan_spectrum"

# (module, attribute) pairs wrapped in the traced run.  The public entry
# points the benchmark calls come first; they give each call its own span.
BOUNDARIES = (
    ("pslet.tables", "compute_table"),
    ("pslet.tables", "figure_curves"),
    ("pslet.quantum_dot", "ion_record"),
    ("pslet.quantum_dot", "two_electron_record"),
    ("pslet.tables", "scan_spectrum"),
    ("pslet.quantum_dot", "solve_state"),
    ("pslet.engine", "locate_q0"),
    ("pslet.engine", "shift_params"),
    ("pslet.engine", "b_coefficients"),
    ("pslet.engine", "v_series"),
    ("pslet.engine", "solve_hierarchy"),
    ("pslet.engine", "pade_stability"),
    ("pslet.engine", "pade_fit"),
    ("pslet._dd", "dd_pade_fit"),
    ("pslet.oracle", "solve_radial_fd"),
)

_MARK = "__perfbench_span__"


class TraceError(RuntimeError):
    """The traced run cannot produce trustworthy per-layer numbers."""


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('pslet.')}.{attr}"


def radial_key(pot, state) -> tuple:
    """(k, l_eff, a/c^4): the radial problem a solve_state call stands for.

    By scaling, eps(a, c) = c^2 eps(a/c^4, 1), so calls that agree on this key
    solve the same radial problem; a/c^4 is Gamma^2/8 for the ion and
    Gamma^2/2 for relative motion.  12 significant digits absorb the rounding
    of the two mappings.
    """
    a, c = float(pot.a_osc), float(pot.c_coul)
    kappa = (a, 0.0) if c == 0.0 else (float(f"{a / c**4:.12g}"),)
    return (int(state.k), float(state.l_eff)) + kappa


def assert_untraced() -> None:
    """Raise if any boundary still carries a wrapper (untraced runs install none)."""
    for module, attr in BOUNDARIES:
        fn = getattr(importlib.import_module(module), attr, None)
        if hasattr(fn, _MARK):
            raise TraceError(f"{module}.{attr} is wrapped in an untraced pass")


class Tracer:
    """Records spans at the BOUNDARIES while installed."""

    def __init__(self):
        # [name, start_ns, end_ns, parent, row, info]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._rows = 0

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        for module_name, attr in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.uninstall()
                raise TraceError(
                    f"{module_name}.{attr} no longer exists; the traced run would record "
                    "zero for it, so update BOUNDARIES in perfbench/spans.py"
                )
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name(module_name, attr), original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, args)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                self._close(idx, {"error": type(err).__name__})
                raise
            if name == SOLVE:
                self._close(idx, {"precision": result.precision})
            elif name == SCAN:
                self._close(idx, {"records": len(result[0])})
            else:
                self._close(idx, None)
            return result

        setattr(traced, _MARK, name)
        return traced

    # -- spans -------------------------------------------------------------
    def _open(self, name: str, args=()) -> int:
        parent = self._stack[-1] if self._stack else -1
        row = self.spans[parent][4] if parent >= 0 else -1
        info = {}
        if name == SOLVE:
            info["key"] = radial_key(args[0], args[1])
            if row == -1:
                row, self._rows = self._rows, self._rows + 1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), None, parent, row, info])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, info) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        if info:
            span[5].update(info)
        if self._stack.pop() != idx:
            raise TraceError(f"span {span[0]} closed out of order")

    @contextlib.contextmanager
    def root(self, name: str):
        """A root span: the pass, or the output check."""
        if self._stack:
            raise TraceError(f"root span {name} opened inside another span")
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, None)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, row, info in self.spans:
                rec = {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "row": row}
                rec.update(info)
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Raises TraceError if a span is still open or if, for any root, the self
    times of its subtree do not add up to the root's duration.
    """
    children: dict[int, list[int]] = {}
    for i, (name, start, end, parent, _row, _info) in enumerate(spans):
        if end is None:
            raise TraceError(f"span {name} was never closed")
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    own = []
    for i, (_name, start, end, *_rest) in enumerate(spans):
        covered, reach = 0, start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        own.append(end - start - covered)
    totals = {}
    for i, span in enumerate(spans):
        root = i
        while spans[root][3] >= 0:
            root = spans[root][3]
        totals[root] = totals.get(root, 0) + own[i]
    for root, total in totals.items():
        duration = spans[root][2] - spans[root][1]
        if total != duration:
            raise TraceError(
                f"self times under {spans[root][0]} add up to {total} ns, "
                f"not to the root span's {duration} ns"
            )
    return own


def layer_metrics(spans: list[list], hit: tuple[str, ...], scale: float) -> dict[str, float]:
    """Per-layer counts and times of one traced pass.

    hit names the spans this workload must record; a boundary that records
    no call there fails the run rather than report zero.  Times are
    multiplied by scale, the pass's reference-speed time over its raw time
    (speed.py), so that they compare across runs as the pass times do.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)
    for name in hit:
        if name not in by_name:
            raise TraceError(f"{name} recorded no call; the program no longer calls it there")

    def idx(name):
        return by_name.get(name, [])

    def ms(indices):
        return scale * sum(spans[i][2] - spans[i][1] for i in indices) / 1e6

    def p50_ms(indices):
        if not indices:
            return 0.0
        return scale * statistics.median(spans[i][2] - spans[i][1] for i in indices) / 1e6

    def share(part, whole):
        return part / whole if whole else 0.0

    solves = idx(SOLVE)
    keys = {spans[i][5]["key"] for i in solves}
    extended = [i for i in solves if spans[i][5].get("precision") == "extended"]
    double = [i for i in solves if spans[i][5].get("precision") == "double"]
    fits = idx("engine.pade_fit")
    fds = idx("oracle.solve_radial_fd")

    scan_solves = 0
    scans = set(idx(SCAN))
    for i in solves:
        p = spans[i][3]
        while p >= 0 and p not in scans:
            p = spans[p][3]
        scan_solves += p >= 0
    scan_records = sum(spans[i][5].get("records", 0) for i in scans)

    return {
        "quantum_dot.solve_calls": len(solves),
        "quantum_dot.distinct_radial": len(keys),
        "quantum_dot.redundant_solve_share": share(len(solves) - len(keys), len(solves)),
        "quantum_dot.bisection_solves": scan_solves - scan_records,
        "quantum_dot.scan_self_ms": scale * sum(own[i] for i in scans) / 1e6,
        "engine.locate_q0.calls": len(idx("engine.locate_q0")),
        "engine.locate_q0.ms": ms(idx("engine.locate_q0")),
        "engine.prep_f64.ms": ms(
            idx("engine.shift_params") + idx("engine.b_coefficients") + idx("engine.v_series")
        ),
        "engine.hierarchy_f64.calls": len(idx("engine.solve_hierarchy")),
        "engine.hierarchy_f64.ms": ms(idx("engine.solve_hierarchy")),
        "engine.ladder_f64.ms": ms(idx("engine.pade_stability")),
        "series.pade_fit.calls": len(fits),
        "series.pade_fit.ms": ms(fits),
        "series.pade_fit.fail_share": share(sum("error" in spans[i][5] for i in fits), len(fits)),
        "engine.escalation_share": share(len(extended), len(solves)),
        "engine.extended.ms": scale * sum(own[i] for i in extended) / 1e6,
        "engine.solve_ms.double.p50": p50_ms(double),
        "engine.solve_ms.extended.p50": p50_ms(extended),
        "dd.dd_pade_fit.calls": len(idx("_dd.dd_pade_fit")),
        "dd.dd_pade_fit.ms": ms(idx("_dd.dd_pade_fit")),
        "oracle.solve_radial_fd.calls": len(fds),
        "oracle.solve_radial_fd.ms": ms(fds),
        "oracle.failures": sum("error" in spans[i][5] for i in fds),
    }
