"""The benchmark's span bindings still name functions that a solve calls.

perfbench/spans.py wraps (module, attribute) pairs of pslet in its traced
run, and each workload lists the spans that run must record.  A binding that
no longer resolves, or that no solve calls any more, makes the traced run
exit non-zero.  These tests read perfbench/ and change nothing there.
"""

import importlib
import importlib.util
import os
import sys

import pytest

from pslet import quantum_dot
from pslet.quantum_dot import DotParams, StateLabel

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


@pytest.mark.parametrize("module, attr", spans.BOUNDARIES, ids=[f"{m}.{a}" for m, a in spans.BOUNDARIES])
def test_every_boundary_resolves_to_a_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_the_engine_and_dd_spans_of_every_workload_are_recorded():
    # ion 2s at Gamma = 0.7 escalates to double-double; ion 2p stays in double
    d = DotParams(gamma=0.0, gamma_d=0.7)
    tracer = spans.Tracer()
    quantum_dot.radial_solution.cache_clear()
    tracer.install()
    try:
        quantum_dot.ion_record(d, StateLabel(1, 0))
        quantum_dot.ion_record(d, StateLabel(0, 1))
    finally:
        tracer.uninstall()
        quantum_dot.radial_solution.cache_clear()
    spans.assert_untraced()
    recorded = {span[0] for span in tracer.spans}
    needed = {name for w in workloads.WORKLOADS.values() for name in w.hit
              if name.startswith(("engine.", "_dd."))}
    assert needed and needed <= recorded, sorted(needed - recorded)
    precisions = [span[5].get("precision") for span in tracer.spans if span[0] == spans.SOLVE]
    assert precisions == ["extended", "double"]
