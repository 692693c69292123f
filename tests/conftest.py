"""Fixtures shared by the test modules."""

import pytest

from pslet import quantum_dot
from pslet.errors import HierarchyResidual


@pytest.fixture
def failing_solver(monkeypatch):
    """Make every radial solve raise; the list collects the solve_state calls.

    The radial memo starts cold, so no level is served from an earlier solve.
    """
    calls = []

    def failing(*args):
        calls.append(args)
        raise HierarchyResidual("forced failure")

    quantum_dot.radial_solution.cache_clear()
    monkeypatch.setattr(quantum_dot, "solve_state", failing)
    yield calls
    quantum_dot.radial_solution.cache_clear()
