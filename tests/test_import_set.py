"""What `import pslet` loads: numpy and pslet, with scipy and the process pool
deferred to the first call that uses them."""

import os
import subprocess
import sys

from pslet import oracle
from pslet.potentials import HybridPotential

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PROBE = """
import sys
import pslet, pslet.cli
print(sorted(m for m in sys.modules
             if m.split(".")[0] == "scipy" or m == "concurrent.futures.process"))
from pslet import oracle
from pslet.potentials import HybridPotential
problem = oracle.RadialProblem.auto_sized(0, HybridPotential(a_osc=0.01, c_coul=2.0), 0)
print(oracle.solve_radial_fd(problem, 0).hex())
print("scipy.linalg" in sys.modules)
"""


def test_import_loads_neither_scipy_nor_the_pool():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, value, linalg = proc.stdout.splitlines()
    assert loaded == "[]"
    # the first finite-difference solve loads scipy.linalg and returns the
    # value this process computes
    assert linalg == "True"
    problem = oracle.RadialProblem.auto_sized(0, HybridPotential(a_osc=0.01, c_coul=2.0), 0)
    assert float.fromhex(value) == oracle.solve_radial_fd(problem, 0)
