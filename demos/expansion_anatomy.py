"""Inside the solver: shift geometry, correction ladder, resummation.

The engine expands each radial state about the minimum of its leading
classical energy term in powers of 1/lbar.  The raw series is useless on
its own (it grows nearly factorially); the Pade order ladder turns it into
table-grade eigenvalues and simultaneously measures its own convergence.

Run:  python demos/expansion_anatomy.py
"""

import numpy as np

from pslet import (
    HybridPotential,
    RadialProblem,
    StateIndex,
    solve_radial_fd,
    solve_state,
    wavefunction_eval,
)
from pslet.quantum_dot import radial_potential

# the impurity ground state at combined confinement 0.2
pot = radial_potential("ion", 0.2)
state = StateIndex.from_azimuthal(0, 0)
res = solve_state(pot, state)
sp = res.shift

print("=== expansion geometry ===")
print(f"origin q0          = {sp.q0:.6f} a*   (minimum of the leading term)")
print(f"frequency Omega    = {sp.omega:.6f}")
print(f"shift beta         = {sp.beta:.6f}     (kills the subleading term)")
print(f"shifted momentum   = {sp.lbar:.6f}     expansion parameter 1/lbar = {1/sp.lbar:.4f}")
print()
print("with 1/lbar = 0.63 this is nowhere near a small-parameter regime,")
print("which is exactly why the series needs resummation:")
print()
print("  n    E^(n)          partial sum")
total = res.expansion.leading_term
for n, c in enumerate(res.expansion.corrections):
    total += c / sp.lbar**n
    print(f"{n:>4}  {c: .4e}  {total: .8f}")

print()
print("=== Pade order ladder ===")
print("the [M/N] ladder members stabilize long before the plain sum does;")
print("the spread of the last five is the convergence certificate:")
for (M, N), value in zip(res.staircase.orders, res.staircase.values):
    shown = f"{value:.8f}" if value is not None else "   (fit failed)"
    print(f"  [{M}/{N}]  {shown}")
print(f"last-five spread = {res.staircase.spread:.2e}  converged = {res.staircase.converged}")
print(f"resummed eigenvalue = {res.energy:.8f}  (leading term carries {res.leading_fraction:.1%})")

print()
print("=== the same number from brute force ===")
# the oracle's full-scale problem is twice the engine's, with eigenvalue 2 eps
oracle_w = HybridPotential(a_osc=2.0 * pot.a_osc, c_coul=2.0 * pot.c_coul)
problem = RadialProblem.auto_sized(0, oracle_w, 0)
eps_fd = solve_radial_fd(problem, 0)
print(f"finite differences: {eps_fd:.6f}  vs  2 x engine: {2 * res.energy:.6f}")

print()
print("=== wavefunction reconstruction ===")
_, q_grid, u_ref = solve_radial_fd(problem, 0, return_vector=True)
x = np.sqrt(sp.lbar) * (q_grid - sp.q0) / sp.q0
center = np.abs(x) <= 2.0
psi = np.abs(wavefunction_eval(pot, state, q_grid[center], x_max=2.5))
ref = np.abs(u_ref[center])
gap = np.max(np.abs(psi / psi.max() - ref / ref.max()))
print(f"max |expansion - finite differences| on the trust region: {gap:.3f}")
print("(both max-normalized; the expansion is an energy method first, the")
print("wavefunction tail outside |x| <= 3 is not to be trusted)")
