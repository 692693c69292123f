"""Two interacting electrons: level ordering and singlet-triplet crossings.

The pair Hamiltonian separates into a center-of-mass oscillator (exact) and
a relative-motion problem with the Coulomb repulsion (solved by the shifted
expansion).  The Pauli principle ties the pair spin to the parity of the
relative angular momentum, so level crossings in a magnetic field flip the
ground state between singlet and triplet.

Run:  python demos/two_electron_levels.py
"""

from pslet import DotParams, StateLabel, TwoElectronLevel, ee_interaction, level_order, scan_spectrum, tables, total_energy

print("=== pair interaction energy vs confinement ===")
print("E_ee depends only on the combined measure Gamma = sqrt(g^2 + g_d^2):")
for g_eff in (0.1, 0.5, 1.0, 2.5, 5.0):
    d = DotParams(gamma=0.0, gamma_d=g_eff)
    row = "  ".join(
        f"{StateLabel(k, m).name.rstrip('+')}={ee_interaction(d, StateLabel(k, m)):.4f}"
        for k, m in [(0, 0), (1, 0), (0, 1), (0, 2)]
    )
    print(f"  Gamma={g_eff:4.1f}:  {row}")

print()
print("=== quantum size effect at zero field ===")
print("shrinking the dot (raising gamma_d) reorders the sixteen lowest levels:")
for gamma_d in (1.0, 0.2, 0.05):
    d = DotParams(gamma=0.0, gamma_d=gamma_d)
    ordered = level_order(d, tables.golden_states(4))
    tags = "".join(tag for tag, _ in ordered)
    print(f"  gamma_d={gamma_d:4.2f}:  {tags}")
print("(watch pairs like e/h and n/k swap as the dot shrinks)")

print()
print("=== singlet-triplet oscillation in a field ===")
singlet = TwoElectronLevel(rm=StateLabel(0, 0), cm_k=0, cm_m=0)
triplet = TwoElectronLevel(rm=StateLabel(0, -1), cm_k=0, cm_m=0)
next_singlet = TwoElectronLevel(rm=StateLabel(0, -2), cm_k=0, cm_m=0)
d0 = DotParams(gamma=0.0, gamma_d=0.2)
grid = [0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4]
records, crossings = scan_spectrum([singlet, triplet, next_singlet], d0, grid)

print(f"{'gamma':>6} {singlet.name:>14} {triplet.name:>14} {next_singlet.name:>14}  ground")
for i, g in enumerate(grid):
    row = [records[j * len(grid) + i].energy for j in range(3)]
    winner = [singlet, triplet, next_singlet][row.index(min(row))]
    print(f"{g:6.2f} {row[0]:14.4f} {row[1]:14.4f} {row[2]:14.4f}  s={winner.s}")

print()
print("crossings refined by bisection:")
for c in crossings:
    print(f"  {c.state_a} x {c.state_b} in gamma = ({c.gamma_lo:.4f}, {c.gamma_hi:.4f})")

print()
print("one full level with its spin label:")
lvl = total_energy(DotParams(gamma=0.2, gamma_d=0.2), 0, -1, 0, 0)
print(f"  {lvl.name}: E = {lvl.energy:.4f} Ry*, spin {lvl.s} (triplet)")
