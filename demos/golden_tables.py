"""Reproduce the golden reference tables and emit figure data.

The package ships reference values for five tables; `compute_table` solves
every cell and diffs it against them.  The same machinery backs the CLI:

    pslet table 1
    pslet figure 7 --gamma 0:0.4:0.01 --output fig7.csv

Run:  python demos/golden_tables.py        (takes a minute or two)
"""

from pslet import tables

for table_id in (1, 4, 5):
    report = tables.compute_table(table_id)
    print(tables.diff_report(report))

print("cells flagged not-converged keep their (correct) energies but carry a")
print("ladder spread above the 5e-5 engine-unit gate (1e-4 Ry* for the ion,")
print("2e-4 Ry* for relative motion); the diff report lists them so downstream")
print("consumers can decide what to do with those rows.")
print()

print("figure data goes through the same records; a short scan:")
records, crossings = tables.figure_curves(7, grid=(0.0, 0.2, 0.05))
print(tables.records_csv(records[:8]))
print("crossings sidecar:")
print(tables.crossings_csv(crossings))
