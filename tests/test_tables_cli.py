"""Golden-data plumbing, figure emission, and the command-line interface."""

import pytest

from pslet import cli, tables


class TestGoldenData:
    @pytest.mark.parametrize("table_id,rows", [(1, 75), (2, 48), (3, 48), (4, 64), (5, 66)])
    def test_row_counts(self, table_id, rows):
        assert len(tables.load_golden(table_id)) == rows

    def test_typo_correction_stored(self):
        rows = tables.load_golden(3)
        cell = [r for r in rows if r["k"] == "0" and r["m"] == "1" and r["Gamma"] == "4"]
        assert float(cell[0]["energy"]) == 1.7107

    def test_spin_column_follows_parity(self):
        for table_id in (4, 5):
            for row in tables.load_golden(table_id):
                assert int(row["s"]) == abs(int(row["m"])) % 2

    def test_bad_table_id(self):
        with pytest.raises(ValueError):
            tables.load_golden(6)

    def test_radial_names(self):
        assert tables.radial_name(0, 1) == "2p"
        assert tables.radial_name(3, 0) == "4s"
        assert tables.radial_name(0, 4) == "5g"


class TestGrids:
    def test_parse(self):
        assert tables.parse_grid("0:0.4:0.01") == (0.0, 0.4, 0.01)

    def test_parse_rejects_bad_specs(self):
        for bad in ("0:0.4", "0:0.4:-0.1", "1:0:0.1"):
            with pytest.raises(ValueError):
                tables.parse_grid(bad)


class TestFigures:
    def test_free_ion_curves_have_minima_only_for_negative_m(self):
        records, _ = tables.figure_curves(1, grid=(0.0, 0.4, 0.02))
        by_label = {}
        for r in records:
            by_label.setdefault(r.label, []).append(r.energy)
        for (k, m) in tables._FIG_ION_STATES[1]:
            from pslet import StateLabel

            curve = by_label[StateLabel(k, m).name]
            interior_min = min(curve) < curve[0] and min(curve) < curve[-1]
            if m < 0:
                assert interior_min, f"({k},{m}) should dip"
            else:
                assert all(a <= b + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_interaction_energy_monotone_in_confinement(self):
        records, crossings = tables.figure_curves(5, grid=(0.5, 5.0, 0.75))
        by_label = {}
        for r in records:
            by_label.setdefault(r.label, []).append((r.gamma_eff, r.energy))
        for label, pts in by_label.items():
            energies = [e for _, e in sorted(pts)]
            assert all(a < b for a, b in zip(energies, energies[1:])), label

    def test_two_electron_scan_detects_singlet_triplet(self):
        records, crossings = tables.figure_curves(7, grid=(0.0, 0.2, 0.05))
        pairs = {(c.state_a, c.state_b) for c in crossings}
        assert any(
            {"(0,0;0,0;0)", "(0,-1;0,0;1)"} == {a, b} for a, b in pairs
        )

    def test_bad_figure_id(self):
        with pytest.raises(ValueError):
            tables.figure_curves(8)


class TestCsvEmission:
    def test_records_header_is_pinned(self):
        records, _ = tables.figure_curves(1, grid=(0.0, 0.1, 0.1))
        text = tables.records_csv(records)
        assert text.splitlines()[0] == "label,gamma,gamma_d,Gamma,energy,leading_fraction,pade_spread"

    def test_records_bit_stable(self):
        records, _ = tables.figure_curves(1, grid=(0.0, 0.1, 0.05))
        assert tables.records_csv(records) == tables.records_csv(records)

    def test_crossings_header(self):
        text = tables.crossings_csv([])
        assert text == "state_a,state_b,gamma_lo,gamma_hi\n"


class TestCli:
    def test_solve_ion_ground_state(self, capsys):
        code = cli.main(
            ["solve", "--system", "ion", "--k", "0", "--m", "0",
             "--gamma", "0", "--gamma-d", "0.2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1s" in out
        energy = float(out.split("energy=")[1].split()[0])
        assert energy == pytest.approx(0.8162, abs=5e-4)

    def test_solve_two_electron(self, capsys):
        # this state's order ladder genuinely wobbles just above the 5e-5
        # stability tolerance (even in extended precision), so the solve
        # reports its correct energy but exits 3 = not converged
        code = cli.main(
            ["solve", "--system", "two_electron", "--k", "0", "--m", "0",
             "--K", "0", "--M", "0", "--gamma", "0", "--gamma-d", "1"]
        )
        out = capsys.readouterr().out
        energy = float(out.split("energy=")[1].split()[0])
        assert energy == pytest.approx(3.3196, abs=1e-3)
        assert "converged=no" in out
        assert code == 3

    def test_solve_exit_zero_when_converged(self, capsys):
        code = cli.main(
            ["solve", "--system", "two_electron", "--k", "0", "--m", "1",
             "--K", "0", "--M", "0", "--gamma", "0", "--gamma-d", "0.05"]
        )
        out = capsys.readouterr().out
        assert code == 0
        energy = float(out.split("energy=")[1].split()[0])
        assert energy == pytest.approx(0.3062, abs=1e-3)

    def test_solve_without_coulomb(self, capsys):
        code = cli.main(
            ["solve", "--system", "ion", "--k", "0", "--m", "1",
             "--gamma", "0.1", "--gamma-d", "0.2", "--no-coulomb"]
        )
        out = capsys.readouterr().out
        assert code == 0
        energy = float(out.split("energy=")[1].split()[0])
        assert energy == pytest.approx(0.547214, abs=1e-6)

    def test_usage_error_exit_code(self):
        assert cli.main(["solve", "--system", "martian", "--k", "0", "--m", "0",
                         "--gamma", "0", "--gamma-d", "0.2"]) == 1

    def test_scan_writes_files(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = cli.main(
            ["scan", "--system", "two_electron", "--states", "0,0;0,-1",
             "--gamma", "0.05:0.1:0.05", "--gamma-d", "0.2",
             "--output", str(out)]
        )
        assert code == 0
        assert out.exists()
        sidecar = tmp_path / "scan.crossings.csv"
        assert sidecar.exists()
        lines = out.read_text().splitlines()
        assert lines[0].startswith("label,gamma,")
        assert len(lines) == 5
        assert len(sidecar.read_text().splitlines()) == 2  # header + B/A crossing

    def test_scan_grid_stops_at_hi(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = cli.main(
            ["scan", "--system", "ion", "--states", "0,0", "--gamma", "0:0.36:0.1",
             "--gamma-d", "0.2", "--no-interaction", "--output", str(out)]
        )
        assert code == 0
        gammas = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert gammas == pytest.approx([0.0, 0.1, 0.2, 0.3], abs=1e-12)

    @pytest.mark.parametrize(
        "command",
        [
            ["scan", "--system", "ion", "--states", "0,0", "--gamma", "0.3:0.3:0.1",
             "--gamma-d", "0.2"],
            ["figure", "2", "--gamma", "0.3:0.3:0.1"],
        ],
        ids=["scan", "figure"],
    )
    @pytest.mark.parametrize(
        "flags", [["--pade", "4", "5"], ["--precision", "extended"]], ids=["pade", "precision"]
    )
    def test_solver_flags_reach_the_solver(self, tmp_path, capsys, command, flags):
        default, changed = tmp_path / "default.csv", tmp_path / "changed.csv"
        assert cli.main(command + ["--output", str(default)]) == 0
        assert cli.main(command + flags + ["--output", str(changed)]) == 0
        assert changed.read_text() != default.read_text()

    def test_scan_oracle_column(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = cli.main(
            ["scan", "--system", "ion", "--states", "0,0", "--gamma", "0:0:0.1",
             "--gamma-d", "0.2", "--oracle", "--output", str(out)]
        )
        assert code == 0
        header, row = out.read_text().splitlines()
        assert header.endswith(",oracle_delta")
        assert abs(float(row.split(",")[-1])) < 1e-3

    @pytest.mark.parametrize("gamma,gamma_d", [("nan", "0.2"), ("0", "inf")])
    def test_non_finite_field_is_usage_error(self, capsys, gamma, gamma_d):
        code = cli.main(["solve", "--system", "ion", "--k", "0", "--m", "0",
                         "--gamma", gamma, "--gamma-d", gamma_d])
        assert code == 1
        assert "finite" in capsys.readouterr().err

    def test_figure_writes_files_deterministically(self, tmp_path):
        out = tmp_path / "fig1.csv"
        code = cli.main(
            ["figure", "1", "--gamma", "0:0.1:0.05", "--output", str(out)]
        )
        assert code == 0
        first = out.read_bytes()
        assert cli.main(["figure", "1", "--gamma", "0:0.1:0.05", "--output", str(out)]) == 0
        assert out.read_bytes() == first

    def test_table_command(self, tmp_path, capsys):
        out = tmp_path / "t4.csv"
        code = cli.main(["table", "4", "--output", str(out)])
        report_text = capsys.readouterr().out
        assert code == 0
        assert "max |delta|" in report_text
        lines = out.read_text().splitlines()
        assert len(lines) == 65
        assert lines[0].startswith("label,gamma,gamma_d,Gamma,energy,reference,delta")

    def test_table_tolerance_failure_exit_code(self, tmp_path, capsys):
        out = tmp_path / "t4.csv"
        code = cli.main(["table", "4", "--tolerance", "1e-9", "--output", str(out)])
        capsys.readouterr()
        assert code == 3
