import csv

import pytest

from starfuse.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRiskCommand:
    def test_benchmark_headline(self, capsys):
        code, out, _ = run_cli(capsys, "risk", "--pi0", "0.3", "--q0", "0.7372",
                               "--q", "0.3960,0.3960")
        assert code == 0
        assert "R0=0.1918" in out

    def test_truthful_headline(self, capsys):
        code, out, _ = run_cli(capsys, "risk", "--pi0", "0.3", "--q0", "0.3",
                               "--q", "0.3,0.3")
        assert code == 0
        assert "R0=0.1976" in out

    def test_empty_locals_rejected(self, capsys):
        code, _, err = run_cli(capsys, "risk", "--pi0", "0.3", "--q0", "0.5", "--q", "")
        assert code == 2
        assert "N >= 1" in err

    def test_degenerate_prior_names_invariant(self, capsys):
        code, _, err = run_cli(capsys, "risk", "--pi0", "1.0", "--q0", "0.5",
                               "--q", "0.5")
        assert code == 2
        assert "pi0" in err

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "risk.csv"
        code, _, _ = run_cli(capsys, "risk", "--pi0", "0.3", "--q0", "0.7372",
                             "--q", "0.3960,0.3960", "--csv", str(path))
        assert code == 0
        rows = list(csv.DictReader(path.open()))
        assert [r["k"] for r in rows] == ["0", "1", "2"]
        assert float(rows[0]["r0"]) == pytest.approx(0.1918, abs=5e-4)

    def test_reruns_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "risk", "--pi0", "0.3", "--q0", "0.7372",
                "--q", "0.3960,0.3960", "--csv", str(a))
        run_cli(capsys, "risk", "--pi0", "0.3", "--q0", "0.7372",
                "--q", "0.3960,0.3960", "--csv", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_risk_exits_domain(self, capsys, tmp_path):
        path = tmp_path / "risk.csv"
        code, out, err = run_cli(capsys, "risk", "--pi0", "0.3", "--q0", "0.7",
                                 "--q", "0.4,0.4", "--sigma", "0.01", "--csv", str(path))
        assert code == 3
        assert "not finite" in err
        assert "R0=" not in out
        assert not path.exists()

    def test_threads_flag_does_not_change_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "risk", "--pi0", "0.3", "--q0", "0.5", "--q", "0.5,0.5",
                "--csv", str(a), "--threads", "1")
        run_cli(capsys, "risk", "--pi0", "0.3", "--q0", "0.5", "--q", "0.5,0.5",
                "--csv", str(b), "--threads", "8")
        assert a.read_bytes() == b.read_bytes()


class TestGridCommand:
    def test_single_point_sweep_matches_risk(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "grid", "--sweep-pi0", "0.3:0.3:0.01",
                             "--tie-locals", "--grid-resolution", "0.002",
                             "--csv", str(path))
        assert code == 0
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 1
        assert float(rows[0]["risk_opt"]) == pytest.approx(0.1918, abs=5e-4)
        assert float(rows[0]["q0_opt"]) == pytest.approx(0.7372, abs=4e-3)

    def test_contour_csv(self, capsys, tmp_path):
        path = tmp_path / "contour.csv"
        code, out, _ = run_cli(capsys, "grid", "--contour", "--pi0", "0.3",
                               "--q0", "0.7372", "--resolution", "0.1",
                               "--csv", str(path))
        assert code == 0
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 81  # 9 x 9 grid at step 0.1
        risks = {(r["q1"], r["q2"]): float(r["risk"]) for r in rows}
        assert min(risks.values()) < 0.2

    def test_contour_requires_q0(self, capsys):
        code, _, err = run_cli(capsys, "grid", "--contour", "--pi0", "0.3")
        assert code == 2


class TestPbpoCommand:
    def test_documented_default_init_reproduces_benchmark(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, out, _ = run_cli(capsys, "pbpo", "--pi0", "0.3", "--delta", "0.0005",
                               "--eps", "1e-4", "--trace", "--csv", str(path))
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("beliefs=")][0]
        q0, q1, q2 = (float(v) for v in line.split("=", 1)[1].split(","))
        assert q0 == pytest.approx(0.7372, abs=1e-3)
        assert q1 == pytest.approx(0.3960, abs=1e-3)
        assert q2 == pytest.approx(0.3960, abs=1e-3)
        rows = list(csv.DictReader(path.open()))
        risks = [float(r["risk"]) for r in rows]
        assert all(b <= a + 1e-15 for a, b in zip(risks, risks[1:]))
        assert risks[-1] == pytest.approx(0.1918, abs=5e-4)

    def test_init_length_validated(self, capsys):
        code, _, err = run_cli(capsys, "pbpo", "--pi0", "0.3", "--init", "0.5,0.5")
        assert code == 2


class TestPrelecCommand:
    def test_fit_from_computed_sweep(self, capsys, tmp_path):
        path = tmp_path / "prelec.csv"
        code, out, _ = run_cli(capsys, "prelec", "--sweep-pi0", "0.2:0.8:0.05",
                               "--csv", str(path))
        assert code == 0
        assert "alpha=" in out and "max_gap=" in out
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 13
        assert all(float(r["gap"]) >= -1e-9 for r in rows)

    def test_fit_from_grid_csv(self, capsys, tmp_path):
        sweep_path = tmp_path / "sweep.csv"
        run_cli(capsys, "grid", "--sweep-pi0", "0.2:0.8:0.1", "--tie-locals",
                "--grid-resolution", "0.002", "--csv", str(sweep_path))
        out_path = tmp_path / "prelec.csv"
        code, out, _ = run_cli(capsys, "prelec", "--input", str(sweep_path),
                               "--csv", str(out_path))
        assert code == 0
        assert "alpha=" in out

    def test_heterogeneous_costs_gap_nonnegative(self, capsys, tmp_path):
        path = tmp_path / "prelec12.csv"
        code, _, _ = run_cli(capsys, "prelec", "--sweep-pi0", "0.2:0.8:0.1",
                             "--cfa", "1", "--cmd", "2", "--csv", str(path))
        assert code == 0
        rows = list(csv.DictReader(path.open()))
        assert rows
        assert all(float(r["gap"]) >= -1e-9 for r in rows)

    def test_missing_sweep_input_rejected(self, capsys):
        code, _, err = run_cli(capsys, "prelec")
        assert code == 2
        assert "sweep" in err


class TestPhaseCommand:
    def test_single_point_region(self, capsys):
        code, out, _ = run_cli(capsys, "phase", "--q0", "0.5", "--q1", "0.5")
        assert code == 0
        assert "region=Case1" in out

    def test_boundary_reported(self, capsys):
        code, out, _ = run_cli(capsys, "phase", "--q0", "0.6247676238784021",
                               "--q1", "0.5")
        assert code == 0
        assert "region=boundary" in out

    def test_boundary_escalated_when_strict(self, capsys):
        code, out, err = run_cli(capsys, "phase", "--q0", "0.6247676238784021",
                                 "--q1", "0.5", "--strict")
        assert code == 3

    def test_region_map_csv(self, capsys, tmp_path):
        path = tmp_path / "map.csv"
        code, out, _ = run_cli(capsys, "phase", "--grid", "0.2", "--csv", str(path))
        assert code == 0
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 16
        regions = {r["region"] for r in rows}
        assert "Case1" in regions


class TestExponentCommand:
    def test_headline_values(self, capsys):
        code, out, _ = run_cli(capsys, "exponent")
        assert code == 0
        assert "beta_star=0.0793" in out
        assert "lambda_star=0.5000" in out

    def test_curve_csv(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, _, _ = run_cli(capsys, "exponent", "--curve-csv", str(path),
                             "--lam-range", "0:1:0.1")
        assert code == 0
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 11
        values = [float(r["g_min"]) for r in rows]
        assert min(values) == pytest.approx(-0.0793, abs=1e-3)

    def test_estimate_mode(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--estimate", "--pi0", "0.3",
                               "--q0", "0.5", "--q1", "0.5", "--n", "5:30:5")
        assert code == 0
        assert "beta_hat=" in out and "r_squared=" in out


class TestSimulateCommand:
    def test_seeded_run(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--pi0", "0.3", "--q0", "0.5",
                               "--q", "0.5,0.5", "--trials", "20000", "--seed", "42")
        assert code == 0
        assert "empirical_risk=" in out and "fa_count=" in out

    def test_missing_seed_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--pi0", "0.3", "--q0", "0.5", "--q", "0.5,0.5"])
        assert exc.value.code == 2
