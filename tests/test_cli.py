import csv
import hashlib

import pytest

from starfuse import cli
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

    def test_strict_is_not_a_risk_flag(self):
        """``--strict`` escalates only ``phase``'s boundary flag."""
        with pytest.raises(SystemExit) as exc:
            main(["risk", "--pi0", "0.3", "--q0", "0.5", "--q", "0.5", "--strict"])
        assert exc.value.code == 2

    def test_non_finite_risk_exits_domain(self, capsys, tmp_path):
        path = tmp_path / "risk.csv"
        code, out, err = run_cli(capsys, "risk", "--pi0", "0.3", "--q0", "0.7",
                                 "--q", "0.4,0.4", "--sigma", "0.01", "--csv", str(path))
        assert code == 3
        assert err.startswith("error: risk is not finite")
        assert err.count("\n") == 1
        assert "R0=" not in out
        assert not path.exists()


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

    @pytest.mark.parametrize("q0", ["1.5", "-0.2", "nan", "0.0", "1.0"])
    def test_contour_degenerate_q0_writes_nothing(self, capsys, tmp_path, q0):
        path = tmp_path / "contour.csv"
        code, out, err = run_cli(capsys, "grid", "--contour", "--pi0", "0.3", "--q0", q0,
                                 "--resolution", "0.1", "--csv", str(path))
        assert code == 2
        assert "degenerate belief" in err
        assert out == ""
        assert not path.exists()

    def test_contour_non_finite_risk_exits_domain(self, capsys, tmp_path):
        path = tmp_path / "contour.csv"
        code, out, err = run_cli(capsys, "grid", "--contour", "--pi0", "0.3", "--q0", "0.02",
                                 "--sigma", "10", "--resolution", "0.1", "--csv", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: fusion belief q0=0.02 at sigma=10.0")
        assert err.count("\n") == 1
        assert not path.exists()

    def test_contour_requires_q0(self, capsys):
        code, _, err = run_cli(capsys, "grid", "--contour", "--pi0", "0.3")
        assert code == 2


    # A nan risk used to win the argmin: beliefs=1e-06,... risk=nan with exit 0.
    @pytest.mark.parametrize("sigma", ["10", "20"])
    def test_underflowed_fusion_tail_exits_domain(self, capsys, tmp_path, sigma):
        path = tmp_path / "grid.csv"
        code, out, err = run_cli(capsys, "grid", "--pi0", "0.3", "--sigma", sigma,
                                 "--tie-locals", "--csv", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: fusion belief q0=0.02 at sigma={float(sigma)!r}")
        assert err.count("\n") == 1
        assert not path.exists()


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
        # The CSV bytes written before the scalar risk was memoized per run.
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "a3130ae498785b135cb7a03de86f8ef98d3eeb981abc129d0c6f8dd84625f0f1")

    def test_init_length_validated(self, capsys):
        code, _, err = run_cli(capsys, "pbpo", "--pi0", "0.3", "--init", "0.5,0.5")
        assert code == 2

    def test_clamp_edge_underflow_names_belief(self, capsys):
        code, _, err = run_cli(capsys, "pbpo", "--pi0", "0.841939142899648",
                               "--cfa", "1.9518892848869696", "--cmd", "0.5220594574480539",
                               "--sigma", "1.7954601353683637", "--n-local", "2", "--init",
                               "0.9330755360597098,0.9114891616498672,0.1838876110092481")
        assert code == 3
        assert "fusion belief 0.999999999" in err and "underflows" in err


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

    @pytest.mark.parametrize("text, where", [
        ("pi0,q1_opt,risk_opt\n0.3,0.396,0.1918\n", "line 1: no column 'q0_opt'"),
        ("pi0,q0_opt,q1_opt,risk_opt\n0.3,0.7372,0.396,0.1918\n0.4,0.7\n",
         "line 3, column 'q1_opt': no value"),
        ("pi0,q0_opt,q1_opt,risk_opt\n0.3,0.7372,0.396,nan\n",
         "line 2, column 'risk_opt': 'nan' is not a finite number"),
        ("pi0,q0_opt,q1_opt,risk_opt\n0.3,0.7372,0.396,0.1918\n1.5,0.7,0.4,0.2\n",
         "line 3, column 'pi0': '1.5' does not lie strictly inside (0, 1)"),
        ("pi0,q0_opt,q1_opt,risk_opt\n0.3,0,0.396,0.1918\n",
         "line 2, column 'q0_opt': '0' does not lie strictly inside (0, 1)"),
        ("pi0,q0_opt,q1_opt,risk_opt\n0.3,0.7372,1.7,0.1918\n",
         "line 2, column 'q1_opt': '1.7' does not lie strictly inside (0, 1)"),
        ("pi0,q0_opt,q1_opt,risk_opt\n0.3,0.7372,0.396,-5\n",
         "line 2, column 'risk_opt': '-5' is negative"),
    ], ids=["missing-column", "short-row", "nan", "pi0-out-of-range", "q0-at-zero",
            "q1-out-of-range", "negative-risk"])
    def test_malformed_sweep_input_rejected(self, capsys, tmp_path, text, where):
        sweep, path = tmp_path / "sweep.csv", tmp_path / "prelec.csv"
        sweep.write_text(text)
        code, out, err = run_cli(capsys, "prelec", "--input", str(sweep), "--csv", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: sweep input {str(sweep)!r} {where}\n"
        assert not path.exists()

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

    def test_region_map_bytes_pinned(self, capsys, tmp_path):
        path = tmp_path / "map.csv"
        code, out, _ = run_cli(capsys, "phase", "--grid", "0.01", "--pi0", "0.3",
                               "--sigma", "1.7", "--cfa", "0.6", "--csv", str(path))
        assert code == 0
        assert out == "map: 9801 points Case1=587 Case2=4614 Case3=4596 boundary=4\n"
        # The CSV bytes written when each point was one classify_phase call.
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "18bfe00cfcec57ef68c0b2abed425632a6e8aad965076a51652c71ec39053de4")

    @pytest.mark.parametrize("pi0", ["0.0", "1.0", "-0.2", "1.5"])
    def test_region_map_degenerate_prior_writes_nothing(self, capsys, tmp_path, pi0):
        path = tmp_path / "map.csv"
        code, _, err = run_cli(capsys, "phase", "--grid", "0.05", "--pi0", pi0,
                               "--csv", str(path))
        assert code == 2
        assert "pi0" in err
        assert not path.exists()

    @pytest.mark.parametrize("argv", [["--grid", "0.05"], ["--q0", "0.05", "--q1", "0.5"]])
    def test_underflowed_fusion_tail_exits_domain(self, capsys, tmp_path, argv):
        path = tmp_path / "phase.csv"
        code, out, err = run_cli(capsys, "phase", *argv, "--sigma", "20", "--csv", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: fusion belief q0=0.05 at sigma=20.0")
        assert err.count("\n") == 1
        assert not path.exists()


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

    def test_csv_bytes_pinned(self, capsys, tmp_path):
        report, curve = tmp_path / "exponent.csv", tmp_path / "curve.csv"
        code, out, _ = run_cli(capsys, "exponent", "--sigma", "1.3", "--cfa", "2",
                               "--csv", str(report), "--curve-csv", str(curve))
        assert code == 0
        assert out == "lambda_star=0.5000 s_star=0.5000 beta_star=0.0470 q_star=0.3333\n"
        # The closed form: lambda_star=0.5, s_star=0.5, fa = md = Q(1/2.6), q_star=1/3.
        assert report.read_text().splitlines()[1] == (
            "0.5,0.5,0.04698330144,0.3502611971,0.3502611971,0.3333333333,1.69")
        assert hashlib.sha256(report.read_bytes()).hexdigest() == (
            "6a788343c0c1d8f28ea7ee3d202566e28c71227b6cee790d1e9defa0b623baa0")
        assert hashlib.sha256(curve.read_bytes()).hexdigest() == (
            "f505e2537ea2f7811fe29062c8143bb45c37fbd9b55af20c47b47bfef0fba020")

    # A decision tail at lambda_star underflows a double here; its log does not.
    @pytest.mark.parametrize("sigma, beta_star", [("0.01", "626.7225"), ("0.0135", "344.5082")],
                             ids=["0.01", "0.0135"])
    def test_underflowed_tail_exits_zero(self, capsys, tmp_path, sigma, beta_star):
        path = tmp_path / "exponent.csv"
        code, out, err = run_cli(capsys, "exponent", "--sigma", sigma, "--csv", str(path))
        assert code == 0
        assert out == f"lambda_star=0.5000 s_star=0.5000 beta_star={beta_star} q_star=0.5000\n"
        assert err == ""
        assert path.exists()

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

    @pytest.mark.parametrize("argv, digest", [
        # The README command.
        (["--pi0", "0.3", "--q0", "0.7372", "--q", "0.3960,0.3960",
          "--trials", "1000000", "--seed", "1"],
         "95c69f7f13e57139a156c499532177cbc61060014a5db67f2f95213aabd8ffc6"),
        # Twenty heterogeneous locals, 0.30 to 0.68.
        (["--pi0", "0.4", "--q0", "0.45", "--q", ",".join("%.2f" % (0.3 + 0.02 * i) for i in range(20)),
          "--sigma", "1.3", "--cfa", "1.5", "--trials", "200000", "--seed", "7"],
         "77ddae19752c0e5546073ffb6ba6bc9470ce12ad505a9a352451ac397da2e60c"),
    ])
    def test_csv_bytes_pinned(self, capsys, tmp_path, argv, digest):
        """The CSV bytes written when every signal was drawn through the
        inverse normal CDF and compared with its threshold."""
        path = tmp_path / "sim.csv"
        code, _, _ = run_cli(capsys, "simulate", *argv, "--csv", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_parser_reused_across_commands(capsys, tmp_path):
    """One process, one parser: a failed parse or a validation error leaves
    nothing behind, and a repeated command prints and writes the same bytes."""
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    risk = ["risk", "--pi0", "0.3", "--q0", "0.7372", "--q", "0.3960,0.3960", "--sigma", "1.2"]
    code, out_first, _ = run_cli(capsys, *risk, "--csv", str(first))
    assert code == 0
    code, _, err = run_cli(capsys, "risk", "--pi0", "1.0", "--q0", "0.5", "--q", "0.5")
    assert code == 2 and "pi0" in err
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--pi0", "0.3", "--q0", "0.5", "--q", "0.5,0.5"])
    assert exc.value.code == 2
    code, out, _ = run_cli(capsys, "phase", "--q0", "0.5", "--q1", "0.5", "--cfa", "2")
    assert code == 0 and "region=" in out
    code, out_again, _ = run_cli(capsys, *risk, "--csv", str(again))
    assert code == 0
    assert out_again == out_first
    assert again.read_bytes() == first.read_bytes()
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli._parser()
