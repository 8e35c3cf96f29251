import csv
import hashlib
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from starfuse import cli, optimize
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
        assert "R0=0.1917851004\n" in out

    def test_truthful_headline(self, capsys):
        code, out, _ = run_cli(capsys, "risk", "--pi0", "0.3", "--q0", "0.3",
                               "--q", "0.3,0.3")
        assert code == 0
        assert "R0=0.1975666087\n" in out

    # The headline keeps 10 significant digits: a tiny risk is not 0.0000, a
    # huge one not a 300-digit fixed-point number.
    @pytest.mark.parametrize("flags, headline", [
        (["--sigma", "0.02"], "R0=1.754197276e-275\n"),
        (["--cfa", "1e308", "--cmd", "1e308"], "R0=1.91961034e+307\n")], ids=["tiny", "huge"])
    def test_headline_significant_digits(self, capsys, flags, headline):
        code, out, _ = run_cli(capsys, "risk", "--pi0", "0.3", "--q0", "0.7", "--q", "0.4,0.4",
                               *flags)
        assert code == 0
        assert out.startswith(headline)

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
        # At sigma=1e-200 the fusion log factors are -inf and inf.
        path = tmp_path / "risk.csv"
        code, out, err = run_cli(capsys, "risk", "--pi0", "0.3", "--q0", "0.7",
                                 "--q", "0.4,0.4", "--sigma", "1e-200", "--csv", str(path))
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

    @pytest.mark.parametrize("argv, digest", [
        (["grid", "--sweep-pi0", "0.05:0.95:0.01", "--tie-locals"],
         "11611c5eb8ea27cc6351e5d95a516e23f1f694bcb75cd757a45e27e16688ec5f"),
        (["prelec", "--sweep-pi0", "0.2:0.8:0.05"],
         "d3894039cf82c957702cbbc447144bde3849deec84e0429cf510901d16e2df7a"),
    ], ids=["grid", "prelec"])
    def test_sweep_csv_bytes_pinned(self, capsys, tmp_path, argv, digest):
        """The bytes each prior's own grid search wrote, one prior at a time."""
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, *argv, "--csv", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_sweep_checks_every_prior_first(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, err = run_cli(capsys, "grid", "--sweep-pi0", "0.9:1.2:0.1", "--tie-locals",
                                 "--csv", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: pi0=1.0 is degenerate: the prior must lie strictly inside (0, 1)\n"
        assert not path.exists()

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
                                 "--sigma", "1e200", "--resolution", "0.1", "--csv", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: fusion belief q0=0.02 at sigma=1e+200")
        assert err.count("\n") == 1
        assert not path.exists()

    def test_contour_requires_q0(self, capsys):
        code, _, err = run_cli(capsys, "grid", "--contour", "--pi0", "0.3")
        assert code == 2


    # A nan risk used to win the argmin: beliefs=1e-06,... risk=nan with exit 0.
    # The fusion log factors are not finite at either sigma (sigma**2 is 0 or inf).
    @pytest.mark.parametrize("sigma", ["1e-200", "1e200"])
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

    # The descent clamps a local belief (pbpo) and line-searches the fusion
    # belief (pbpo --exact), so a degenerate init would otherwise run.
    @pytest.mark.parametrize("argv, belief", [
        (["--init", "0.5,0,0.5"], "0.0"),
        (["--exact", "--init", "0,0.5,0.5"], "0.0"),
        (["--init", "0,0.5,0.5"], "0.0"),
        (["--exact", "--init", "0.5,0,0.5"], "0.0"),
        (["--init", "0.5,0.5,nan"], "nan"),
    ], ids=["pbpo-local", "exact-fusion", "pbpo-fusion", "exact-local", "nan"])
    def test_degenerate_init_rejected_before_any_sweep(self, capsys, monkeypatch, argv, belief):
        def no_sweep(*args):
            raise AssertionError("a descent run started")

        monkeypatch.setattr(optimize, "_pbpo_run", no_sweep)
        monkeypatch.setattr(optimize, "_pbpo_exact_run", no_sweep)
        code, out, err = run_cli(capsys, "pbpo", "--pi0", "0.3", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: degenerate belief {belief}: must lie strictly inside (0, 1)\n"

    def test_clamp_edge_underflow_names_belief(self, capsys):
        # At sigma=1e200 the fusion log factors of the first belief are not finite.
        code, _, err = run_cli(capsys, "pbpo", "--pi0", "0.841939142899648",
                               "--cfa", "1.9518892848869696", "--cmd", "0.5220594574480539",
                               "--sigma", "1e200", "--n-local", "2", "--init",
                               "0.9330755360597098,0.9114891616498672,0.1838876110092481")
        assert code == 3
        assert "fusion belief 0.9330755360597098" in err and "not finite" in err


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
        code, out, err = run_cli(capsys, "phase", *argv, "--sigma", "1e200", "--csv", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: fusion belief q0=0.05 at sigma=1e+200")
        assert err.count("\n") == 1
        assert not path.exists()


class TestExponentCommand:
    def test_headline_values(self, capsys):
        code, out, _ = run_cli(capsys, "exponent")
        assert code == 0
        assert "beta_star=0.07928190788 " in out
        assert "lambda_star=0.5 " in out

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
        assert out == "lambda_star=0.5 s_star=0.5 beta_star=0.04698330144 q_star=0.3333333333\n"
        # The closed form: lambda_star=0.5, s_star=0.5, fa = md = Q(1/2.6), q_star=1/3.
        assert report.read_text().splitlines()[1] == (
            "0.5,0.5,0.04698330144,0.3502611971,0.3502611971,0.3333333333,1.69")
        assert hashlib.sha256(report.read_bytes()).hexdigest() == (
            "6a788343c0c1d8f28ea7ee3d202566e28c71227b6cee790d1e9defa0b623baa0")
        assert hashlib.sha256(curve.read_bytes()).hexdigest() == (
            "f505e2537ea2f7811fe29062c8143bb45c37fbd9b55af20c47b47bfef0fba020")

    def test_small_exponent_headline(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--sigma", "100")
        assert code == 0
        assert out == "lambda_star=0.5 s_star=0.5 beta_star=7.957744166e-06 q_star=0.5\n"

    # A decision tail at lambda_star underflows a double here; its log does not.
    @pytest.mark.parametrize("sigma, beta_star", [("0.01", "626.7225334"), ("0.0135", "344.5081733")],
                             ids=["0.01", "0.0135"])
    def test_underflowed_tail_exits_zero(self, capsys, tmp_path, sigma, beta_star):
        path = tmp_path / "exponent.csv"
        code, out, err = run_cli(capsys, "exponent", "--sigma", sigma, "--csv", str(path))
        assert code == 0
        assert out == f"lambda_star=0.5 s_star=0.5 beta_star={beta_star} q_star=0.5\n"
        assert err == ""
        assert path.exists()

    def test_estimate_mode(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--estimate", "--pi0", "0.3",
                               "--q0", "0.5", "--q1", "0.5", "--n", "5:30:5")
        assert code == 0
        assert "beta_hat=" in out and "r_squared=" in out

    @pytest.mark.parametrize("argv, digest", [
        # The README command.
        (["--pi0", "0.3", "--q0", "0.5", "--q1", "0.5", "--n", "5:60:5"],
         "324af554d2ca50c0fe1d7d51c0c85d690ed4095d00525ff55ba1be8cf661ec50"),
        # A Case-2 ladder.
        (["--pi0", "0.3", "--q0", "0.7", "--q1", "0.5", "--n", "5:200:15", "--sigma", "1.3",
          "--cfa", "1.5"],
         "c03493223498dd4e1eda7200dcf9380f460a9e2644485f065ed8585948261e5d"),
    ], ids=["readme", "case2"])
    def test_estimate_csv_bytes_pinned(self, capsys, tmp_path, argv, digest):
        """The bytes written when each size ran its own exact_risk."""
        path = tmp_path / "estimate.csv"
        code, _, _ = run_cli(capsys, "exponent", "--estimate", *argv, "--csv", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_estimate_to_600_is_exact(self, capsys, monkeypatch):
        """Sizes up to 600 need no simulation, and the fit is clean."""
        def no_simulation(spec):
            raise AssertionError("simulate called")

        monkeypatch.setattr("starfuse.montecarlo.simulate", no_simulation)
        code, out, _ = run_cli(capsys, "exponent", "--estimate", "--pi0", "0.3", "--q0", "0.7",
                               "--q1", "0.5", "--n", "50:600:50")
        assert code == 0
        fields = dict(item.split("=") for item in out.split())
        assert float(fields["beta_hat"]) == pytest.approx(0.0299, abs=1e-3)
        assert float(fields["r_squared"]) >= 0.999


class TestSimulateCommand:
    def test_seeded_run(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--pi0", "0.3", "--q0", "0.5",
                               "--q", "0.5,0.5", "--trials", "20000", "--seed", "42")
        assert code == 0
        assert "empirical_risk=" in out and "fa_count=" in out

    @pytest.mark.parametrize("sigma", ["1e200", "1e-200"])
    def test_non_finite_risk_exits_domain(self, capsys, tmp_path, sigma):
        """``risk`` exits 3 on this network, and so does ``simulate``."""
        path = tmp_path / "sim.csv"
        code, out, err = run_cli(capsys, "simulate", "--pi0", "0.3", "--q0", "0.7", "--q", "0.4,0.4",
                                 "--trials", "1000", "--seed", "1", "--sigma", sigma,
                                 "--csv", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: exact risk is not finite")
        assert f"sigma={float(sigma)!r}" in err
        assert err.count("\n") == 1
        assert not path.exists()

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


# At these sigma a Gaussian tail of the fusion threshold near belief 0.02
# underflows a double; its log from log_ndtr does not.
@pytest.mark.parametrize("argv, line", [
    (["grid", "--pi0", "0.3", "--sigma", "10", "--tie-locals"], "risk=0.3"),
    (["pbpo", "--exact", "--pi0", "0.3", "--sigma", "10", "--max-iters", "5"], "risk=0.3"),
    (["prelec", "--sweep-pi0", "0.05:0.95:0.3", "--sigma", "10"], None),
    (["phase", "--grid", "0.05", "--sigma", "20"],
     "map: 361 points Case1=3 Case2=115 Case3=115 boundary=128"),
], ids=["grid", "pbpo-exact", "prelec", "phase-grid"])
def test_large_sigma_exits_zero(capsys, argv, line):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    assert not re.search(r"\b(nan|inf)\b", out)
    assert line is None or line in out.splitlines()


_EDGE_COMMANDS = {
    "risk": ["risk", "--pi0", "0.3", "--q0", "0.7", "--q", "0.4,0.4"],
    "grid": ["grid", "--pi0", "0.3", "--grid-resolution", "0.01"],
    "grid-tied": ["grid", "--pi0", "0.3", "--tie-locals", "--grid-resolution", "0.01"],
    "contour": ["grid", "--contour", "--pi0", "0.3", "--q0", "0.3", "--resolution", "0.1"],
    "pbpo": ["pbpo", "--pi0", "0.3", "--max-iters", "20", "--random-init", "--restarts", "2"],
    "pbpo-exact": ["pbpo", "--exact", "--pi0", "0.3", "--max-iters", "3"],
    "prelec": ["prelec", "--sweep-pi0", "0.1:0.9:0.4"],
    "phase": ["phase", "--q0", "0.3", "--q1", "0.6", "--pi0", "0.3"],
    "phase-grid": ["phase", "--grid", "0.1"],
    "exponent": ["exponent"],
    "exponent-estimate": ["exponent", "--estimate", "--pi0", "0.3", "--q0", "0.7",
                          "--q1", "0.5", "--n", "2:6:2"],
    "simulate": ["simulate", "--pi0", "0.3", "--q0", "0.7", "--q", "0.4,0.4",
                 "--trials", "1000", "--seed", "1"],
}


@pytest.mark.parametrize("sigma", ["1e-3", "1e2", "1e-200", "1e200"])
@pytest.mark.parametrize("command", list(_EDGE_COMMANDS))
def test_domain_edge_is_finite_or_one_error(capsys, command, sigma):
    """At the edges of sigma every subcommand prints only finite numbers with
    exit 0, or one error line with exit 3; never a traceback or a numpy
    warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *_EDGE_COMMANDS[command], "--sigma", sigma)
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert err == ""
        assert not re.search(r"\b(nan|inf)\b", out), out
    else:
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


# The last library call each mode makes, as the name the CLI imported it by,
# and the argv that reaches it with little work first.
_LAST_CALLS = {
    "risk": ("exact_risk", ["risk", "--pi0", "0.3", "--q0", "0.7", "--q", "0.4,0.4"]),
    "grid-contour": ("checked_risks", ["grid", "--contour", "--pi0", "0.3", "--q0", "0.7",
                                       "--resolution", "0.1"]),
    "grid-sweep": ("optimal_belief_sweep", ["grid", "--sweep-pi0", "0.2:0.4:0.1"]),
    "grid": ("grid_search", ["grid", "--pi0", "0.3"]),
    "pbpo": ("pbpo", ["pbpo", "--pi0", "0.3"]),
    "pbpo-exact": ("pbpo_exact", ["pbpo", "--exact", "--pi0", "0.3"]),
    "prelec-input": ("prelec_risk_gap", ["prelec", "--input", "{sweep}"]),
    "prelec-sweep": ("prelec_risk_gap", ["prelec", "--sweep-pi0", "0.2:0.8:0.3"]),
    "phase-grid": ("phase_map", ["phase", "--grid", "0.1"]),
    "phase": ("classify_phase", ["phase", "--q0", "0.5", "--q1", "0.5"]),
    "exponent-curve": ("exponent_curve", ["exponent", "--curve-csv", "{curve}",
                                          "--lam-range", "0:1:0.5"]),
    "exponent-estimate": ("estimate_exponent", ["exponent", "--estimate", "--pi0", "0.3",
                                                "--q0", "0.7", "--q1", "0.5"]),
    "simulate": ("simulate", ["simulate", "--pi0", "0.3", "--q0", "0.7", "--q", "0.4,0.4",
                              "--trials", "1000", "--seed", "1"]),
}


@pytest.mark.parametrize("mode", list(_LAST_CALLS))
def test_failing_last_call_emits_nothing(capsys, monkeypatch, tmp_path, mode):
    """A domain failure in a command's last library call exits 3 with one
    error line, nothing on stdout and no --csv or --curve-csv file."""
    name, argv = _LAST_CALLS[mode]
    sweep, curve, path = (tmp_path / n for n in ("sweep.csv", "curve.csv", "out.csv"))
    sweep.write_text("pi0,q0_opt,q1_opt,risk_opt\n0.2,0.6,0.3,0.15\n"
                     "0.3,0.7,0.4,0.19\n0.5,0.5,0.5,0.24\n")

    def fail(*args, **kwargs):
        raise FloatingPointError(f"{name} failed")

    monkeypatch.setattr(cli, name, fail)
    argv = [a.format(sweep=sweep, curve=curve) for a in argv]
    code, out, err = run_cli(capsys, *argv, "--csv", str(path))
    assert code == 3
    assert out == ""
    assert err == f"error: {name} failed\n"
    assert not path.exists() and not curve.exists()


@pytest.mark.parametrize("argv", [
    ["risk", "--pi0", "0.3", "--q0", "0.5", "--q", "0.4,0.4", "--csv", "{missing}/x.csv"],
    ["exponent", "--curve-csv", "{curve}", "--lam-range", "0:1:0"],
    ["exponent", "--csv", "{missing}/y.csv", "--curve-csv", "{curve}", "--lam-range", "0:1:0.5"],
], ids=["risk-unwritable-csv", "exponent-zero-step", "exponent-unwritable-csv"])
def test_validation_error_emits_nothing(capsys, tmp_path, argv):
    curve = tmp_path / "c.csv"
    argv = [a.format(missing=tmp_path / "missing", curve=curve) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_exponent_same_file_rejected_before_work(capsys, monkeypatch, tmp_path):
    """``--csv`` and ``--curve-csv`` naming one file, spelled two ways, exit 2
    before beta* is computed."""
    def not_called(*args):
        raise AssertionError("beta* was computed")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "optimal_exponent", not_called)
    code, out, err = run_cli(capsys, "exponent", "--csv", "p.csv", "--curve-csv", "./p.csv")
    assert code == 2
    assert out == ""
    assert err == "error: --csv and --curve-csv name the same file 'p.csv'\n"
    assert list(tmp_path.iterdir()) == []


def test_unwritable_second_file_keeps_the_first(capsys, tmp_path):
    """A file that already exists is neither truncated nor removed when
    another output path of the same run cannot be written."""
    kept = tmp_path / "kept.csv"
    kept.write_text("old contents\n")
    code, out, _ = run_cli(capsys, "exponent", "--csv", str(kept),
                           "--curve-csv", str(tmp_path / "missing" / "c.csv"))
    assert code == 2
    assert out == ""
    assert kept.read_text() == "old contents\n"


@pytest.mark.parametrize("argv", [
    ["exponent", "--estimate", "--pi0", "0.3", "--q0", "0.5", "--q1", "0.5", "--n", "5:60"],
    ["grid", "--contour", "--pi0", "0.3", "--q0", "0.5", "--n-local", "3"],
    ["grid"],
    ["prelec", "--input", "{header_only}"],
    ["phase"],
    ["exponent", "--estimate", "--q0", "0.5", "--q1", "0.5"],
    ["grid", "--pi0", "0.3", "--n-local", "0"],
    ["pbpo", "--pi0", "0.3", "--delta", "0"],
    ["pbpo", "--pi0", "0.3", "--eps", "0"],
    ["pbpo", "--pi0", "0.3", "--max-iters", "0"],
    ["pbpo", "--pi0", "0.3", "--restarts", "0"],
    ["pbpo", "--pi0", "0.3", "--init", ""],
    ["grid", "--pi0", "0.3", "--grid-resolution", "0.5"],
    ["phase", "--q0", "0.6247676238784019", "--q1", "0.5", "--pi0", "1.5"],
    ["phase", "--q0", "0.6247676238784019", "--q1", "0.5", "--pi0", "nan"],
    ["exponent", "--estimate", "--pi0", "0.3", "--q0", "0.6", "--q1", "0.5",
     "--n", "1000:3000:500"],
], ids=["range-without-step", "contour-n-local", "grid-no-prior", "prelec-header-only",
        "phase-no-point", "estimate-no-prior", "grid-no-locals", "pbpo-delta", "pbpo-eps",
        "pbpo-max-iters", "pbpo-restarts", "pbpo-empty-init", "grid-resolution",
        "phase-boundary-prior", "phase-boundary-nan-prior", "estimate-beyond-exact-bound"])
def test_invalid_arguments_exit_two(capsys, tmp_path, argv):
    """A bad argument exits 2 with one error line, nothing on stdout and no
    --csv file."""
    header_only = tmp_path / "sweep.csv"
    header_only.write_text("pi0,q0_opt,q1_opt,risk_opt\n")
    path = tmp_path / "out.csv"
    argv = [a.format(header_only=header_only) for a in argv]
    code, out, err = run_cli(capsys, *argv, "--csv", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["pbpo", "--pi0", "0.3", "--init", "0.9,0.9,0.9", "--random-init", "--restarts", "2",
     "--max-iters", "5"],
    ["exponent", "--estimate", "--pi0", "0.3", "--q0", "0.5", "--q1", "0.5", "--trials", "5"],
    ["exponent", "--estimate", "--pi0", "0.3", "--q0", "0.5", "--q1", "0.5", "--seed", "5"],
], ids=["pbpo-init-and-random-init", "exponent-trials", "exponent-seed"])
def test_rejected_by_the_parser(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# At resolution 0.01 an untied search would end off the tied optimum.
@pytest.mark.parametrize("extra", [[], ["--grid-resolution", "0.01"]], ids=["default", "0.01"])
def test_sweep_ties_locals_with_or_without_the_flag(capsys, tmp_path, extra):
    """``optimal_belief_sweep`` always searches tied locals, so
    ``--tie-locals`` does not change a prior sweep."""
    plain, tied = tmp_path / "plain.csv", tmp_path / "tied.csv"
    sweep = ["grid", "--sweep-pi0", "0.2:0.4:0.1", *extra]
    code, out_plain, _ = run_cli(capsys, *sweep, "--csv", str(plain))
    assert code == 0
    code, out_tied, _ = run_cli(capsys, *sweep, "--tie-locals", "--csv", str(tied))
    assert code == 0
    assert out_plain == out_tied
    assert plain.read_bytes() == tied.read_bytes()


@pytest.mark.parametrize("argv, code, err", [
    (["risk", "--pi0", "0.3", "--q0", "0.7372", "--q", "0.3960,0.3960"], 0, ""),
    (["phase", "--q0", "0.6247676238784021", "--q1", "0.5", "--strict"], 3, None),
], ids=["risk", "phase-strict"])
def test_closed_stdout_keeps_code_and_files(tmp_path, argv, code, err):
    """A reader that closed stdout before the run (``| head`` that has
    exited) costs no traceback: the CSV stays and the exit code is the
    command's own. The pipe's read end is closed before the child starts,
    so every run meets the closed pipe."""
    path = tmp_path / "out.csv"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "starfuse", *argv, "--csv", str(path)],
                              stdout=write, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    if err is not None:
        assert proc.stderr == err
    else:
        assert proc.stderr.count("\n") == 1, proc.stderr
    assert path.read_text().count("\n") >= 2
