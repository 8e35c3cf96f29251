import argparse
import collections
import contextlib
import csv
import hashlib
import io
import itertools
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
        """An empty ``--q`` is no given flag, so the need refuses it; a blank
        one is given and holds no value."""
        code, _, err = run_cli(capsys, "risk", "--pi0", "0.3", "--q0", "0.5", "--q", "")
        assert (code, err) == (2, "error: risk needs --q\n")
        code, _, err = run_cli(capsys, "risk", "--pi0", "0.3", "--q0", "0.5", "--q", " ")
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

    @pytest.mark.parametrize("argv, out_digest, csv_digest", [
        # The README command.
        (["--pi0", "0.3", "--q0", "0.7372", "--q", "0.3960,0.3960"],
         "2dc7139584af7a4d9c6b0664446c11d9d7d303cf929370f77f746552e8423ddf",
         "1305f31020b97f71d0f87a7054693554573039ec32e5cd97d7cd4fc700d5399a"),
        # Twelve heterogeneous locals, 0.25 to 0.69.
        (["--pi0", "0.4", "--q0", "0.45", "--q", ",".join("%.2f" % (0.25 + 0.04 * i) for i in range(12)),
          "--sigma", "1.3", "--cfa", "1.5"],
         "a6f6665c94ac47b95aae317f4f5d4c0182159269d7bae49aba72682a7d9bf3ff",
         "df52137f9ede0caa55a2e86c4b9bf5fddae5677d9cae67cd7f01bb963a68a9dc"),
    ], ids=["two-locals", "twelve-locals"])
    def test_output_bytes_pinned(self, capsys, tmp_path, argv, out_digest, csv_digest):
        """The stdout and CSV bytes, one line and one row per count."""
        path = tmp_path / "risk.csv"
        code, out, _ = run_cli(capsys, "risk", *argv, "--csv", str(path))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == out_digest
        assert hashlib.sha256(path.read_bytes()).hexdigest() == csv_digest

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

    @pytest.mark.parametrize("argv, digest", [
        (["grid", "--contour", "--pi0", "0.3", "--q0", "0.7372", "--resolution", "0.01"],
         "bba3cd9585ced343c3b38f5d43723f0f4a2ba6c6c10a4b82ae5b304fc64ac086"),
        (["grid", "--pi0", "0.3", "--n-local", "3", "--grid-resolution", "0.002"],
         "ea94a7001be338a15b400844f12223034e5865c0f22d0ac4a326fef903c95edd"),
    ], ids=["contour", "full-grid"])
    def test_csv_bytes_pinned(self, capsys, tmp_path, argv, digest):
        """The 9,801-point contour, and an untied N=3 grid whose coarse stage
        (5.76M pairs) is evaluated in pieces that split its rows."""
        path = tmp_path / "grid.csv"
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

    def test_contour_peak_bounded(self, capsys, tmp_path):
        """The 249,001-point surface's CSV is joined a row at a time from axis
        labels formatted once: the run peaks near 21 MB, where three columns
        of Python floats and one string a line peaked at 54 MB. The bytes are
        those that the column-and-line build wrote."""
        path = tmp_path / "contour.csv"
        argv = ["grid", "--contour", "--pi0", "0.3", "--q0", "0.7", "--resolution", "0.002",
                "--csv", str(path)]
        run_cli(capsys, *argv)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "aa66dd1b4fe85b61f700ceca208913209b9c5fec9ef217e79118ac1225574614")
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 35e6

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

    @pytest.mark.parametrize("argv, out_digest, csv_digest", [
        (["--exact", "--pi0", "0.3", "--trace"],
         "99deea402766324a74849a089a47607c1a78e5335b38676af1538bd40340cb1d",
         "8bcb5472e5bc2d451ad0562e4b1d59115261a5fb12a3d0fda0fd1179ac68ae4e"),
        (["--pi0", "0.3"],
         "ef55eb0e907babb3534ed0bb5f9bf333d8d69e2bd5cebdd71eb8d49a2f4bbeb2",
         "2755d0a1004c76c79a91fdacd365aeea470d95819c2ff892543e48fadf9e802f"),
        (["--pi0", "0.3", "--random-init", "--restarts", "3", "--seed", "5", "--delta", "0.01"],
         "7aaa7d89c4e9a14befceef1c46e45c9e30c9d0244ee847660b01f0990e93113d",
         "d0a0651bc34e8cdae35a1a83686361556bca57da219ce1e2828636c00126a2fd"),
    ], ids=["exact-trace", "last-row", "random-init"])
    def test_output_bytes_pinned(self, capsys, tmp_path, argv, out_digest, csv_digest):
        """The stdout and CSV bytes: every sweep's row with ``--trace``, the
        last sweep's row without it."""
        path = tmp_path / "pbpo.csv"
        code, out, _ = run_cli(capsys, "pbpo", *argv, "--csv", str(path))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == out_digest
        assert hashlib.sha256(path.read_bytes()).hexdigest() == csv_digest

    # ``--exact --delta`` is refused whatever the step: see test_exact_with_delta_exits_two.
    @pytest.mark.parametrize("exact, flag, name, value", [
        ([], "--delta", "step", "inf"), ([], "--delta", "step", "nan"),
        ([], "--eps", "eps", "inf"), (["--exact"], "--eps", "eps", "inf"),
    ], ids=["delta-inf-pbpo", "delta-nan-pbpo", "eps-inf-pbpo", "eps-inf-exact"])
    def test_non_finite_step_or_eps_exits_two(self, capsys, tmp_path, exact, flag, name, value):
        """``--delta inf`` and ``--eps inf`` ran and reported converged=True;
        each now exits 2 with one error line and writes no file."""
        path = tmp_path / "pbpo.csv"
        code, out, err = run_cli(capsys, "pbpo", "--pi0", "0.3", *exact, flag, value,
                                 "--csv", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {name} must be positive and finite\n"
        assert not path.exists()

    @pytest.mark.parametrize("delta", ["0.5", "0.9"], ids=["0.5-pbpo", "0.9-pbpo"])
    def test_step_of_half_or_more_exits_two(self, capsys, tmp_path, delta):
        """``--delta 0.9`` and ``--delta 0.5`` probed only the clamp edges from
        the start of 0.5 and reported converged=True; each now exits 2 with
        one error line and writes no file."""
        path = tmp_path / "pbpo.csv"
        code, out, err = run_cli(capsys, "pbpo", "--pi0", "0.3", "--delta", delta,
                                 "--csv", str(path))
        assert code == 2 and out == ""
        assert err == "error: step must be below 0.5\n"
        assert not path.exists()

    @pytest.mark.parametrize("csv_path", [[], ["--csv", ""]], ids=["no-csv", "empty-csv"])
    @pytest.mark.parametrize("exact", [[], ["--exact"]], ids=["pbpo", "exact"])
    def test_trace_without_csv_exits_two(self, capsys, tmp_path, monkeypatch, exact, csv_path):
        """``--trace`` only adds rows to the CSV; without ``--csv`` it printed
        what the command prints without it, and an empty ``--csv`` ran the
        whole descent before its write failed. The trace mode needs
        ``--csv``: each exits 2 before any sweep, with one error line and no
        file."""
        monkeypatch.setattr(cli, "pbpo", lambda *args, **kwargs: pytest.fail("descended"))
        monkeypatch.setattr(cli, "pbpo_exact", lambda *args, **kwargs: pytest.fail("descended"))
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "pbpo", "--pi0", "0.3", *exact, "--trace", *csv_path)
        assert code == 2 and out == ""
        assert err == "error: pbpo trace mode (--trace) needs --csv\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["--restarts", "3"], ["--seed", "7"], ["--exact", "--init", "0.5,0.4,0.6", "--seed", "7"],
        ["--restarts", "0"],
    ], ids=["restarts", "seed", "exact-init-seed", "restarts-0"])
    def test_restarts_or_seed_without_random_init_exits_two(self, capsys, tmp_path, argv):
        """A run from ``--init`` or the default start makes no restarts, so
        ``--restarts`` and ``--seed`` changed nothing of it; each now exits 2
        with one error line and no file, whatever its value."""
        path = tmp_path / "pbpo.csv"
        code, out, err = run_cli(capsys, "pbpo", "--pi0", "0.3", *argv, "--csv", str(path))
        assert code == 2 and out == ""
        assert err == ("error: pbpo --restarts and --seed need --random-init: "
                       "a run from --init or the default start has no restarts\n")
        assert not path.exists()

    @pytest.mark.parametrize("delta", ["0.0005", "0.01", "inf", "nan", "0.5", "0.9"])
    def test_exact_with_delta_exits_two(self, capsys, tmp_path, delta):
        """``pbpo_exact`` reads no step, so ``--exact --delta`` printed what
        ``--exact`` prints alone; it now exits 2 with one error line and no
        file, whatever the step, a bad one included."""
        path = tmp_path / "pbpo.csv"
        code, out, err = run_cli(capsys, "pbpo", "--pi0", "0.3", "--exact", "--delta", delta,
                                 "--csv", str(path))
        assert code == 2 and out == ""
        assert err == "error: pbpo --exact takes no --delta: it minimizes each coordinate exactly\n"
        assert not path.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("exact", [[], ["--exact"]], ids=["pbpo", "exact"])
    def test_seed_outside_64_unsigned_bits_exits_two(self, capsys, monkeypatch, tmp_path,
                                                     exact, seed):
        """``--seed -1`` printed numpy's "expected non-negative integer",
        naming no flag, and 2^64 ran; each now exits 2 with
        ``SimulationSpec``'s words, before any restart, with no file."""
        monkeypatch.setattr(optimize, "_pbpo_run", lambda *args: pytest.fail("ran"))
        monkeypatch.setattr(optimize, "_pbpo_exact_run", lambda *args: pytest.fail("ran"))
        path = tmp_path / "pbpo.csv"
        assert run_cli(capsys, "pbpo", "--pi0", "0.3", *exact, "--random-init", "--seed", seed,
                       "--csv", str(path)) == (2, "", "error: seed must fit in 64 unsigned bits\n")
        assert not path.exists()

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
    @pytest.mark.parametrize("sweep, count", [("0.5:0.5:0.1", 1), ("0.5:0.51:0.01", 2)])
    def test_fewer_than_three_priors_exit_two(self, capsys, tmp_path, sweep, count):
        """One prior gave alpha=0.6079102093 with linf=2.2e-16, and two gave
        alpha=0.2391684083: two parameters fit so few points whatever the
        curve. Each now exits 2 with one error line and writes no file."""
        path = tmp_path / "prelec.csv"
        code, out, err = run_cli(capsys, "prelec", "--sweep-pi0", sweep, "--csv", str(path))
        assert code == 2 and out == ""
        assert err == (f"error: a Prelec fit of 2 parameters needs at least 3 samples, "
                       f"got {count}\n")
        assert not path.exists()

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

    def test_zero_risk_sweep_input_accepted(self, capsys, tmp_path):
        """A risk of 0 is a valid sweep cell; the sweep holds the 3 priors a
        fit needs."""
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("pi0,q0_opt,q1_opt,risk_opt\n0.2,0.26,0.22,0.15\n0.3,0.7372,0.396,0\n"
                         "0.6,0.62,0.6,0.3\n")
        code, out, err = run_cli(capsys, "prelec", "--input", str(sweep))
        assert (code, err) == (0, "")
        assert "alpha=" in out

    def test_missing_sweep_input_rejected(self, capsys):
        code, _, err = run_cli(capsys, "prelec")
        assert code == 2
        assert "sweep" in err

    def test_fit_csv_bytes_pinned(self, capsys, tmp_path):
        """The bytes of a computed sweep's fit and of a read sweep's fit with
        the fusion belief re-minimized, each prior at step 0.01."""
        computed, sweep, read = (tmp_path / name for name in ("a.csv", "sweep.csv", "b.csv"))
        code, _, _ = run_cli(capsys, "prelec", "--sweep-pi0", "0.05:0.95:0.01",
                             "--csv", str(computed))
        assert code == 0
        assert hashlib.sha256(computed.read_bytes()).hexdigest() == (
            "e6574e790979b119458dd5793b8ff64989318b2c9248ef78702c05a5ed3dd787")
        run_cli(capsys, "grid", "--sweep-pi0", "0.05:0.95:0.01", "--tie-locals",
                "--csv", str(sweep))
        code, _, _ = run_cli(capsys, "prelec", "--input", str(sweep),
                             "--q0-strategy", "reoptimize-q0", "--csv", str(read))
        assert code == 0
        assert hashlib.sha256(read.read_bytes()).hexdigest() == (
            "8d089b29b1c2bc09d7150dcb1d835b870c52e75180b8f0850781ee0d734202d3")


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

    def test_point_csv_bytes_pinned(self, capsys, tmp_path):
        path = tmp_path / "point.csv"
        code, out, _ = run_cli(capsys, "phase", "--q0", "0.6", "--q1", "0.4", "--pi0", "0.3",
                               "--csv", str(path))
        assert code == 0
        assert out == ("region=Case2 z1=1.767934226 z2=0.1921105888 t0=0.4623421334 "
                       "t1=0.8173904817 limit_risk=0.3\n")
        assert path.read_bytes() == (b"q0,q1,region,z1,z2,t0,t1\r\n"
                                     b"0.6,0.4,Case2,1.767934226,0.1921105888,0.4623421334,"
                                     b"0.8173904817\r\n")

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

    def test_benchmark_map_bytes_pinned(self, capsys, tmp_path):
        """The map that perfbench's limits_cli workload draws: 39,601 points."""
        path = tmp_path / "map.csv"
        code, out, _ = run_cli(capsys, "phase", "--grid", "0.005", "--pi0", "0.3",
                               "--csv", str(path))
        assert code == 0
        assert out == "map: 39601 points Case1=6691 Case2=16455 Case3=16455\n"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "e8260ebcac92f19eea49739d62dd8af5a00ebc7542c481e82e26fdba20d14049")

    def test_benchmark_map_peak_bounded(self, capsys, tmp_path):
        """The 39,601-point map's CSV is one text block, built from labels and
        (q1, region) tails formatted once: the run peaks near 2.5 MB, where a
        tuple of text cells a row for ``csv.writer`` peaked at 3.1 MB."""
        argv = ["phase", "--grid", "0.005", "--pi0", "0.3", "--csv", str(tmp_path / "map.csv")]
        run_cli(capsys, *argv)
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 2.8e6

    @pytest.mark.parametrize("pi0", ["0.0", "1.0", "-0.2", "1.5"])
    def test_region_map_degenerate_prior_writes_nothing(self, capsys, tmp_path, pi0):
        path = tmp_path / "map.csv"
        code, _, err = run_cli(capsys, "phase", "--grid", "0.05", "--pi0", pi0,
                               "--csv", str(path))
        assert code == 2
        assert "pi0" in err
        assert not path.exists()

    @pytest.mark.parametrize("argv", [["--q0", "0.5"], ["--q1", "0.5"], ["--strict"],
                                      ["--q0", "0.6", "--q1", "0.4", "--pi0", "0.3"]],
                             ids=["q0", "q1", "strict", "point"])
    def test_grid_with_a_point_flag_exits_two(self, capsys, tmp_path, argv):
        """A map classifies no single point, so ``--grid`` with ``--q0``,
        ``--q1`` or ``--strict`` printed the map alone; each now exits 2 with
        one error line and no file."""
        path = tmp_path / "map.csv"
        code, out, err = run_cli(capsys, "phase", "--grid", "0.2", *argv, "--csv", str(path))
        assert code == 2 and out == ""
        assert err == ("error: phase --grid maps every (q0, q1) and classifies no single "
                       "point: it takes no --q0, --q1 or --strict\n")
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

    def test_default_curve_bytes_pinned(self, capsys, tmp_path):
        """The default model's report and its curve over the default
        --lam-range, 7,001 thresholds."""
        report, curve = tmp_path / "exponent.csv", tmp_path / "curve.csv"
        code, _, _ = run_cli(capsys, "exponent", "--csv", str(report), "--curve-csv", str(curve))
        assert code == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == (
            "0be415e1e6cee3f84fe2269d5e7fc56cd51334ad40d19d8be282a60766bb1c39")
        assert hashlib.sha256(curve.read_bytes()).hexdigest() == (
            "3913a396564e04a3c75c712ce8582b14171fb47f23cf27bfc3c484ca833283fa")

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
        # A Case-2 ladder. Its sizes from network.BINOMIAL_FROM on take the
        # Binomial kernel, whose risks are within a few ulp of the 50-digit
        # values (test_network.py's test_exponent_ladder_within_a_few_ulp).
        # Mixed by network.mix's row sum, r0 at N = 170, 185 and 200 is 0.8,
        # -1.5 and -1.3 ulp from the 50-digit sum at the same thresholds.
        (["--pi0", "0.3", "--q0", "0.7", "--q1", "0.5", "--n", "5:200:15", "--sigma", "1.3",
          "--cfa", "1.5"],
         "21aee45efb1e768f153caf21ddef67ab83a3548d6a81e1448cdcf16880385874"),
    ], ids=["readme", "case2"])
    def test_estimate_csv_bytes_pinned(self, capsys, tmp_path, argv, digest):
        """The bytes written when each size ran its own exact_risk."""
        path = tmp_path / "estimate.csv"
        code, _, _ = run_cli(capsys, "exponent", "--estimate", *argv, "--csv", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("sizes, size", [("5.5:60:5", "5.5"), ("5:60:2.5", "7.5"),
                                             ("10:12:0.5", "10.5")])
    def test_size_not_a_whole_number_exits_two(self, capsys, monkeypatch, tmp_path, sizes, size):
        """Each point was rounded half to even, so 5.5:60:5 fit sizes 6, 10,
        16, 20, ...; a point that is not a whole number now exits 2, naming
        the range and the point, before the fit, with no file."""
        monkeypatch.setattr(cli, "estimate_exponent", lambda *args: pytest.fail("fitted"))
        path = tmp_path / "estimate.csv"
        assert run_cli(capsys, "exponent", "--estimate", "--pi0", "0.3", "--q0", "0.5", "--q1",
                       "0.5", "--n", sizes, "--csv", str(path)) == (
            2, "", f"error: --n {sizes!r} has a size {size} that is not a whole number\n")
        assert not path.exists()

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

    def test_one_trial_refused(self, capsys, tmp_path, monkeypatch):
        """One trial has no standard error, so ``SimulationSpec`` refuses it
        before any draw, and two trials run."""
        path = tmp_path / "sim.csv"
        argv = ["simulate", "--pi0", "0.3", "--q0", "0.5", "--q", "0.5", "--seed", "1",
                "--csv", str(path)]
        with monkeypatch.context() as patch:
            patch.setattr(cli, "simulate", lambda spec: pytest.fail("drew"))
            code, out, err = run_cli(capsys, *argv, "--trials", "1")
        assert (code, out) == (2, "")
        assert err == "error: trials 1 is below 2: fewer than 2 trials have no standard error\n"
        assert not path.exists()
        code, out, _ = run_cli(capsys, *argv, "--trials", "2")
        assert code == 0
        assert "std_error=0.5" in out

    def test_missing_seed_exits_two(self, capsys):
        """The table, not argparse, needs ``--seed``: exit 2 with one error
        line, no usage dump."""
        assert run_cli(capsys, "simulate", "--pi0", "0.3", "--q0", "0.5", "--q", "0.5,0.5") == (
            2, "", "error: simulate needs --seed\n")

    @pytest.mark.parametrize("argv, digest", [
        # The README command.
        (["--pi0", "0.3", "--q0", "0.7372", "--q", "0.3960,0.3960",
          "--trials", "1000000", "--seed", "1"],
         "96c91951d6bc9de3e0d12013b969cf24a827e149d5159e7b00c96872bea7201d"),
        # Twenty heterogeneous locals, 0.30 to 0.68.
        (["--pi0", "0.4", "--q0", "0.45", "--q", ",".join("%.2f" % (0.3 + 0.02 * i) for i in range(20)),
          "--sigma", "1.3", "--cfa", "1.5", "--trials", "200000", "--seed", "7"],
         "1bdc02795e05637a9203675595e467b16d3e168fb096297edc63dd747f8ec692"),
        # Three locals on both sides of the fusion belief.
        (["--pi0", "0.3", "--q0", "0.6", "--q", "0.35,0.5,0.62", "--sigma", "0.8",
          "--trials", "300000", "--seed", "11"],
         "07b78489c22ca78ba6b14db4f0f7b51d70da5f665221a467cef8496da4ca1277"),
        # Twenty tied locals: exact_risk takes the Binomial kernel's count pmf.
        (["--pi0", "0.3", "--q0", "0.5", "--q", ",".join(["0.45"] * 20), "--cmd", "2.5",
          "--trials", "100000", "--seed", "2026"],
         "578e9a2611f2abdf49a66ce1a2909f3785eef007019c4cf6c8d1bc173e47abc7"),
        # Two hundred heterogeneous locals, 0.48 to 0.5198: wider than any
        # column loop, and erring under both hypotheses.
        (["--pi0", "0.35", "--q0", "0.5",
          "--q", ",".join("%.4f" % (0.48 + 0.0002 * i) for i in range(200)),
          "--sigma", "4", "--cfa", "1.2", "--trials", "50000", "--seed", "2200"],
         "2515b229d56f10990661464c5c63507babd6ca49619846e10464b8ce83057e65"),
    ], ids=["readme", "twenty-locals", "three-locals", "twenty-tied", "two-hundred-locals"])
    def test_csv_bytes_pinned(self, capsys, tmp_path, argv, digest):
        """The CSV bytes written when every signal was drawn through the
        inverse normal CDF and compared with its threshold."""
        path = tmp_path / "sim.csv"
        code, _, _ = run_cli(capsys, "simulate", *argv, "--csv", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("flag, value", [
        ("--trials", "0"), ("--trials", "-1"),
        ("--seed", "-1"), ("--seed", str(2**64)),
        ("--q", ""),
        ("--sigma", "1e200"), ("--sigma", "1e-200"),
        ("--pi0", "1e-300"),
    ])
    def test_argv_edge_is_finite_or_one_error(self, capsys, tmp_path, flag, value):
        """Each edge value exits 0 with only finite numbers, or 2 or 3 with
        one error line, nothing on stdout and no CSV; never a traceback."""
        argv = {"--pi0": "0.3", "--q0": "0.7", "--q": "0.4,0.4", "--trials": "1000", "--seed": "1"}
        argv[flag] = value
        path = tmp_path / "sim.csv"
        code, out, err = run_cli(capsys, "simulate", *(a for kv in argv.items() for a in kv),
                                 "--csv", str(path))
        if code == 0:
            assert err == ""
            assert all(math.isfinite(float(v)) for _, v in re.findall(r"(\w+)=(\S+)", out)), out
            _, row = list(csv.reader(path.open()))
            assert all(math.isfinite(float(v)) for v in row), row
        else:
            assert code in (2, 3)
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not path.exists()


def test_parser_reused_across_commands(capsys, tmp_path):
    """One process, one parser: a failed parse or a validation error leaves
    nothing behind, and a repeated command prints and writes the same bytes."""
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    risk = ["risk", "--pi0", "0.3", "--q0", "0.7372", "--q", "0.3960,0.3960", "--sigma", "1.2"]
    code, out_first, _ = run_cli(capsys, *risk, "--csv", str(first))
    assert code == 0
    code, _, err = run_cli(capsys, "risk", "--pi0", "1.0", "--q0", "0.5", "--q", "0.5")
    assert code == 2 and "pi0" in err
    code, _, err = run_cli(capsys, "simulate", "--pi0", "0.3", "--q0", "0.5", "--q", "0.5,0.5")
    assert code == 2 and err == "error: simulate needs --seed\n"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--pi0", "0.3", "--q0", "0.5", "--q", "0.5,0.5", "--seed", "one"])
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


@pytest.mark.parametrize("argv", [argv for _, argv in _LAST_CALLS.values()] +
                         [["pbpo", "--exact", "--pi0", "0.3", "--trace"]],
                         ids=[*_LAST_CALLS, "pbpo-trace"])
def test_csv_rewrites_to_the_same_bytes(capsys, tmp_path, argv):
    """Every CSV a command writes, read with ``csv.reader`` and written again
    by a default ``csv.writer``, gives back its bytes: no cell needs quoting
    and every line ends in \\r\\n."""
    sweep, curve, path = (tmp_path / n for n in ("sweep.csv", "curve.csv", "out.csv"))
    sweep.write_text(_SWEEP_CSV)
    argv = [a.format(sweep=sweep, curve=curve) for a in argv]
    code, _, _ = run_cli(capsys, *argv, "--csv", str(path))
    assert code == 0
    written = [p for p in (path, curve) if p.exists()]
    assert path in written
    for csv_path in written:
        with csv_path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        again = io.StringIO(newline="")
        csv.writer(again).writerows(rows)
        assert again.getvalue().encode() == csv_path.read_bytes(), csv_path.name


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
    ["pbpo", "--pi0", "0.3", "--init", "0.9,0.9,0.9", "--random-init", "--restarts", "2",
     "--max-iters", "5"],
], ids=["range-without-step", "contour-n-local", "grid-no-prior", "prelec-header-only",
        "phase-no-point", "estimate-no-prior", "grid-no-locals", "pbpo-delta", "pbpo-eps",
        "pbpo-max-iters", "pbpo-restarts", "pbpo-empty-init", "grid-resolution",
        "phase-boundary-prior", "phase-boundary-nan-prior", "estimate-beyond-exact-bound",
        "pbpo-init-and-random-init"])
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


def _bad_range_cases():
    """Every range flag with a step that is nan, inf, zero or negative, a
    reversed range and a non-finite start; every map or surface step flag
    with a bad or too fine step; and ranges too long to allocate."""
    ranges = {
        "estimate-n": ["exponent", "--estimate", "--pi0", "0.3", "--q0", "0.5", "--q1", "0.5", "--n"],
        "lam-range": ["exponent", "--curve-csv", "{curve}", "--lam-range"],
        "grid-sweep": ["grid", "--tie-locals", "--sweep-pi0"],
        "prelec-sweep": ["prelec", "--sweep-pi0"],
    }
    for name, argv in ranges.items():
        for step in ("nan", "inf", "0", "-0.1"):
            yield pytest.param([*argv, f"0.1:0.9:{step}"], id=f"{name}-step-{step}")
        yield pytest.param([*argv, "0.9:0.1:0.1"], id=f"{name}-reversed")
        yield pytest.param([*argv, "nan:0.9:0.1"], id=f"{name}-start-nan")
    steps = {"contour": ["grid", "--contour", "--pi0", "0.3", "--q0", "0.7", "--resolution"],
             "phase-grid": ["phase", "--grid"]}
    for name, argv in steps.items():
        for step in ("nan", "inf", "0", "-0.1", "1e-6", "0.6"):
            yield pytest.param([*argv, step], id=f"{name}-step-{step}")
    yield pytest.param(["exponent", "--estimate", "--pi0", "0.3", "--q0", "0.5", "--q1", "0.5",
                        "--n", "1:1e10:1"], id="estimate-1e10-sizes")
    yield pytest.param(["exponent", "--curve-csv", "{curve}", "--lam-range=-3:4:1e-10"],
                       id="lam-range-7e10-points")
    yield pytest.param(["grid", "--sweep-pi0", "0.05:0.95:1e-11", "--tie-locals"],
                       id="grid-sweep-9e10-priors")
    yield pytest.param(["phase", "--grid", "1e-7"], id="phase-grid-1e-7")


@pytest.mark.parametrize("argv", list(_bad_range_cases()))
def test_bad_range_refused_before_allocating(capsys, tmp_path, argv):
    """A bad range or axis step exits 2 with one error line, nothing on
    stdout and no file, before any array of it is allocated: a second is
    far more than the argument check takes."""
    curve, path = tmp_path / "c.csv", tmp_path / "out.csv"
    argv = [a.format(curve=curve) for a in argv]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--csv", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


def test_range_of_a_million_points_is_the_largest():
    assert len(cli._parse_range("0:999999:1")) == cli.MAX_RANGE_POINTS
    with pytest.raises(ValueError, match="more than 10\\^6 points"):
        cli._parse_range("0:1000000:1")


def test_range_stops_at_stop(capsys):
    """No point past ``stop``, though one lies within half a step of it; an
    on-grid stop is kept."""
    assert cli._parse_range("0.05:0.6:0.3").tolist() == [0.05, 0.35]
    assert cli._parse_range("5:60:30").tolist() == [5.0, 35.0]
    axis = cli._parse_range("-3:4:0.001")
    assert (len(axis), axis[-1]) == (7001, 4.0)
    code, out, _ = run_cli(capsys, "grid", "--tie-locals", "--sweep-pi0", "0.05:0.6:0.3")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == ["pi0=0.05", "pi0=0.35"]
    # Sizes 5 and 35 only: too few for a fit, where size 65 made a third.
    code, out, err = run_cli(capsys, "exponent", "--estimate", "--pi0", "0.3", "--q0", "0.6",
                             "--q1", "0.45", "--n", "5:60:30")
    assert (code, out) == (2, "")
    assert err == "error: n_list must hold at least 3 strictly increasing sizes >= 1\n"


@pytest.mark.parametrize("argv", [
    ["exponent", "--estimate", "--pi0", "0.3", "--q0", "0.5", "--q1", "0.5", "--trials", "5"],
    ["exponent", "--estimate", "--pi0", "0.3", "--q0", "0.5", "--q1", "0.5", "--seed", "5"],
], ids=["exponent-trials", "exponent-seed"])
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


def _runs(command):
    """The rows of ``command`` in ``cli._MODES``, split into runs, each ended
    by a mode with no selector."""
    runs, run = [], []
    for row in cli._MODES:
        if row[0] == command:
            run.append(row)
            if not row[2]:
                runs, run = runs + [run], []
    return runs


# A valid value of each flag that takes one, for the argvs built from the table.
_TABLE_VALUES = {
    "--pi0": "0.3", "--q0": "0.5", "--q1": "0.5", "--n-local": "2", "--resolution": "0.1",
    "--grid-resolution": "0.01", "--sweep-pi0": "0.2:0.4:0.1", "--delta": "0.01",
    "--eps": "1e-4", "--max-iters": "5", "--init": "0.5,0.5,0.5", "--restarts": "2",
    "--seed": "7", "--input": "sweep.csv", "--q0-strategy": "reoptimize-q0", "--grid": "0.2",
    "--n": "5:30:5", "--curve-csv": "curve.csv", "--lam-range": "0:1:0.5", "--csv": "out.csv",
    "--q": "0.5,0.5", "--trials": "100"}
# Every function that computes, as ``cli`` imported it.
_COMPUTING = ("grid_search", "optimal_belief_sweep", "checked_risks", "pbpo", "pbpo_exact",
              "exact_risk", "simulate", "phase_map", "classify_phase", "optimal_exponent",
              "exponent_curve", "estimate_exponent", "fit_prelec_minimax", "prelec_risk_gap")


def _picked(runs, given):
    """The mode that the flags ``given`` pick from each run."""
    return tuple(next(row for row in run if row[2] in given or not row[2]) for run in runs)


def _argv(command, flags):
    """``command`` with ``flags``, each switch alone and each other flag
    with its ``_TABLE_VALUES`` value."""
    commands = next(action.choices for action in cli.build_parser()._actions if action.choices)
    switches = {a.option_strings[0] for a in commands[command]._actions if a.nargs == 0}
    return [command] + [piece for f in flags
                        for piece in ([f] if f in switches else [f, _TABLE_VALUES[f]])]


def _table_modes():
    """(command, runs, modes, given) of every pick of one mode from each run
    of each command; ``given`` holds the selectors and needs of the modes."""
    for command in sorted({row[0] for row in cli._MODES}):
        runs = _runs(command)
        for modes in itertools.product(*runs):
            given = [f for mode in modes for f in f"{mode[2]} {mode[4]}".split()]
            assert _picked(runs, given) == modes
            yield command, runs, modes, given


def _unread_pairs():
    """(argv, mode, flag) of every flag of a command that no mode picked by
    ``argv`` reads and that, added to ``argv``, leaves the pick unchanged;
    ``mode`` is the picked mode of the flag's run. ``argv`` gives the
    selectors and needs of its modes, and the flag."""
    for command, runs, modes, given in _table_modes():
        reads = {flag for mode in modes for flag in mode[3].split()}
        for run, mode in zip(runs, modes):
            for flag in sorted({f for row in run for f in row[3].split()} - reads):
                if _picked(runs, given + [flag]) == modes:
                    yield pytest.param(_argv(command, given + [flag]),
                                       f"{command} {mode[1]} mode", flag,
                                       id="-".join([m[1] for m in modes if m[1]] + [flag[2:]]))


def _missing_needs():
    """(argv, flag) of every need of every picked mode, ``argv`` giving the
    selectors and needs of the modes but that one flag; a one-row run names
    no mode. Each mode's needs are left out once, with the other runs at
    their first pick that gives it."""
    seen = set()
    for command, runs, modes, given in _table_modes():
        for mode in modes:
            for flag in mode[4].split():
                if (command, mode[1], flag) not in seen:
                    seen.add((command, mode[1], flag))
                    rest = [f for f in given if f != flag]
                    yield pytest.param(_argv(command, rest), flag, id="-".join(
                        [command] + [m[1] for m in modes if m[1]] + [flag[2:]]))


_UNREAD = list(_unread_pairs())
_MISSING = list(_missing_needs())


@pytest.mark.parametrize("argv, mode, flag", _UNREAD)
def test_flag_the_mode_does_not_read_exits_two(capsys, monkeypatch, tmp_path, argv, mode, flag):
    """Every flag that no picked mode reads changed nothing: the run printed
    what it prints without the flag. Each now exits 2, before any function
    that computes is called, with one error line that names the flag and the
    mode (or gives the command's reason), nothing on stdout and no file."""
    def computed(*args, **kwargs):
        raise AssertionError("a refused run computed")

    for name in _COMPUTING:
        monkeypatch.setattr(cli, name, computed)
    monkeypatch.chdir(tmp_path)
    Path("sweep.csv").write_text(_SWEEP_CSV)
    code, out, err = run_cli(capsys, *argv, "--csv", "out.csv")
    assert (code, out) == (2, "")
    reason = next((why for command, flags, why in cli._REASONS
                   if command == argv[0] and flag in flags.split()), None)
    if reason:
        assert err == f"error: {reason}\n"
    else:
        assert err.startswith(f"error: {mode} (") and err.endswith(f" does not read {flag}\n")
        assert err.count("\n") == 1
    assert os.listdir() == ["sweep.csv"]


def test_unread_pairs_of_each_command():
    """The table implies 50 pairs. risk and simulate have one mode, which
    reads each of their flags. grid --contour refuses --n-local. Each of
    pbpo's 12 picks of a trace, start and step mode refuses the flags of
    the start and step runs that it does not read, --init in a random start
    included."""
    assert collections.Counter(pair.values[0][0] for pair in _UNREAD) == {
        "grid": 9, "pbpo": 26, "prelec": 1, "phase": 3, "exponent": 11}
    assert len({pair.id for pair in _UNREAD}) == len(_UNREAD)


@pytest.mark.parametrize("argv, flag", _MISSING)
def test_missing_need_exits_two(capsys, monkeypatch, tmp_path, argv, flag):
    """Every need of every mode is the table's: an argv without it returns 2
    from ``main``, with no ``SystemExit`` and no usage dump, before any
    function that computes is called, with one error line that names the
    flag, nothing on stdout and no file."""
    def computed(*args, **kwargs):
        raise AssertionError("a refused run computed")

    for name in _COMPUTING:
        monkeypatch.setattr(cli, name, computed)
    monkeypatch.chdir(tmp_path)
    Path("sweep.csv").write_text(_SWEEP_CSV)
    code, out, err = run_cli(capsys, *argv, *([] if flag == "--csv" else ["--csv", "out.csv"]))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(f" needs {flag}\n"), err
    assert err.count("\n") == 1
    assert os.listdir() == ["sweep.csv"]


def test_missing_needs_of_each_command():
    """Each need of each mode is left out once: 18 in all, among them the
    3 of risk and the 4 of simulate, which argparse required before."""
    assert collections.Counter(pair.values[0][0] for pair in _MISSING) == {
        "risk": 3, "grid": 3, "pbpo": 2, "prelec": 1, "phase": 2, "exponent": 3, "simulate": 4}
    assert len({pair.id for pair in _MISSING}) == len(_MISSING)


@pytest.mark.parametrize("argv", [
    ["risk", "--pi0", "0.3", "--q0", "0.7", "--q", "0.4,0.4", "--csv", ""],
    ["grid", "--pi0", "0.3", "--grid-resolution", "0.1", "--csv", ""],
    ["pbpo", "--pi0", "0.3", "--max-iters", "5", "--csv", ""],
    ["prelec", "--sweep-pi0", "0.2:0.8:0.3", "--csv", ""],
    ["phase", "--q0", "0.5", "--q1", "0.5", "--csv", ""],
    ["exponent", "--csv", ""],
    ["simulate", "--pi0", "0.3", "--q0", "0.7", "--q", "0.4,0.4", "--trials", "100",
     "--seed", "1", "--csv", ""],
    ["exponent", "--curve-csv", ""],
], ids=["risk", "grid", "pbpo", "prelec", "phase", "exponent", "simulate", "exponent-curve"])
def test_empty_output_path_exits_two(capsys, monkeypatch, tmp_path, argv):
    """An empty ``--csv`` or ``--curve-csv`` printed the run's lines, exited
    0 and wrote nothing; it now fails at its write, like any path that
    cannot be written: exit 2, one error line, nothing on stdout, no file.
    ``pbpo --trace`` needs a non-empty ``--csv`` and refuses before any work
    (``TestPbpoCommand.test_trace_without_csv_exits_two``)."""
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv) == (2, "", "error: [Errno 2] No such file or directory: ''\n")
    assert os.listdir() == []


@pytest.mark.parametrize("argv", [
    ["risk", "--pi0", "0.3", "--q0", "0.7", "--q", "0.4,,0.4"],
    ["risk", "--pi0", "0.3", "--q0", "0.7", "--q", "0.4,0.4,"],
    ["risk", "--pi0", "0.3", "--q0", "0.7", "--q", ",0.4"],
    ["risk", "--pi0", "0.3", "--q0", "0.7", "--q", ","],
    ["simulate", "--pi0", "0.3", "--q0", "0.7", "--q", "0.4, ,0.4", "--trials", "100",
     "--seed", "1"],
    ["pbpo", "--pi0", "0.3", "--init", "0.5,,0.5,0.5"],
    ["pbpo", "--pi0", "0.3", "--init", "0.5,0.5,0.5,"],
], ids=["q-middle", "q-trailing", "q-leading", "q-comma", "simulate-q-blank",
        "init-middle", "init-trailing"])
def test_empty_list_field_exits_two(capsys, monkeypatch, tmp_path, argv):
    """A list with an empty field ran on its other values (``--q 0.4,,0.4``
    reported a 2-local network, ``--init 0.5,,0.5,0.5`` ran a descent); it
    now exits 2 before any function that computes is called, with one error
    line that quotes the list, nothing on stdout and no file."""
    def computed(*args, **kwargs):
        raise AssertionError("a refused run computed")

    for name in _COMPUTING:
        monkeypatch.setattr(cli, name, computed)
    monkeypatch.chdir(tmp_path)
    listed = argv[argv.index("--init" if "--init" in argv else "--q") + 1]
    assert run_cli(capsys, *argv, "--csv", "out.csv") == (
        2, "", f"error: comma-separated list {listed!r} has an empty field\n")
    assert os.listdir() == []


@pytest.mark.parametrize("argv, field", [
    (["risk", "--pi0", "0.3", "--q0", "0.7", "--q", "0.4,abc"], "abc"),
    (["risk", "--pi0", "0.3", "--q0", "0.7", "--q", "0.4, 0.4x"], " 0.4x"),
    (["simulate", "--pi0", "0.3", "--q0", "0.7", "--q", "0.4,0x10", "--trials", "100",
      "--seed", "1"], "0x10"),
    (["pbpo", "--pi0", "0.3", "--init", "0.5,0.5,half,0.5"], "half"),
], ids=["q-word", "q-suffix", "simulate-q-hex", "init-word"])
def test_non_number_list_field_exits_two(capsys, monkeypatch, tmp_path, argv, field):
    """A list field that is not a number printed only ``float()``'s own
    message, naming neither the list nor the field; it now exits 2 before
    any function that computes is called, with one error line that quotes
    both, nothing on stdout and no file."""
    def computed(*args, **kwargs):
        raise AssertionError("a refused run computed")

    for name in _COMPUTING:
        monkeypatch.setattr(cli, name, computed)
    monkeypatch.chdir(tmp_path)
    listed = argv[argv.index("--init" if "--init" in argv else "--q") + 1]
    assert run_cli(capsys, *argv, "--csv", "out.csv") == (
        2, "", f"error: comma-separated list {listed!r} has a field {field!r} "
               f"that is not a number\n")
    assert os.listdir() == []


@pytest.mark.parametrize("argv, code, err", [
    (["prelec", "--input", ""], 2, "error: prelec sweep mode (no --input) needs --sweep-pi0\n"),
    (["grid", "--sweep-pi0", "", "--pi0", "0.3", "--grid-resolution", "0.01"], 0, ""),
    (["exponent", "--curve-csv", "", "--lam-range", "0:1:0.5"], 2,
     "error: exponent report mode (no --estimate or --curve-csv) does not read --lam-range\n"),
], ids=["prelec-input", "grid-sweep", "exponent-curve"])
def test_empty_value_picks_no_mode(capsys, argv, code, err):
    """A command tests a path or range for truth, so an empty one is no
    given flag: it picks no mode, and ``prelec --input ''`` exits 2 for
    want of a sweep rather than with a traceback."""
    assert run_cli(capsys, *argv)[::2] == (code, err)


@pytest.mark.parametrize("argv", [
    ["exponent", "--estimate", "--pi0", "0.3", "--q0", "0.5", "--q1", "0.5", "--n", ""],
    ["exponent", "--curve-csv", "curve.csv", "--lam-range", ""],
], ids=["n", "lam-range"])
def test_empty_read_range_exits_two(capsys, monkeypatch, tmp_path, argv):
    """An empty range that its mode reads took the flag's default (the
    ladder 5:60:5, the 7,001-point curve) and exited 0; a default now fills
    in only a flag left out, so the empty range reaches its parser and exits
    2 before any function that computes is called, with one error line,
    nothing on stdout and no file."""
    def computed(*args, **kwargs):
        raise AssertionError("a refused run computed")

    for name in _COMPUTING:
        monkeypatch.setattr(cli, name, computed)
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv, "--csv", "out.csv") == (
        2, "", "error: range '' must look like start:stop:step\n")
    assert os.listdir() == []


def _flag_helps(command):
    """``{flag: help}`` of the subcommand ``command``."""
    commands = next(action.choices for action in cli.build_parser()._actions if action.choices)
    return {flag: action.help for action in commands[command]._actions
            for flag in action.option_strings}


@pytest.mark.parametrize("flag, value", cli._DEFAULTS, ids=[f for f, _ in cli._DEFAULTS])
def test_help_states_each_mode_default(capsys, flag, value):
    """A flag whose default its mode fills in states that default in its help."""
    command = next(row[0] for row in cli._MODES if flag in row[3].split())
    assert f"(default {value}; " in _flag_helps(command)[flag]
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"(default {value}; " in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", sorted({row[0] for row in cli._MODES}))
def test_help_names_the_modes_that_read_a_flag(command):
    """The help of a flag that some modes of its run read and others do not
    names each mode that reads it."""
    helps = _flag_helps(command)
    for run in _runs(command):
        for flag in sorted({flag for row in run for flag in row[3].split()}):
            readers = [row[1] for row in run if flag in row[3].split()]
            if len(readers) < len(run):
                assert all(re.search(rf"\b{mode}\b", helps[flag]) for mode in readers), \
                    (flag, readers, helps[flag])


@pytest.mark.parametrize("command", sorted({row[0] for row in cli._MODES}))
def test_help_states_what_the_tables_say(command):
    """The help of each flag that a mode reads says what the tables say of
    it: a selector's starts ``<mode> mode:``; it says ``needed`` where a mode
    needs the flag, and states the flag's default where none needs it; and
    in a run of several modes it names each mode that reads the flag, or
    says ``every mode`` where all of them do."""
    helps, defaults = _flag_helps(command), dict(cli._DEFAULTS)
    wrong = []
    for run in _runs(command):
        for flag in dict.fromkeys(flag for row in run for flag in row[3].split()):
            text = helps[flag]
            readers = [row[1] for row in run if flag in row[3].split()]
            said = [text.startswith(f"{row[1]} mode: ") for row in run if row[2] == flag]
            if any(flag in row[4].split() for row in run):
                said.append("needed" in text)
            elif flag in defaults:
                said.append(f"(default {defaults[flag]}" in text)
            if len(readers) == len(run) > 1:
                said.append("every mode" in text)
            elif len(readers) < len(run):
                said += [re.search(rf"\b{mode}\b", text) is not None for mode in readers]
            if not all(said):
                wrong.append((flag, text))
    assert wrong == []


# The argv language of each subcommand: each mode flag as a switch, a tuple
# of choices or the name of the type that parses its value; then the model
# flags that every subcommand shares, each (type, default). The order of the
# flags, which only ``--help`` shows, is no part of it.
_MODE_FLAGS = {
    "risk": {"--pi0": "float", "--q0": "float", "--q": "str"},
    "grid": {"--pi0": "float", "--n-local": "int", "--q0": "float", "--tie-locals": "switch",
             "--grid-resolution": "float", "--resolution": "float", "--contour": "switch",
             "--sweep-pi0": "str"},
    "pbpo": {"--pi0": "float", "--n-local": "int", "--delta": "float", "--eps": "float",
             "--max-iters": "int", "--init": "str", "--random-init": "switch",
             "--restarts": "int", "--seed": "int", "--trace": "switch", "--exact": "switch"},
    "prelec": {"--n-local": "int", "--sweep-pi0": "str", "--input": "str",
               "--q0-strategy": ("keep-optimal-q0", "reoptimize-q0")},
    "phase": {"--q0": "float", "--q1": "float", "--pi0": "float", "--grid": "float",
              "--strict": "switch"},
    "exponent": {"--estimate": "switch", "--pi0": "float", "--q0": "float", "--q1": "float",
                 "--n": "str", "--curve-csv": "str", "--lam-range": "str"},
    "simulate": {"--pi0": "float", "--q0": "float", "--q": "str", "--trials": "int",
                 "--seed": "int"},
}
_MODEL_FLAGS = {"--sigma": ("float", 1.0), "--cfa": ("float", 1.0), "--cmd": ("float", 1.0),
                "--csv": ("str", None)}


def test_parser_offers_the_pinned_argv_language():
    """Each subcommand offers exactly its pinned flags, each parsed as
    pinned, and runs its own ``cmd_*``: so the parser accepts and refuses the
    same argvs however it is built. A mode flag takes no argparse default (a
    switch is off): the mode tables fill in defaults."""
    commands = next(action.choices for action in cli.build_parser()._actions if action.choices)
    assert list(commands) == list(_MODE_FLAGS)
    for command, parser in commands.items():
        assert parser.get_default("func") is getattr(cli, f"cmd_{command}")
        offered, model = {}, {}
        for action in (a for a in parser._actions if a.dest != "help"):
            [flag] = action.option_strings
            assert (action.dest, action.required) == (flag[2:].replace("-", "_"), False)
            kind = "switch" if isinstance(action, argparse._StoreTrueAction) else \
                tuple(action.choices) if action.choices else (action.type or str).__name__
            if flag in _MODEL_FLAGS:
                model[flag] = (kind, action.default)
            else:
                offered[flag] = kind
                assert action.default is (False if kind == "switch" else None), flag
        assert (offered, model) == (_MODE_FLAGS[command], _MODEL_FLAGS), command


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


# The argv fuzz: an argv holds valid numbers only, or all but one of them,
# which is one of these edges, in any numeric flag, range part or belief, so
# steps are zero, negative, reversed or not finite. One edge at a time lets
# the other flags pass their checks, so many argvs reach the work they ask
# for. Costly knobs stay small: N <= 3, --max-iters <= 20, --restarts
# <= 3, --trials <= 1000, map and contour steps >= 0.05. A --q list holds
# at least one belief (tests above refuse an empty one).
_EDGES = ("0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "1e-308", "5e-324")
_NUMBER_TOKEN = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)
_FUZZ_DIR = "{dir}"  # replaced by the example's own temporary directory
_MARK = "#"  # leads each drawn number until ``_one_edge`` places the edge
_MARKED = re.compile(r"#([^:,#]*)")


def _number(*valid):
    return st.sampled_from([_MARK + value for value in valid])


def _one_edge(argv):
    """``argv`` with its numbers unmarked: all valid, or, in about half the
    draws, with one of them, picked uniformly, replaced by an edge."""
    slots = sum(arg.count(_MARK) for arg in argv)

    def place(pick):
        numbers = iter(range(slots))
        return [_MARKED.sub(lambda m: pick[1] if next(numbers) == pick[0] else m[1], arg)
                for arg in argv]
    edge = st.tuples(st.integers(0, slots - 1), st.sampled_from(_EDGES)) if slots \
        else st.nothing()
    return st.one_of(st.just((-1, None)), edge).map(place)


def _range(ends, steps):
    return st.tuples(_number(*ends), _number(*ends), _number(*steps)).map(":".join)


def _beliefs(max_size, min_size=0):
    return st.lists(_number("0.3", "0.45", "0.7"), min_size=min_size,
                    max_size=max_size).map(",".join)


_MODEL = {"--sigma": _number("1.0", "0.6", "3"), "--cfa": _number("1.0", "2"),
          "--cmd": _number("1.0", "0.5")}
_PRIOR_RANGE = _range(("0.2", "0.5", "0.8"), ("0.1", "0.3"))
# Each subcommand's valid values of the flags it has; a switch takes None.
# ``phase --strict``, which writes its output and then exits 3, is left out.
# A descent of N locals (--n-local, or its default 2) starts from --init
# with a belief for the fusion agent and each local (tests above refuse an
# --init of the wrong length).
_VALUES = {
    "risk": {"--pi0": _number("0.3", "0.7"), "--q0": _number("0.3", "0.7"),
             "--q": _beliefs(3, 1)},
    "grid": {"--pi0": _number("0.3"), "--n-local": _number("1", "2", "3"),
             "--q0": _number("0.6"), "--tie-locals": None,
             "--grid-resolution": _number("0.1", "0.25"), "--resolution": _number("0.05", "0.25"),
             "--contour": None, "--sweep-pi0": _PRIOR_RANGE},
    "pbpo": {"--pi0": _number("0.3", "0.6"), "--eps": _number("1e-4", "1e-3"),
             "--max-iters": _number("1", "5", "20"), "--trace": None, "--random-init": None,
             "--restarts": _number("1", "3"), "--seed": _number("7"), "--exact": None,
             "--delta": _number("5e-4", "0.01")},
    "prelec": {"--n-local": _number("1", "2", "3"), "--sweep-pi0": _PRIOR_RANGE,
               "--input": st.sampled_from([f"{_FUZZ_DIR}/sweep.csv", f"{_FUZZ_DIR}/missing.csv"]),
               "--q0-strategy": st.sampled_from(["keep-optimal-q0", "reoptimize-q0"])},
    "phase": {"--q0": _number("0.6", "0.3"), "--q1": _number("0.5", "0.7"),
              "--pi0": _number("0.3"), "--grid": _number("0.05", "0.25", "0.5")},
    "exponent": {"--estimate": None, "--pi0": _number("0.3"), "--q0": _number("0.6"),
                 "--q1": _number("0.45", "0.5"), "--n": _range(("2", "5", "20"), ("5", "10")),
                 "--curve-csv": st.just(f"{_FUZZ_DIR}/curve.csv"),
                 "--lam-range": _range(("-3", "0.5", "4"), ("0.25", "1"))},
    "simulate": {"--pi0": _number("0.3", "0.7"), "--q0": _number("0.3", "0.7"),
                 "--q": _beliefs(3, 1), "--trials": _number("2", "100", "1000"),
                 "--seed": _number("1", "7")},
}
# The flags drawn whenever the modes read them, besides their needs: their
# defaults cost too much for a fuzz.
_DRAWN = {"grid": "--grid-resolution --resolution", "pbpo": "--max-iters",
          "simulate": "--trials"}


@st.composite
def _fuzz_argv(draw, command):
    """``(argv, unread)``: one mode of each run of ``command``, drawn from
    ``cli._MODES``; every flag that the modes need, select or read and
    ``_DRAWN`` names; each other flag they read, present or not; and in
    about half the draws one flag ``unread`` of the command that they do not
    read (else None), which is no selector of an earlier mode, since that
    would pick it; in a drawn order, with at most one edge."""
    runs = _runs(command)
    n = draw(st.integers(1, 3)) if command == "pbpo" else 2
    values = {**_MODEL, **_VALUES[command]}
    if command == "pbpo":
        values.update({"--n-local": st.just(f"{_MARK}{n}"), "--init": _beliefs(n + 1, n + 1)})
    picks = [draw(st.integers(0, len(run) - 1)) for run in runs]
    modes = [run[pick] for run, pick in zip(runs, picks)]
    reads = {flag for mode in modes for flag in mode[3].split()} | set(_MODEL)
    needed = {flag for mode in modes for flag in f"{mode[2]} {mode[4]}".split()}
    needed |= reads & set(_DRAWN.get(command, "").split())
    if n != 2:
        needed.add("--n-local")
    flags = [flag for flag in sorted(reads & set(values))
             if flag in needed or draw(st.booleans())]
    selectors = {row[2] for run, pick in zip(runs, picks) for row in run[:pick]}
    others = sorted(({flag for run in runs for row in run for flag in row[3].split()}
                     - reads - selectors) & set(values))
    unread = draw(st.one_of(st.none(), st.sampled_from(others))) if others else None
    pieces = [[flag] if values[flag] is None else [f"{flag}={draw(values[flag])}"]
              for flag in flags + ([unread] if unread else [])]
    argv = draw(st.permutations(pieces).map(lambda drawn: sum(drawn, [])).flatmap(_one_edge))
    return [command, *argv], unread


# A valid ``grid --sweep-pi0`` CSV for ``prelec --input``.
_SWEEP_CSV = ("pi0,q0_opt,q1_opt,risk_opt\n0.2,0.26,0.22,0.15\n0.4,0.45,0.41,0.25\n"
              "0.6,0.62,0.6,0.3\n0.8,0.81,0.79,0.15\n")


def _fuzz_run(argv, directory):
    """Exit code, stdout and stderr of ``argv``, its paths in ``directory``
    and ``--csv`` appended, and the files that ``directory`` then holds."""
    argv = [arg.replace(_FUZZ_DIR, directory) for arg in argv]
    argv += ["--csv", os.path.join(directory, "out.csv")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing a value of the wrong type
            assert "error: argument " in err.getvalue(), (argv, err.getvalue())
            code = exc.code
    return code, out.getvalue(), err.getvalue(), sorted(os.listdir(directory))


@settings(max_examples=400, deadline=None)
@given(drawn=st.sampled_from(sorted(_VALUES)).flatmap(_fuzz_argv))
def test_argv_fuzz_is_finite_or_refused(drawn):
    """Any argv of the seven subcommands exits 0, 2 or 3, never with a
    traceback or a numpy warning (the test configuration raises a
    RuntimeWarning). A non-zero exit prints nothing to stdout and leaves no
    new file; exit 0 prints no nan or inf, to stdout or to a CSV, and only
    when every flag is one that the run's modes read. A flag that they do
    not read exits 2 with an error line that names it, or with argparse's own
    ``error: argument`` line where argparse refuses a value first."""
    argv, unread = drawn
    with tempfile.TemporaryDirectory() as directory:
        Path(directory, "sweep.csv").write_text(_SWEEP_CSV)
        code, out, err, files = _fuzz_run(argv, directory)
        if code == 0:
            assert unread is None, (argv, unread)
            assert not _NUMBER_TOKEN.search(out), out
            for name in files:
                text = Path(directory, name).read_text()
                assert not _NUMBER_TOKEN.search(text), (name, text)
        else:
            assert code in (2, 3), err
            assert out == ""
            assert files == ["sweep.csv"]
        if unread is not None:
            assert code == 2, (argv, unread)
            assert re.search(rf"^error: .*{re.escape(unread)}(?![\w-])", err, re.MULTILINE) \
                or "error: argument " in err, (argv, unread, err)


@pytest.mark.parametrize("argv, code", [
    (["grid", "--tie-locals", "--sweep-pi0", "0.2:1e308:1e308"], 2),
    (["exponent", "--sigma", "1e200"], 3),
    (["prelec", "--input", "{sweep}", "--sigma", "1e308"], 3),
    (["risk", "--pi0", "0.3", "--q0", "0.5", "--q", "0.4", "--sigma", "5e-324"], 2),
    (["exponent", "--curve-csv", "{curve}", "--lam-range=-1e308:-3:1e308", "--sigma", "0.5"], 0),
], ids=["range-end-1e308", "variance-proxy-overflow", "prelec-input-nan-risk",
        "subnormal-sigma", "curve-at-1e308"])
def test_argv_fuzz_findings(capsys, tmp_path, argv, code):
    """The argv on which the fuzz above first failed: a numpy overflow
    warning from rounding a range, a CSV with variance_proxy=inf, a
    max_gap=nan headline, an overflow warning from a subnormal sigma and an
    invalid-value warning from an infinite threshold. Each now exits with
    one error line and no file, or 0 with only finite numbers, and warns of
    nothing (a RuntimeWarning fails any test)."""
    sweep, curve, path = (tmp_path / n for n in ("sweep.csv", "curve.csv", "out.csv"))
    sweep.write_text(_SWEEP_CSV)
    argv = [a.format(sweep=sweep, curve=curve) for a in argv]
    got, out, err = run_cli(capsys, *argv, "--csv", str(path))
    assert got == code, err
    if code == 0:
        assert err == ""
        for text in (out, path.read_text(), curve.read_text()):
            assert not _NUMBER_TOKEN.search(text), text
    else:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv"]
