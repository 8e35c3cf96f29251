"""Batch command-line front end.

Every command validates its flags before any computation, prints headline
numbers to stdout, and can write its full output as RFC-4180 CSV with a
header row. Numbers are serialized with 10 significant digits and all
computation is deterministic, so rerunning a command with identical flags
produces byte-identical files. The numbers come from the library's public
functions; ``grid --contour`` evaluates its surface with
``optimize.checked_risks``.

Exit codes: 0 success, 2 validation error (an output path that cannot be
written included), 3 numerical-domain failure (a ``FloatingPointError``:
fusion log factors or a risk not finite, which only an extreme sigma brings
about, or an overflowed z1 or beta*) or a boundary classification escalated
by ``phase --strict``.

One output path: each ``cmd_*`` only computes and returns an ``Output`` of
its stdout lines and its files as text cells; ``main`` alone writes the files
and then prints the lines. So a non-zero exit prints nothing to stdout and
leaves no file the run created, except ``phase --strict``, which writes its
output and then exits 3.

``main`` builds the argument parser once per process and reuses it.
"""

import argparse
import collections
import contextlib
import csv
import dataclasses
import functools
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .asymptotics import (
    PhaseRegion,
    classify_phase,
    exponent_curve,
    optimal_exponent,
    phase_map,
)
from .montecarlo import SimulationSpec, estimate_exponent, simulate
from .network import NetworkTemplate, exact_risk
from .observation import CostPair, ObservationModel, check_prior
from .optimize import (
    OptimizerSettings,
    SweepPoint,
    checked_risks,
    grid_search,
    optimal_belief_sweep,
    pbpo,
    pbpo_exact,
)
from .prospect import (
    Q0_STRATEGIES,
    fit_prelec_minimax,
    prelec_risk_gap,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DOMAIN = 3


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.10g" % float(value)


class Output(NamedTuple):
    """A command's stdout lines, its files as ``{path: (header, text rows)}``,
    and the stderr line with which ``phase --strict`` escalates to exit 3."""

    lines: list[str]
    files: dict
    escalation: str | None = None


def _csv(path, header, rows) -> dict:
    """``{path: (header, rows as text cells)}``, or ``{}`` when no path is given."""
    return {path: (header, [[_fmt(v) for v in row] for row in rows])} if path else {}


def _parse_floats(text: str) -> tuple[float, ...]:
    parts = [p for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise ValueError("expected a comma-separated list with at least one value (N >= 1)")
    return tuple(float(p) for p in parts)


def _parse_range(text: str) -> np.ndarray:
    """start:stop:step, inclusive of start and of stop when it is on-grid."""
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"range {text!r} must look like start:stop:step") from exc
    if step <= 0 or stop < start:
        raise ValueError(f"range {text!r} must have positive step and stop >= start")
    return np.round(np.arange(start, stop + step / 2.0, step), 10)


def _add_model_args(parser: argparse.ArgumentParser, func) -> None:
    """Add the flags every subcommand shares and the ``cmd_*`` that runs it."""
    parser.set_defaults(func=func)
    parser.add_argument("--sigma", type=float, default=1.0, help="noise standard deviation")
    parser.add_argument("--cfa", type=float, default=1.0, help="false-alarm cost")
    parser.add_argument("--cmd", type=float, default=1.0, help="missed-detection cost")
    parser.add_argument("--csv", help="write full output to this CSV file")


def _costs_model(args) -> tuple[CostPair, ObservationModel]:
    return CostPair(c_fa=args.cfa, c_md=args.cmd), ObservationModel(sigma=args.sigma)


def cmd_risk(args) -> Output:
    q_local = _parse_floats(args.q)
    template = NetworkTemplate(args.pi0, *_costs_model(args), len(q_local))
    report = exact_risk(template.config(args.q0, q_local))
    if not math.isfinite(report.r0):
        raise FloatingPointError(f"risk is not finite (R0={report.r0!r}) at sigma={args.sigma!r}: "
                                 f"its fusion log factors or thresholds are not finite")
    lines = [f"R0={report.r0:.10g}", f"p_fa0={report.p_fa0:.10g} p_md0={report.p_md0:.10g}"]
    lines += [f"k={k} updated_belief={b:.10g} fusion_threshold={t:.10g}"
              for k, b, t in report.per_count]
    return Output(lines, _csv(
        args.csv, ["k", "updated_belief", "fusion_threshold", "r0", "p_fa0", "p_md0"],
        ((k, b, t, report.r0, report.p_fa0, report.p_md0) for k, b, t in report.per_count)))


def cmd_grid(args) -> Output:
    costs, model = _costs_model(args)
    if args.contour:
        if args.q0 is None or args.pi0 is None:
            raise ValueError("--contour requires --pi0 and --q0")
        if args.n_local != 2:
            raise ValueError("--contour draws a (q1, q2) surface and needs --n-local 2")
        template = NetworkTemplate(args.pi0, costs, model, 2)
        axis = _parse_range(f"{args.resolution}:{1.0 - args.resolution}:{args.resolution}")
        grid1, grid2 = np.meshgrid(axis, axis, indexing="ij")
        rows = np.column_stack([grid1.ravel(), grid2.ravel()])
        risks = checked_risks(template, [args.q0], rows)[0]
        return Output(
            [f"contour: {len(rows)} points at q0={args.q0:.10g}, min risk {risks.min():.10g}"],
            _csv(args.csv, ["q1", "q2", "risk"], ((*row, risk) for row, risk in zip(rows, risks))))

    settings = OptimizerSettings(grid_resolution=args.grid_resolution,
                                 tie_local_beliefs=args.tie_locals)
    if args.sweep_pi0:
        pi0_values = _parse_range(args.sweep_pi0)
        template = NetworkTemplate(float(pi0_values[0]), costs, model, args.n_local)
        points = optimal_belief_sweep(template, pi0_values, settings)
        return Output([f"pi0={p.pi0:.10g} q0_opt={p.q0_opt:.10g} "
                       f"q1_opt={p.q1_opt:.10g} risk_opt={p.risk_opt:.10g}" for p in points],
                      _csv(args.csv, ["pi0", "q0_opt", "q1_opt", "risk_opt"],
                           ((p.pi0, p.q0_opt, p.q1_opt, p.risk_opt) for p in points)))

    if args.pi0 is None:
        raise ValueError("grid needs --pi0 (or --sweep-pi0)")
    result = grid_search(NetworkTemplate(args.pi0, costs, model, args.n_local), settings)
    header = ["q0"] + [f"q{i}" for i in range(1, len(result.beliefs))] + ["risk"]
    return Output([f"beliefs={','.join(_fmt(b) for b in result.beliefs)}",
                   f"risk={result.risk:.10g}"],
                  _csv(args.csv, header, [tuple(result.beliefs) + (result.risk,)]))


def cmd_pbpo(args) -> Output:
    template = NetworkTemplate(args.pi0, *_costs_model(args), args.n_local)
    settings = OptimizerSettings(step=args.delta, eps=args.eps,
                                 max_iters=args.max_iters, restarts=args.restarts)
    init = None if args.random_init else \
        _parse_floats(args.init) if args.init is not None else (0.5,) * (args.n_local + 1)
    runner = pbpo_exact if args.exact else pbpo
    result = runner(template, settings, init=init, seed=args.seed)
    header = ["sweep", "q0"] + [f"q{i}" for i in range(1, args.n_local + 1)] + ["risk"]
    rows = ((idx,) + row for idx, row in enumerate(result.trace)) if args.trace \
        else [(result.iterations,) + result.trace[-1]]
    return Output([f"beliefs={','.join(_fmt(b) for b in result.beliefs)}",
                   f"risk={result.risk:.10g}",
                   f"sweeps={result.iterations} converged={result.converged}"],
                  _csv(args.csv, header, rows))


def _sweep_value(path: str, line: int, column: str, cell) -> float:
    try:
        value = float(cell)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        problem = "no value" if cell is None else f"{cell!r} is not a finite number"
    elif column == "risk_opt" and value < 0.0:
        problem = f"{cell!r} is negative"
    elif column != "risk_opt" and not 0.0 < value < 1.0:
        problem = f"{cell!r} does not lie strictly inside (0, 1)"
    else:
        return value
    raise ValueError(f"sweep input {path!r} line {line}, column {column!r}: {problem}")


def _read_sweep(path: str) -> list[SweepPoint]:
    """The rows of a ``grid --sweep-pi0`` CSV, one column per ``SweepPoint``
    field. A missing column, a cell that is missing or not a finite number,
    a prior or belief not strictly inside (0, 1), or a negative risk raises
    ``ValueError`` naming its line and column."""
    columns = [field.name for field in dataclasses.fields(SweepPoint)]
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        for column in columns:
            if column not in (reader.fieldnames or ()):
                raise ValueError(f"sweep input {path!r} line 1: no column {column!r}")
        sweep = [SweepPoint(*(_sweep_value(path, reader.line_num, c, row[c]) for c in columns))
                 for row in reader]
    if not sweep:
        raise ValueError(f"sweep input {path!r} holds no rows")
    return sweep


def cmd_prelec(args) -> Output:
    costs, model = _costs_model(args)
    template = NetworkTemplate(0.5, costs, model, args.n_local)
    if args.input:
        sweep = _read_sweep(args.input)
    elif args.sweep_pi0:
        sweep = optimal_belief_sweep(template, _parse_range(args.sweep_pi0))
    else:
        raise ValueError("prelec needs sweep input: --input CSV or --sweep-pi0 range")

    params, linf = fit_prelec_minimax([p.pi0 for p in sweep], [p.q1_opt for p in sweep])
    gap_points = prelec_risk_gap(template, params, args.q0_strategy, sweep)
    worst = gap_points[int(np.argmax([p.gap for p in gap_points]))]
    return Output([f"alpha={params.alpha:.10g} beta_w={params.beta_w:.10g} linf={linf:.10g}",
                   f"max_gap={worst.gap:.10g} at pi0={worst.pi0:.10g}"],
                  _csv(args.csv,
                       ["pi0", "q1_opt", "prelec_belief", "risk_opt", "risk_prelec", "gap"],
                       ((p.pi0, p.q1_opt, p.q1_prelec, p.risk_opt, p.risk_prelec, p.gap)
                        for p in gap_points)))


def cmd_phase(args) -> Output:
    costs, model = _costs_model(args)
    if args.grid is not None:
        axis = _parse_range(f"{args.grid}:{1.0 - args.grid}:{args.grid}")
        if args.pi0 is not None:
            check_prior(args.pi0)
        regions = phase_map(model, costs, axis, axis)
        # Each axis value and region name is formatted once, not once per cell.
        labels = [_fmt(v) for v in axis]
        names = {region: region.value for region in PhaseRegion}
        rows = [(q0, q1, names[region])
                for q0, row in zip(labels, regions) for q1, region in zip(labels, row.tolist())]
        counts = sorted(collections.Counter(region for _, _, region in rows).items())
        return Output([f"map: {len(rows)} points " + " ".join(f"{k}={v}" for k, v in counts)],
                      {args.csv: (["q0", "q1", "region"], rows)} if args.csv else {})

    if args.q0 is None or args.q1 is None:
        raise ValueError("phase needs --q0 and --q1 (or --grid for a map)")
    cls = classify_phase(model, costs, args.q0, args.q1, pi0=args.pi0)
    if not math.isfinite(cls.z1):  # z2 < 1
        raise FloatingPointError(f"q0={args.q0!r} at sigma={args.sigma!r}: z1 overflows a double")
    limit = "" if cls.limit_risk is None else f" limit_risk={cls.limit_risk:.10g}"
    strict = args.strict and cls.region is PhaseRegion.BOUNDARY
    return Output([f"region={cls.region.value} z1={cls.z1:.10g} z2={cls.z2:.10g} "
                   f"t0={cls.t0:.10g} t1={cls.t1:.10g}{limit}"],
                  _csv(args.csv, ["q0", "q1", "region", "z1", "z2", "t0", "t1"],
                       [(args.q0, args.q1, cls.region.value, cls.z1, cls.z2, cls.t0, cls.t1)]),
                  "boundary classification escalated by --strict" if strict else None)


def cmd_exponent(args) -> Output:
    costs, model = _costs_model(args)
    if args.estimate:
        if args.q0 is None or args.q1 is None or args.pi0 is None:
            raise ValueError("--estimate needs --pi0, --q0 and --q1")
        n_list = [int(round(v)) for v in _parse_range(args.n)]
        beta_hat, fit = estimate_exponent(args.pi0, costs, model, args.q0, args.q1, n_list)
        return Output([f"beta_hat={beta_hat:.10g} r_squared={fit.r_squared:.10g} "
                       f"region={fit.region.value} truncated={fit.truncated}"],
                      _csv(args.csv, ["n", "risk", "excess"],
                           ((n, r, abs(r - fit.limit)) for n, r in zip(n_list, fit.risks))))

    if args.csv and args.curve_csv and \
            os.path.realpath(args.csv) == os.path.realpath(args.curve_csv):
        raise ValueError(f"--csv and --curve-csv name the same file {args.csv!r}")
    lam = _parse_range(args.lam_range) if args.curve_csv else None
    report = optimal_exponent(model, costs)
    curve = zip(lam, exponent_curve(model, lam)) if args.curve_csv else ()
    files = {**_csv(args.curve_csv, ["lambda", "g_min"], curve),
             **_csv(args.csv, ["lambda_star", "s_star", "beta_star", "fa_at_opt", "md_at_opt",
                               "q_star", "variance_proxy"],
                    [(report.lambda_star, report.s_star, report.beta_star, report.fa_at_opt,
                      report.md_at_opt, report.q_star, report.variance_proxy)])}
    return Output([f"lambda_star={report.lambda_star:.10g} s_star={report.s_star:.10g} "
                   f"beta_star={report.beta_star:.10g} q_star={report.q_star:.10g}"], files)


def cmd_simulate(args) -> Output:
    q_local = _parse_floats(args.q)
    template = NetworkTemplate(args.pi0, *_costs_model(args), len(q_local))
    result = simulate(SimulationSpec(template.config(args.q0, q_local), args.trials, args.seed))
    return Output(
        [f"empirical_risk={result.empirical_risk:.10g} std_error={result.std_error:.10g}",
         f"fa_count={result.fa_count} md_count={result.md_count} trials={result.trials}"],
        _csv(args.csv, ["empirical_risk", "std_error", "fa_count", "md_count",
                        "trials", "h0_trials", "h1_trials"],
             [(result.empirical_risk, result.std_error, result.fa_count,
               result.md_count, result.trials, result.h0_trials, result.h1_trials)]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starfuse",
        description="Decision fusion in star networks with misperceived priors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("risk", help="exact fusion risk of one belief tuple")
    p.add_argument("--pi0", type=float, required=True)
    p.add_argument("--q0", type=float, required=True)
    p.add_argument("--q", required=True, help="comma-separated local beliefs")
    _add_model_args(p, cmd_risk)

    p = sub.add_parser("grid", help="exhaustive risk minimization / sweeps")
    p.add_argument("--pi0", type=float)
    p.add_argument("--n-local", type=int, default=2)
    p.add_argument("--q0", type=float, help="fixed fusion belief for --contour")
    p.add_argument("--tie-locals", action="store_true")
    p.add_argument("--grid-resolution", type=float, default=2e-4)
    p.add_argument("--resolution", type=float, default=0.02,
                   help="contour grid step")
    p.add_argument("--contour", action="store_true",
                   help="emit the (q1, q2) risk surface at fixed --q0")
    p.add_argument("--sweep-pi0", help="start:stop:step sweep of the prior")
    _add_model_args(p, cmd_grid)

    p = sub.add_parser("pbpo", help="coordinate-descent belief optimization")
    p.add_argument("--pi0", type=float, required=True)
    p.add_argument("--n-local", type=int, default=2)
    p.add_argument("--delta", type=float, default=5e-4, help="coordinate step size")
    p.add_argument("--eps", type=float, default=1e-4, help="stopping threshold")
    p.add_argument("--max-iters", type=int, default=2000)
    start = p.add_mutually_exclusive_group()
    start.add_argument("--init", help="comma-separated beliefs, fusion agent first "
                                      "(default: all 0.5)")
    start.add_argument("--random-init", action="store_true",
                       help="seeded uniform-random restarts instead of --init")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=1729)
    p.add_argument("--trace", action="store_true", help="emit per-sweep rows to --csv")
    p.add_argument("--exact", action="store_true",
                   help="exact per-coordinate minimization instead of fixed steps")
    _add_model_args(p, cmd_pbpo)

    p = sub.add_parser("prelec", help="Prelec fit of the optimal local-belief curve")
    p.add_argument("--n-local", type=int, default=2)
    p.add_argument("--sweep-pi0", help="start:stop:step prior sweep to compute")
    p.add_argument("--input", help="CSV from `grid --sweep-pi0` to reuse")
    p.add_argument("--q0-strategy", choices=list(Q0_STRATEGIES),
                   default="keep-optimal-q0")
    _add_model_args(p, cmd_prelec)

    p = sub.add_parser("phase", help="many-agent limit classification")
    p.add_argument("--q0", type=float)
    p.add_argument("--q1", type=float)
    p.add_argument("--pi0", type=float, help="fill in the numeric limit risk")
    p.add_argument("--grid", type=float, help="emit a region map at this step")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when the point is classified as boundary")
    _add_model_args(p, cmd_phase)

    p = sub.add_parser("exponent", help="optimal risk exponent / exact decay fit")
    p.add_argument("--estimate", action="store_true",
                   help="fit the decay of the exact excess risk over network sizes up to 2000")
    p.add_argument("--pi0", type=float)
    p.add_argument("--q0", type=float)
    p.add_argument("--q1", type=float)
    p.add_argument("--n", default="5:60:5", help="network sizes start:stop:step")
    p.add_argument("--curve-csv", help="write the per-threshold objective curve here")
    p.add_argument("--lam-range", default="-3:4:0.001")
    _add_model_args(p, cmd_exponent)

    p = sub.add_parser("simulate", help="seeded forward simulation")
    p.add_argument("--pi0", type=float, required=True)
    p.add_argument("--q0", type=float, required=True)
    p.add_argument("--q", required=True, help="comma-separated local beliefs")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True,
                   help="mandatory so runs are reproducible")
    _add_model_args(p, cmd_simulate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call and kept for the
    process: building the argparse tree costs more than a cheap command."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command, write its files, then print its lines. An error in the
    work or the writing prints one ``error:`` line to stderr and nothing to
    stdout, and removes every file that this run created. A stdout whose
    reader has closed it is not an error: the files stay and the exit code
    is the command's own."""
    args = _parser().parse_args(argv)
    created = []
    try:
        out = args.func(args)
        created = [path for path in out.files if not os.path.exists(path)]
        for path in out.files:  # every path opens, creating only the missing, before any truncates
            open(path, "a").close()
        for path, (header, rows) in out.files.items():
            with open(path, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(header)
                writer.writerows(rows)
    except (ValueError, IndexError, OSError, FloatingPointError) as exc:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN if isinstance(exc, FloatingPointError) else EXIT_VALIDATION
    try:
        print("\n".join(out.lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``| head``). The files are written and the
        # lines have nowhere to go; stdout now points at devnull, so the flush
        # at shutdown prints no "Exception ignored" line.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if out.escalation:
        print(out.escalation, file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
