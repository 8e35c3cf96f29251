"""Batch command-line front end.

Every command validates its flags before any computation, prints headline
numbers to stdout, and can write its full output as RFC-4180 CSV with a
header row. Numbers are serialized with 10 significant digits and all
computation is deterministic, so rerunning a command with identical flags
produces byte-identical files. The numbers come from the library's public
functions; ``grid --contour`` evaluates its surface with
``optimize.checked_risks``.

Exit codes: 0 success, 2 validation error, 3 numerical-domain failure: a
non-finite risk from ``risk``, a ``FloatingPointError`` such as an underflowed
fusion tail in ``phase``, ``grid`` (``--contour`` included) or ``pbpo`` (no
CSV is written), or a boundary classification escalated by
``phase --strict``.

``main`` builds the argument parser once per process and reuses it.
"""

import argparse
import csv
import dataclasses
import functools
import math
import sys

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


def _write_text_rows(path: str, header, rows) -> None:
    """Write rows whose cells are already formatted strings."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_csv(path: str, header, rows) -> None:
    _write_text_rows(path, header, ([_fmt(v) for v in row] for row in rows))


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


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sigma", type=float, default=1.0, help="noise standard deviation")
    parser.add_argument("--cfa", type=float, default=1.0, help="false-alarm cost")
    parser.add_argument("--cmd", type=float, default=1.0, help="missed-detection cost")


def _add_common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--csv", help="write full output to this CSV file")


def _model(args) -> ObservationModel:
    return ObservationModel(sigma=args.sigma)


def _costs(args) -> CostPair:
    return CostPair(c_fa=args.cfa, c_md=args.cmd)


def cmd_risk(args) -> int:
    q_local = _parse_floats(args.q)
    template = NetworkTemplate(args.pi0, _costs(args), _model(args), len(q_local))
    report = exact_risk(template.config(args.q0, q_local))
    if not math.isfinite(report.r0):
        print(f"error: risk is not finite (R0={report.r0!r}); the Gaussian tails "
              f"underflowed at sigma={args.sigma!r}", file=sys.stderr)
        return EXIT_DOMAIN
    print(f"R0={report.r0:.4f}")
    print(f"p_fa0={report.p_fa0:.10g} p_md0={report.p_md0:.10g}")
    for k, belief, threshold in report.per_count:
        print(f"k={k} updated_belief={belief:.10g} fusion_threshold={threshold:.10g}")
    if args.csv:
        _write_csv(
            args.csv,
            ["k", "updated_belief", "fusion_threshold", "r0", "p_fa0", "p_md0"],
            [(k, b, t, report.r0, report.p_fa0, report.p_md0) for k, b, t in report.per_count],
        )
    return EXIT_OK


def cmd_grid(args) -> int:
    costs, model = _costs(args), _model(args)
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
        out = [(rows[i, 0], rows[i, 1], risks[i]) for i in range(rows.shape[0])]
        print(f"contour: {len(out)} points at q0={args.q0:.10g}, min risk {risks.min():.10g}")
        if args.csv:
            _write_csv(args.csv, ["q1", "q2", "risk"], out)
        return EXIT_OK

    settings = OptimizerSettings(grid_resolution=args.grid_resolution,
                                 tie_local_beliefs=args.tie_locals)
    if args.sweep_pi0:
        pi0_values = _parse_range(args.sweep_pi0)
        template = NetworkTemplate(float(pi0_values[0]), costs, model, args.n_local)
        points = optimal_belief_sweep(template, pi0_values, settings)
        for point in points:
            print(f"pi0={point.pi0:.10g} q0_opt={point.q0_opt:.10g} "
                  f"q1_opt={point.q1_opt:.10g} risk_opt={point.risk_opt:.10g}")
        if args.csv:
            _write_csv(args.csv, ["pi0", "q0_opt", "q1_opt", "risk_opt"],
                       [(p.pi0, p.q0_opt, p.q1_opt, p.risk_opt) for p in points])
        return EXIT_OK

    if args.pi0 is None:
        raise ValueError("grid needs --pi0 (or --sweep-pi0)")
    template = NetworkTemplate(args.pi0, costs, model, args.n_local)
    result = grid_search(template, settings)
    beliefs = ",".join(_fmt(b) for b in result.beliefs)
    print(f"beliefs={beliefs}")
    print(f"risk={result.risk:.10g}")
    if args.csv:
        header = ["q0"] + [f"q{i}" for i in range(1, len(result.beliefs))] + ["risk"]
        _write_csv(args.csv, header, [tuple(result.beliefs) + (result.risk,)])
    return EXIT_OK


def cmd_pbpo(args) -> int:
    template = NetworkTemplate(args.pi0, _costs(args), _model(args), args.n_local)
    settings = OptimizerSettings(step=args.delta, eps=args.eps,
                                 max_iters=args.max_iters, restarts=args.restarts)
    if args.random_init:
        init = None
    elif args.init:
        init = _parse_floats(args.init)
        if len(init) != args.n_local + 1:
            raise ValueError(f"--init needs {args.n_local + 1} beliefs (fusion first)")
    else:
        init = (0.5,) * (args.n_local + 1)
    runner = pbpo_exact if args.exact else pbpo
    result = runner(template, settings, init=init, seed=args.seed)
    beliefs = ",".join(_fmt(b) for b in result.beliefs)
    print(f"beliefs={beliefs}")
    print(f"risk={result.risk:.10g}")
    print(f"sweeps={result.iterations} converged={result.converged}")
    if args.csv:
        header = (["sweep", "q0"]
                  + [f"q{i}" for i in range(1, args.n_local + 1)] + ["risk"])
        rows = [(idx,) + row for idx, row in enumerate(result.trace)] if args.trace \
            else [(result.iterations,) + result.trace[-1]]
        _write_csv(args.csv, header, rows)
    return EXIT_OK


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


def cmd_prelec(args) -> int:
    costs, model = _costs(args), _model(args)
    template = NetworkTemplate(0.5, costs, model, args.n_local)
    if args.input:
        sweep = _read_sweep(args.input)
    elif args.sweep_pi0:
        sweep = optimal_belief_sweep(template, _parse_range(args.sweep_pi0))
    else:
        raise ValueError("prelec needs sweep input: --input CSV or --sweep-pi0 range")

    params, linf = fit_prelec_minimax([p.pi0 for p in sweep], [p.q1_opt for p in sweep])
    gap_points = prelec_risk_gap(template, params, args.q0_strategy, sweep)
    gaps = [p.gap for p in gap_points]
    worst = int(np.argmax(gaps))
    print(f"alpha={params.alpha:.10g} beta_w={params.beta_w:.10g} linf={linf:.10g}")
    print(f"max_gap={gaps[worst]:.10g} at pi0={gap_points[worst].pi0:.10g}")
    if args.csv:
        _write_csv(
            args.csv,
            ["pi0", "q1_opt", "prelec_belief", "risk_opt", "risk_prelec", "gap"],
            [(p.pi0, p.q1_opt, p.q1_prelec, p.risk_opt, p.risk_prelec, p.gap)
             for p in gap_points],
        )
    return EXIT_OK


def cmd_phase(args) -> int:
    costs, model = _costs(args), _model(args)
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
        counts = {}
        for _, _, region in rows:
            counts[region] = counts.get(region, 0) + 1
        print(f"map: {len(rows)} points " +
              " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
        if args.csv:
            _write_text_rows(args.csv, ["q0", "q1", "region"], rows)
        return EXIT_OK

    if args.q0 is None or args.q1 is None:
        raise ValueError("phase needs --q0 and --q1 (or --grid for a map)")
    cls = classify_phase(model, costs, args.q0, args.q1, pi0=args.pi0)
    limit = "" if cls.limit_risk is None else f" limit_risk={cls.limit_risk:.10g}"
    print(f"region={cls.region.value} z1={cls.z1:.10g} z2={cls.z2:.10g} "
          f"t0={cls.t0:.10g} t1={cls.t1:.10g}{limit}")
    if args.csv:
        _write_csv(args.csv, ["q0", "q1", "region", "z1", "z2", "t0", "t1"],
                   [(args.q0, args.q1, cls.region.value, cls.z1, cls.z2, cls.t0, cls.t1)])
    if args.strict and cls.region is PhaseRegion.BOUNDARY:
        print("boundary classification escalated by --strict", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_exponent(args) -> int:
    costs, model = _costs(args), _model(args)
    if args.estimate:
        if args.q0 is None or args.q1 is None or args.pi0 is None:
            raise ValueError("--estimate needs --pi0, --q0 and --q1")
        n_list = [int(round(v)) for v in _parse_range(args.n)]
        beta_hat, fit = estimate_exponent(args.pi0, costs, model, args.q0, args.q1,
                                          n_list, trials=args.trials, seed=args.seed)
        print(f"beta_hat={beta_hat:.10g} r_squared={fit.r_squared:.10g} "
              f"region={fit.region.value} truncated={fit.truncated}")
        if args.csv:
            _write_csv(args.csv, ["n", "risk", "excess"],
                       [(n, r, abs(r - fit.limit)) for n, r in zip(n_list, fit.risks)])
        return EXIT_OK

    report = optimal_exponent(model, costs)
    print(f"lambda_star={report.lambda_star:.4f} s_star={report.s_star:.4f} "
          f"beta_star={report.beta_star:.4f} q_star={report.q_star:.4f}")
    if args.curve_csv:
        lam = _parse_range(args.lam_range)
        values = exponent_curve(model, lam)
        _write_csv(args.curve_csv, ["lambda", "g_min"], list(zip(lam, values)))
    if args.csv:
        _write_csv(args.csv,
                   ["lambda_star", "s_star", "beta_star", "fa_at_opt", "md_at_opt",
                    "q_star", "variance_proxy"],
                   [(report.lambda_star, report.s_star, report.beta_star,
                     report.fa_at_opt, report.md_at_opt, report.q_star,
                     report.variance_proxy)])
    return EXIT_OK


def cmd_simulate(args) -> int:
    q_local = _parse_floats(args.q)
    template = NetworkTemplate(args.pi0, _costs(args), _model(args), len(q_local))
    spec = SimulationSpec(template.config(args.q0, q_local), args.trials, args.seed)
    result = simulate(spec)
    print(f"empirical_risk={result.empirical_risk:.10g} std_error={result.std_error:.10g}")
    print(f"fa_count={result.fa_count} md_count={result.md_count} trials={result.trials}")
    if args.csv:
        _write_csv(args.csv,
                   ["empirical_risk", "std_error", "fa_count", "md_count",
                    "trials", "h0_trials", "h1_trials"],
                   [(result.empirical_risk, result.std_error, result.fa_count,
                     result.md_count, result.trials, result.h0_trials, result.h1_trials)])
    return EXIT_OK


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
    _add_model_args(p)
    _add_common_args(p)
    p.set_defaults(func=cmd_risk)

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
    _add_model_args(p)
    _add_common_args(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("pbpo", help="coordinate-descent belief optimization")
    p.add_argument("--pi0", type=float, required=True)
    p.add_argument("--n-local", type=int, default=2)
    p.add_argument("--delta", type=float, default=5e-4, help="coordinate step size")
    p.add_argument("--eps", type=float, default=1e-4, help="stopping threshold")
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--init", help="comma-separated beliefs, fusion agent first "
                                  "(default: all 0.5)")
    p.add_argument("--random-init", action="store_true",
                   help="seeded uniform-random restarts instead of --init")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=1729)
    p.add_argument("--trace", action="store_true", help="emit per-sweep rows to --csv")
    p.add_argument("--exact", action="store_true",
                   help="exact per-coordinate minimization instead of fixed steps")
    _add_model_args(p)
    _add_common_args(p)
    p.set_defaults(func=cmd_pbpo)

    p = sub.add_parser("prelec", help="Prelec fit of the optimal local-belief curve")
    p.add_argument("--n-local", type=int, default=2)
    p.add_argument("--sweep-pi0", help="start:stop:step prior sweep to compute")
    p.add_argument("--input", help="CSV from `grid --sweep-pi0` to reuse")
    p.add_argument("--q0-strategy", choices=list(Q0_STRATEGIES),
                   default="keep-optimal-q0")
    _add_model_args(p)
    _add_common_args(p)
    p.set_defaults(func=cmd_prelec)

    p = sub.add_parser("phase", help="many-agent limit classification")
    p.add_argument("--q0", type=float)
    p.add_argument("--q1", type=float)
    p.add_argument("--pi0", type=float, help="fill in the numeric limit risk")
    p.add_argument("--grid", type=float, help="emit a region map at this step")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when the point is classified as boundary")
    _add_model_args(p)
    _add_common_args(p)
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("exponent", help="optimal risk exponent / empirical decay fit")
    p.add_argument("--estimate", action="store_true",
                   help="fit the decay of the excess risk over network sizes")
    p.add_argument("--pi0", type=float)
    p.add_argument("--q0", type=float)
    p.add_argument("--q1", type=float)
    p.add_argument("--n", default="5:60:5", help="network sizes start:stop:step")
    p.add_argument("--trials", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--curve-csv", help="write the per-threshold objective curve here")
    p.add_argument("--lam-range", default="-3:4:0.001")
    _add_model_args(p)
    _add_common_args(p)
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser("simulate", help="seeded forward simulation")
    p.add_argument("--pi0", type=float, required=True)
    p.add_argument("--q0", type=float, required=True)
    p.add_argument("--q", required=True, help="comma-separated local beliefs")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True,
                   help="mandatory so runs are reproducible")
    _add_model_args(p)
    _add_common_args(p)
    p.set_defaults(func=cmd_simulate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call and kept for the
    process: building the argparse tree costs more than a cheap command."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
