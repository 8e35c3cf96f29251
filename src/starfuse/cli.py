"""Batch command-line front end.

argparse only parses: it refuses an unknown flag or a value of the wrong
type. Every other rule is in two tables: ``_MODES`` names the flags each
mode of a command needs and reads, and ``_DEFAULTS`` the value a flag takes
when not given. They also build the parser: a command offers exactly the
flags that its ``_MODES`` rows read, each parsed as its row of ``_FLAGS``
says, and each flag's help is its ``_FLAGS`` text followed by what the two
tables say of it (needed, or its default, and the modes that read it).
A command refuses a missing need, then a flag that its modes do not read, then
validates its flags' values, all before any computation; it prints
headline numbers to stdout, and can write its full output as RFC-4180 CSV
with a header row. Numbers are serialized with 10 significant digits and all
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
its stdout lines and its files as finished CSV text; ``main`` alone writes
the files, each with one ``write``, and then prints the lines. So a
non-zero exit prints nothing to stdout and leaves no file the run created,
except ``phase --strict``, which writes its output and then exits 3.

``main`` builds the argument parser once per process and reuses it.
"""

import argparse
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
    RESTART_SEED,
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

# Largest start:stop:step range, and finest step of a map or surface axis
# (``grid --contour --resolution``, ``phase --grid``), that a command accepts.
MAX_RANGE_POINTS = 10**6
MIN_AXIS_STEP = 1e-3

# Each subcommand's modes as (command, mode, selector, reads, needs), flags
# space-separated. A command's rows fall in runs, each ended by a mode with no
# selector; a run picks its first mode whose selector is given, else its last.
# A run of one row, which names no mode, holds flags that the command always
# reads. ``main`` refuses a need not given, then any given flag but --sigma,
# --cfa, --cmd, --csv and the picked modes' reads, before the values and the work.
_MODES = (
    ("risk", "", "", "--pi0 --q0 --q", "--pi0 --q0 --q"),
    ("grid", "contour", "--contour", "--contour --pi0 --q0 --resolution", "--pi0 --q0"),
    # A sweep ties the locals anyway: --tie-locals states what it does.
    ("grid", "sweep", "--sweep-pi0", "--sweep-pi0 --n-local --tie-locals --grid-resolution", ""),
    ("grid", "search", "", "--pi0 --n-local --tie-locals --grid-resolution", "--pi0"),
    ("pbpo", "", "", "--pi0 --n-local --eps --max-iters", "--pi0"),
    ("pbpo", "trace", "--trace", "--trace", "--csv"),
    ("pbpo", "last-row", "", "", ""),
    ("pbpo", "random-start", "--random-init", "--random-init --restarts --seed", ""),
    ("pbpo", "init-start", "--init", "--init", ""),
    ("pbpo", "default-start", "", "", ""),
    ("pbpo", "exact-step", "--exact", "--exact", ""),
    ("pbpo", "fixed-step", "", "--delta", ""),
    ("prelec", "input", "--input", "--input --n-local --q0-strategy", ""),
    ("prelec", "sweep", "", "--sweep-pi0 --n-local --q0-strategy", "--sweep-pi0"),
    # A map only checks --pi0; the benchmark's map jobs pass it, so it stays until they do not.
    ("phase", "map", "--grid", "--grid --pi0", ""),
    ("phase", "point", "", "--q0 --q1 --pi0 --strict", "--q0 --q1"),
    ("exponent", "estimate", "--estimate", "--estimate --pi0 --q0 --q1 --n", "--pi0 --q0 --q1"),
    ("exponent", "curve", "--curve-csv", "--curve-csv --lam-range", ""),
    ("exponent", "report", "", "", ""),
    ("simulate", "", "", "--pi0 --q0 --q --trials --seed", "--pi0 --q0 --q --seed"))
# The value of each of a command's flags not given, filled in once its modes
# are checked; only a mode that reads the flag uses it.
_DEFAULTS = (("--resolution", 0.02), ("--grid-resolution", OptimizerSettings.grid_resolution),
             ("--n-local", 2), ("--delta", OptimizerSettings.step), ("--seed", RESTART_SEED),
             ("--eps", OptimizerSettings.eps), ("--max-iters", OptimizerSettings.max_iters),
             ("--restarts", OptimizerSettings.restarts), ("--q0-strategy", "keep-optimal-q0"),
             ("--n", "5:60:5"), ("--lam-range", "-3:4:0.001"), ("--trials", 100_000))
# Why a command refuses a flag, where naming the mode that does not read it is not enough.
_REASONS = (
    ("pbpo", "--delta", "pbpo --exact takes no --delta: it minimizes each coordinate exactly"),
    ("pbpo", "--restarts --seed", "pbpo --restarts and --seed need --random-init: "
                                  "a run from --init or the default start has no restarts"),
    ("phase", "--q0 --q1 --strict", "phase --grid maps every (q0, q1) and classifies no "
                                    "single point: it takes no --q0, --q1 or --strict"))
# Each mode flag as (flag, kind, help): the kind is the type that parses its
# value, a tuple of its choices, or bool for a switch. A row of one command's
# flag ("phase --pi0") comes before the flag's own row. A command's parser
# offers the flags its ``_MODES`` rows read, and ``_flag_help`` adds to each
# help what the tables say of the flag.
_FLAGS = (
    ("phase --pi0", float, "prior: a point fills in its numeric limit risk, "
                           "a map only checks that it lies in (0, 1)"),
    ("--pi0", float, "prior"),
    ("--q0", float, "fusion belief"),
    ("--q1", float, "tied local belief"),
    ("--q", str, "comma-separated local beliefs"),
    ("--n-local", int, "local agents"),
    ("--tie-locals", bool, "tied locals"),
    ("--grid-resolution", float, "finest search step"),
    ("--resolution", float, "surface step"),
    ("--contour", bool, "the N = 2 (q1, q2) risk surface at fixed --q0"),
    ("--sweep-pi0", str, "start:stop:step sweep of the prior"),
    ("--delta", float, "coordinate step"),
    ("--eps", float, "stopping threshold"),
    ("--max-iters", int, "most sweeps"),
    ("--init", str, "comma-separated beliefs, fusion agent first (default-start mode: all 0.5)"),
    ("--random-init", bool, "seeded uniform-random restarts"),
    ("--restarts", int, "restarts"),
    ("--seed", int, "seed, so that runs are reproducible"),
    ("--trace", bool, "every sweep's row to --csv"),
    ("--exact", bool, "exact per-coordinate minimization"),
    ("--input", str, "CSV from `grid --sweep-pi0` to reuse"),
    ("--q0-strategy", Q0_STRATEGIES, "Prelec q0"),
    ("--grid", float, "emit a region map at this step"),
    ("--strict", bool, "exit 3 when the point is classified as boundary"),
    ("--estimate", bool, "fit the decay of the exact excess risk over network sizes up to 2000"),
    ("--n", str, "network sizes start:stop:step"),
    ("--curve-csv", str, "write the per-threshold objective curve here"),
    ("--lam-range", str, "thresholds"),
    ("--trials", int, "trials"))


class Output(NamedTuple):
    """A command's stdout lines, its files as ``{path: CSV text}``, and the
    stderr line with which ``phase --strict`` escalates to exit 3."""

    lines: list[str]
    files: dict
    escalation: str | None = None


def _csv_text(header, lines) -> str:
    """The CSV text of a header and of rows already rendered: no cell holds a
    comma, quote or line break, so none is quoted, and every line ends in
    \\r\\n, as ``csv.writer`` writes them."""
    return "\r\n".join([",".join(header), *lines, ""])


def _csv(path, header, kinds, rows) -> dict:
    """``{path: CSV text}`` of ``rows``, or ``{}`` when no path is given. Each
    row is a tuple whose cells are ``kinds``, one letter each: ``d`` an
    integer, ``g`` a float at 10 significant digits, ``s`` text; one ``%``
    template renders the whole row."""
    if path is None:
        return {}
    template = ",".join("%.10g" if kind == "g" else f"%{kind}" for kind in kinds)
    return {path: _csv_text(header, [template % row for row in rows])}


def _axis_product_csv(path, header, axis, tails) -> dict:
    """``{path: CSV text}`` of a map or surface over ``axis`` x ``axis``, or
    ``{}`` when no path is given. Each point of ``axis`` is formatted once;
    ``tails(labels)`` yields each label's row of line tails (the second
    point's label, then the value), and a row's lines are joined as drawn."""
    if path is None:
        return {}
    labels = [f"{q:.10g}" for q in axis.tolist()]
    return {path: _csv_text(header, (f"{label}," + f"\r\n{label},".join(row)
                                     for label, row in zip(labels, tails(labels))))}


def _result_output(result, path, rows, lead=(), extra=()) -> Output:
    """An optimizer's ``beliefs=`` and ``risk=`` lines, then ``extra``, and the
    CSV of ``rows`` under ``lead`` (integer columns), q0..qN and risk."""
    header = [*lead, *(f"q{i}" for i in range(len(result.beliefs))), "risk"]
    return Output([f"beliefs={','.join(f'{b:.10g}' for b in result.beliefs)}",
                   f"risk={result.risk:.10g}", *extra],
                  _csv(path, header, "d" * len(lead) + "g" * (len(header) - len(lead)), rows))


def _parse_floats(text: str) -> tuple[float, ...]:
    """The numbers of a comma-separated list, refused when it is blank or
    has an empty field or one that is not a number."""
    if not text.strip():
        raise ValueError("expected a comma-separated list with at least one value (N >= 1)")
    parts = text.split(",")
    if not all(p.strip() for p in parts):
        raise ValueError(f"comma-separated list {text!r} has an empty field")
    values = []
    for p in parts:
        try:
            values.append(float(p))
        except ValueError:
            raise ValueError(f"comma-separated list {text!r} has a field {p!r} "
                             f"that is not a number") from None
    return tuple(values)


def _parse_range(text: str) -> np.ndarray:
    """start:stop:step, inclusive of start and of stop when it is on-grid.
    Checked before anything is allocated: at most ``MAX_RANGE_POINTS``."""
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"range {text!r} must look like start:stop:step") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"range {text!r} must have a finite start, stop and step")
    if step <= 0 or stop < start:
        raise ValueError(f"range {text!r} must have positive step and stop >= start")
    if (stop + step / 2.0 - start) / step > MAX_RANGE_POINTS:  # np.arange's length, unrounded
        raise ValueError(f"range {text!r} has more than 10^6 points")
    points = np.arange(start, stop + step / 2.0, step)
    # Past about 1.8e298 the rounding's scaled value overflows; such a point,
    # an integer already, is kept as it is (and refused by its command).
    with np.errstate(over="ignore"):
        rounded = np.round(points, 10)
        last = np.round(stop, 10)
    points = np.where(np.isfinite(rounded), rounded, points)
    # The half-step stop keeps an on-grid stop that np.arange's steps round
    # past; a point past stop at the grid's rounding is off the range.
    return points[points <= (last if np.isfinite(last) else stop)]


def _unit_axis(step: float, flag: str) -> np.ndarray:
    """The axis step, 2 step, ... up to 1 - step of a map or surface, for a
    ``step`` from ``MIN_AXIS_STEP`` to 0.5."""
    if not MIN_AXIS_STEP <= step <= 0.5:
        raise ValueError(f"{flag} {step!r} must be a step from 1e-3 to 0.5 "
                         f"(1 to 999 points per axis)")
    return _parse_range(f"{step}:{1.0 - step}:{step}")


def _runs(command: str):
    """The rows of ``command`` in ``_MODES``, one run at a time."""
    run = []
    for row in (row for row in _MODES if row[0] == command):
        run.append(row)
        if not row[2]:
            yield run
            run = []


def _check_modes(args) -> None:
    """Pick the modes of ``args.command`` from ``_MODES``, then fill in the
    defaults of its flags left out (``None``). Raise ``ValueError`` for a
    need not given, then for the first given flag that no picked mode reads."""
    # An empty path or range picks no mode: each command tests a selector for truth.
    given = {"--" + dest.replace("_", "-") for dest, value in vars(args).items()
             if value is not None and value is not False and value != ""}
    for run in _runs(args.command):
        command, mode, selector, reads, needs = next(r for r in run if r[2] in given or not r[2])
        label = command if not mode else \
            f"{command} {mode} mode ({selector or 'no ' + ' or '.join(r[2] for r in run[:-1])})"
        for flag in (f for f in needs.split() if f not in given):
            raise ValueError(f"{label} needs {flag}")
        for flag in (f for r in run for f in r[3].split() if f in given and f not in reads.split()):
            raise ValueError(next((why for command, flags, why in _REASONS
                                   if command == args.command and flag in flags.split()),
                                  f"{label} does not read {flag}"))
    for flag, value in _DEFAULTS:
        # Only a flag left out: a given empty value reaches its parser and is refused there.
        if getattr(args, dest := flag[2:].replace("-", "_"), value) is None:
            setattr(args, dest, value)


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
    per_count = report.per_count  # built on each read
    lines = [f"R0={report.r0:.10g}", f"p_fa0={report.p_fa0:.10g} p_md0={report.p_md0:.10g}"]
    lines += [f"k={k} updated_belief={b:.10g} fusion_threshold={t:.10g}" for k, b, t in per_count]
    return Output(lines, _csv(
        args.csv, ["k", "updated_belief", "fusion_threshold", "r0", "p_fa0", "p_md0"], "dggggg",
        ((k, b, t, report.r0, report.p_fa0, report.p_md0) for k, b, t in per_count)))


def cmd_grid(args) -> Output:
    costs, model = _costs_model(args)
    if args.contour:
        template = NetworkTemplate(args.pi0, costs, model, 2)
        axis = _unit_axis(args.resolution, "--resolution")
        points = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        risks = checked_risks(template, [args.q0], points)[0].reshape(len(axis), len(axis))
        return Output(
            [f"contour: {risks.size} points at q0={args.q0:.10g}, min risk {risks.min():.10g}"],
            _axis_product_csv(args.csv, ["q1", "q2", "risk"], axis, lambda labels: (
                [f"{q2},{risk:.10g}" for q2, risk in zip(labels, row.tolist())] for row in risks)))

    settings = OptimizerSettings(grid_resolution=args.grid_resolution,
                                 tie_local_beliefs=args.tie_locals)
    if args.sweep_pi0:
        pi0_values = _parse_range(args.sweep_pi0)
        template = NetworkTemplate(float(pi0_values[0]), costs, model, args.n_local)
        points = optimal_belief_sweep(template, pi0_values, settings)
        return Output([f"pi0={p.pi0:.10g} q0_opt={p.q0_opt:.10g} "
                       f"q1_opt={p.q1_opt:.10g} risk_opt={p.risk_opt:.10g}" for p in points],
                      _csv(args.csv, ["pi0", "q0_opt", "q1_opt", "risk_opt"], "gggg",
                           ((p.pi0, p.q0_opt, p.q1_opt, p.risk_opt) for p in points)))

    result = grid_search(NetworkTemplate(args.pi0, costs, model, args.n_local), settings)
    return _result_output(result, args.csv, [(*result.beliefs, result.risk)])


def cmd_pbpo(args) -> Output:
    template = NetworkTemplate(args.pi0, *_costs_model(args), args.n_local)
    settings = OptimizerSettings(step=args.delta, eps=args.eps, max_iters=args.max_iters,
                                 restarts=args.restarts)
    init = None if args.random_init else \
        _parse_floats(args.init) if args.init is not None else (0.5,) * (args.n_local + 1)
    runner = pbpo_exact if args.exact else pbpo
    result = runner(template, settings, init=init, seed=args.seed)
    first = 0 if args.trace else result.iterations  # the last sweep's row alone
    rows = ((k, *row) for k, row in enumerate(result.trace_array[first:].tolist(), first))
    return _result_output(result, args.csv, rows, ["sweep"],
                          [f"sweeps={result.iterations} converged={result.converged}"])


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
    else:
        sweep = optimal_belief_sweep(template, _parse_range(args.sweep_pi0))

    params, linf = fit_prelec_minimax([p.pi0 for p in sweep], [p.q1_opt for p in sweep])
    gap_points = prelec_risk_gap(template, params, args.q0_strategy, sweep)
    worst = gap_points[int(np.argmax([p.gap for p in gap_points]))]
    return Output([f"alpha={params.alpha:.10g} beta_w={params.beta_w:.10g} linf={linf:.10g}",
                   f"max_gap={worst.gap:.10g} at pi0={worst.pi0:.10g}"],
                  _csv(args.csv,
                       ["pi0", "q1_opt", "prelec_belief", "risk_opt", "risk_prelec", "gap"],
                       "gggggg",
                       ((p.pi0, p.q1_opt, p.q1_prelec, p.risk_opt, p.risk_prelec, p.gap)
                        for p in gap_points)))


def cmd_phase(args) -> Output:
    costs, model = _costs_model(args)
    if args.grid is not None:
        axis = _unit_axis(args.grid, "--grid")
        if args.pi0 is not None:
            check_prior(args.pi0)
        regions = phase_map(model, costs, axis, axis)
        # Each point's index in PhaseRegion's order, found by comparing
        # members, which hashes none.
        order = list(PhaseRegion)
        index = np.argmax(regions[..., None] == np.array(order, dtype=object), axis=-1)
        counts = np.bincount(index.ravel(), minlength=len(order)).tolist()
        summary = sorted((region.value, count) for region, count in zip(order, counts) if count)
        lines = [f"map: {regions.size} points " + " ".join(f"{k}={v}" for k, v in summary)]
        # Each (q1, region) tail is formatted once; row i picks its regions' tails.
        return Output(lines, _axis_product_csv(
            args.csv, ["q0", "q1", "region"], axis, lambda labels: np.array(
                [[f"{q1},{region.value}" for region in order] for q1 in labels],
                dtype=object)[np.arange(len(labels)), index]))

    cls = classify_phase(model, costs, args.q0, args.q1, pi0=args.pi0)
    if not math.isfinite(cls.z1):  # z2 < 1
        raise FloatingPointError(f"q0={args.q0!r} at sigma={args.sigma!r}: z1 overflows a double")
    limit = "" if cls.limit_risk is None else f" limit_risk={cls.limit_risk:.10g}"
    strict = args.strict and cls.region is PhaseRegion.BOUNDARY
    return Output([f"region={cls.region.value} z1={cls.z1:.10g} z2={cls.z2:.10g} "
                   f"t0={cls.t0:.10g} t1={cls.t1:.10g}{limit}"],
                  _csv(args.csv, ["q0", "q1", "region", "z1", "z2", "t0", "t1"], "ggsgggg",
                       [(args.q0, args.q1, cls.region.value, cls.z1, cls.z2, cls.t0, cls.t1)]),
                  "boundary classification escalated by --strict" if strict else None)


def cmd_exponent(args) -> Output:
    costs, model = _costs_model(args)
    if args.estimate:
        sizes = _parse_range(args.n).tolist()
        for n in (n for n in sizes if not n.is_integer()):
            raise ValueError(f"--n {args.n!r} has a size {n!r} that is not a whole number")
        n_list = [int(n) for n in sizes]
        beta_hat, fit = estimate_exponent(args.pi0, costs, model, args.q0, args.q1, n_list)
        return Output([f"beta_hat={beta_hat:.10g} r_squared={fit.r_squared:.10g} "
                       f"region={fit.region.value} truncated={fit.truncated}"],
                      _csv(args.csv, ["n", "risk", "excess"], "dgg",
                           ((n, r, abs(r - fit.limit)) for n, r in zip(n_list, fit.risks))))

    if args.csv and args.curve_csv and \
            os.path.realpath(args.csv) == os.path.realpath(args.curve_csv):
        raise ValueError(f"--csv and --curve-csv name the same file {args.csv!r}")
    lam = _parse_range(args.lam_range) if args.curve_csv else None
    report = optimal_exponent(model, costs)
    curve = zip(lam.tolist(), exponent_curve(model, lam).tolist()) if args.curve_csv else ()
    files = {**_csv(args.curve_csv, ["lambda", "g_min"], "gg", curve),
             **_csv(args.csv, ["lambda_star", "s_star", "beta_star", "fa_at_opt", "md_at_opt",
                               "q_star", "variance_proxy"], "ggggggg",
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
                        "trials", "h0_trials", "h1_trials"], "ggddddd",
             [(result.empirical_risk, result.std_error, result.fa_count,
               result.md_count, result.trials, result.h0_trials, result.h1_trials)]))


# Each subcommand as (command, help, runner), in ``--help`` order.
_COMMANDS = (
    ("risk", "exact fusion risk of one belief tuple", cmd_risk),
    ("grid", "exhaustive risk minimization / sweeps", cmd_grid),
    ("pbpo", "coordinate-descent belief optimization", cmd_pbpo),
    ("prelec", "Prelec fit of the optimal local-belief curve", cmd_prelec),
    ("phase", "many-agent limit classification", cmd_phase),
    ("exponent", "optimal risk exponent / exact decay fit", cmd_exponent),
    ("simulate", "seeded forward simulation", cmd_simulate))


def _flag_help(run, flag: str, base: str) -> str:
    """``base`` and what the mode tables say of ``flag`` in its ``run`` of
    ``_MODES`` rows: a selector's mode; else whether a mode needs the flag or
    its default, and the modes that read it."""
    selected = next((row[1] for row in run if row[2] == flag), None)
    if selected:
        return f"{selected} mode: {base}"
    readers = [row[1] for row in run if flag in row[3].split()]
    where = "every mode" if len(readers) == len(run) else \
        f"{' and '.join(readers)} mode{'s' if len(readers) > 1 else ''}"
    state = "needed; " if any(flag in row[4].split() for row in run) else \
        next((f"default {value}; " for name, value in _DEFAULTS if name == flag), "")
    return f"{base} ({state}{where})"


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand: the flags its ``_MODES`` rows read,
    each of its ``_FLAGS`` kind with help written from the tables, then the
    model flags. Needs, exclusions and defaults are the mode tables'
    (``_check_modes``)."""
    parser = argparse.ArgumentParser(
        prog="starfuse",
        description="Decision fusion in star networks with misperceived priors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text, runner in _COMMANDS:
        p = sub.add_parser(command, help=text)
        for run in _runs(command):
            for flag in dict.fromkeys(flag for row in run for flag in row[3].split()):
                names = (f"{command} {flag}", flag)
                kind, base = next(row[1:] for row in _FLAGS if row[0] in names)
                p.add_argument(flag, help=_flag_help(run, flag, base), **(
                    {"action": "store_true"} if kind is bool else
                    {"choices": kind} if isinstance(kind, tuple) else {"type": kind}))
        _add_model_args(p, runner)
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
        _check_modes(args)
        out = args.func(args)
        created = [path for path in out.files if not os.path.exists(path)]
        for path in out.files:  # every path opens, creating only the missing, before any truncates
            open(path, "a").close()
        for path, text in out.files.items():
            with open(path, "w", newline="") as handle:
                handle.write(text)
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
