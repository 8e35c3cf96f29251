"""starfuse benchmark.

    python3 perfbench/run.py --workload paper_n2|large_n|limits_cli|all \
        --seed N --seconds S --trace 0|1

Each workload run is one fresh single-threaded Python process (a closed loop:
one client, the next job starts when the last one ends) working through a job
stream made from the seed. Set-up is also timed in four more fresh processes
and reported as the median. ``--trace 1`` repeats the stream with spans
around the library's public functions and reports the per-layer metrics.
Prints a table, then one JSON line; writes the result with its context to
``.bench_out/``. See perfbench/README.md for what each metric should move.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"
WORKLOADS = ("paper_n2", "large_n", "limits_cli")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
DEADLINE_S = 170.0
IMPORT_STATEMENT = "import numpy, scipy.special, scipy.optimize, starfuse.cli"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "import.numpy_s": "s",
    "import.scipy_special_s": "s",
    "import.scipy_optimize_s": "s",
    "import.starfuse_self_s": "s",
    "observation.gaussian_q.calls": "count",
    "observation.gaussian_q.self_s": "s",
    "observation.decision_one_log_tails.calls": "count",
    "observation.decision_one_log_tails.self_s": "s",
    "observation.threshold_from_belief.calls": "count",
    "network.exact_risk.calls": "count",
    "network.exact_risk.self_s": "s",
    "network.exact_risk.agents": "count",
    "network.count_distribution.self_s": "s",
    "network.conditional_fusion_errors.calls": "count",
    "network.conditional_fusion_errors.self_s": "s",
    "optimize.grid_search.calls": "count",
    "optimize.grid_search.self_s": "s",
    "optimize.grid_search.rows": "count",
    "optimize.pbpo.calls": "count",
    "optimize.pbpo.self_s": "s",
    "optimize.pbpo.sweeps": "count",
    "optimize.pbpo.optimum_ratio": "fraction",
    "optimize.pbpo_exact.calls": "count",
    "optimize.pbpo_exact.self_s": "s",
    "optimize.pbpo_exact.sweeps": "count",
    "optimize.pbpo_exact.converged_ratio": "fraction",
    "optimize.minimize_fusion_belief.calls": "count",
    "optimize.minimize_fusion_belief.self_s": "s",
    "optimize.exact_coordinate_update.calls": "count",
    "optimize.exact_coordinate_update.self_s": "s",
    "optimize.exact_coordinate_update.degenerate_ratio": "fraction",
    "optimize.stationarity_residual.calls": "count",
    "optimize.stationarity_residual.self_s": "s",
    "prospect.fit_prelec_minimax.self_s": "s",
    "prospect.prelec_risk_gap.self_s": "s",
    "asymptotics.classify_phase.calls": "count",
    "asymptotics.classify_phase.self_s": "s",
    "asymptotics.optimal_exponent.calls": "count",
    "asymptotics.optimal_exponent.self_s": "s",
    "asymptotics.exponent_curve.self_s": "s",
    "montecarlo.simulate.calls": "count",
    "montecarlo.simulate.self_s": "s",
    "montecarlo.simulate.trials": "count",
    "montecarlo.simulate.trials_per_s": "1/s",
    "montecarlo.estimate_exponent.calls": "count",
    "montecarlo.estimate_exponent.self_s": "s",
    "montecarlo.estimate_exponent.truncated_ratio": "fraction",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.csv_bytes": "bytes",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
    "fail_ratio": "fraction",
}

# ratio metric -> (counter it divides, span whose calls are the base)
RATIOS = {
    "optimize.pbpo_exact.converged_ratio": ("optimize.pbpo_exact.converged", "optimize.pbpo_exact"),
    "optimize.exact_coordinate_update.degenerate_ratio": (
        "optimize.exact_coordinate_update.degenerate", "optimize.exact_coordinate_update"),
    "montecarlo.estimate_exponent.truncated_ratio": (
        "montecarlo.estimate_exponent.truncated", "montecarlo.estimate_exponent"),
}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv, deadline):
    """Run a child to completion; returns (monotonic start, completed process)."""
    start = time.monotonic()
    timeout = deadline - start
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              timeout=timeout, env=child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {argv[:3]} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {argv[:3]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return start, proc


def run_worker(args, deadline, *extra):
    start, proc = spawn([str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace), *extra], deadline)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_done"] - start
    return result


def import_breakdown(deadline):
    """Medians over fresh ``python -X importtime`` runs of the import of
    starfuse.cli. Its three heavy dependencies are imported first, in the
    order starfuse imports them: scipy loads ``from scipy import special``
    lazily, and importtime prints no line for a module loaded that way."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        _, proc = spawn(["-X", "importtime", "-c", IMPORT_STATEMENT], deadline)
        self_us, cumulative_us = {}, {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)", line)
            if m:
                self_us[m.group(3)] = int(m.group(1))
                cumulative_us[m.group(3)] = int(m.group(2))
        samples.append({
            "import.numpy_s": cumulative_us.get("numpy", 0) / 1e6,
            "import.scipy_special_s": cumulative_us.get("scipy.special", 0) / 1e6,
            "import.scipy_optimize_s": cumulative_us.get("scipy.optimize", 0) / 1e6,
            "import.starfuse_self_s": sum(v for k, v in self_us.items()
                                          if k == "starfuse" or k.startswith("starfuse.")) / 1e6,
        })
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def git_commit():
    """HEAD of the checkout, read from .git without running git (which would
    search the directories above the checkout)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def tail_index(count):
    """Index into the sorted latencies of the highest percentile with at least
    ten jobs beyond it (the maximum when there are ten jobs or fewer)."""
    return count - 11 if count > 10 else count - 1


def end_to_end(setups, result):
    """Job times are scaled by the calibration around each job (worker.run_pass);
    each job's time is its median over the passes, wall_s the median pass."""
    latencies = sorted(statistics.median(job) for job in zip(*result["pass_scaled_s"]))
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(p) for p in result["pass_scaled_s"]),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": latencies[tail_index(len(latencies))],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result, imports, wall_s):
    layers = result["layers"]
    metrics = {name: 0 for name in PER_LAYER}
    metrics.update({k: v for k, v in layers.items() if k in PER_LAYER})
    metrics.update(imports)
    for name, (counter, span) in RATIOS.items():
        calls = layers.get(f"{span}.calls", 0)
        metrics[name] = layers.get(counter, 0) / calls if calls else 0.0
    sim_s = layers.get("montecarlo.simulate.total_s", 0.0)
    metrics["montecarlo.simulate.trials_per_s"] = metrics["montecarlo.simulate.trials"] / sim_s if sim_s else 0.0
    metrics["process.cpu_s"] = result["cpu_s"]
    metrics["trace.overhead_s"] = sum(result["traced_scaled_s"]) - wall_s
    metrics["fail_ratio"] = len(result["failures"]) / result["attempted"]
    return metrics


def run_workload(args):
    deadline = time.monotonic() + DEADLINE_S
    setups = [run_worker(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    result = run_worker(args, deadline)
    setups.append(result["setup_s"])
    e2e = end_to_end(setups, result)
    layers = per_layer(result, import_breakdown(deadline), e2e["wall_s"]) if args.trace else {}
    failures = result["failures"]
    attempted = result["attempted"]
    tail = tail_index(attempted)
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), **result["versions"],
        "platform": platform.platform(), "git_commit": git_commit(),
        "jobs": attempted, "job_tail_s": f"latency of job {tail + 1} of {attempted} by rank, "
                                        f"p{100.0 * (tail + 1) / attempted:.0f}, {attempted - tail - 1} jobs beyond",
        "setup_samples_s": setups,
        "raw_wall_s": statistics.median(sum(p) for p in result["pass_latencies_s"]),
    }
    summary = {
        "correct": all(f["known_defect"] for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": END_TO_END[name]} for name, value in e2e.items()}
        if not args.trace else
        {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"context": context, "end_to_end": e2e, "per_layer": layers, "failures": failures,
              "summary": summary, "passes": {k: result[k] for k in ("pass_latencies_s", "pass_scaled_s")}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    return record


def print_table(record):
    context = record["context"]
    print(f"# {context['workload']} seed={context['seed']} seconds={context['seconds']} "
          f"trace={context['trace']} jobs={context['jobs']}")
    print("# " + " ".join(f"{k}={context[k]}" for k in
                          ("nproc", "python", "numpy", "scipy", "git_commit")))
    print(f"# job_tail_s: {context['job_tail_s']}")
    print(f"# unscaled median pass: {context['raw_wall_s']:.6g} s")
    for name, value in record["end_to_end"].items():
        print(f"{name:52s} {value:>16.6g} {END_TO_END[name]}")
    for name, value in record["per_layer"].items():
        print(f"{name:52s} {value:>16.6g} {PER_LAYER[name]}")
    for f in record["failures"]:
        tag = "known defect" if f["known_defect"] else "FAILED"
        print(f"# {tag}: job {f['job']}: {f['reason']} input={json.dumps(f['input'], default=str)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="starfuse benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed non-negative")
    if not (ROOT / "src" / "starfuse" / "__init__.py").is_file():
        print(f"error: no starfuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    try:
        for name in names:
            record = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
            print_table(record)
            summaries[name] = record["summary"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summaries[names[0]] if len(names) == 1 else summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
