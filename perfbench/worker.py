"""One fresh benchmark process: set up, run the job stream, gate the outputs.

Started by ``run.py`` with PYTHONPATH pointing at the checkout's ``src`` and
single-threaded BLAS. Prints one JSON line. With ``--setup-only`` it stops
after set-up, so ``run.py`` can time set-up in several fresh processes.
"""

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from scipy import special

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# A run makes PASSES passes over the same jobs_per_second x seconds jobs
# (at least 20), each pass about seconds / 2 long on two cores.
PASSES = 5
# calibrate() takes about this long on an idle two-core box; scaled
# latencies read as seconds on a machine running at that speed.
NOMINAL_CALIBRATION_S = 5e-4
_CALIBRATION_GRID = np.linspace(-3.0, 3.0, 256)


def calibrate():
    """Time a fixed mix of interpreter and small-array work that calls no
    starfuse code. The machine is shared: its speed drifts by up to half
    over seconds, and this clock, read next to every job, tracks it."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        acc += math.erfc(i * 1e-3)
    for _ in range(40):
        acc += float(np.sum(special.erfc(_CALIBRATION_GRID) * _CALIBRATION_GRID))
    return time.perf_counter() - start


def run_pass(workload, jobs, tracer=None):
    """Run every job in order, one at a time; a job that raises is recorded,
    not fatal. Returns raw latencies, latencies scaled to the nominal
    calibration time by the mean of the calibrations around each job, and
    the outputs."""
    perf = time.perf_counter
    done, latencies, scaled = [], [], []
    before = calibrate()
    for i, job in enumerate(jobs):
        t0 = perf()
        try:
            with tracer.job(i) if tracer else contextlib.nullcontext():
                out = workload.run(job, done)
        except Exception as exc:  # noqa: BLE001 - a failed job is data for the gate
            out = exc
        latency = perf() - t0
        after = calibrate()
        latencies.append(latency)
        scaled.append(latency * NOMINAL_CALIBRATION_S / (0.5 * (before + after)))
        before = after
        done.append((job, out))
    return latencies, scaled, done


def gate(workload, done):
    """(job index, reason) for every job that raised or failed its checks."""
    failures = []
    for i, (job, out) in enumerate(done):
        if isinstance(out, Exception):
            failures.append((i, f"raised {type(out).__name__}: {out}"))
            continue
        try:
            reason = workload.check(job, out)
        except Exception as exc:  # noqa: BLE001 - an output the checks cannot read fails
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures.append((i, reason))
    rerun = getattr(workload, "rerun_check", None)
    if rerun is not None:
        failed = {i for i, _ in failures}
        extra = rerun(done)
        if extra is not None and extra[0] not in failed:
            failures.append(extra)
    return failures


def layer_metrics(tracer, workload, done):
    summary = tracer.summary()
    metrics = {}
    for name, (calls, self_s, total_s) in summary.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
        metrics[f"{name}.total_s"] = total_s
    for key, value in tracer.counters.items():
        metrics[key] = value
    metrics.update(workload.derived(done))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import scipy
    import starfuse
    import starfuse.cli  # noqa: F401 - part of set-up
    import workloads

    source = Path(starfuse.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"starfuse imported from {source}, not from this checkout's src/")
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        index = list(workloads.WORKLOADS).index(args.workload)
        count = max(20, workload.jobs_per_second * args.seconds)
        jobs = workload.jobs(np.random.default_rng([args.seed, index]), count, workdir)
        setup_done = time.monotonic()
        if args.setup_only:
            print(json.dumps({"setup_done": setup_done}))
            return 0

        cpus, latencies, scaled = [], [], []
        for _ in range(PASSES):
            cpu0 = time.process_time()
            pass_latencies, pass_scaled, done = run_pass(workload, jobs)
            cpus.append(time.process_time() - cpu0)
            latencies.append(pass_latencies)
            scaled.append(pass_scaled)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = gate(workload, done)
        result = {
            "setup_done": setup_done,
            "pass_latencies_s": latencies,
            "pass_scaled_s": scaled,
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
            "attempted": len(jobs),
            "failures": [{"job": i, "reason": reason, "known_defect": workloads.known_defect(jobs[i]),
                          "input": workload.describe(jobs[i])} for i, reason in failures],
            "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        }
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                _, traced_scaled, traced_done = run_pass(workload, jobs, tracer)
            finally:
                tracer.uninstall()
            result["traced_scaled_s"] = traced_scaled
            result["layers"] = layer_metrics(tracer, workload, traced_done)
            tracer.save(OUT / f"spans-{args.workload}.npz")
        print(json.dumps(result, default=str))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
