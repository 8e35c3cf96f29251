"""In-memory spans around starfuse's public functions.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``starfuse`` module namespace that binds it: ``from .network import
exact_risk`` gives each importing module a binding of its own, and a patch
in ``starfuse.network`` alone would miss the calls made through the others.
Spans (name, start, end, parent, job) stay in flat arrays until ``save``
writes them out; self time is a span's duration minus its children's.
"""

import functools
import sys
import time
from array import array

import numpy as np

# Public functions wrapped in a traced run, by the module that defines them.
TRACED = {
    "observation": ("gaussian_q", "decision_one_log_tails", "threshold_from_belief"),
    "network": ("exact_risk", "count_distribution", "conditional_fusion_errors"),
    "optimize": ("grid_search", "pbpo", "pbpo_exact", "minimize_fusion_belief",
                 "exact_coordinate_update", "stationarity_residual"),
    "prospect": ("fit_prelec_minimax", "prelec_risk_gap"),
    "asymptotics": ("classify_phase", "optimal_exponent", "exponent_curve"),
    "montecarlo": ("simulate", "estimate_exponent"),
    "cli": ("main",),
}

# Work counts read off a traced call: span name -> f(args, result) -> {counter: amount}.
COUNTERS = {
    "network.exact_risk": lambda args, r: {"agents": args[0].n_local},
    "optimize.grid_search": lambda args, r: {"rows": r.iterations},
    "optimize.pbpo": lambda args, r: {"sweeps": r.iterations},
    "optimize.pbpo_exact": lambda args, r: {"sweeps": r.iterations, "converged": int(r.converged)},
    "optimize.exact_coordinate_update": lambda args, r: {"degenerate": int(r[1])},
    "montecarlo.simulate": lambda args, r: {"trials": r.trials},
    "montecarlo.estimate_exponent": lambda args, r: {"truncated": int(r[1].truncated)},
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self.current_job = -1
        self._stack = []
        self._patched = []
        self._job_nid = self._name("job")

    def _open(self, nid):
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job_of.append(self.current_job)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid, t0, t1):
        self._stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1

    def _name(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def job(self, index):
        """Root span around one benchmark job; the spans under it carry its index."""
        self.current_job = index
        return _Span(self, self._job_nid)

    def _wrap(self, name, fn):
        nid = self._name(name)
        count = COUNTERS.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(nid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, t0, perf())
            if count is not None:
                for key, amount in count(args, result).items():
                    key = f"{name}.{key}"
                    self.counters[key] = self.counters.get(key, 0) + amount
            return result

        return traced

    def install(self):
        """Patch every binding of every traced function in loaded starfuse modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "starfuse" or n.startswith("starfuse."))]
        for short, fnames in TRACED.items():
            home = sys.modules[f"starfuse.{short}"]
            for fname in fnames:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32), np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def summary(self):
        """name -> (calls, self seconds, inclusive seconds)."""
        name_id, parent, start, end = self._arrays()
        duration = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        self_time = duration - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        self_s = np.bincount(name_id, weights=self_time, minlength=k)
        total_s = np.bincount(name_id, weights=duration, minlength=k)
        return {name: (int(calls[i]), float(self_s[i]), float(total_s[i]))
                for i, name in enumerate(self.names)}

    def save(self, path):
        name_id, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent,
                 job=np.frombuffer(self.job_of, dtype=np.int32), start=start, end=end)


class _Span:
    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.sid = self.tracer._open(self.nid)
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.tracer._close(self.sid, self.t0, time.perf_counter())
        return False
