"""Source-layout rules checked by parsing, not by running the code."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import starfuse

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "starfuse").glob("*.py"))


def _private_imports(source):
    """(module, name) of every underscore name the module ``source`` imports
    from another starfuse module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "starfuse":
            continue
        found += [(module, alias.name) for alias in node.names if alias.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    assert _private_imports(path.read_text()) == []


def _traced_table():
    """The ``TRACED`` dict literal of the benchmark tracer."""
    source = (ROOT / "perfbench" / "tracing.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED table")


def test_traced_functions_exist():
    missing = [f"{short}.{name}" for short, names in _traced_table().items()
               for name in names
               if not hasattr(importlib.import_module(f"starfuse.{short}"), name)]
    assert missing == []


# Every non-module public name of the package. A name joins or leaves the
# API only by an edit here.
PUBLIC_API = [
    "BELIEF_EPS", "CostPair", "ExponentFit", "ExponentReport", "NetworkConfig",
    "NetworkTemplate", "ObservationModel", "OptimizationResult", "OptimizerSettings",
    "PhaseClassification", "PhaseRegion", "PrelecGapPoint", "PrelecParams",
    "Q0_STRATEGIES", "RiskReport", "SimulationResult", "SimulationSpec", "SweepPoint",
    "batch_risk", "belief_from_threshold", "chernoff_bernoulli", "clamp_belief",
    "classify_phase", "error_probs", "estimate_exponent", "exact_risk",
    "exact_risk_bruteforce", "exponent_curve", "exponent_objective",
    "fit_prelec_minimax", "from_log_odds", "fusion_log_odds", "gaussian_q",
    "golden_section", "grid_search", "log_odds", "minimize_fusion_belief",
    "optimal_belief_sweep", "optimal_exponent", "pbpo", "pbpo_exact", "phase_map",
    "pinned_fusion_errors", "prelec", "prelec_risk_gap", "simulate",
    "stationarity_residual", "threshold_from_belief", "threshold_from_log_odds",
    "update_belief_count",
]


def test_public_api_is_pinned():
    names = sorted(name for name in dir(starfuse) if not name.startswith("_")
                   and not isinstance(getattr(starfuse, name), types.ModuleType))
    assert len(PUBLIC_API) == 50
    assert names == PUBLIC_API


def test_removed_parameters_rejected():
    template = starfuse.NetworkTemplate(0.3, starfuse.CostPair(), starfuse.ObservationModel(), 2)
    params = starfuse.PrelecParams(1.0, 1.0)
    with pytest.raises(TypeError):
        starfuse.prelec_risk_gap(template, params, "keep-optimal-q0", sweep=[], pi0_values=[0.3])
    with pytest.raises(TypeError):
        starfuse.fit_prelec_minimax([0.3], [0.4], bounds=(0.2, 3.0))
    with pytest.raises(TypeError):
        starfuse.chernoff_bernoulli(0.3, 0.6, iters=10)


def test_import_leaves_scipy_optimize_unloaded():
    """Only the Prelec fit needs scipy.optimize, so importing the package
    and its CLI must not pay for it."""
    code = ("import sys, starfuse, starfuse.cli; "
            "print('scipy.optimize' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
