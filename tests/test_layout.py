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


def test_exact_risk_reaches_traced_count_distribution(monkeypatch):
    # The tracer patches network.count_distribution by name; exact_risk must
    # call it through that name, or the network.count_distribution.* metrics
    # silently read 0.
    network = importlib.import_module("starfuse.network")
    calls = []
    original = network.count_distribution

    def counting(config):
        calls.append(config)
        return original(config)

    monkeypatch.setattr(network, "count_distribution", counting)
    template = starfuse.NetworkTemplate(0.3, starfuse.CostPair(1.0, 1.0),
                                        starfuse.ObservationModel(sigma=1.0), 5)
    starfuse.exact_risk(template.tied(0.6, 0.4))
    assert len(calls) == 1


# Every non-module public name of the package. A name joins or leaves the
# API only by an edit here.
PUBLIC_API = [
    "BELIEF_EPS", "CostPair", "ExponentFit", "ExponentReport", "NetworkConfig",
    "NetworkTemplate", "ObservationModel", "OptimizationResult", "OptimizerSettings",
    "PhaseClassification", "PhaseRegion", "PrelecGapPoint", "PrelecParams",
    "Q0_STRATEGIES", "RiskReport", "SimulationResult", "SimulationSpec", "SweepPoint",
    "batch_risk", "chernoff_bernoulli", "clamp_belief",
    "classify_phase", "error_probs", "estimate_exponent", "exact_risk",
    "exact_risk_bruteforce", "exponent_curve",
    "fit_prelec_minimax", "from_log_odds", "fusion_log_odds", "gaussian_q",
    "grid_search", "log_odds", "minimize_fusion_belief",
    "optimal_belief_sweep", "optimal_exponent", "pbpo", "pbpo_exact", "phase_map",
    "pinned_fusion_errors", "prelec", "prelec_risk_gap", "simulate",
    "stationarity_residual", "threshold_from_belief", "threshold_from_log_odds",
    "update_belief_count",
]


def test_public_api_is_pinned():
    names = sorted(name for name in dir(starfuse) if not name.startswith("_")
                   and not isinstance(getattr(starfuse, name), types.ModuleType))
    assert len(PUBLIC_API) == 47
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


_WRITE_METHODS = {"write", "writelines", "writerow", "writerows", "write_text", "write_bytes"}


def _output_sites(source):
    """Names of the top-level definitions in ``source`` that print, open a
    file in any mode but a literal read-only one, or call a write method."""
    found = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                writes = func.attr in _WRITE_METHODS
            elif isinstance(func, ast.Name) and func.id == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
                writes = not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                              and not set(mode.value) & set("wax+"))
            else:
                writes = isinstance(func, ast.Name) and func.id == "print"
            if writes:
                found.add(getattr(top, "name", "<module>"))
    return found


def test_output_sites_seen():
    source = ("def a(p):\n    open(p).read()\n"
              "def b(p):\n    open(p, mode='a').close()\n"
              "def c(p, m):\n    open(p, m)\n"
              "def d(w):\n    w.writerows([])\n"
              "def e():\n    print()\n")
    assert _output_sites(source) == {"b", "c", "d", "e"}


def test_only_cli_main_prints_or_writes():
    """The CLI has one output path: its commands return their lines and
    files, and ``main`` alone prints and writes them."""
    assert _output_sites((ROOT / "src" / "starfuse" / "cli.py").read_text()) == {"main"}


_TAIL_KERNELS = {"erfc", "log_ndtr"}


def _tail_kernel_sites(source):
    """Names of the top-level definitions in ``source`` that name a Gaussian
    tail kernel (``erfc`` or ``log_ndtr``, of any module) as an attribute,
    a bare name or an import; ``<module>`` for a module-level statement."""
    found = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr in _TAIL_KERNELS
                    or isinstance(node, ast.Name) and node.id in _TAIL_KERNELS
                    or isinstance(node, ast.alias)
                    and node.name.rpartition(".")[2] in _TAIL_KERNELS):
                found.add(getattr(top, "name", "<module>"))
    return found


def test_tail_kernel_sites_seen():
    source = ("import math\n"
              "from scipy.special import log_ndtr\n"
              "def a(x):\n    return math.erfc(x)\n"
              "class B:\n    def f(self, x):\n        erfc = special.erfc\n        return erfc(x)\n"
              "def c(x):\n    'erfc and log_ndtr in a docstring'\n    return math.exp(x)\n"
              "def d(x):\n    return log_ndtr(x)\n")
    assert _tail_kernel_sites(source) == {"<module>", "a", "B", "d"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "observation.py"],
                         ids=lambda p: p.name)
def test_tail_kernels_only_in_observation(path):
    """Every Gaussian tail comes from ``observation``, which gives a float
    the same double as an array element, so a per-float path matches the
    array path bit for bit. The one exception is ``_RiskEvaluator``, whose
    ``math.erfc`` keeps the descent risks that
    ``tests/test_descent_reference.py`` and ``pbpo``'s pinned benchmark run
    hold."""
    allowed = {"_RiskEvaluator"} if path.name == "optimize.py" else set()
    assert _tail_kernel_sites(path.read_text()) == allowed


_CACHES = {"cache", "lru_cache"}
_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _call_state(source, allowed_cache=None):
    """(line, what) of every place in ``source`` that keeps state from one
    call to the next: a ``functools`` cache (except as the decorator of the
    top-level function named ``allowed_cache``), a dict, list or set display
    or comprehension in a module-level or class-level statement, and a
    ``global`` statement."""
    tree = ast.parse(source)
    allowed = {id(d) for top in tree.body if isinstance(top, ast.FunctionDef)
               and top.name == allowed_cache for d in top.decorator_list}
    found = set()
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Attribute) and node.attr in _CACHES \
                and isinstance(node.value, ast.Name) and node.value.id == "functools":
            found.add((node.lineno, f"functools.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found |= {(node.lineno, f"functools.{a.name}") for a in node.names if a.name in _CACHES}
        elif isinstance(node, ast.Global):
            found.add((node.lineno, "global"))

    def shared(body):
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                shared(stmt.body)
            elif not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update((n.lineno, f"shared {type(n).__name__}") for n in ast.walk(stmt)
                             if isinstance(n, _DISPLAYS))

    shared(tree.body)
    return found


def test_call_state_seen():
    source = ("import functools\n"
              "from functools import lru_cache, partial\n"
              "TABLE = {}\n"
              "NAMES = tuple([1])\n"
              "class A:\n    seen = {1}\n    def f(self):\n        return [x for x in ()]\n"
              "@functools.cache\ndef kept():\n    return {}\n"
              "@functools.lru_cache(maxsize=4)\ndef b():\n    global TABLE\n"
              "c = partial(b)\n")
    assert _call_state(source, allowed_cache="kept") == {
        (2, "functools.lru_cache"), (3, "shared Dict"), (4, "shared List"), (6, "shared Set"),
        (12, "functools.lru_cache"), (14, "global")}
    assert (9, "functools.cache") in _call_state(source)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_state_kept_across_calls(path):
    """Nothing a call computes outlives it: a memo belongs to an object its
    public call builds. The one exception is the CLI's argparse tree, built
    once per process by ``cli._parser``."""
    allowed = "_parser" if path.name == "cli.py" else None
    assert _call_state(path.read_text(), allowed) == set()


def _dest(call):
    """The ``args`` attribute an ``add_argument`` call of a flag fills."""
    for keyword in call.keywords:
        if keyword.arg == "dest":
            return keyword.value.value
    names = [arg.value for arg in call.args if isinstance(arg, ast.Constant)]
    return next((n for n in names if n.startswith("--")), names[0]).lstrip("-").replace("-", "_")


def _unread_flags(source):
    """(subcommand, flag) of every flag that ``build_parser`` in ``source``
    gives a subcommand and that no code reads as ``args.<flag>``: neither the
    ``cmd_*`` that runs the subcommand nor a function it passes ``args`` to.

    In ``build_parser`` a subcommand starts at ``... = sub.add_parser(name)``;
    its flags are the ``add_argument`` calls of the statements that follow,
    and those of a module function such a statement calls. Its runner is the
    ``cmd_*`` function named in those statements."""
    funcs = {node.name: node for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef)}

    def calls(node, method):
        return [c for c in ast.walk(node) if isinstance(c, ast.Call)
                and isinstance(c.func, ast.Attribute) and c.func.attr == method]

    def reads(name, param, seen):
        """Attributes that function ``name`` reads of its parameter ``param``,
        itself or through the functions it passes ``param`` to."""
        if (name, param) in seen:
            return set()
        seen.add((name, param))
        found = set()
        for node in ast.walk(funcs[name]):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == param:
                found.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in funcs:
                for idx, arg in enumerate(node.args):
                    if isinstance(arg, ast.Name) and arg.id == param:
                        callee = funcs[node.func.id].args.args[idx].arg
                        found |= reads(node.func.id, callee, seen)
        return found

    commands = {}  # name -> [flags, runner]
    current = None
    for stmt in funcs["build_parser"].body:
        started = calls(stmt, "add_parser")
        if started:
            current = commands.setdefault(started[0].args[0].value, [[], None])
        if current is None:
            continue
        current[0] += [_dest(c) for c in calls(stmt, "add_argument")]
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id in funcs:
                if node.id.startswith("cmd_"):
                    current[1] = node.id
                else:
                    current[0] += [_dest(c) for c in calls(funcs[node.id], "add_argument")]
    unread = []
    for command, (flags, runner) in commands.items():
        param = funcs[runner].args.args[0].arg
        known = reads(runner, param, set())
        unread += [(command, flag) for flag in flags if flag not in known]
    return unread


def test_unread_flags_seen():
    source = ("def _shared(p, func):\n"
              "    p.set_defaults(func=func)\n"
              "    p.add_argument('--sigma')\n"
              "    p.add_argument('--out-file', dest='target')\n"
              "def _model(a):\n    return a.sigma\n"
              "def cmd_a(args):\n    return _model(args), args.n_local\n"
              "def cmd_b(args):\n    return args.target\n"
              "def build_parser():\n"
              "    sub = object()\n"
              "    p = sub.add_parser('a')\n"
              "    p.add_argument('--n-local')\n"
              "    group = p.add_mutually_exclusive_group()\n"
              "    group.add_argument('-t', '--trials')\n"
              "    _shared(p, cmd_a)\n"
              "    p = sub.add_parser('b')\n"
              "    p.add_argument('--seed')\n"
              "    _shared(p, cmd_b)\n")
    assert _unread_flags(source) == [("a", "trials"), ("a", "target"), ("b", "seed"),
                                     ("b", "sigma")]


def test_every_cli_flag_is_read():
    """A flag that no command reads does nothing, so the parser offers none."""
    assert _unread_flags((ROOT / "src" / "starfuse" / "cli.py").read_text()) == []
