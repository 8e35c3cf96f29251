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


# The oldest Python that pyproject.toml's requires-python admits.
PYTHON_FLOOR = (3, 10)


def test_python_floor_declared():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    with pytest.raises(SyntaxError):  # 3.11's except* is not 3.10 syntax
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=PYTHON_FLOOR)


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")) +
                         sorted((ROOT / "tests").rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_at_the_python_floor(path):
    """Every source and test file is Python 3.10 syntax, which the tests,
    run on a newer Python, would not otherwise see."""
    ast.parse(path.read_text(), filename=str(path), feature_version=PYTHON_FLOOR)


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


def _scipy_optimize_imports(source):
    """Line numbers of the statements in ``source`` that import
    ``scipy.optimize``, as a module or from it, or as a name from scipy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names] + [node.module]
        else:
            continue
        if any(name == "scipy.optimize" or name.startswith("scipy.optimize.") for name in names):
            found.append(node.lineno)
    return sorted(found)


def test_scipy_optimize_imports_seen():
    source = ("import scipy.optimize\n"
              "from scipy import optimize\n"
              "def f():\n    from scipy.optimize import minimize\n"
              "import scipy.special, scipy.optimize._optimize as o\n"
              "from scipy import special\n"
              "from . import optimize\n"
              "from .optimize import nelder_mead\n")
    assert _scipy_optimize_imports(source) == [1, 2, 4, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_optimize_import(path):
    """The Prelec fit refines with ``optimize.nelder_mead``, so no module
    pays for scipy's optimizers and the linear algebra they load."""
    assert _scipy_optimize_imports(path.read_text()) == []


def test_import_leaves_scipy_optimize_unloaded():
    """No module needs scipy.optimize, so neither importing the package and
    its CLI nor fitting a Prelec curve through the CLI loads it."""
    code = ("import sys, starfuse, starfuse.cli; "
            "starfuse.cli.main(['prelec', '--sweep-pi0', '0.2:0.8:0.05']); "
            "print('scipy.optimize' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "False"


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


def _call_sites(source, name):
    """Names of the top-level definitions in ``source`` that call ``name``,
    bare or as an attribute."""
    found = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.add(getattr(top, "name", "<module>"))
    return found


def test_call_sites_seen():
    source = ("def a():\n    return OptimizationResult(1)\n"
              "def b():\n    return optimize.OptimizationResult(beliefs=())\n"
              "class C:\n    def m(self):\n        return OptimizationResult\n"
              "x = [OptimizationResult(2)]\n"
              "'OptimizationResult() in a docstring'\n")
    assert _call_sites(source, "OptimizationResult") == {"a", "b", "<module>"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_results_built_only_by_finish(path):
    """Every optimizer's ``OptimizationResult`` comes from ``optimize._finish``,
    so a field the result gains is filled in one place."""
    expected = {"_finish"} if path.name == "optimize.py" else set()
    assert _call_sites(path.read_text(), "OptimizationResult") == expected


def test_csv_text_only_in_the_two_renderers():
    """Every CLI file is rendered by ``_csv``, a template per row, or by
    ``_axis_product_csv``, labels formatted once, for a map or surface."""
    source = (ROOT / "src" / "starfuse" / "cli.py").read_text()
    assert _call_sites(source, "_csv_text") == {"_csv", "_axis_product_csv"}


_TAIL_KERNELS = {"erf", "erfc", "log_ndtr", "ndtr", "ndtri"}


def _kernel_name(node):
    """The tail kernel that ``node`` names as an attribute or a bare name, or None."""
    name = getattr(node, "attr", getattr(node, "id", None))
    return name if name in _TAIL_KERNELS else None


def _tail_kernel_sites(source):
    """Names of the top-level definitions in ``source`` that name a Gaussian
    tail kernel or its quantile (``erf``, ``erfc``, ``log_ndtr``, ``ndtr`` or
    ``ndtri``, of any module) as an attribute, a bare name or an import;
    ``<module>`` for a module-level statement."""
    found = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if _kernel_name(node) or isinstance(node, ast.alias) \
                    and node.name.rpartition(".")[2] in _TAIL_KERNELS:
                found.add(getattr(top, "name", "<module>"))
    return found


def test_tail_kernel_sites_seen():
    source = ("import math\n"
              "from scipy.special import log_ndtr\n"
              "def a(x):\n    return math.erfc(x)\n"
              "class B:\n    def f(self, x):\n        erfc = special.erfc\n        return erfc(x)\n"
              "def c(x):\n    'erfc and log_ndtr in a docstring'\n    return math.exp(x)\n"
              "def d(x):\n    return log_ndtr(x)\n"
              "def e():\n    from scipy.special import ndtri\n"
              "def f(u):\n    return special.ndtri(u)\n"
              "def g(sigma):\n    return math.erf(0.5 / sigma)\n")
    assert _tail_kernel_sites(source) == {"<module>", "a", "B", "d", "e", "f", "g"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "observation.py"],
                         ids=lambda p: p.name)
def test_tail_kernels_only_in_observation(path):
    """Every Gaussian tail and quantile comes from ``observation``, which
    gives a float the same double as an array element, so a per-float path
    matches the array path bit for bit; the descent's scalar evaluator takes
    its tails from there too, ``simulate`` its inverse-transform test and
    ``optimal_exponent`` its closed form's rate gap."""
    assert _tail_kernel_sites(path.read_text()) == set()


def test_one_erfc_kernel():
    """``observation`` forms every tail with scipy's ``erfc``; ``math.erfc``,
    whose last bit differs from it on many inputs, is named nowhere."""
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and node.attr == "erfc" and getattr(node.value, "id", None) == "math"], path


def _slow_tail_sites(source):
    """(line, what) of each per-float tail in ``source`` that pays numpy's
    ufunc dispatch or is bound more than once: a ``float(...)`` of a call
    to a tail kernel of any module or any bare name (``"float"``), and each
    subscript of a tail kernel, such as ``cython_special.erfc["double"]``
    (``"binds <kernel>"``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float" \
                and node.args and isinstance(node.args[0], ast.Call) \
                and _kernel_name(node.args[0].func):
            found.add((node.lineno, "float"))
        if isinstance(node, ast.Subscript) and _kernel_name(node.value):
            found.add((node.lineno, f"binds {_kernel_name(node.value)}"))
    return found


def test_slow_tail_sites_seen():
    source = ("def a(x):\n    return 0.5 * float(special.erfc(x))\n"
              "def b(x):\n    erfc = special.erfc\n    return float(erfc(x))\n"
              "def c(x):\n    return float(log_ndtr(x)) + float(special.expit(x))\n"
              "_erfc = cython_special.erfc['double']\n"
              "def d(x):\n    return 0.5 * _erfc(x) + float(x)\n"
              "def e(x):\n    return cython_special.log_ndtr['double'](x)\n")
    assert _slow_tail_sites(source) == {(2, "float"), (5, "float"), (7, "float"),
                                        (8, "binds erfc"), (12, "binds log_ndtr")}


def test_per_float_tails_bound_once():
    """A float's Gaussian tails come from ``observation``'s one binding of
    each of scipy's compiled ``double`` kernels, ``erfc`` and ``log_ndtr``:
    no ufunc result is converted with ``float`` one value at a time, which
    pays numpy's dispatch on every float, and no kernel is bound twice."""
    sites = {path.name: sorted(what for _, what in _slow_tail_sites(path.read_text()))
             for path in SOURCES}
    assert {name: found for name, found in sites.items() if found} == {
        "observation.py": ["binds erfc", "binds log_ndtr"]}


def _log_odds_sites(source):
    """(line, what) of each log-odds site in ``source``: a difference whose
    left side names a ``log`` and whose right side names a ``log1p`` and
    negates, called or mapped, of any module (``"expression"``), and a
    numpy ``log`` or ``log1p`` of an expression that names a belief, a name
    starting ``q`` or holding ``belief`` (``"np.log"``)."""
    def named(node, names):
        func = node.func if isinstance(node, ast.Call) else None
        return getattr(func, "attr", getattr(func, "id", None)) in names

    def mentions(node, name):
        return any(getattr(n, "attr", getattr(n, "id", None)) == name for n in ast.walk(node))

    def belief(name):
        return name.startswith("q") or "belief" in name

    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) \
                and mentions(node.left, "log") and mentions(node.right, "log1p") \
                and any(isinstance(n, ast.USub) for n in ast.walk(node.right)):
            found.add((node.lineno, "expression"))
        elif named(node, {"log", "log1p"}) and isinstance(node.func, ast.Attribute) \
                and getattr(node.func.value, "id", None) == "np" \
                and any(isinstance(n, ast.Name) and belief(n.id)
                        for arg in node.args for n in ast.walk(arg)):
            found.add((node.lineno, "np.log"))
    return found


def test_log_odds_sites_seen():
    source = ("import math\nimport numpy as np\n"
              "def a(q):\n    return math.log(q) - math.log1p(-q)\n"
              "def b(x):\n    log, log1p = np.log, np.log1p\n    return log(x) - log1p(-x)\n"
              "def c(q0):\n    return np.log(q0) - np.log1p(-q0)\n"
              "def d(beliefs):\n    return np.log1p(-np.asarray(beliefs))\n"
              "def e(p):\n    return math.log1p(-p), math.log(p), np.log(p) - np.log1p(p)\n"
              "def f(x, m):\n    return x * np.log(x / m)\n"
              "def g(v):\n    return (np.fromiter(map(math.log, v.tolist()), float)\n"
              "            - np.fromiter(map(math.log1p, (-v).tolist()), float))\n"
              "def h(p, r):\n    return math.log(p) - math.log(r), math.log1p(p) - math.log(r)\n")
    assert _log_odds_sites(source) == {(4, "expression"), (7, "expression"), (9, "expression"),
                                       (9, "np.log"), (11, "np.log"), (17, "expression")}


def test_one_log_odds_kernel():
    """A belief's log-odds is formed in one module, ``observation``, by
    ``clamped_log_odds`` and its array form ``clamped_log_odds_array``
    (the same doubles, ``test_observation`` checks), and no module takes
    numpy's ``log`` of beliefs, whose last bit differs from ``math.log``'s
    on about 6% of them: a belief has one log-odds double on every path.
    (``asymptotics``' Chernoff ``log1p`` terms are no log-odds and form no
    such difference.)"""
    assert [(path.name, what) for path in SOURCES
            for _, what in sorted(_log_odds_sites(path.read_text()))] \
        == [("observation.py", "expression")] * 2


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


def _subcommands(source):
    """``{subcommand: (flags, shared, always, reads)}`` of the parser that
    ``build_parser`` in ``source`` builds: the flags the subcommand adds
    itself, those a module function adds for it, those always given (with a
    ``default`` or ``required``), and the ``args`` attributes that its runner
    reads, itself or through a function it passes ``args`` to.

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

    def always(call):
        return any(k.arg == "required" or k.arg == "default" and not (
            isinstance(k.value, ast.Constant) and k.value.value is None) for k in call.keywords)

    commands = {}  # name -> [flags, shared, always, runner]
    current = None
    for stmt in funcs["build_parser"].body:
        started = calls(stmt, "add_parser")
        if started:
            current = commands.setdefault(started[0].args[0].value, [[], [], set(), None])
        if current is None:
            continue
        current[0] += [_dest(c) for c in calls(stmt, "add_argument")]
        current[2] |= {_dest(c) for c in calls(stmt, "add_argument") if always(c)}
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id in funcs:
                if node.id.startswith("cmd_"):
                    current[3] = node.id
                else:
                    current[1] += [_dest(c) for c in calls(funcs[node.id], "add_argument")]
    return {command: (flags, shared, given, reads(runner, funcs[runner].args.args[0].arg, set()))
            for command, (flags, shared, given, runner) in commands.items()}


def _unread_flags(source):
    """(subcommand, flag) of every flag that ``build_parser`` in ``source``
    gives a subcommand and that no code reads as ``args.<flag>``: neither the
    ``cmd_*`` that runs the subcommand nor a function it passes ``args`` to
    (``_subcommands``)."""
    return [(command, flag) for command, (flags, shared, _, known) in _subcommands(source).items()
            for flag in flags + shared if flag not in known]


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


def _untabled_flags(source):
    """(subcommand, flag, why) of each flag of a subcommand that ``_MODES`` in
    ``source`` does not account for: a flag that ``build_parser`` gives the
    subcommand (``_subcommands``), other than a shared model flag, or an
    ``args.<flag>`` that its runner reads, that no row of the subcommand
    names; and a flag always given (with a default or required) that some
    mode of a run naming it does not read, so that the mode would refuse
    every run. A run is a subcommand's rows up to one with no selector."""
    modes = next(ast.literal_eval(node.value) for node in ast.parse(source).body
                 if isinstance(node, ast.Assign) and node.targets[0].id == "_MODES")
    untabled = []
    for command, (flags, shared, given, known) in _subcommands(source).items():
        rows = [row for row in modes if row[0] == command]
        reads = [[flag[2:].replace("-", "_") for flag in row[3].split()] for row in rows]
        tabled = {flag for row in reads for flag in row}
        untabled += [(command, flag, "parser") for flag in flags if flag not in tabled]
        untabled += [(command, flag, "read") for flag in sorted(known - tabled - set(shared))]
        first = 0
        for last, row in enumerate(rows):
            if not row[2]:  # the last mode of a run
                run = reads[first:last + 1]
                untabled += [(command, flag, "always") for flag in sorted(given)
                             if any(flag in r for r in run) and not all(flag in r for r in run)]
                first = last + 1
    return untabled


def test_untabled_flags_seen():
    source = ("_MODES = (('a', 'one', '--one', '--one --n-local', ''),\n"
              "          ('a', 'two', '', '--seed', ''), ('b', '', '', '--seed', ''))\n"
              "def _shared(p, func):\n"
              "    p.set_defaults(func=func)\n"
              "    p.add_argument('--sigma')\n"
              "def cmd_a(args):\n    return args.sigma, args.one, args.n_local, args.trials\n"
              "def cmd_b(args):\n    return args.seed\n"
              "def build_parser():\n"
              "    sub = object()\n"
              "    p = sub.add_parser('a')\n"
              "    p.add_argument('--one', action='store_true')\n"
              "    p.add_argument('--n-local', type=int, default=2)\n"
              "    p.add_argument('--seed', default=None)\n"
              "    p.add_argument('--added')\n"
              "    _shared(p, cmd_a)\n"
              "    p = sub.add_parser('b')\n"
              "    p.add_argument('--seed', required=True)\n"
              "    _shared(p, cmd_b)\n")
    assert _untabled_flags(source) == [("a", "added", "parser"), ("a", "trials", "read"),
                                       ("a", "n_local", "always")]


def test_every_cli_flag_is_tabled():
    """Each flag a subcommand offers or reads is in a row of its mode table,
    so the mode check refuses it wherever the run does not read it; and no
    flag the parser always fills in is refused by a mode."""
    assert _untabled_flags((ROOT / "src" / "starfuse" / "cli.py").read_text()) == []


SIZE_CONSTANTS = ("PER_FLOAT_BELOW", "BINOMIAL_FROM", "BATCH_CHUNK_ROWS")


def _size_switch_sites(source):
    """(what, where) of each read of a size constant, ``PER_FLOAT_BELOW``,
    ``BINOMIAL_FROM`` or ``BATCH_CHUNK_ROWS`` (as a name, an attribute or an
    import), and each call of ``einsum`` (as ``np.einsum`` or an imported
    name) in ``source``: ``where`` is the name of the innermost function
    around it, or ``"<module>"``. Binding the name is no read."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.ImportFrom):
            found.update((a.name, where) for a in node.names
                         if a.name in SIZE_CONSTANTS or a.name == "einsum")
        elif isinstance(node, ast.Name) and node.id in SIZE_CONSTANTS \
                and isinstance(node.ctx, ast.Load):
            found.add((node.id, where))
        elif isinstance(node, ast.Attribute) and node.attr in SIZE_CONSTANTS:
            found.add((node.attr, where))
        elif isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "attr", getattr(func, "id", None)) == "einsum":
                found.add(("einsum", where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_size_switch_sites_seen():
    source = "import numpy as np\ndef f(a):\n    return np.einsum('i,i', a, a)\n"
    assert _size_switch_sites(source) == {("einsum", "f")}
    assert _size_switch_sites("from numpy import einsum\n") == {("einsum", "<module>")}
    assert _size_switch_sites("from .network import PER_FLOAT_BELOW\n") \
        == {("PER_FLOAT_BELOW", "<module>")}
    assert _size_switch_sites("def f(n):\n    return n < network.PER_FLOAT_BELOW\n") \
        == {("PER_FLOAT_BELOW", "f")}
    assert _size_switch_sites("def f(n):\n    def g():\n        return PER_FLOAT_BELOW\n") \
        == {("PER_FLOAT_BELOW", "g")}
    assert _size_switch_sites("def f(n):\n    return n >= BINOMIAL_FROM\n") \
        == {("BINOMIAL_FROM", "f")}
    assert _size_switch_sites("from .network import BINOMIAL_FROM, einsum\n") \
        == {("BINOMIAL_FROM", "<module>"), ("einsum", "<module>")}
    assert _size_switch_sites("from .network import BATCH_CHUNK_ROWS, mix\n") \
        == {("BATCH_CHUNK_ROWS", "<module>")}
    assert _size_switch_sites("def f(q0):\n    return network.BATCH_CHUNK_ROWS // len(q0)\n") \
        == {("BATCH_CHUNK_ROWS", "f")}
    assert _size_switch_sites("PER_FLOAT_BELOW = 8\nBATCH_CHUNK_ROWS = 200_000\n") == set()
    assert _size_switch_sites("'PER_FLOAT_BELOW and np.einsum in a docstring'\n") == set()


# The O(N^2) kernel that chooses between the per-float and array paths by
# agent count; every helper it calls has one path.
SIZE_SWITCHES = {"pinned_fusion_sweep"}
# The three that choose between the count fold and the Binomial kernel for
# tied networks: pinned_fusion_errors mixes the count pmf of the other N - 1
# locals, so it applies count_distribution's rule to that pmf and gives every
# agent the pinned pair of one kernel call.
BINOMIAL_SWITCHES = {"count_distribution", "tied_exact_risks", "pinned_fusion_errors"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_size_switch_only_in_network(path):
    """Only ``network``'s leave-one-out pass chooses between the per-float
    and array paths, and only ``count_distribution``, ``tied_exact_risks``
    and ``pinned_fusion_errors`` between the count fold and the Binomial
    kernel, so a change of either constant moves no other module and no helper. Only
    ``fusion_error_rates`` reads ``BATCH_CHUNK_ROWS``: it plans every pass
    of the batch kernels, so no caller bounds their tables with a copy of
    the rule. And no module sums with ``np.einsum``, whose SIMD order no
    per-float path can follow."""
    expected = set()
    if path.name == "network.py":
        expected = ({("PER_FLOAT_BELOW", kernel) for kernel in SIZE_SWITCHES}
                    | {("BINOMIAL_FROM", kernel) for kernel in BINOMIAL_SWITCHES}
                    | {("BATCH_CHUNK_ROWS", "fusion_error_rates")})
    assert _size_switch_sites(path.read_text()) == expected


MATRIX_PRODUCTS = ("dot", "matmul", "inner", "vdot")


def _matrix_product_sites(source):
    """(what, line) of each matrix product in ``source``: the ``@``
    operator (``"@"``, also as ``@=``), and each read of ``dot``,
    ``matmul``, ``inner`` or ``vdot`` as an attribute (``np.dot``,
    ``a.dot``), a name or an import."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.add(("@", node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr in MATRIX_PRODUCTS:
            found.add((node.attr, node.lineno))
        elif isinstance(node, ast.Name) and node.id in MATRIX_PRODUCTS \
                and isinstance(node.ctx, ast.Load):
            found.add((node.id, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            found.update((a.name, node.lineno) for a in node.names if a.name in MATRIX_PRODUCTS)
    return found


def test_matrix_product_sites_seen():
    assert _matrix_product_sites("def f(a, b):\n    return float(a[0] @ b)\n") == {("@", 2)}
    assert _matrix_product_sites("a @= b\n") == {("@", 1)}
    assert _matrix_product_sites("import numpy as np\nx = np.dot(a, b)\n") == {("dot", 2)}
    assert _matrix_product_sites("x = a.dot(b) + np.vdot(a, b)\n") == {("dot", 1), ("vdot", 1)}
    assert _matrix_product_sites("f = np.matmul\n") == {("matmul", 1)}
    assert _matrix_product_sites("from numpy import inner\ny = inner(a, b)\n") \
        == {("inner", 1), ("inner", 2)}
    assert _matrix_product_sites("x = a * b\ndot = 1\n'a @ b and np.dot in a docstring'\n") \
        == set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_matrix_products(path):
    """No module mixes with a matrix product: BLAS sums in its own blocked
    order, which neither ``network.mix``'s row sum nor any per-float path
    follows, so every exact risk comes from the one mix."""
    assert _matrix_product_sites(path.read_text()) == set()


def _unread_imports(source):
    """Each name an import in ``source`` binds that no expression of it
    reads (``import a.b`` binds ``a``)."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = [(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    return [name for name in bound if name not in read]


def test_unread_imports_seen():
    source = ("import os.path\nimport numpy as np\nfrom .network import a, b as c\n"
              "def f(x: a) -> None:\n    c = 1\n    return os.sep\n")
    assert _unread_imports(source) == ["np", "c"]
    assert _unread_imports("import sys\n'sys in a docstring'\n") == ["sys"]
    assert _unread_imports("from math import log\nprint(log)\n") == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_read(path):
    """A module reads every name it imports, as a linter's unused-import
    rule would check; the package ``__init__`` only re-exports, and
    ``test_public_api_is_pinned`` pins what it binds."""
    assert _unread_imports(path.read_text()) == []


def _reads_off_self(source, attr):
    """Line numbers of each read of ``.<attr>`` in ``source`` on anything
    but ``self``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == attr
                  and isinstance(node.ctx, ast.Load)
                  and not (isinstance(node.value, ast.Name) and node.value.id == "self"))


def _per_count_reads(source):
    """Line numbers of each read of ``.per_count`` in ``source`` on anything
    but ``self``: ``RiskReport``'s own ``repr``, ``==`` and ``hash`` read it
    as ``self.per_count``."""
    return _reads_off_self(source, "per_count")


def test_per_count_reads_seen():
    source = ("def f(report):\n    return report.per_count\n"
              "x = [lam for _, _, lam in exact_risk(c).per_count]\n"
              "def g(self):\n    return self.per_count\n"
              "per_count = 1\n'report.per_count in a docstring'\n")
    assert _per_count_reads(source) == [2, 3]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_cli_reads_per_count(path):
    """``RiskReport.per_count`` builds N + 1 tuples on each read, so library
    code reads the report's ``log_odds`` and ``thresholds`` arrays instead;
    only the CLI, which prints every count, builds the tuple."""
    assert _per_count_reads(path.read_text()) == []


def test_trace_reads_seen():
    source = ("def f(result):\n    return result.trace\n"
              "last = res.trace[-1]\n"
              "def g(self):\n    return self.trace\n"
              "trace = 1\n'result.trace in a docstring'\n")
    assert _reads_off_self(source, "trace") == [2, 3]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_cli_reads_trace(path):
    """``OptimizationResult.trace`` builds a tuple per sweep on each read,
    so library code reads the result's ``trace_array`` instead; only the
    CLI, which formats the rows, may build it."""
    assert _reads_off_self(path.read_text(), "trace") == []
