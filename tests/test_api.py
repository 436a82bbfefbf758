"""The public surface, and the entry points the benchmark tracer wraps.

The package exposes its modules, and each module's __all__ is its API, so
every public object has one name: its module's.  The checks below pin that
the package lists only its modules, that a module exports only what it
defines, and that every exported name has a caller: a reference in
src/pairdeploy/ or perfbench/ outside its own definition.  A name that
only the tests reach belongs in the tests.

perfbench/spans.py wraps each layer's entry points by name and skips a
name that no longer exists without an error, so a rename would silently
drop that layer from the benchmark's per-layer numbers.  The first test
makes such a rename fail here instead.

A source scan also keeps the library off numpy's ufunc.at, whose speed
depends on the numpy version.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pairdeploy

ROOT = Path(__file__).resolve().parents[1]

MODULES = ("sampling", "scheme", "graphs", "theory", "montecarlo", "cli")

TRACED = {
    "sampling": ("sample_pairing_block",),
    "graphs": ("connected_at",),
    "montecarlo": ("run_sweep", "run_keyring_census"),
    "theory": (
        "isolation_threshold",
        "maxring_critical_scale",
        "upper_tail_root",
        "decay_exponent",
        "isolation_prob_exact",
        "expected_isolated",
        "isolation_event_prob",
        "connectivity_union_bound",
        "connectivity_lower_bound_full",
        "maxring_tail_bound",
    ),
}


def test_public_names_and_traced_entry_points_resolve():
    missing = [name for name in pairdeploy.__all__ if not hasattr(pairdeploy, name)]
    for mod in MODULES:
        module = importlib.import_module(f"pairdeploy.{mod}")
        exported = getattr(module, "__all__", ())
        missing += [f"{mod}.{name}" for name in exported if not hasattr(module, name)]
    for mod, names in TRACED.items():
        module = importlib.import_module(f"pairdeploy.{mod}")
        for name in names:
            fn = getattr(module, name, None)
            if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                missing.append(f"{mod}.{name}")
    assert missing == []


def test_package_exposes_only_its_modules():
    expected = ["graphs", "montecarlo", "sampling", "scheme", "theory", "__version__"]
    assert sorted(pairdeploy.__all__) == sorted(expected)


def test_each_exported_name_is_defined_in_its_module():
    elsewhere = []
    for mod in MODULES:
        module = importlib.import_module(f"pairdeploy.{mod}")
        for name in getattr(module, "__all__", ()):
            obj = vars(module).get(name)
            defined_here = name in vars(module) and (
                not (inspect.isfunction(obj) or inspect.isclass(obj))
                or obj.__module__ == module.__name__
            )
            if not defined_here:
                elsewhere.append(f"{mod}.{name}")
    assert elsewhere == []


def referenced_names():
    """Identifiers referenced in src/pairdeploy/ and perfbench/ outside the
    definition of the same name: Name ids, attribute names and import
    aliases.  Strings, such as the entries of __all__, do not count."""
    names = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}.get(type(node))
        if field and getattr(node, field) not in defining:
            names.add(getattr(node, field))
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    for folder in ("src/pairdeploy", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            visit(ast.parse(path.read_text()), frozenset())
    return names


def test_every_exported_name_has_a_caller():
    referenced = referenced_names()
    uncalled = []
    for mod in MODULES:
        module = importlib.import_module(f"pairdeploy.{mod}")
        uncalled += [f"{mod}.{name}" for name in getattr(module, "__all__", ()) if name not in referenced]
    assert uncalled == []


def test_library_calls_no_ufunc_at():
    """No module calls a ufunc's unbuffered `.at` method, np.minimum.at for
    one: the package accepts numpy 1.24, where it is many times slower than
    from numpy 1.25 on, so a kernel that leans on it would be fast only on
    the newer numpy.  The kernels use gathers, assignments and plain ufuncs
    instead, which do not lean on that speedup."""
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src/pairdeploy").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "at"
    ]
    assert calls == []


def test_library_imports_no_test_only_package():
    """The test extras (pytest, scipy, mpmath) serve the suite alone: a fresh
    interpreter that imports the CLI, and with it every module, loads none.
    Nor does it load multiprocessing or concurrent.futures, which no run
    uses."""
    code = (
        "import sys, pairdeploy.cli; print(sorted(m for m in ('scipy', 'mpmath', 'pytest', "
        "'multiprocessing', 'concurrent.futures.process') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert result.stdout == "[]\n"


def test_library_leaves_the_allocator_alone():
    """Importing pairdeploy, running the library's Monte Carlo calls and the
    CLI's theory command load no C library: only the CLI's Monte Carlo
    commands set allocator thresholds, so a library caller keeps glibc's.
    numpy 2 imports ctypes itself, so the check watches ctypes.CDLL, not
    sys.modules."""
    code = (
        "import contextlib, ctypes, io, numpy\n"
        "calls = []\n"
        "ctypes.CDLL = lambda *args, **kwargs: calls.append(args)\n"
        "from pairdeploy import cli, montecarlo\n"
        "montecarlo.run_sweep(montecarlo.ExperimentPlan(n=50, k_values=(1, 2), gammas=(0.5, 1.0), trials=5))\n"
        "montecarlo.run_keyring_census(50, 2, 5)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['theory', '--r-gamma', '0.5']) == 0\n"
        "print(calls)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['sweep', '--n', '50', '--k', '1', '--gamma', '1.0', '--trials', '5']) == 0\n"
        "print(calls)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60, check=True,
    )
    # the CLI sweep shows that the watch sees a call when one is made
    assert result.stdout == "[]\n[(None,)]\n"
