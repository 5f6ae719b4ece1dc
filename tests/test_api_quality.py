"""API-quality gates: the public surface stays documented and importable.

These meta-tests keep the library honest as it grows: every module under
``repro`` imports cleanly, every ``__all__`` name resolves, and every
public function/class/method carries a docstring.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

MODULES = sorted(
    name for _, name, _ in pkgutil.walk_packages(repro.__path__, "repro.")
    # __main__ runs the CLI (and exits) on import, by design.
    if not name.endswith("__main__")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports_and_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name",
                         [m for m in MODULES if m.endswith("__init__") is False])
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists {name}"


def _public_callables():
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if getattr(obj, "__module__", None) != module_name:
                continue  # re-exports documented at their home module
            yield module_name, name, obj


def test_every_public_callable_documented():
    undocumented = [
        f"{mod}.{name}"
        for mod, name, obj in _public_callables()
        if not inspect.getdoc(obj)
    ]
    assert not undocumented, f"missing docstrings: {undocumented}"


def test_every_public_method_documented():
    undocumented = []
    for mod, cls_name, obj in _public_callables():
        if not inspect.isclass(obj):
            continue
        for name, member in vars(obj).items():
            if name.startswith("_") or not inspect.isfunction(member):
                continue
            if not inspect.getdoc(member):
                undocumented.append(f"{mod}.{cls_name}.{name}")
    assert not undocumented, f"missing docstrings: {undocumented}"


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name)


#: Packages whose flows have exactly one code path.  Kernel entry points
#: (``analyze``, ``AgingAnalyzer.gate_shifts``...) and
#: ``netlist.random_logic`` live elsewhere and keep their ``engine``.
SINGLE_PATH_PACKAGES = ("repro.flow", "repro.ivc", "repro.variation",
                        "repro.sleep")


def test_flows_take_no_engine():
    """No public function, class or method of a flow package takes an
    ``engine`` parameter: each flow is pinned by its golden fixture."""
    def signatures(name, obj):
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member

    offenders = []
    for mod, name, obj in _public_callables():
        if not any(mod == pkg or mod.startswith(pkg + ".")
                   for pkg in SINGLE_PATH_PACKAGES):
            continue
        for qualname, fn in signatures(name, obj):
            try:
                params = inspect.signature(fn).parameters
            except (TypeError, ValueError):
                continue
            if "engine" in params:
                offenders.append(f"{mod}.{qualname}")
    assert not offenders, f"flows with an engine switch: {offenders}"


#: The only modules that may decide whether a context covers a call:
#: the resolver itself, and the platform's own adoption policy.
CONTEXT_RULE_MODULES = ("context.py", "flow/platform.py")


def _context_binding_compares(tree):
    """Line numbers of comparisons reading a context's circuit, library
    or model (``context.library is library``, ``ctx.model == model``)."""
    def is_binding(node):
        return (isinstance(node, ast.Attribute)
                and node.attr in ("circuit", "library", "model")
                and isinstance(node.value, ast.Name)
                and ("context" in node.value.id or "ctx" in node.value.id))

    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Compare)
                  and any(is_binding(side)
                          for side in [node.left, *node.comparators]))


def test_one_context_rule():
    """Only the resolver (``repro.context.context_for`` with
    ``AnalysisContext.covers``) decides whether a caller's context
    covers a call; every other module asks it."""
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel in CONTEXT_RULE_MODULES:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{rel}:{line}"
                      for line in _context_binding_compares(tree)]
    assert not offenders, f"coverage decided outside the resolver: {offenders}"
