"""Static checks on the package's and the tests' syntax trees.

No linter ships with the project, so these walk each module's syntax tree:
- every name a module imports is read in that module, in the package and
  in the tests alike; ``__init__.py`` is left out, because its imports are
  the package's re-exports;
- every top-level function or class of the package, and every method or
  property of a package class other than a dunder, is referenced somewhere
  in the package other than at its own definition, or is a public name in
  ``faultnet.__all__``.  Code that only tests call belongs in the tests;
- every backticked dotted name in ``README.md``, such as ``graph.boundary``
  or ``faultnet.cuts``, resolves to a package module or attribute;
- the counter names that the package passes to ``trace.count`` are the
  ones that the catalogue in ``faultnet.trace``'s docstring lists;
- every module-level ``functools.cache`` or ``lru_cache`` decorator sets
  an integer ``maxsize``, or its function is in ``UNBOUNDED_CACHES``, whose
  keys are bounded by ``MAX_SWEEP_N``.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

import faultnet

PACKAGE = sorted(Path(faultnet.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]
TESTS = sorted(Path(__file__).parent.glob("*.py"))
README = Path(__file__).parent.parent / "README.md"
DOTTED_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
CATALOGUE_ENTRY = re.compile(r"^- ``([\w.]+)``:", re.MULTILINE)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def _names(node, attributes_only: bool = False) -> list[str]:
    """Every name that the code under ``node`` reads as an attribute and,
    unless ``attributes_only``, as a variable."""
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    return [
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, kinds)
    ]


def unreferenced(sources: list[str], public) -> list[str]:
    """Top-level functions and classes of the given modules, and the
    methods and properties of those classes other than dunders, that no
    code outside their own definition names, and that ``public`` does not
    list.  A top-level name counts when read as a variable or as an
    attribute, a method only as an attribute, since a variable of the same
    name is not a call of it.  Imports are not references."""
    top, methods = [], []
    seen, attributes = Counter(), Counter()
    for source in sources:
        tree = ast.parse(source)
        seen.update(_names(tree))
        attributes.update(_names(tree, attributes_only=True))
        for stmt in tree.body:
            if not isinstance(stmt, DEFINITIONS):
                continue
            top.append(stmt.name)
            seen.subtract(name for name in _names(stmt) if name == stmt.name)
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, FUNCTIONS) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        methods.append(item.name)
                        attributes.subtract(
                            name for name in _names(item, attributes_only=True) if name == item.name
                        )
    orphans = [name for name in top if seen[name] <= 0] + [
        name for name in methods if attributes[name] <= 0
    ]
    return [name for name in orphans if name not in public]


def test_checker_sees_an_unused_import():
    source = "import heapq\nfrom typing import Callable, Sequence\nx: Sequence = heapq.nlargest\n"
    assert unused_imports(source) == ["Callable"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_sees_an_orphan():
    # ``orphan`` calls only itself; ``helper`` is called from another module
    # through an attribute; ``Public`` is listed as public.  Of its methods,
    # ``lonely`` calls only itself, ``used`` is read through an instance,
    # ``spare`` is a property that no code reads, only a variable of its
    # name, and ``__len__`` is a dunder.
    lib = (
        "def orphan(n):\n    return orphan(n - 1) if n else 0\n\n"
        "def helper():\n    return 1\n\n"
        "class Public:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def lonely(self, n):\n        return self.lonely(n - 1) if n else 0\n\n"
        "    def used(self):\n        return 2\n\n"
        "    @property\n    def spare(self):\n        return self.used()\n"
    )
    user = (
        "from . import lib\n\n"
        "def run(spare):\n    return lib.helper() + lib.Public().used() + spare\n"
    )
    assert unreferenced([lib, user], public={"Public", "run"}) == ["orphan", "lonely", "spare"]
    assert unreferenced([lib, user], public={"Public", "run", "orphan", "lonely", "spare"}) == []


def test_package_code_has_a_package_caller():
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE]
    assert unreferenced(sources, public=set(faultnet.__all__)) == []


def resolves(name: str) -> bool:
    """Is the dotted name a package module or attribute?  A name not
    starting with ``faultnet`` is read inside the package."""
    parts = name.split(".")
    if parts[0] != "faultnet":
        parts.insert(0, "faultnet")
    obj = faultnet
    for depth, part in enumerate(parts[1:], 2):
        try:
            obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(
                ".".join(parts[:depth])
            )
        except ImportError:
            return False
    return True


def unresolved_names(text: str) -> list[str]:
    """Backticked dotted names in ``text`` that do not resolve."""
    return [name for name in sorted(set(DOTTED_NAME.findall(text))) if not resolves(name)]


def test_checker_sees_a_stale_name():
    text = (
        "Cuts go to `graph.boundary` in `faultnet.cuts`; "
        "`graph.gone`, `faultnet.nowhere` and `simplex.DualReoptimizer.gone` do not exist."
    )
    assert unresolved_names(text) == [
        "faultnet.nowhere", "graph.gone", "simplex.DualReoptimizer.gone"
    ]


def test_readme_names_resolve():
    text = README.read_text(encoding="utf-8")
    assert DOTTED_NAME.findall(text)
    assert unresolved_names(text) == []


def counter_names(source: str) -> set:
    """The first arguments of the module's ``trace.count`` calls; one that
    is not a string literal reads as None."""
    return {
        node.args[0].value if isinstance(node.args[0], ast.Constant) else None
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "count"
        and getattr(node.func.value, "id", None) == "trace"
    }


def test_checker_sees_a_counter():
    source = 'trace.count("a.b", 2)\ntrace.count(name)\nlayout.count(x, 0)\n'
    assert counter_names(source) == {"a.b", None}


def test_counters_match_the_trace_catalogue():
    counted = set().union(*(counter_names(path.read_text(encoding="utf-8")) for path in MODULES))
    catalogue = set(CATALOGUE_ENTRY.findall(faultnet.trace.__doc__))
    assert "exact.nodes" in counted and "exact.nodes" in catalogue  # both still match
    assert counted == catalogue


# Module-level caches without an integer maxsize, each with why its keys
# are bounded: every one is keyed by n <= MAX_SWEEP_N.
UNBOUNDED_CACHES = {
    "cuts.side": "keyed by n alone: at most MAX_SWEEP_N entries",
    "cover._orientation": "keyed by n and an orientation vertex or None: "
    "at most MAX_SWEEP_N * (MAX_SWEEP_N + 1) entries",
}
CACHE_DECORATORS = {"cache", "lru_cache"}


def unbounded_caches(source: str) -> list[str]:
    """Module-level functions whose ``cache`` or ``lru_cache`` decorator,
    bare or through ``functools``, sets no integer ``maxsize``."""
    found = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, FUNCTIONS):
            continue
        for deco in stmt.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            target = call.func if call else deco
            name = getattr(target, "id", None) or getattr(target, "attr", None)
            if name not in CACHE_DECORATORS:
                continue
            sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"] if call else []
            if call and call.args:
                sizes.append(call.args[0])
            bounded = name == "lru_cache" and any(
                isinstance(size, ast.Constant) and type(size.value) is int for size in sizes
            )
            if not bounded:
                found.append(stmt.name)
    return found


def test_checker_sees_an_unbounded_cache():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n\n"
        "@cache\ndef a(n):\n    return n\n\n"
        "@lru_cache(maxsize=None)\ndef b(n):\n    return n\n\n"
        "@functools.cache\ndef c(n):\n    return n\n\n"
        "@lru_cache(maxsize=16)\ndef d(n):\n    return n\n\n"
        "@functools.lru_cache(8)\ndef e(n):\n    return n\n\n"
        "@lru_cache\ndef f(n):\n    return n\n"
    )
    assert unbounded_caches(source) == ["a", "b", "c", "f"]


def test_module_caches_are_bounded():
    found = {
        f"{path.stem}.{name}"
        for path in MODULES
        for name in unbounded_caches(path.read_text(encoding="utf-8"))
    }
    assert found == set(UNBOUNDED_CACHES)
