"""Static checks on the package's and the tests' syntax trees.

No linter ships with the project, so these walk each module's syntax tree:
- every name a module imports is read in that module, in the package and
  in the tests alike; ``__init__.py`` is left out, because its imports are
  the package's re-exports;
- every top-level function or class of the package, and every method or
  property of a package class other than a dunder, is referenced somewhere
  in the package other than at its own definition, or is a public name in
  ``faultnet.__all__``; a function's own variable of the same name, read
  in that function or one nested in it, does not count, nor does a read
  through a local list, set or dict, such as ``candidates.remove(e)``,
  and a read through a receiver whose class the source states, such as
  ``counts = Boundary(g)`` and then ``counts.add(e)``, counts for that
  class alone.  Code that only tests call belongs in the tests;
- every backticked dotted name in ``README.md``, such as ``graph.boundary``
  or ``faultnet.cuts``, resolves to a package module or attribute;
- the counter names that the package passes to ``trace.count`` are the
  ones that the catalogue in ``faultnet.trace``'s docstring lists;
- every module-level ``functools.cache`` or ``lru_cache`` decorator sets
  an integer ``maxsize``, or its function is in ``UNBOUNDED_CACHES``, whose
  keys are bounded by ``MAX_SWEEP_N``;
- no module imports or reads a name that ``BANNED_NAMES`` keeps out of it;
- no function of the package has a parameter that takes a ``Boundary`` or
  None: a kernel helper takes the Boundary its caller owns, and never
  builds one of its own.
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


def _names(node, attributes_only: bool = False, skip=frozenset()) -> list[str]:
    """Every name that the code under ``node`` reads as an attribute and,
    unless ``attributes_only``, as a variable, leaving out the attribute
    reads in ``skip``."""
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    return [
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, kinds) and sub not in skip
    ]


CONTAINERS = {"list", "set", "dict"}
CONTAINER = "<container>"  # the receiver kind of a list, set or dict
CONTAINER_CALLS = CONTAINERS | {"sorted", "bytearray"}
CONTAINER_VALUES = (ast.List, ast.Set, ast.Dict, ast.ListComp, ast.SetComp, ast.DictComp)
SCOPES = (*FUNCTIONS, ast.Lambda, ast.ClassDef)


def _builds_container(value) -> bool:
    """Is the expression a list, set or dict display, a comprehension, or
    a ``list``, ``set``, ``dict``, ``sorted`` or ``bytearray`` call?"""
    if isinstance(value, CONTAINER_VALUES):
        return True
    return isinstance(value, ast.Call) and getattr(value.func, "id", None) in CONTAINER_CALLS


def _container_annotation(annotation) -> bool:
    """Is the annotation ``list``, ``set`` or ``dict``, subscripted or not?"""
    base = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return getattr(base, "id", None) in CONTAINERS


def _own_nodes(scope):
    """The nodes of a module's or function's own code: a nested function,
    lambda or class is among them, but not its body."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _bindings(node):
    """(target, value) of each target that an assignment binds.  A tuple
    or list target takes a display of as many values element by element;
    its elements get None against any other value."""
    if isinstance(node, ast.Assign):
        targets, value = node.targets, node.value
    elif isinstance(node, ast.AnnAssign):
        targets, value = [node.target], node.value
    else:
        return
    for target in targets:
        if not isinstance(target, (ast.Tuple, ast.List)):
            yield target, value
        elif isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(target.elts):
            yield from zip(target.elts, value.elts)
        else:
            yield from ((elt, None) for elt in target.elts)


def _instance_attribute(node, me) -> str | None:
    """``name`` when the node is ``me.name``, else None."""
    if me is not None and isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == me:
        return node.attr
    return None


def _named(node) -> str | None:
    """The name an annotation or a callee spells: ``Boundary``,
    ``cuts.Boundary`` or ``"Boundary"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _stated_kind(annotation, classes) -> str | None:
    """The receiver kind an annotation states: ``CONTAINER`` for ``list``,
    ``set`` or ``dict``, subscripted or not, or the package class it
    names."""
    if annotation is None:
        return None
    if _container_annotation(annotation):
        return CONTAINER
    name = _named(annotation)
    return name if name in classes else None


def package_kinds(trees) -> tuple[frozenset, dict]:
    """(classes, makers) of the package's syntax trees: the names of its
    top-level classes, and {callable: kind} for each class, whose call
    makes one of its own, and each top-level function whose return
    annotation states a kind (:func:`_stated_kind`)."""
    classes = frozenset(
        stmt.name for tree in trees for stmt in tree.body if isinstance(stmt, ast.ClassDef)
    )
    makers = {name: name for name in classes}
    for tree in trees:
        for stmt in tree.body:
            kind = _stated_kind(stmt.returns, classes) if isinstance(stmt, FUNCTIONS) else None
            if kind is not None:
                makers[stmt.name] = kind
    return classes, makers


def _agreed(bound: dict) -> dict:
    """{name: kind} of the names in ``bound``, {name: set of kinds}, that
    every binding gives one kind, None standing for no known kind."""
    return {
        name: next(iter(kinds))
        for name, kinds in bound.items()
        if len(kinds) == 1 and None not in kinds
    }


def _typed_targets(nodes, package, attrs: dict, me) -> tuple[dict, set]:
    """({target: kind} of the targets whose binding states a kind, AugAssign
    targets) among the nodes.  A binding states the kind that its
    annotation states (:func:`_stated_kind`), ``CONTAINER`` when its value
    builds a container (:func:`_builds_container`), the kind of a package
    maker its value calls (:func:`package_kinds`), or the kind in ``attrs``
    of ``me.name`` when that is its value."""
    classes, makers = package
    kinds, skipped = {}, set()
    for node in nodes:
        stated = _stated_kind(node.annotation, classes) if isinstance(node, ast.AnnAssign) else None
        for target, value in _bindings(node):
            if stated is not None:
                kind = stated
            elif _builds_container(value):
                kind = CONTAINER
            elif isinstance(value, ast.Call):
                kind = makers.get(_named(value.func))
            else:
                kind = attrs.get(_instance_attribute(value, me))
            if kind is not None:
                kinds[target] = kind
        if isinstance(node, ast.AugAssign):
            skipped.add(node.target)
    return kinds, skipped


def _instance_name(method) -> str | None:
    """The name of a method's first parameter, the instance or, in a class
    method, the class; None for a static method, or one with no
    parameter."""
    decorators = {getattr(d, "id", None) for d in method.decorator_list}
    if not method.args.args or "staticmethod" in decorators:
        return None
    return method.args.args[0].arg


def _attribute_kinds(cls: ast.ClassDef, package) -> dict:
    """{attribute: kind} of the attributes that the class's methods bind on
    their first parameter, when every such binding states one kind."""
    bound: dict[str, set] = {}
    for method in cls.body:
        me = _instance_name(method) if isinstance(method, FUNCTIONS) else None
        if me is None:
            continue
        nodes = list(ast.walk(method))
        typed, skipped = _typed_targets(nodes, package, {}, None)
        for node in nodes:
            name = _instance_attribute(node, me)
            if name is not None and isinstance(node.ctx, ast.Store) and node not in skipped:
                bound.setdefault(name, set()).add(typed.get(node))
    return _agreed(bound)


def _parameters(scope) -> set:
    """The names of a function's or lambda's parameters."""
    args = scope.args
    every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    return {arg.arg for arg in every if arg is not None}


def local_reads(scope, local=frozenset()) -> list:
    """The ``Name`` nodes under ``scope`` that name a variable of a
    function around them: a parameter of that function, or a name that an
    assignment or a nested ``def`` or ``class`` binds in it, read there or
    in a function nested in it.  ``local`` holds the variables of the
    functions that enclose ``scope``; a class body's names do not reach
    its methods.  An import binds no variable here, since it refers to
    what it imports."""
    nodes = list(_own_nodes(scope))
    if isinstance(scope, (*FUNCTIONS, ast.Lambda)):
        local = local | _parameters(scope)
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                local |= {node.id}
            elif isinstance(node, DEFINITIONS):
                local |= {node.name}
    found = [node for node in nodes if isinstance(node, ast.Name) and node.id in local]
    for node in nodes:
        if isinstance(node, SCOPES):
            found += local_reads(node, local)
    return found


def receiver_kinds(scope, package, outer: dict, attrs: dict, me=None) -> dict:
    """{attribute read: kind} of the attribute reads under ``scope`` whose
    receiver has a known kind: ``CONTAINER`` for a list, set or dict, or
    the name of a package class.  ``package`` is :func:`package_kinds`.

    A local has the kind that every one of its bindings states
    (:func:`_typed_targets`), a parameter the kind its annotation states.
    A name that the scope does not bind keeps the kind it has in
    ``outer``, the kinds of the enclosing functions; a class body's names
    do not reach its methods.  In a method, and the functions nested in
    it, ``me`` names the instance (in a class method, the class), whose
    kind is the class, and ``attrs`` the kinds of the attributes that the
    class binds on it (:func:`_attribute_kinds`): a read through such an
    attribute, ``self.columns.get(...)``, or through a local copied from
    it, ``columns = self.columns`` and then ``columns.get(...)``, has that
    kind.  A read through a container, say ``candidates.remove(e)``,
    calls the container's method, and a read through a package class's
    instance calls that class's method, not a package method of the same
    name on another class."""
    nodes = list(_own_nodes(scope))
    typed, skipped = _typed_targets(nodes, package, attrs, me)
    bound: dict[str, set] = {}
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node not in skipped:
                bound.setdefault(node.id, set()).add(typed.get(node))
        elif isinstance(node, ast.arg) and node.arg != me:
            bound.setdefault(node.arg, set()).add(_stated_kind(node.annotation, package[0]))
        elif isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            bound.setdefault(node.name, set()).add(None)
    kinds = {name: kind for name, kind in outer.items() if name not in bound} | _agreed(bound)
    found = {}
    for node in nodes:
        if isinstance(node, ast.Attribute):
            receiver = node.value
            if isinstance(receiver, ast.Name):
                kind = kinds.get(receiver.id)
            else:
                kind = attrs.get(_instance_attribute(receiver, me))
            if kind is not None:
                found[node] = kind
    inner = outer if isinstance(scope, ast.ClassDef) else kinds
    for node in nodes:
        if isinstance(node, ast.ClassDef):
            found |= receiver_kinds(node, package, inner, _attribute_kinds(node, package))
        elif isinstance(scope, ast.ClassDef) and isinstance(node, FUNCTIONS):
            instance = _instance_name(node)
            own = inner if instance is None else {**inner, instance: scope.name}
            found |= receiver_kinds(node, package, own, attrs, instance)
        elif isinstance(node, SCOPES):
            found |= receiver_kinds(node, package, inner, attrs, None if me in _parameters(node) else me)
    return found


def unreferenced(sources: list[str], public) -> list[str]:
    """Top-level functions and classes of the given modules, and the
    methods and properties of those classes other than dunders, as
    ``Class.method``, that no code outside their own definition names, and
    that ``public`` does not list.  A top-level name counts when read as a
    variable or as an attribute, a method only as an attribute, since a
    variable of the same name is not a call of it.  A function's own
    variable does not count for the top-level name it shadows, in that
    function or one nested in it (:func:`local_reads`).  An attribute read
    whose receiver is a list, set or dict (:func:`receiver_kinds`) is not a
    reference, one whose receiver's class is known counts for that class
    alone, and any other counts for every class.  Imports are not
    references."""
    trees = [ast.parse(source) for source in sources]
    package = package_kinds(trees)
    top, methods = [], []
    seen = Counter()
    reads: dict[str, list] = {}  # attribute -> [(read, receiver kind or None)]
    for tree in trees:
        kinds = receiver_kinds(tree, package, {}, {})
        skip = {node for node, kind in kinds.items() if kind == CONTAINER}
        skip.update(local_reads(tree))
        seen.update(_names(tree, skip=skip))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node not in skip:
                reads.setdefault(node.attr, []).append((node, kinds.get(node)))
        for stmt in tree.body:
            if not isinstance(stmt, DEFINITIONS):
                continue
            top.append(stmt.name)
            seen.subtract(name for name in _names(stmt, skip=skip) if name == stmt.name)
            if isinstance(stmt, ast.ClassDef):
                methods += [
                    (stmt.name, item)
                    for item in stmt.body
                    if isinstance(item, FUNCTIONS)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                ]

    def called(cls: str, method) -> bool:
        own = set(ast.walk(method))
        return any(
            kind in (None, cls) and node not in own for node, kind in reads.get(method.name, ())
        )

    orphans = [name for name in top if seen[name] <= 0] + [
        f"{cls}.{method.name}" for cls, method in methods if not called(cls, method)
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
    # through an attribute; ``shadowed`` is never called, only shadowed by
    # a parameter and by a local that a nested function reads; ``Public``
    # is listed as public.  Of its methods, ``lonely`` calls only itself,
    # ``used`` is read through an instance, ``spare`` is a property that
    # no code reads, only a variable of its name, and ``__len__`` is a
    # dunder.
    lib = (
        "def orphan(n):\n    return orphan(n - 1) if n else 0\n\n"
        "def helper():\n    return 1\n\n"
        "def shadowed():\n    return 3\n\n"
        "class Public:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def lonely(self, n):\n        return self.lonely(n - 1) if n else 0\n\n"
        "    def used(self):\n        return 2\n\n"
        "    @property\n    def spare(self):\n        return self.used()\n"
    )
    user = (
        "from . import lib\n\n"
        "def run(spare):\n    return lib.helper() + lib.Public().used() + spare\n\n"
        "def given(shadowed):\n    return shadowed\n\n"
        "def kept(n):\n    shadowed = n + 1\n\n"
        "    def inner():\n        return shadowed\n\n"
        "    return inner()\n"
    )
    users = {"Public", "run", "given", "kept"}
    orphans = ["orphan", "shadowed", "Public.lonely", "Public.spare"]
    assert unreferenced([lib, user], public=users) == orphans
    assert unreferenced([lib, user], public=users | set(orphans)) == []
    # A call of the top-level function from a function of its own counts.
    called = user + "\ndef call():\n    return lib.shadowed()\n"
    assert unreferenced([lib, called], public=users | {"call"}) == [o for o in orphans if o != "shadowed"]


def test_checker_ignores_container_methods():
    # ``Boundary.remove`` and ``Boundary.get`` share their names with
    # container methods, and every read of them below has a local list, set
    # or dict as its receiver, so none is a call of them.  ``Boundary.add``
    # and ``_UnionFind.find`` and ``union`` are called through locals that
    # hold no container.
    lib = (
        "class Boundary:\n"
        "    def add(self, eid):\n        pass\n\n"
        "    def remove(self, eid):\n        pass\n\n"
        "    def get(self, eid):\n        pass\n\n"
        "class _UnionFind:\n"
        "    def find(self, x):\n        return x\n\n"
        "    def union(self, a, b):\n        pass\n"
    )
    user = (
        "from .lib import Boundary, _UnionFind\n\n"
        "def cover(ground, chosen: set, rows: list[int]):\n"
        "    candidates = sorted(ground)\n"
        "    candidates.remove(1)\n"
        "    chosen.remove(2)\n"
        "    rows.remove(3)\n"
        "    kept = [e for e in ground]\n"
        "    kept.remove(4)\n"
        "    picks: list = []\n"
        "    picks.remove(5)\n"
        "    pool = set()\n"
        "    pool.remove(6)\n"
        "    table = {}\n"
        "    table.get(7)\n"
        "    marks = bytearray(3)\n"
        "    marks.remove(0)\n"
        "    counts = Boundary()\n"
        "    counts.add(8)\n"
        "    uf = _UnionFind()\n"
        "    uf.union(uf.find(9), 10)\n\n"
        "    def undo():\n"
        "        candidates.remove(11)\n\n"
        "    return undo\n"
    )
    assert unreferenced([lib, user], public={"cover"}) == ["Boundary.remove", "Boundary.get"]
    # A local bound to something else as well may hold a Boundary: its
    # ``remove`` read counts.
    rebound = "def f(g):\n    x = []\n    x = g.boundary()\n    x.remove(1)\n"
    assert unreferenced([lib, user, rebound], public={"cover", "f"}) == ["Boundary.get"]
    # An attribute that the class binds to a dict alone, read directly or
    # through a local copied from it, as ``exact._Packing.bound`` reads
    # ``columns = self.columns`` in a tuple assignment, is a container
    # receiver in every method and in the functions nested in them.
    packing = (
        "class _Packing:\n"
        "    def __init__(self):\n"
        "        self.columns: dict = {}\n"
        "        self.width = 0\n\n"
        "    def bound(self, low):\n"
        "        columns, width = self.columns, self.width\n"
        "        col = columns.get(low)\n"
        "        if col is None:\n"
        "            col = self.columns.get(width)\n\n"
        "        def later():\n"
        "            return columns.get(1), self.columns.get(2)\n\n"
        "        return col, later\n"
    )
    run = "from .packing import _Packing\n\ndef run(g):\n    p = _Packing()\n    p.reset(g)\n    return p.bound(1)\n"
    assert unreferenced([lib, user, packing, run], public={"cover", "run"}) == ["Boundary.remove", "Boundary.get"]
    # Once a method binds it to something else as well, it may hold a
    # Boundary, and all four ``get`` reads count.
    reset = "\n    def reset(self, g):\n        self.columns = g.boundary()\n"
    for read in ("columns.get(low)", "self.columns.get(width)", "columns.get(1), ", "self.columns.get(2)"):
        assert read in packing
    assert unreferenced([lib, user, packing + reset, run], public={"cover", "run"}) == ["Boundary.remove"]
    # A nested function whose own parameter shadows the instance reads its
    # own ``self``.
    shadow = packing.replace("def later():", "def later(self):")
    assert unreferenced([lib, user, shadow, run], public={"cover", "run"}) == ["Boundary.remove"]


def test_checker_resolves_a_receivers_class():
    # Two dead methods that a live one of the same name hid from a guard
    # that matched reads by attribute name: ``Boundary.remove`` behind
    # ``list.remove``, here on the list a package function is annotated to
    # return, and ``Boundary.exactly`` behind ``Layout.exactly``, read
    # through a local bound by ``layout_of``, annotated to return a Layout,
    # as ``oracles._relative_classes`` reads it.
    lib = (
        "class Layout:\n"
        "    def exactly(self, counts, c):\n        return counts == c\n\n"
        "class Boundary:\n"
        "    def __init__(self, g):\n        self.layout = layout_of(g)\n\n"
        "    def add(self, eid):\n        pass\n\n"
        "    def remove(self, eid):\n        pass\n\n"
        "    def exactly(self, c):\n        return c\n\n"
        "def layout_of(g) -> Layout:\n    return Layout()\n\n"
        "def masks(n) -> list[int]:\n    return list(range(n))\n"
    )
    user = (
        "from .lib import Boundary, Layout, layout_of, masks\n\n"
        "def cover(g, n):\n"
        "    counts = Boundary(g)\n"
        "    counts.add(1)\n"
        "    picks = masks(n)\n"
        "    picks.remove(2)\n"
        "    lay = layout_of(g)\n"
        "    return lay.exactly(3, 4)\n"
    )
    dead = ["Boundary.remove", "Boundary.exactly"]
    assert unreferenced([lib, user], public={"cover"}) == dead
    # A constructor call, a local's annotation and a parameter's state a
    # class just as the annotated return does.
    for source in (
        user.replace("lay = layout_of(g)", "lay = Layout()"),
        user.replace("lay = layout_of(g)", "lay: Layout = g.layout"),
        user.replace("(g, n):", "(g, n, lay: 'Layout'):").replace("    lay = layout_of(g)\n", ""),
    ):
        assert unreferenced([lib, source], public={"cover"}) == dead
    # In a class's own methods the instance and, in a class method, the
    # class have the class's kind, and so does an attribute that it binds
    # to an instance of one: ``self.remove`` and ``cls.make`` read Pool's
    # methods, ``self.layout.exactly`` Layout's.
    pool = (
        "from .lib import layout_of\n\n"
        "class Pool:\n"
        "    def __init__(self, g):\n        self.layout = layout_of(g)\n\n"
        "    @classmethod\n    def make(cls, g):\n        return cls(g)\n\n"
        "    @classmethod\n    def empty(cls, g):\n        return cls.make(g)\n\n"
        "    def drop(self, x):\n        self.remove(x)\n        return self.layout.exactly(x, 0)\n\n"
        "    def remove(self, x):\n        pass\n"
    )
    assert unreferenced([lib, user, pool], public={"cover", "Pool"}) == [
        *dead, "Pool.empty", "Pool.drop"
    ]
    # A read through a receiver of no known kind counts for every class:
    # the receiver of ``x.remove`` may be a Boundary, and the local bound
    # to an attribute of one is not resolved.
    loose = "def loose(x, counts):\n    x.remove(5)\n    lay = counts.layout\n    return lay.exactly(6)\n"
    assert unreferenced([lib, user, loose], public={"cover", "loose"}) == []


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


# Names kept out of a module, each with why.  A name counts as imported
# under any alias, and as read through any module attribute.
DERIVED_IN_ORACLES = "cut sets are derived, and decoded into edge sets, in oracles"
BANNED_NAMES = {
    "exact.py": {
        "expand_rsndp_to_bulk": "the search reads relative requirements as cut "
        "classes and lists no failure set",
        "_cut_boundaries": DERIVED_IN_ORACLES,
        "masks": DERIVED_IN_ORACLES,
        "boundary": DERIVED_IN_ORACLES,
        "separating": DERIVED_IN_ORACLES,
    },
    "bulk.py": {
        "_cut_boundaries": DERIVED_IN_ORACLES,
        "masks": DERIVED_IN_ORACLES,
        "boundary": DERIVED_IN_ORACLES,
        "separating": DERIVED_IN_ORACLES,
    },
    "lp.py": {
        "expand_rsndp_to_bulk": "a relative LP must relax the cut classes, not "
        "the failure-set expansion",
    },
}


def reached_names(source: str) -> set:
    """The names the module's imports bind before any ``as``, and the
    names it reads as attributes."""
    tree = ast.parse(source)
    names = set(_names(tree, attributes_only=True))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_checker_sees_a_banned_name():
    for source in (
        "from .oracles import Problem, expand_rsndp_to_bulk as expand\n",
        "from . import oracles\n\nscenarios = oracles.expand_rsndp_to_bulk(g, reqs)\n",
    ):
        assert "expand_rsndp_to_bulk" in reached_names(source)
    assert "expand_rsndp_to_bulk" not in reached_names("from .oracles import Problem\n")


@pytest.mark.parametrize("name", sorted(BANNED_NAMES))
def test_banned_names_stay_out(name):
    path = Path(faultnet.__file__).parent / name
    assert set(BANNED_NAMES[name]) & reached_names(path.read_text(encoding="utf-8")) == set()


def union_parts(node) -> set:
    """The names that an annotation joins with ``|``, ``Optional`` or
    ``Union``, "None" for None: {"Boundary", "None"} for ``Boundary |
    None``.  A dotted name counts by its last part, a string annotation by
    what it parses to, and a subscript other than those two by its base."""
    if node is None:
        return set()
    if isinstance(node, ast.Constant):
        if isinstance(node.value, str):
            return union_parts(ast.parse(node.value, mode="eval").body)
        return {"None"} if node.value is None else set()
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return union_parts(node.left) | union_parts(node.right)
    if isinstance(node, ast.Subscript):
        base = union_parts(node.value)
        if base & {"Optional", "Union"}:
            args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
            parts = set().union(*(union_parts(arg) for arg in args))
            return parts | {"None"} if "Optional" in base else parts
        return base
    return set(_names(node)[:1])


def optional_boundaries(source: str) -> list[str]:
    """``function(parameter)`` for each parameter of a function of the
    module, nested ones too, that takes a ``Boundary`` or None: annotated
    as a union of the two, or as a Boundary with a None default."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, FUNCTIONS):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
        for arg, default in zip(positional + args.kwonlyargs, defaults + args.kw_defaults):
            parts = union_parts(arg.annotation)
            if isinstance(default, ast.Constant) and default.value is None:
                parts.add("None")
            if {"Boundary", "None"} <= parts:
                found.append(f"{node.name}({arg.arg})")
    return found


def test_checker_sees_an_optional_boundary():
    source = (
        "def a(g, counts: Boundary | None = None):\n    pass\n\n"
        "def b(g, counts: 'Optional[cuts.Boundary]'):\n    pass\n\n"
        "def c(g, /, counts: Boundary = None):\n    pass\n\n"
        "def d(g, *, whole: None | Boundary):\n    pass\n\n"
        "def e(counts: Boundary, n: int | None = None,\n"
        "      violating: Callable[[frozenset, Boundary | None], list] = None):\n    pass\n\n"
        "def f(g):\n"
        "    def inner(H, counts: Union[Boundary, None] = None):\n        pass\n"
        "    return inner\n"
    )
    assert sorted(optional_boundaries(source)) == [
        "a(counts)", "b(counts)", "c(counts)", "d(whole)", "inner(counts)"
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_optional_boundary_parameters(path):
    assert optional_boundaries(path.read_text(encoding="utf-8")) == []
