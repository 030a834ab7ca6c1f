"""Instance files: a diff-friendly text format plus the built-in generators.

Format (UTF-8, line-oriented, canonical field order)::

    faultnet-instance 1
    vertices 5
    edges 9
    e 0 0 2 0.5 unsafe          # id u v cost safety
    ...
    problem flex
    flexpair 0 1 1 2            # s t p q
    end

Problem blocks: ``flex`` (flexpair lines), ``bulk`` (scenario lines of the
form ``scenario 0,1 | 2-3 4-5`` with ``-`` for an empty failure set), and
``rsndp`` (relpair s t r lines).  parse(serialize(x)) == x.

Generators are pure functions of (kind, parameters, seed); random kinds
certify the produced graph feasible for their target problem via the
oracles before returning, retrying with derived seeds.
"""

from __future__ import annotations

import errno
import math
import os
import stat
from dataclasses import dataclass, field
from random import Random
from .errors import CannotSatisfyFeasibility, ParseError, PathError
from .graph import MAX_SWEEP_N, SAFE, UNSAFE, FaultGraph
from .oracles import (
    BulkScenario,
    FlexRequirement,
    Problem,
    RelativeRequirement,
    fgc_requirements,
    is_bulk_feasible,
    is_flex_feasible,
)

FORMAT_NAME = "faultnet-instance"
FORMAT_VERSION = 1

#: An instance's edge costs, summed in edge-id order, must stay below this
#: bound.  Every cost sum, dual and LP value the package forms is at most a
#: small multiple of the total (twice it in the exact search's degree
#: bound, ``1 + 1e-9`` times it in the bulk tree skip, ``m * 2^-52`` times
#: it as the search's cost slop), and the 1.8e308 float ceiling leaves
#: about 1e8 times the bound for those factors.
COST_SUM_LIMIT = 1e300


@dataclass(frozen=True)
class InstanceFile:
    """Parsed instance: graph payload plus exactly one problem block.

    The graph is built once, on the first ``to_graph`` call (``parse`` makes
    it to validate), and shared after that: a FaultGraph never mutates.  Its
    slot stays out of ``__init__``, ``repr``, equality and hashing, so
    ``dataclasses.replace`` gives a copy that builds its own.
    """

    n: int
    edge_specs: tuple[tuple[int, int, float, str], ...]
    problem: Problem
    _graph: FaultGraph | None = field(default=None, init=False, repr=False, compare=False)

    def to_graph(self) -> FaultGraph:
        if self._graph is None:
            object.__setattr__(self, "_graph", FaultGraph(self.n, self.edge_specs))
        return self._graph


def serialize(inst: InstanceFile) -> str:
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}"]
    lines.append(f"vertices {inst.n}")
    lines.append(f"edges {len(inst.edge_specs)}")
    for eid, (u, v, cost, safety) in enumerate(inst.edge_specs):
        lines.append(f"e {eid} {u} {v} {cost!r} {safety}")
    prob = inst.problem
    lines.append(f"problem {prob.kind}")
    if prob.kind == "flex":
        for r in prob.flex:
            lines.append(f"flexpair {r.s} {r.t} {r.p} {r.q}")
    elif prob.kind == "bulk":
        for sc in prob.scenarios:
            fail = ",".join(str(e) for e in sorted(sc.fail)) or "-"
            pairs = " ".join(f"{u}-{v}" for u, v in sc.pairs)
            lines.append(f"scenario {fail} | {pairs}")
    else:
        for r in prob.relative:
            lines.append(f"relpair {r.s} {r.t} {r.r}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def open_path(path: str, mode: str = "r"):
    """``open(path, mode)`` in UTF-8; PathError if the path cannot be
    opened.  Only the opening is guarded: an OSError raised later, while
    reading or writing, passes through."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise PathError(path, exc) from exc


def check_writable(path: str) -> None:
    """PathError if ``open_path(path, "w")`` cannot succeed, found without
    opening, creating or truncating anything: the path is a directory or a
    file that may not be written, or a new file's directory is missing or
    may not be written.  So a command can refuse an output path before its
    work, and leave the path untouched when the work fails."""
    try:
        st = os.stat(path)
    except FileNotFoundError as exc:
        target = os.path.dirname(path) or "."
        if not os.path.isdir(target):
            raise PathError(path, exc) from exc
        mode = os.W_OK | os.X_OK
    except OSError as exc:
        raise PathError(path, exc) from exc
    else:
        if stat.S_ISDIR(st.st_mode):
            raise PathError(path, IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR)))
        target, mode = path, os.W_OK
    if not os.access(target, mode):
        raise PathError(path, PermissionError(errno.EACCES, os.strerror(errno.EACCES)))


def read_text(path: str) -> str:
    """The text of an instance file; ParseError unless it is UTF-8."""
    with open_path(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8: {exc}") from exc


def parse(text: str) -> InstanceFile:
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty instance file")
    it = iter(lines)

    def expect(prefix: str, arity: int) -> list[str]:
        try:
            ln = next(it)
        except StopIteration:
            raise ParseError(f"unexpected end of file, wanted {prefix!r}")
        parts = ln.split()
        if parts[0] != prefix:
            raise ParseError(f"expected {prefix!r}, got {ln!r}")
        if len(parts) != arity:
            raise ParseError(f"bad {prefix!r} line {ln!r}")
        return parts

    def number(token: str, kind=int):
        try:
            return kind(token)
        except ValueError:
            raise ParseError(f"{token!r} is not a valid {kind.__name__}") from None

    head = expect(FORMAT_NAME, 2)
    if head[1] != str(FORMAT_VERSION):
        raise ParseError(f"unsupported format header {head!r}")
    n = number(expect("vertices", 2)[1])
    edges = expect("edges", 2)
    m = number(edges[1])
    if m < 0:
        raise ParseError(f"bad 'edges' line {' '.join(edges)!r}: the edge count is negative")
    specs = []
    total = 0.0
    for i in range(m):
        parts = expect("e", 6)
        try:
            eid, u, v = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError:  # number words the error
            eid, u, v = (number(x) for x in parts[1:4])
        if eid != i:
            raise ParseError(f"edge ids must be dense; got {eid}, wanted {i}")
        cost = number(parts[4], float)
        if not math.isfinite(cost):
            raise ParseError(f"edge {eid}: cost {parts[4]!r} is not finite")
        total += cost
        safety = parts[5]
        if safety not in (SAFE, UNSAFE):
            raise ParseError(f"bad safety label {safety!r}")
        specs.append((u, v, cost, safety))
    if not total < COST_SUM_LIMIT:
        raise ParseError(
            f"edge costs sum to {total!r}: not below the bound COST_SUM_LIMIT = {COST_SUM_LIMIT!r}"
        )
    kind = expect("problem", 2)[1]

    def index(token: str, bound: int, what: str) -> int:
        value = int(token)
        if not 0 <= value < bound:
            raise ParseError(f"{what} {value} out of range 0..{bound - 1}")
        return value

    def vertex(token: str) -> int:
        return index(token, n, "vertex")

    flex: list[FlexRequirement] = []
    scenarios: list[BulkScenario] = []
    relative: list[RelativeRequirement] = []
    while True:
        try:
            ln = next(it)
        except StopIteration:
            raise ParseError("missing 'end' line")
        if ln == "end":
            break
        parts = ln.split()
        try:
            if kind == "flex" and parts[0] == "flexpair":
                try:
                    s, t = int(parts[1]), int(parts[2])
                except (ValueError, IndexError):
                    s = t = -1
                if not (0 <= s < n and 0 <= t < n):  # vertex words the error, in order
                    s, t = vertex(parts[1]), vertex(parts[2])
                flex.append(FlexRequirement(s, t, int(parts[3]), int(parts[4])))
            elif kind == "bulk" and parts[0] == "scenario":
                rest = ln[len("scenario") :].strip()
                fail_part, _, pair_part = rest.partition("|")
                fail_part = fail_part.strip()
                fail = (
                    frozenset()
                    if fail_part == "-"
                    else frozenset(index(x, m, "edge id") for x in fail_part.split(","))
                )
                pairs = []
                for token in pair_part.split():
                    a, _, b = token.partition("-")
                    pairs.append((vertex(a), vertex(b)))
                scenarios.append(BulkScenario(fail, tuple(pairs)))
            elif kind == "rsndp" and parts[0] == "relpair":
                relative.append(
                    RelativeRequirement(vertex(parts[1]), vertex(parts[2]), int(parts[3]))
                )
            else:
                raise ParseError(f"unexpected line in {kind} block: {ln!r}")
        except (ValueError, IndexError) as exc:
            raise ParseError(f"bad line {ln!r}: {exc}") from exc
    trailing = next(it, None)
    if trailing is not None:
        raise ParseError(f"unexpected line after 'end': {trailing!r}")
    try:
        problem = Problem(
            kind, flex=tuple(flex), scenarios=tuple(scenarios), relative=tuple(relative)
        )
        _check_q(problem, m)
        inst = InstanceFile(n=n, edge_specs=tuple(specs), problem=problem)
        inst.to_graph()  # validates endpoints, costs, self-loops
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return inst


def _check_q(problem: Problem, m: int) -> None:
    """ValueError for a flex q above the edge count m: each unit of q is one
    solver level, and no more than m edges can fail."""
    for r in problem.flex:
        if r.q > m:
            raise ValueError(f"flex requirement ({r.s}, {r.t}) has q={r.q} above m={m} edges")


# -- fixed constructions -------------------------------------------------------

def appendix_a_instance(k: int) -> InstanceFile:
    """The (1, k) single-pair integrality-gap construction.

    Vertices s=0, t=1 and v_1..v_{k+1}; per middle vertex two parallel
    unsafe s-v edges of cost 1/2 and one safe v-t edge of cost k+1.  Edge
    ids per block i: 3i, 3i+1 unsafe, 3i+2 safe.
    """
    if not 1 <= k <= MAX_SWEEP_N - 3:
        raise ValueError(f"k must lie in [1, {MAX_SWEEP_N - 3}] (n = k + 3), got {k}")
    specs = []
    for i in range(k + 1):
        v = 2 + i
        specs.append((0, v, 0.5, UNSAFE))
        specs.append((0, v, 0.5, UNSAFE))
        specs.append((v, 1, float(k + 1), SAFE))
    problem = Problem("flex", flex=(FlexRequirement(0, 1, 1, k),))
    return InstanceFile(n=k + 3, edge_specs=tuple(specs), problem=problem)


def _figure_instance(safe_counts, unsafe_counts, p, q) -> InstanceFile:
    """Counterexample graphs on vertices x1=0, x2=1, x3=2, y=3, given
    parallel-edge multiplicities per vertex pair."""
    specs = []
    for (u, v), count in sorted(safe_counts.items()):
        specs.extend([(u, v, 1.0, SAFE)] * count)
    for (u, v), count in sorted(unsafe_counts.items()):
        specs.extend([(u, v, 1.0, UNSAFE)] * count)
    problem = Problem("flex", flex=fgc_requirements(4, p, q))
    return InstanceFile(n=4, edge_specs=tuple(specs), problem=problem)


def figure_1_instance() -> InstanceFile:
    """Spanning counterexample: lifting (3, 1) to (3, 2) is not uncrossable.

    A = {x1, x2} and B = {x2, x3} are each crossed by two safe and two
    unsafe edges; their union and B - A are each crossed by three safe
    edges, so neither is violated."""
    return _figure_instance(
        safe_counts={(0, 3): 1, (2, 3): 2, (1, 2): 1},
        unsafe_counts={(0, 1): 2, (0, 3): 1, (1, 2): 1},
        p=3,
        q=2,
    )


def figure_3_instance() -> InstanceFile:
    """Spanning counterexample: lifting (3, 3) to (3, 4) fails for odd p.

    A and B are crossed by p-1 = 2 safe and 4 unsafe edges; the union and
    B - A carry p safe edges while the intersection and A - B carry p+4
    total edges."""
    return _figure_instance(
        safe_counts={(0, 3): 1, (2, 3): 2, (1, 2): 1},
        unsafe_counts={(0, 1): 4, (0, 3): 2, (1, 2): 2},
        p=3,
        q=4,
    )


def figure_4_instance() -> InstanceFile:
    """Spanning counterexample: lifting (4, 4) to (4, 5), stage family C_3.

    A and B are each crossed by 3 safe and 5 unsafe edges; the union and
    B - A have at least 4 safe edges, the intersection and A - B have 9
    total edges."""
    return _figure_instance(
        safe_counts={(0, 3): 1, (2, 3): 3, (1, 2): 2},
        unsafe_counts={(0, 1): 5, (0, 3): 3, (1, 2): 2},
        p=4,
        q=5,
    )


# -- random generators -----------------------------------------------------------

def _random_connected_specs(rng: Random, n: int, m: int, kind: str, params: dict):
    """Edge specs with a feasibility skeleton plus random extras.

    Skeleton: enough random Hamiltonian cycles to certify the target flex
    level by construction ("safe": ceil(p/2) all-safe cycles; "mixed":
    ceil((p+q)/2) cycles with only the first ceil(p/2) safe).  Extras get
    random endpoints, costs and labels.
    """
    p = params.get("p", 1)
    q = params.get("q", 0)
    skeleton = params.get("skeleton", "safe")
    geometric = kind == "random-geometric"
    points = [(rng.random(), rng.random()) for _ in range(n)] if geometric else None

    def cost_of(u, v):
        if geometric:
            dx = points[u][0] - points[v][0]
            dy = points[u][1] - points[v][1]
            return round((dx * dx + dy * dy) ** 0.5, 6)
        return round(rng.uniform(0.2, 2.0), 3)

    specs = []
    safe_cycles = (p + 1) // 2
    cycles = safe_cycles if skeleton == "safe" else max(safe_cycles, (p + q + 1) // 2)
    if cycles * n > m:
        raise ValueError(
            f"m={m} too small for the feasibility skeleton ({cycles} cycles on {n} vertices)"
        )
    for c in range(cycles):
        perm = list(range(n))
        rng.shuffle(perm)
        label = SAFE if c < safe_cycles else UNSAFE
        for i in range(n):
            specs.append((perm[i], perm[(i + 1) % n], cost_of(perm[i], perm[(i + 1) % n]), label))
    safe_prob = params.get("safe_prob", 0.5)
    while len(specs) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        label = SAFE if rng.random() < safe_prob else UNSAFE
        specs.append((u, v, cost_of(u, v), label))
    return specs


def _random_problem(rng: Random, g: FaultGraph, params: dict) -> Problem:
    target = params.get("problem", "fgc")
    n = g.n
    if target == "fgc":
        return Problem("flex", flex=fgc_requirements(n, params.get("p", 1), params.get("q", 0)))
    if target == "flex-st":
        return Problem(
            "flex",
            flex=(FlexRequirement(0, n - 1, params.get("p", 1), params.get("q", 0)),),
        )
    if target == "flex-sndp":
        pairs = params.get("pairs")
        if not isinstance(pairs, (list, tuple)) or not all(
            isinstance(r, (list, tuple)) and len(r) == 4 and all(type(v) is int for v in r)
            for r in pairs
        ):
            raise ValueError(f"flex-sndp pairs must be a list of [s, t, p, q] integers, got {pairs!r}")
        reqs = []
        for s, t, p, q in pairs:
            if not (0 <= s < n and 0 <= t < n) or s == t:
                raise ValueError(
                    f"flex-sndp pair ({s}, {t}) is not two distinct vertices of 0..{n - 1}"
                )
            reqs.append(FlexRequirement(s, t, p, q))
        return Problem("flex", flex=tuple(reqs))
    if target == "bulk":
        width = params.get("width", 1)
        count = params.get("scenarios", 4)
        scens = []
        attempts = 0
        while len(scens) < count and attempts < 50 * count:
            attempts += 1
            w = rng.randint(0, width)
            fail = frozenset(rng.sample(range(g.m), w)) if w else frozenset()
            pairs = set()
            for _ in range(rng.randint(1, params.get("pairs", 2))):
                u = rng.randrange(n)
                v = rng.randrange(n)
                if u != v:
                    pairs.add((min(u, v), max(u, v)))
            if not pairs:
                continue
            sc = BulkScenario(fail, tuple(sorted(pairs)))
            ok, _ = is_bulk_feasible(g, [sc], g.all_edge_ids())
            if ok:
                scens.append(sc)
        if not scens:
            raise CannotSatisfyFeasibility("no satisfiable scenario found")
        return Problem("bulk", scenarios=tuple(scens))
    if target == "rsndp":
        reqs = []
        count = params.get("pairs", 2)
        if count > n * (n - 1) // 2:
            raise ValueError(f"rsndp pairs={count} exceeds the {n * (n - 1) // 2} vertex pairs")
        r = params.get("r", 2)
        seen = set()
        while len(reqs) < count:
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v or (min(u, v), max(u, v)) in seen:
                continue
            seen.add((min(u, v), max(u, v)))
            reqs.append(RelativeRequirement(min(u, v), max(u, v), rng.randint(1, r)))
        return Problem("rsndp", relative=tuple(reqs))
    raise ValueError(f"unknown target problem {target!r}")


MAX_GENERATE_ATTEMPTS = 200
# Every generator parameter any kind reads.
_PARAM_KEYS = frozenset(
    ("problem", "p", "q", "skeleton", "safe_prob", "width", "scenarios", "pairs", "r", "k")
)
# Generator parameters that must be integers; "pairs" is one too when it is
# a count (bulk and rsndp), not flex-sndp's list of requirements.
_INT_PARAMS = ("p", "q", "k", "r", "width", "scenarios")


def _checked_params(params) -> dict:
    """A copy of the generator parameters; ValueError for a shape they cannot have."""
    if params is None:
        return {}
    if not isinstance(params, dict):
        raise ValueError(f"generator parameters must be an object, got {params!r}")
    unknown = [key for key in params if key not in _PARAM_KEYS]
    if unknown:
        raise ValueError(f"unknown generator parameters {unknown!r}")
    ints = _INT_PARAMS + (("pairs",) if params.get("problem") in ("bulk", "rsndp") else ())
    for key in ints:
        if key in params and type(params[key]) is not int:
            raise ValueError(f"parameter {key!r} must be an integer, got {params[key]!r}")
    if "safe_prob" in params and type(params["safe_prob"]) not in (int, float):
        raise ValueError(f"parameter 'safe_prob' must be a number, got {params['safe_prob']!r}")
    if params.get("skeleton", "safe") not in ("safe", "mixed"):
        raise ValueError(f"parameter 'skeleton' must be 'safe' or 'mixed', got {params['skeleton']!r}")
    if not 0 <= params.get("safe_prob", 0) <= 1:
        raise ValueError(f"safe_prob must lie in [0, 1], got {params['safe_prob']}")
    problem = params.get("problem")
    if problem == "bulk" and params.get("scenarios", 4) < 1:
        raise ValueError(f"bulk needs scenarios >= 1, got {params['scenarios']}")
    if problem == "bulk" and params.get("width", 1) < 0:
        raise ValueError(f"width must be >= 0, got {params['width']}")
    if problem in ("bulk", "rsndp") and params.get("pairs", 2) < 1:
        raise ValueError(f"pairs must be >= 1, got {params['pairs']}")
    if problem == "rsndp" and params.get("r", 2) < 1:
        raise ValueError(f"r must be >= 1, got {params['r']}")
    return dict(params)


def generate(
    kind: str,
    n: int | None = None,
    m: int | None = None,
    seed: int = 0,
    params: dict | None = None,
) -> InstanceFile:
    """Build an instance of the given kind, certified feasible by the oracle.

    Kinds: random-multigraph, random-geometric (both honoring
    params["problem"]), appendix-a (params["k"]), figure-1, figure-3,
    figure-4.  A random flex instance is certified by one closing check of
    the whole graph, a bulk one scenario by scenario as it is drawn, and an
    rsndp one needs no check: a graph keeps its own connectivity under any
    failure set.
    """
    params = _checked_params(params)
    if kind == "appendix-a":
        return appendix_a_instance(params.get("k", 2))
    if kind == "figure-1":
        return figure_1_instance()
    if kind == "figure-3":
        return figure_3_instance()
    if kind == "figure-4":
        return figure_4_instance()
    if kind not in ("random-multigraph", "random-geometric"):
        raise ValueError(f"unknown instance kind {kind!r}")
    if n is None or m is None:
        raise ValueError("random kinds need n and m")
    if n < 2:
        raise ValueError(f"n must be >= 2 for random kinds, got {n}")
    if params.get("problem") == "bulk" and params.get("width", 1) > m:
        raise ValueError(f"width must be at most m={m}, got {params['width']}")
    for attempt in range(MAX_GENERATE_ATTEMPTS):
        rng = Random((seed, kind, attempt).__repr__())
        specs = _random_connected_specs(rng, n, m, kind, params)
        if len(specs) < m:
            continue
        g = FaultGraph(n, specs)
        try:
            problem = _random_problem(rng, g, params)
        except CannotSatisfyFeasibility:
            continue
        _check_q(problem, m)
        if problem.kind != "flex" or is_flex_feasible(g, problem.flex, g.all_edge_ids())[0]:
            return InstanceFile(n=n, edge_specs=tuple(specs), problem=problem)
    raise CannotSatisfyFeasibility(
        f"no feasible {kind} instance after {MAX_GENERATE_ATTEMPTS} attempts"
    )
