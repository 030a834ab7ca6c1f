"""Property tests over the input files: no input ends in a traceback.

Generated flex, bulk and rsndp instances, and one infeasible flex instance,
are mutated line by line, and every CLI command that reads an instance must
answer with one of its documented exit codes: 0 success, 2 infeasible,
3 budget exceeded, 4 parse error.  ``lp`` may also exit 1, the algorithm
does not apply, but only on an rsndp instance or a flex instance without a
uniform (p, q), which have no LP relaxation.  ``solve`` runs each algorithm
that fits the base's problem kind, and may exit 1 too: a mutant may not fit
it any more, and a step of it may fail.  Solution files given to
``verify`` are replaced by arbitrary JSON values and mutated character by
character; one that is not an object with a list of distinct edge ids must
exit 4.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from faultnet.cli import main
from faultnet.errors import ParseError
from faultnet.instances import generate, parse, serialize
from faultnet.oracles import uniform_pq

EXIT_CODES = {0, 2, 3, 4}

BASES = [
    serialize(generate("random-multigraph", n=5, m=m, seed=seed, params=params))
    for seed, m, params in (
        (1, 11, {"problem": "flex-st", "p": 2, "q": 1, "skeleton": "mixed"}),
        (2, 8, {"problem": "bulk", "width": 1, "scenarios": 2}),
        (4, 8, {"problem": "rsndp", "r": 2, "pairs": 2}),
    )
] + [
    # Infeasible as given: the only edge at vertex 2 is unsafe.
    "faultnet-instance 1\nvertices 3\nedges 2\ne 0 0 1 1.0 safe\ne 1 1 2 1.0 unsafe\n"
    "problem flex\nflexpair 0 2 2 1\nend\n",
]

# The algorithms that fit each problem kind.
ALGORITHMS_OF_KIND = {
    "flex": ("fgc", "flex-st", "flex-st-22", "flex-sndp", "exact"),
    "bulk": ("bulk", "exact"),
    "rsndp": ("rsndp", "exact"),
}

# A mutation is (operation, line, position, token, number).  Half of them
# are "renumber": a number in 0..4 in place of a vertex, cost, failed edge or
# requirement number, which mostly leaves a file that parses but asks
# another question of the solvers.  The others delete, repeat, swap, drop or
# insert, with tokens that break numbers, ranges, labels and keywords.
# Numbers stay small so that a mutated instance stays cheap to solve.
TOKENS = [
    "0", "1", "2", "-1", "7", "0.0", "1.5", "x", "nan", "inf", "1e309",
    "-", "|", "0-1", "1,2", "4-4", "safe", "unsafe", "flex", "bulk", "rsndp",
    "flexpair", "scenario", "relpair", "e", "end",
]

mutation = st.tuples(
    st.one_of(
        st.just("renumber"),
        st.sampled_from(["delete", "duplicate", "swap", "replace", "drop", "insert"]),
    ),
    st.integers(0, 30),
    st.integers(0, 8),
    st.sampled_from(TOKENS),
    st.integers(0, 4),
)


def _numbers(parts: list[str]) -> list[int]:
    """Positions that renumber may change: every number after the keyword,
    except an edge line's id.  The header and count lines (two tokens) are
    left to the other mutations."""
    if len(parts) <= 2:
        return []
    first = 2 if parts[0] == "e" else 1
    out = []
    for k in range(first, len(parts)):
        try:
            float(parts[k])
        except ValueError:
            continue
        out.append(k)
    return out


def mutate(text: str, mutations) -> str:
    lines = text.splitlines()
    for op, line, pos, token, number in mutations:
        if op == "renumber":
            # Targets count from the end, so small draws reach requirements.
            targets = [i for i, ln in enumerate(lines) if _numbers(ln.split())]
            if targets:
                i = targets[-1 - line % len(targets)]
                parts = lines[i].split()
                numbers = _numbers(parts)
                parts[numbers[pos % len(numbers)]] = str(number)
                lines[i] = " ".join(parts)
            continue
        if not lines:
            break
        i = line % len(lines)
        parts = lines[i].split()
        j = pos % (len(parts) + 1)
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            k = (i + 1) % len(lines)
            lines[i], lines[k] = lines[k], lines[i]
        elif op == "replace" and parts:
            parts[j % len(parts)] = token
            lines[i] = " ".join(parts)
        elif op == "drop" and parts:
            del parts[j % len(parts)]
            lines[i] = " ".join(parts)
        else:
            parts.insert(j, token)
            lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


def _edge_count(text: str) -> int:
    return sum(line.startswith("e ") for line in text.splitlines())


def _has_no_lp(text: str) -> bool:
    """Does the text parse to a problem with no LP relaxation?"""
    try:
        problem = parse(text).problem
    except ParseError:
        return False
    return problem.kind == "rsndp" or (problem.kind == "flex" and uniform_pq(problem.flex) is None)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    base=st.sampled_from(range(len(BASES))),
    mutations=st.lists(mutation, min_size=1, max_size=3),
)
def test_mutated_instances_end_in_an_exit_code(tmp_path_factory, base, mutations):
    folder = tmp_path_factory.mktemp("mutant")
    path = folder / "inst.fni"
    text = mutate(BASES[base], mutations)
    path.write_text(text)
    sol = folder / "sol.json"
    sol.write_text(json.dumps({"edges": list(range(_edge_count(BASES[base])))}))
    for argv in (["exact", str(path)], ["verify", str(path), str(sol)]):
        assert main(argv) in EXIT_CODES, argv
    lp_codes = EXIT_CODES | {1} if _has_no_lp(text) else EXIT_CODES
    assert main(["lp", str(path)]) in lp_codes
    for alg in ALGORITHMS_OF_KIND[parse(BASES[base]).problem.kind]:
        assert main(["solve", "--alg", alg, str(path)]) in EXIT_CODES | {1}, alg


# JSON values a hand-edited solution file may hold: ids around the valid
# range, and every other kind of value, alone, in lists and in objects.
json_leaf = st.one_of(
    st.integers(-2, 12), st.floats(-1.0, 12.0), st.just(float("nan")),
    st.booleans(), st.none(), st.text(max_size=2),
)
json_value = st.recursive(
    json_leaf,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(["edges", "cost"]), kids, max_size=2),
    max_leaves=8,
)
payloads = st.one_of(
    st.fixed_dictionaries({"edges": st.lists(st.integers(-1, 8), max_size=5, unique=True)}),
    st.fixed_dictionaries({"edges": st.lists(json_leaf, max_size=6)}),
    json_value,
)


def _is_solution(payload, m: int) -> bool:
    if not isinstance(payload, dict) or not isinstance(payload.get("edges"), list):
        return False
    edges = payload["edges"]
    ids = all(type(e) is int and 0 <= e < m for e in edges)
    return ids and len(set(edges)) == len(edges)


def _verify(tmp_path_factory, base: int, solution_text: str) -> int:
    folder = tmp_path_factory.mktemp("solution")
    path = folder / "inst.fni"
    path.write_text(BASES[base])
    sol = folder / "sol.json"
    sol.write_text(solution_text)
    return main(["verify", str(path), str(sol)])


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(base=st.sampled_from(range(len(BASES))), payload=payloads)
def test_solution_values_are_read_or_rejected(tmp_path_factory, base, payload):
    code = _verify(tmp_path_factory, base, json.dumps(payload))
    if _is_solution(payload, _edge_count(BASES[base])):
        assert code in (0, 2)
    else:
        assert code == 4


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    base=st.sampled_from(range(len(BASES))),
    edits=st.lists(
        st.tuples(st.integers(0, 60), st.integers(0, 2), st.sampled_from(list('-.,[]{}:"0179etx '))),
        min_size=1,
        max_size=3,
    ),
)
def test_mutated_solutions_end_in_an_exit_code(tmp_path_factory, base, edits):
    text = json.dumps({"edges": list(range(_edge_count(BASES[base])))})
    for pos, cut, char in edits:
        pos %= len(text) + 1
        text = text[:pos] + char + text[pos + cut:]
    assert _verify(tmp_path_factory, base, text) in EXIT_CODES
