"""Property test over the instance text format: no input ends in a traceback.

Generated flex, bulk and rsndp instances, and one infeasible flex instance,
are mutated line by line, and every CLI command that reads an instance must
answer with one of its documented exit codes: 0 success, 2 infeasible,
3 budget exceeded, 4 parse error.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from faultnet.cli import main
from faultnet.instances import generate, serialize

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


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    base=st.sampled_from(range(len(BASES))),
    mutations=st.lists(mutation, min_size=1, max_size=3),
)
def test_mutated_instances_end_in_an_exit_code(tmp_path_factory, base, mutations):
    folder = tmp_path_factory.mktemp("mutant")
    path = folder / "inst.fni"
    path.write_text(mutate(BASES[base], mutations))
    sol = folder / "sol.json"
    edges = sum(line.startswith("e ") for line in BASES[base].splitlines())
    sol.write_text(json.dumps({"edges": list(range(edges))}))
    for argv in (["exact", str(path)], ["lp", str(path)], ["verify", str(path), str(sol)]):
        assert main(argv) in EXIT_CODES, argv
