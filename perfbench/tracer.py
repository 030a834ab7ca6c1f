"""Per-layer tracing from outside the package, by wrapping public functions.

``Tracer`` replaces each traced function at every ``faultnet`` module
attribute that binds it (``faultnet.exact.exact_solve`` and
``faultnet.flexalg.exact_solve`` are the same object, so both get the same
wrapper) and puts every original back on exit.  Each wrapper opens a span;
a span's self time is its duration minus the time covered by its child
spans, so time spent in an unwrapped helper is charged to the nearest
wrapped caller.  Spans are timed on this process's CPU clock (see
cpuclock.py), without the reference rescaling that cell timings get.  A
traced function runs no child processes, so the reaped-children term of
``cpu_clock`` is left out to keep each span cheap.  Counts are read from the
traced functions' own arguments and return values, never from their
internals.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _flex_cuts(tr, args, kwargs, result, dt):
    # Size of the sweep: every requirement times its 2^(n-2) s-t cuts.  A
    # failing check stops early, so this is an upper bound there.
    g = _arg(args, kwargs, 0, "g")
    reqs = _arg(args, kwargs, 1, "reqs")
    tr.counts["oracles.is_flex_feasible.cuts"] += len(reqs) << (g.n - 2)


def _exact_base(tr, args, kwargs, result, dt):
    if any(name in ("flexalg.solve_fgc", "bulk.solve_flex_sndp") for name, _ in tr.stack):
        tr.counts["exact.base_ms"] += dt * 1000.0


def _count_len(metric, pick):
    def hook(tr, args, kwargs, result, dt):
        tr.counts[metric] += len(pick(args, kwargs, result))

    return hook


def _flex_sndp_rounds(tr, args, kwargs, result, dt):
    # One kept tree per round, and the round count is the largest q.
    reqs = _arg(args, kwargs, 1, "reqs")
    tr.counts["bulk.levels"] += max(r.q for r in reqs)


def _bulk_levels(tr, args, kwargs, result, dt):
    tr.counts["bulk.levels"] += 1


def _lp_totals(tr, args, kwargs, result, dt):
    sol, model = result
    tr.counts["lp.rounds"] += sol.rounds
    tr.counts["lp.rows"] += len(model.rows)


def _pd_cover(tr, args, kwargs, result, dt):
    tr.counts["cover.primal_dual_cover.members"] += len(_arg(args, kwargs, 0, "fam").members)
    tr.counts["cover.primal_dual_cover.trace_steps"] += len(result.trace)


def _tableau(tr, args, kwargs, result, dt):
    # Rows: the >= rows plus one bound row per variable; columns: the
    # variables plus one slack per row (artificial columns not counted).
    n = len(_arg(args, kwargs, 0, "objective"))
    rows = len(_arg(args, kwargs, 1, "rows")) + n
    tr.counts["simplex.tableau_cells"] += rows * (n + rows)


# (module, function, hook).  The module is the layer name in the metrics.
TARGETS = (
    ("exact", "exact_solve", _exact_base),
    ("oracles", "is_flex_feasible", _flex_cuts),
    ("oracles", "violated_cuts_flex_aug",
     _count_len("oracles.violated_cuts_flex_aug.members", lambda a, k, r: r.members)),
    ("oracles", "is_bulk_feasible", None),
    ("oracles", "violating_edge_sets_bulk",
     _count_len("oracles.violating_edge_sets_bulk.sets", lambda a, k, r: r)),
    ("oracles", "expand_rsndp_to_bulk",
     _count_len("oracles.expand_rsndp_to_bulk.scenarios", lambda a, k, r: r)),
    ("oracles", "check_problem_feasible", None),
    ("cover", "primal_dual_cover", _pd_cover),
    ("cover", "ring_cover_exact",
     _count_len("cover.ring_cover_exact.members", lambda a, k, r: _arg(a, k, 0, "fam").members)),
    ("flexalg", "solve_fgc", None),
    ("flexalg", "augment_stages", None),
    ("flexalg", "solve_flex_st_22", None),
    ("flow", "min_cost_flow", None),
    ("flow", "flow_decompose", None),
    ("bulk", "sample_tree", None),
    ("bulk", "build_hitting_instance", None),
    ("bulk", "greedy_hitting_set", _count_len("bulk.greedy_hitting_set.picks", lambda a, k, r: r)),
    ("bulk", "augment_bulk", _bulk_levels),
    ("bulk", "solve_bulk_sndp", None),
    ("bulk", "solve_flex_sndp", _flex_sndp_rounds),
    ("bulk", "solve_rsndp", None),
    ("graph", "same_component", None),
    ("graph", "connected_components", None),
    ("lp", "separate_flex", None),
    ("lp", "separate_bulk", None),
    ("lp", "cutting_plane_flex", _lp_totals),
    ("lp", "cutting_plane_bulk", _lp_totals),
    ("simplex", "solve_dense_lp", _tableau),
    ("instances", "generate", None),
    ("instances", "parse", None),
    ("bench", "run_cell", None),
)

# Count metrics read by the hooks above, reported even when they stay zero.
COUNTS = (
    "exact.base_ms",
    "oracles.is_flex_feasible.cuts",
    "oracles.violated_cuts_flex_aug.members",
    "oracles.violating_edge_sets_bulk.sets",
    "oracles.expand_rsndp_to_bulk.scenarios",
    "cover.primal_dual_cover.members",
    "cover.primal_dual_cover.trace_steps",
    "cover.ring_cover_exact.members",
    "bulk.greedy_hitting_set.picks",
    "lp.rounds",
    "lp.rows",
    "simplex.tableau_cells",
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for mod, fn, _hook in TARGETS:
        names += [f"{mod}.{fn}.calls", f"{mod}.{fn}.self_ms"]
    return names + list(COUNTS) + ["bulk.trees_kept_ratio", "lp.rows_per_round", "trace.overhead"]


class Tracer:
    """Context manager: install the wrappers on enter, restore on exit.

    Statistics accumulate across every ``with`` block of one tracer.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.stack: list[list] = []  # [span name, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            tracer.stack.append(frame)
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.process_time() - start
                tracer.stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += dt - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += dt
            if hook is not None:
                hook(tracer, args, kwargs, result, dt)
            return result

        return wrapper

    def __enter__(self):
        modules = _faultnet_modules()
        for layer, fn_name, hook in TARGETS:
            original = getattr(sys.modules[f"faultnet.{layer}"], fn_name)
            wrapper = self._wrap(f"{layer}.{fn_name}", original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        self.stack.clear()
        return False

    def metrics(self) -> dict[str, float]:
        out = {}
        for layer, fn_name, _hook in TARGETS:
            name = f"{layer}.{fn_name}"
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self.self_s[name] * 1000.0
        for name in COUNTS:
            out[name] = self.counts[name]
        trees = self.calls["bulk.sample_tree"]
        out["bulk.trees_kept_ratio"] = self.counts["bulk.levels"] / trees if trees else 0.0
        rounds = self.counts["lp.rounds"]
        out["lp.rows_per_round"] = self.counts["lp.rows"] / rounds if rounds else 0.0
        return out


def _faultnet_modules() -> list:
    return [
        mod for key, mod in sorted(sys.modules.items())
        if key == "faultnet" or key.startswith("faultnet.")
    ]


def faultnet_bindings() -> dict[tuple[str, str], object]:
    """Every callable bound at a faultnet module attribute, to show that a
    traced run left each binding as it found it (compare with ``is``)."""
    return {
        (mod.__name__, attr): value
        for mod in _faultnet_modules()
        for attr, value in vars(mod).items()
        if callable(value)
    }


def bindings_restored(before: dict) -> bool:
    after = faultnet_bindings()
    return after.keys() == before.keys() and all(after[k] is v for k, v in before.items())
