"""Spans around credal's public functions, installed from outside.

``Tracer.install`` wraps every public function of every loaded credal
module, at every module binding it has (a name re-exported by
``credal/__init__.py`` or imported into another module is the same
function object, so it gets the same wrapper), plus the methods of
``PreparedLp``, ``LinearSystem`` and ``ParametricFamily``. ``uninstall``
puts every original back.

A span is named ``<module>.<function>``; constructors are named
``<module>.<Class>`` and methods ``<module>.<method>``. Spans are folded
into totals as they close instead of being stored:

* calls per span name;
* busy time per span name: the outermost span of that name, so a
  recursive or re-entrant call is not counted twice;
* busy time per module: the outermost span of any of its names;
* self time per module: each span minus the spans directly inside it.

A few counts need the call's arguments or answer (grid points, phase-1
runs that end infeasible, LPs under a lower-envelope sweep); ``_HOOKS``
records them.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

MARK = "__perfbench_original__"
TRACED_CLASSES = (("linprog", "PreparedLp"), ("sets", "LinearSystem"),
                  ("sets", "ParametricFamily"))


def _credal_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "credal" or name.startswith("credal."))]


def _layer(fn) -> str | None:
    mod = getattr(fn, "__module__", "") or ""
    return mod.split(".")[1] if mod.startswith("credal.") else None


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.layer_busy: defaultdict = defaultdict(float)
        self.layer_self: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._depth: Counter = Counter()
        self._layer_depth: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _exit(self, name: str, layer: str, start: float):
        dur = perf_counter() - start
        child = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += dur
        self.calls[name] += 1
        self.layer_self[layer] += dur - child
        self._depth[name] -= 1
        if not self._depth[name]:
            self.busy[name] += dur
        self._layer_depth[layer] -= 1
        if not self._layer_depth[layer]:
            self.layer_busy[layer] += dur

    def _wrap(self, fn, name: str, layer: str):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._depth[name] += 1
            self._layer_depth[layer] += 1
            self._stack.append([0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, layer, start)
            return hook(self, args, result) if hook else result

        setattr(wrapper, MARK, fn)
        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        wrappers: dict[int, object] = {}
        for mod in _credal_modules():
            for attr, obj in list(vars(mod).items()):
                layer = _layer(obj)
                if attr.startswith("_") or not isinstance(obj, types.FunctionType) or not layer:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}", layer)
                self._patch(mod, attr, wrappers[id(obj)])
        for layer, cls_name in TRACED_CLASSES:
            cls = getattr(sys.modules[f"credal.{layer}"], cls_name)
            for attr, obj in list(vars(cls).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                if attr == "__init__":
                    name = f"{layer}.{cls_name}"
                elif attr.startswith("_"):
                    continue
                else:
                    name = f"{layer}.{attr}"
                self._patch(cls, attr, self._wrap(obj, name, layer))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "layer_busy": dict(self.layer_busy),
            "layer_self": dict(self.layer_self),
            "counts": dict(self.counts),
        }


def leftover_wrappers() -> list[str]:
    """Names still bound to a wrapper; empty once uninstall has run."""
    out = []
    owners = [(m.__name__, m) for m in _credal_modules()]
    for layer, cls_name in TRACED_CLASSES:
        mod = sys.modules.get(f"credal.{layer}")
        if mod is not None:
            owners.append((f"credal.{layer}.{cls_name}", getattr(mod, cls_name)))
    for label, owner in owners:
        for attr, obj in vars(owner).items():
            if hasattr(obj, MARK):
                out.append(f"{label}.{attr}")
    return out


# --- counts that need arguments or answers ------------------------------


def _scan_grid(tracer: Tracer, args, result):
    tracer.counts["sets.scan_grid.points"] += len(result[0])
    return result


def _event_value_fn(tracer: Tracer, args, fn):
    def counted(s):
        tracer.counts["sets.event_value_evals"] += 1
        return fn(s)

    return counted


def _prepared(tracer: Tracer, args, result):
    if not args[0].feasible:
        tracer.counts["linprog.infeasible_phase1"] += 1
    return result


def _optimize(tracer: Tracer, args, result):
    if tracer._depth["inference.lower_envelope_function"]:
        tracer.counts["inference.sweep_lps"] += 1
    return result


def _lower_envelope(tracer: Tracer, args, result):
    tracer.counts["inference.sweep_subsets"] += 2 ** args[0].space.size - 2
    return result


_HOOKS = {
    "sets.scan_grid": _scan_grid,
    "sets.event_value_fn": _event_value_fn,
    "linprog.PreparedLp": _prepared,
    "linprog.optimize": _optimize,
    "inference.lower_envelope_function": _lower_envelope,
}


def merge(total: dict, part: dict) -> dict:
    """Sum two snapshots (the cli workload traces one per process)."""
    for key, values in part.items():
        bucket = total.setdefault(key, {})
        for name, v in values.items():
            bucket[name] = bucket.get(name, 0) + v
    return total


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(snap: dict) -> dict:
    """The per-layer metrics, by name, from one (merged) snapshot."""
    calls = snap.get("calls", {})
    busy = snap.get("busy", {})
    layer_busy = snap.get("layer_busy", {})
    layer_self = snap.get("layer_self", {})
    counts = snap.get("counts", {})
    m = {}
    for name in ("linprog.optimize", "linprog.PreparedLp", "linprog.solve",
                 "linprog.hull_membership", "linprog.enumerate_polytope_vertices",
                 "sets.scan_grid", "sets.LinearSystem", "inference.envelope",
                 "inference.mobius_report", "cases.run_case"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.busy_s"] = busy.get(name, 0.0)
    m["linprog.fractional_optimize.calls"] = calls.get("linprog.fractional_optimize", 0)
    m["linprog.infeasible_ratio"] = _ratio(counts.get("linprog.infeasible_phase1", 0),
                                           calls.get("linprog.PreparedLp", 0))
    m["sets.scan_grid.points"] = counts.get("sets.scan_grid.points", 0)
    m["sets.refine_evals"] = (calls.get("sets.member_at_scan", 0)
                              + counts.get("sets.event_value_evals", 0))
    for name in ("sets.contains", "inference.lower_envelope_function",
                 "inference.conditionalize", "inference.core_of_belief",
                 "decisions.e_admissible", "decisions.e_admissible_over_hull",
                 "betting.booked_in_expectation", "cli.main"):
        m[f"{name}.busy_s"] = busy.get(name, 0.0)
    m["inference.lps_per_subset"] = _ratio(counts.get("inference.sweep_lps", 0),
                                           counts.get("inference.sweep_subsets", 0))
    for layer in ("linprog", "sets", "inference", "decisions", "betting"):
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    m["fileio.busy_s"] = layer_busy.get("fileio", 0.0)
    m["cli.import_s"] = busy.get("cli.import", 0.0)
    return m
