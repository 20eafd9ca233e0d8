"""Outside-in tracing of dynmatch: wrappers installed over the public
functions of each module, restored afterwards.  Nothing under ``src/`` knows
about it.

``framework``, ``statics`` and ``concepts`` import functions with
``from .x import f``, so a function has one binding per importing module;
:meth:`Tracer.install` replaces every binding that holds the original.

Three kinds of probe:

- span: timed, and recorded as a span (id, name, start, end, parent span);
- timed: calls, total and self time, no span record.  Used for functions
  called hundreds of thousands of times, to keep memory and overhead bounded;
- count: calls only, for the hottest leaf (the ``PreferenceProfile`` hash).

Self time is a call's duration minus the time covered by the timed or span
calls made directly inside it.  Spans stay in memory until :meth:`spans`
is read at the end of the run.
"""

from __future__ import annotations

import sys
import time
from functools import wraps

SPAN, TIMED, COUNT = "span", "timed", "count"

# (probe name, module, attribute path, kind).  The attribute path is
# "function" or "Class.method"; every module binding of a function is wrapped.
PROBES = (
    ("economy.payoff", "economy", "payoff", TIMED),
    ("economy.profile_hash", "economy", "PreferenceProfile.__hash__", COUNT),
    ("matching.enumerate", "matching", "enumerate_matchings", SPAN),
    ("matching.history", "matching", "History.__post_init__", TIMED),
    ("matching.continuation", "matching", "continuation_economy", TIMED),
    ("matching.lift", "matching", "lift", TIMED),
    ("matching.restrict", "matching", "restrict", TIMED),
    ("matching.defer", "matching", "defer_arrivals", TIMED),
    ("statics.threshold", "statics", "conjecture_threshold", TIMED),
    ("statics.stable_set", "statics", "checked_stable_set", TIMED),
    ("statics.induced", "statics", "induced_one_period_economy", TIMED),
    ("statics.stability_among_matched", "statics", "stability_among_matched", TIMED),
    ("framework.conjecture_set", "framework", "ConjectureFamily.conjecture_set", TIMED),
    ("framework.solution_set", "framework", "ConceptEngine.solution_set", SPAN),
    ("framework.phi", "framework", "phi_solution_set", SPAN),
    ("framework.period_witness", "framework", "period_witness", TIMED),
    ("framework.candidates", "framework", "candidate_matchings", SPAN),
    ("framework.stable_cache", "framework", "stable_set_checked", TIMED),
    ("framework.consistency", "framework", "consistency_failures", SPAN),
    ("concepts.solve", "concepts", "Solver.solve", SPAN),
    ("concepts.fixed_point", "concepts", "CVRFamily.fixed_point", SPAN),
    ("concepts.fixed_point", "concepts", "SDSFamily.fixed_point", SPAN),
    ("cli.main", "cli", "main", SPAN),
    ("dsl.parse", "dsl", "parse", SPAN),
)

# A conjecture-cache miss is a call of a family's _root_conjectures hook.
ROOT_CONJECTURES = "framework.root_conjectures"


class Tracer:
    def __init__(self):
        # name -> [calls, total_s, self_s, items]
        self.stats: dict[str, list] = {}
        # (parent probe, child probe) -> [calls, total_s, items]
        self.edges: dict[tuple, list] = {}
        self.fixed_point_rounds = 0
        # id -> result; holding the result keeps its id from being reused.
        self._seen_fixed_points: dict[int, tuple] = {}
        self._stack: list[list] = []
        self._spans: list[tuple] = []
        self._current_span = None
        self._restore: list[tuple] = []
        self.missing: list[str] = []

    # -- probes -----------------------------------------------------------

    def _timed(self, name, fn, record_span):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, edges, spans = self._stack, self.edges, self._spans
        clock = time.perf_counter
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent_span = tracer._current_span
            if record_span:
                span_id = len(spans)
                spans.append(None)  # reserve the id; filled in on exit
                tracer._current_span = span_id
            frame = [clock(), 0.0, name]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                edge = edges.get((parent and parent[2], name))
                if edge is None:
                    edge = edges[(parent and parent[2], name)] = [0, 0.0, 0]
                edge[0] += 1
                edge[1] += duration
                if record_span:
                    spans[span_id] = (span_id, name, frame[0], end, parent_span)
                    tracer._current_span = parent_span
            if isinstance(result, tuple):
                stats[3] += len(result)
                edge[2] += len(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _fixed_point(self, fn):
        # Counts iteration rounds (the iterates that ``iterates()`` returns)
        # once per distinct fixed point; cached hits return the same
        # (limit, iterates) object.
        @wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if id(result) not in self._seen_fixed_points:
                self._seen_fixed_points[id(result)] = result
                self.fixed_point_rounds += len(result[1])
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap every probe target of the imported ``package``."""
        modules = {
            name[len(package.__name__) + 1:]: mod
            for name, mod in sys.modules.items()
            if name.startswith(package.__name__ + ".") and mod is not None
        }
        modules[""] = package
        for name, module_name, path, kind in PROBES:
            module = modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in getattr(owner, "__dict__", {}):
                self.missing.append(f"{module_name}.{path}")
                continue
            original = owner.__dict__[attr]
            if kind == COUNT:
                wrapper = self._counted(name, original)
            else:
                wrapper = self._timed(name, original, kind == SPAN)
            if name == "concepts.fixed_point":
                wrapper = self._fixed_point(wrapper)
            if owner_name:
                self._set(owner, attr, wrapper)
                continue
            for mod in modules.values():
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, binding, wrapper)
        self._install_root_conjectures(modules)

    def _install_root_conjectures(self, modules):
        framework = modules.get("framework")
        base = getattr(framework, "ConjectureFamily", None)
        if base is None:
            self.missing.append("framework.ConjectureFamily")
            return
        for mod in modules.values():
            for cls in list(vars(mod).values()):
                if (
                    isinstance(cls, type)
                    and issubclass(cls, base)
                    and "_root_conjectures" in cls.__dict__
                    and cls.__module__ == mod.__name__
                ):
                    wrapped = self._timed(
                        ROOT_CONJECTURES, cls.__dict__["_root_conjectures"], False
                    )
                    self._set(cls, "_root_conjectures", wrapped)

    def restore(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def spans(self):
        return [s for s in self._spans if s is not None]

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0, 0))[0]

    def total_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0, 0))[1]

    def self_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0, 0))[2]

    def items(self, name):
        """Total length of the tuples the probe's calls returned."""
        return self.stats.get(name, (0, 0.0, 0.0, 0))[3]

    def edge(self, parent, child):
        """[calls, total_s, items] of child calls made directly from parent."""
        return self.edges.get((parent, child), [0, 0.0, 0])
