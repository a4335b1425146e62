"""Per-layer spans and counters, recorded from outside the program.

`Tracer` replaces each layer's public entry points with timing wrappers for
the duration of a `with` block.  A function is wrapped at every place it is
looked up: every `ctlrepair` module global bound to the same function
object, so `repair.evaluate` (bound by `from .datalog_engine import
evaluate`) is wrapped together with `datalog_engine.evaluate`.  A renamed or
re-bound import is therefore still traced.

A span's self time is its duration minus the durations of the spans it
encloses.  Counters are computed after a span closes; the time they take is
charged to no layer, only to the tracing overhead.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

# layer entry point -> (defining module, attribute)
ENTRY_POINTS = {
    "frontend.parse": ("ctlrepair.frontend", "parse"),
    "frontend.build_cfg": ("ctlrepair.frontend", "build_cfg"),
    "gwre.cfg_to_gwre": ("ctlrepair.gwre", "cfg_to_gwre"),
    "encode.abstract_facts": ("ctlrepair.encode", "abstract_facts"),
    "pure_logic.entails": ("ctlrepair.pure_logic", "entails"),
    "pure_logic.satisfiable": ("ctlrepair.pure_logic", "satisfiable"),
    "ctl.ctl_to_datalog": ("ctlrepair.ctl", "ctl_to_datalog"),
    "datalog_engine.evaluate": ("ctlrepair.datalog_engine", "evaluate"),
    "sedl.symbolic_execute": ("ctlrepair.sedl", "symbolic_execute"),
    "sedl.annotated_eval": ("ctlrepair.sedl", "annotated_eval"),
    "repair.analyze": ("ctlrepair.repair", "analyze"),
    "repair.run_template": ("ctlrepair.repair", "run_template"),
    "repair.repair_loop": ("ctlrepair.repair", "repair_loop"),
}

# entry points whose calls are also counted once per distinct argument
# within one program (one CLI invocation): counter, key of a call's args
_DISTINCT = {
    "pure_logic.entails": ("pure_logic.entails.distinct", lambda args: args),
    "pure_logic.satisfiable": ("pure_logic.satisfiable.distinct", lambda args: args),
    "repair.analyze": ("repair.analyze.distinct_sources", lambda args: args[0]),
}

COUNTERS = (
    "frontend.cfg_nodes",
    "gwre.states",
    "encode.facts",
    "encode.rules",
    "datalog_engine.input_facts",
    "datalog_engine.derived_facts",
    "sedl.disjuncts",
    "sedl.truncated",
    "sedl.budget_exceeded",
) + tuple(key for key, _ in _DISTINCT.values())


def _count_result(name: str, args: tuple, result, counts: dict) -> None:
    def add(key: str, n: int) -> None:
        counts[key] += n

    if name == "frontend.build_cfg":
        add("frontend.cfg_nodes", sum(len(p.nodes) for p in result.procedures.values()))
    elif name == "gwre.cfg_to_gwre":
        add("gwre.states", len(result.origins))
    elif name == "encode.abstract_facts":
        add("encode.facts", len(result.facts))
        add("encode.rules", len(result.rules))
    elif name == "datalog_engine.evaluate":
        edb = set(args[0].facts)
        add("datalog_engine.input_facts", len(args[0].facts))
        add("datalog_engine.derived_facts", len(result) - len(edb))
    elif name == "sedl.symbolic_execute":
        add("sedl.disjuncts", len(result.disjuncts))
        add("sedl.truncated", int(result.truncated))


@dataclass
class _Span:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    spans: dict = field(default_factory=lambda: {n: _Span() for n in ENTRY_POINTS})
    counts: dict = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))
    # entry point -> names of the module globals it was wrapped at
    sites: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _seen: dict = field(default_factory=dict)
    _saved: list = field(default_factory=list)

    def begin_program(self) -> None:
        """Start a new invocation: distinct-argument sets start empty."""
        for key, seen in self._seen.items():
            self.counts[key] += len(seen)
        self._seen = {key: set() for key, _ in _DISTINCT.values()}

    def metrics(self) -> dict:
        self.begin_program()
        out = dict(self.counts)
        for name, span in self.spans.items():
            out[f"{name}.calls"] = span.calls
            out[f"{name}.self_s"] = span.self_s
        return out

    def _wrap(self, name: str, fn, budget_error: type):
        span = self.spans[name]
        stack = self._stack
        distinct_key, distinct_of = _DISTINCT.get(name, (None, None))
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                counts["sedl.budget_exceeded"] += 1
                raise
            finally:
                duration = clock() - start
                span.calls += 1
                span.self_s += duration - stack.pop()
                if stack:
                    stack[-1] += duration
            count_start = clock()
            if distinct_key is not None:
                self._seen[distinct_key].add(distinct_of(args))
            _count_result(name, args, result, counts)
            if stack:
                stack[-1] += clock() - count_start
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        self.begin_program()
        modules = {name: importlib.import_module(name) for name, _ in ENTRY_POINTS.values()}
        budget_error = modules["ctlrepair.sedl"].SignBudgetExceeded
        loaded = [m for n, m in sorted(sys.modules.items()) if n == "ctlrepair" or n.startswith("ctlrepair.")]
        for name, (mod_name, attr) in ENTRY_POINTS.items():
            original = getattr(modules[mod_name], attr, None)
            if original is None:
                self.__exit__(None, None, None)
                raise LookupError(f"entry point {mod_name}.{attr} does not exist")
            wrapper = self._wrap(name, original, budget_error)
            self.sites[name] = []
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, value))
                        setattr(module, key, wrapper)
                        self.sites[name].append(f"{module.__name__}.{key}")
        return self

    def __exit__(self, *exc) -> None:
        for module, key, value in reversed(self._saved):
            setattr(module, key, value)
        self._saved.clear()


# which workloads must reach each entry point at least once; sedl must not
# be reached by the verify workloads
ALL = ("verify-chain", "verify-branchy", "repair-deep")
EXPECTED_USERS = {
    "frontend.parse": ALL,
    "frontend.build_cfg": ALL,
    "gwre.cfg_to_gwre": ALL,
    "encode.abstract_facts": ALL,
    "pure_logic.entails": ("verify-branchy", "repair-deep"),
    "pure_logic.satisfiable": ("verify-branchy", "repair-deep"),
    "ctl.ctl_to_datalog": ALL,
    "datalog_engine.evaluate": ALL,
    "sedl.symbolic_execute": ("repair-deep",),
    "sedl.annotated_eval": ("repair-deep",),
    "repair.analyze": ALL,
    "repair.run_template": ("repair-deep",),
    "repair.repair_loop": ("repair-deep",),
}


def self_check(workload: str, metrics: dict) -> list[str]:
    """Problems with a traced pass: an entry point the workload should reach
    got no call, or a verify workload reached the sign search."""
    problems = []
    for name, users in EXPECTED_USERS.items():
        calls = metrics[f"{name}.calls"]
        if workload in users and calls == 0:
            problems.append(f"{name} got no call on {workload}")
        if name.startswith("sedl.") and workload not in users and calls:
            problems.append(f"{name} got {calls} calls on {workload}")
    return problems
