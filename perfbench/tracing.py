"""In-memory spans around the program's layers, installed from outside.

``install`` replaces public callables on the program's modules and
classes with wrappers that record a span per call.  Nothing under the
program's source tree is edited: the wrappers are set as module or class
attributes at run time, in the process that runs the workload.  A span is
``[name, start, end, parent, instance, attrs]`` with ``parent`` the index
of the enclosing span (-1 for none), kept in a list and written out when
the process ends.
"""

from __future__ import annotations

import functools
import json

# (module attribute path, span name).  A module-level function is wrapped
# where its caller looks it up: the learner reads ``maxsat.solve_decision``
# from the module, while ``totalizer``, ``weighted_loss``, ``learn_minimal``,
# ``split`` and ``score_r`` are names imported into the calling module.
FUNCTIONS = [
    ("bench.generate_sample", "bench.generate"),
    ("bench.inject_noise", "bench.generate"),
    ("maxsat.solve_decision", "maxsat.solve_decision"),
    ("maxsat.totalizer", "cnf.totalizer"),
    ("maxsat.export_wcnf", "maxsat.export"),
    ("learner.learn_minimal", "learner.learn"),
    ("learner.weighted_loss", "learner.loss"),
    ("dtree.learn_minimal", "dtree.learn"),
    ("dtree.split", "dtree.split"),
    ("dtree.score_r", "dtree.score"),
]
METHODS = [
    ("encoding.EncodingInstance", "__init__", "encoding.build"),
    ("encoding.EncodingInstance", "decode_model", "learner.decode"),
    ("sat.SatSolver", "solve", "sat.solve"),
    ("formula.Formula", "satisfies", "formula.satisfies"),
]


def _after_build(attrs, args, result):
    inst = args[0]
    attrs["n"] = inst.n
    attrs["hard"] = len(inst.wcnf.hard)
    attrs["vars"] = inst.wcnf.nvars


def _after_decision(attrs, args, result):
    attrs["status"] = result.status


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list = []
        self.stack: list = []
        self.instance = None   # id of the running instance, None in set-up

    def call(self, name, fn, args, kwargs, after=None, before=None):
        parent = self.stack[-1] if self.stack else -1
        attrs = {}
        index = len(self.spans)
        span = [name, 0.0, 0.0, parent, self.instance, attrs]
        self.spans.append(span)
        self.stack.append(index)
        if before is not None:
            before(attrs, args)
        span[1] = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = self.clock()
            self.stack.pop()
        if after is not None:
            after(attrs, args, result)
        return result

    def wrap(self, name, fn, after=None, before=None, in_instance_only=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if in_instance_only and self.instance is None:
                return fn(*args, **kwargs)
            return self.call(name, fn, args, kwargs, after, before)
        return wrapper

    def install(self, package) -> None:
        """Wrap the layers of the imported program package ``package``."""
        hooks = {
            "encoding.build": {"after": _after_build},
            "maxsat.solve_decision": {"after": _after_decision},
            "sat.solve": {
                "before": lambda attrs, args: attrs.update(
                    clauses=len(args[0].clauses)),
                "after": lambda attrs, args, result: attrs.update(
                    learned=len(args[0].clauses) - attrs.pop("clauses")),
            },
            # Rejection sampling evaluates the pattern formula thousands of
            # times during set-up; only evaluation inside an instance is
            # the formula layer's work.
            "formula.satisfies": {"in_instance_only": True},
        }
        for path, name in FUNCTIONS:
            module_name, attr = path.split(".")
            module = getattr(package, module_name)
            wrapped = self.wrap(name, getattr(module, attr),
                                **hooks.get(name, {}))
            setattr(module, attr, wrapped)
        for path, attr, name in METHODS:
            module_name, cls_name = path.split(".")
            cls = getattr(getattr(package, module_name), cls_name)
            wrapped = self.wrap(name, getattr(cls, attr),
                                **hooks.get(name, {}))
            setattr(cls, attr, wrapped)

    def layer_totals(self, first: int) -> dict:
        """Per span name, over the spans from index ``first`` on: calls,
        inclusive and self seconds, slowest call, seconds per decision
        status and summed numeric attributes."""
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, inst, attrs in spans:
            if parent >= first:
                child_time[parent - first] += end - start
        totals: dict = {}
        sizes = set()
        for i, (name, start, end, parent, inst, attrs) in enumerate(spans):
            t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                         "max_s": 0.0})
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child_time[i]
            t["max_s"] = max(t["max_s"], end - start)
            for key, value in attrs.items():
                if key == "status":
                    t[value + "_s"] = t.get(value + "_s", 0.0) + end - start
                elif key != "n":
                    t[key] = t.get(key, 0) + value
            if name == "encoding.build":
                learn = self._ancestor(first + i,
                                       ("learner.learn", "dtree.learn"))
                if learn is not None:
                    sizes.add((learn, attrs["n"]))
        totals["learner.sizes"] = {"calls": len(sizes)}
        return totals

    def _ancestor(self, index, names):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return parent
            parent = self.spans[parent][3]
        return None

    def dump(self, path) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
