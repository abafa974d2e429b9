"""Spans around the library's public functions, recorded from outside.

`Tracer.install(lib)` replaces each function in `LAYERS` with a wrapper that
records one span per call: the function, start, end, the enclosing span and
the op it ran for.  Modules that bound a function by name at import time
(`from .semigroup import member`) are rebound as well.  `disable` and
`enable` swap the originals and the wrappers back and forth, and `uninstall`
restores every binding for good.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import json
import time
from array import array

# the functions wrapped in each layer, in the order the metrics list them
LAYERS = {
    "cli": ["run_fixture", "cmd_faces", "cmd_normality", "cmd_resonance",
            "cmd_sets", "cmd_factors", "cmd_gap_factors", "cmd_verify"],
    "resonance": ["classify", "in_sres", "in_dres", "in_wres", "region_scan"],
    "factors": ["dmod_report", "perverse_report", "rh_compare",
                "pullback_solutions", "gap_factor_candidates"],
    "degrees": ["class_candidates", "good_class_exists", "conductor_multiplier",
                "facet_bounds", "qdeg_components"],
    "cones": ["Configuration.__init__", "Configuration.facets",
              "Configuration.all_faces", "Configuration.saturation_hilbert_basis",
              "Configuration.is_normal", "Configuration.lattice_coords",
              "Configuration.face_span_lattice"],
    "semigroup": ["member", "find_positive_functional"],
    "intlin": ["quotient", "smith_normal_form", "hermite_normal_form",
               "integer_inverse", "rational_solve", "rational_kernel",
               "integer_kernel", "integral_system_solve"],
}

# names other modules import directly; each must end up bound to the wrapper
IMPORTED_BINDINGS = [("degrees", "member", "semigroup.member"),
                     ("cones", "member", "semigroup.member"),
                     ("cones", "find_positive_functional",
                      "semigroup.find_positive_functional"),
                     ("factors", "qdeg_components", "degrees.qdeg_components")]

# functions whose result is recorded as a verdict (for the true_share ratios)
VERDICTS = {"semigroup.member", "degrees.good_class_exists"}


def function_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def _verdict(result) -> bool:
    if isinstance(result, tuple):  # member(..., witness=True)
        result = result[0]
    return bool(getattr(result, "is_true", result))


OUTCOMES = (None, True, False, "limit", "error")


class Tracer:
    def __init__(self, limit_error):
        self.names = function_names()
        self.limit_error = limit_error
        # one span per index k: function, start, end, parent span, op, outcome
        # (an index into OUTCOMES); flat arrays keep the cyclic collector off them
        self.fn = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.outcome = array("b")
        self.op = -1
        self.missing: list = []
        self._stack: list = []
        self._bindings: list = []  # (owner, attribute, original, wrapper)

    def __len__(self):
        return len(self.fn)

    def _wrap(self, index: int, fn):
        stack, clock = self._stack, time.perf_counter
        fns, starts, ends, parents, ops, outcomes = (
            self.fn, self.start, self.end, self.parent, self.op_of, self.outcome)
        keep_verdict = self.names[index] in VERDICTS
        limit_error = self.limit_error
        tracer = self

        def wrapper(*args, **kwargs):
            k = len(fns)
            fns.append(index)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            outcomes.append(0)
            ends.append(0.0)
            stack.append(k)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except limit_error:
                ends[k] = clock()
                outcomes[k] = 3
                raise
            except BaseException:
                ends[k] = clock()
                outcomes[k] = 4
                raise
            finally:
                stack.pop()
            ends[k] = clock()
            if keep_verdict:
                outcomes[k] = 1 if _verdict(result) else 2
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _bind(self, owner, attr, wrapper):
        self._bindings.append((owner, attr, getattr(owner, attr), wrapper))
        setattr(owner, attr, wrapper)

    def install(self, lib, modules):
        """Wrap every listed function of `lib`; `modules` are all loaded
        `gkzfactors` modules, searched for names bound at import time."""
        wrapped = {}
        for index, full in enumerate(self.names):
            mod, _, path = full.partition(".")
            owner = getattr(lib, mod)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(full)
                continue
            wrapper = self._wrap(index, original)
            self._bind(owner, attr, wrapper)
            wrapped[full] = wrapper
            if not outer:
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._bind(module, name, wrapper)
        for mod, name, full in IMPORTED_BINDINGS:
            module = getattr(lib, mod)
            if full in wrapped and getattr(module, name, None) is not wrapped[full]:
                self.uninstall()
                raise RuntimeError(f"{mod}.{name} was not rebound to the wrapper")

    def disable(self):
        """Put every original back, keeping the wrappers for `enable`."""
        for owner, attr, original, _ in reversed(self._bindings):
            setattr(owner, attr, original)

    def enable(self):
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        self.disable()
        self._bindings.clear()

    # -- results -----------------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict:
        """Calls and self time per function and module, and the ratios."""
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        child = [0.0] * len(self)
        verdicts = {i: [0, 0, 0] for i, name in enumerate(self.names)
                    if name in VERDICTS}  # [true, limit, calls]
        for k in range(len(self)):
            if self.parent[k] >= 0:
                child[self.parent[k]] += self.end[k] - self.start[k]
        for k in range(len(self)):
            i = self.fn[k]
            calls[i] += 1
            total[i] += self.end[k] - self.start[k] - child[k]
            if i in verdicts:
                v = verdicts[i]
                v[2] += 1
                v[0] += self.outcome[k] == 1
                v[1] += self.outcome[k] == 3
        out = {}
        modules: dict = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[i], "count")
            out[f"{name}.self_s"] = (total[i], "s")
            mod = name.partition(".")[0]
            modules[mod] = modules.get(mod, 0.0) + total[i]
        for mod, self_s in modules.items():
            out[f"{mod}.self_s"] = (self_s, "s")

        def share(name, slot):
            v = verdicts[self.names.index(name)]
            return (v[slot] / v[2] if v[2] else 0.0, "ratio")

        def per_op(name):
            return (calls[self.names.index(name)] / ops if ops else 0.0, "calls/op")

        out["semigroup.member.true_share"] = share("semigroup.member", 0)
        out["semigroup.member.limit_share"] = share("semigroup.member", 1)
        out["semigroup.member.calls_per_op"] = per_op("semigroup.member")
        out["intlin.rational_solve.calls_per_op"] = per_op("intlin.rational_solve")
        out["cones.Configuration.__init__.calls_per_op"] = per_op(
            "cones.Configuration.__init__")
        out["degrees.good_class_exists.true_share"] = share(
            "degrees.good_class_exists", 0)
        return out

    def write(self, path):
        """A header line, then one line per span: the span's index, function,
        start and end (perf_counter seconds), parent span (-1 for none), op
        and outcome, as a JSON array."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["span", "function", "start", "end",
                                            "parent", "op", "outcome"]}) + "\n")
            for k in range(len(self)):
                fh.write(json.dumps([k, self.names[self.fn[k]], self.start[k],
                                     self.end[k], self.parent[k], self.op_of[k],
                                     OUTCOMES[self.outcome[k]]]) + "\n")
