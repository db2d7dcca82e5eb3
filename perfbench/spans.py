"""Spans around calls into minfol's layers, installed from outside the library.

A traced pass rebinds every name through which callers reach a layer's
public functions: the module attribute, each `from ... import` copy held
by another minfol module, and the class attributes
`HomologyBasis.decompose`, `Origami.__post_init__` and
`AffineLine.compose`.  Each wrapped call appends one span (name, start,
end, parent span, op id) to flat typed arrays, so a census pass with a
million spans stays a few tens of megabytes.  Nothing inside `src/`
changes; `uninstall()` puts every original back.

Calls from permutations into permutations (`conjugate` calling
`compose`) are not spans: they are most of the million and would only
duplicate the outer span's time.  Every other nested call is a span.

Self time of a span is its duration minus the durations of its direct
child spans.  A layer is busy from the moment a call enters it from
another layer (or from the benchmark) until that call returns.
"""

import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("intlinalg", "permutations", "origami", "homology", "sl2z",
          "holonomy", "cover", "torus3", "cli")

# layers whose internal calls are not recorded (see module docstring)
_FLAT_LAYERS = frozenset({"permutations"})

_ELIMINATIONS = ("rank_rational", "kernel_rational", "solve_rational",
                 "mat_inverse_rational", "det_rational", "smith_normal_form")
_LINALG_TIMED = _ELIMINATIONS + ("mat_mul",)

# Every per-layer metric a traced run reports, with its unit.  Layers a
# workload never calls report 0.
PER_LAYER = (
    [("intlinalg.%s.%s" % (f, k), u) for f in _LINALG_TIMED
     for k, u in (("calls", "count"), ("busy_s", "s"))]
    + [("intlinalg.cells", "count"),
       ("permutations.calls", "count"),
       ("permutations.busy_s", "s"),
       ("origami.construct.calls", "count"),
       ("origami.sl2z_act.calls", "count"),
       ("origami.sl2z_act.busy_s", "s"),
       ("origami.canonical_form.calls", "count"),
       ("origami.canonical_form.busy_s", "s"),
       ("origami.lift_automorphism.calls", "count"),
       ("origami.lift_automorphism.busy_s", "s"),
       ("origami.lift_automorphism.self_s", "s"),
       ("origami.lift_found_ratio", "ratio"),
       ("homology.homology_rank.calls", "count"),
       ("homology.homology_rank.busy_s", "s"),
       ("homology.homology_rank.self_s", "s"),
       ("homology.homology_basis.calls", "count"),
       ("homology.homology_basis.busy_s", "s"),
       ("homology.homology_basis.self_s", "s"),
       ("homology.decompose.calls", "count"),
       ("homology.decompose.busy_s", "s"),
       ("homology.induced_action.busy_s", "s"),
       ("homology.induced_action.self_s", "s"),
       ("sl2z.decompose_st.calls", "count"),
       ("sl2z.word_tokens", "count"),
       ("sl2z.periodic_points.calls", "count"),
       ("sl2z.periodic_points.busy_s", "s"),
       ("sl2z.periodic_points.points", "count"),
       ("holonomy.stabilizer_search.calls", "count"),
       ("holonomy.stabilizer_search.busy_s", "s"),
       ("holonomy.stabilizer_search.words", "count"),
       ("holonomy.stabilizer_search.witness_ratio", "ratio"),
       ("holonomy.orbit_density.busy_s", "s"),
       ("holonomy.orbit_density.steps_per_s", "1/s"),
       ("holonomy.rotation_number.busy_s", "s"),
       ("cover.busy_s", "s"),
       ("torus3.busy_s", "s"),
       ("cli.import_ms", "ms"),
       ("cli.floor_ms", "ms"),
       ("cli.run.busy_s", "s"),
       ("cli.self_s", "s"),
       ("cli.stdout_bytes", "bytes"),
       ("trace.overhead", "ratio"),
       ("roadmap.stabilizer_x-1_len8_s", "s"),
       ("roadmap.orbit_dbl_rot_1e6_s", "s"),
       ("roadmap.periodic_points_cat_10_s", "s"),
       ("roadmap.classify_process_ms", "ms"),
       ("roadmap.pipeline_frw_process_ms", "ms")])


def _public_functions(module):
    for name, value in sorted(vars(module).items()):
        if (not name.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield name, value


class Tracer:
    """Span recorder for one traced pass.  Create, `install()`, run the
    ops with `op_id` set to the current op index, then `uninstall()`."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.name = array("H")
        self.counters = {"intlinalg.cells": 0, "origami.construct.calls": 0,
                         "origami.lift.found": 0, "origami.lift.returned": 0,
                         "sl2z.word_tokens": 0, "sl2z.periodic_points.points": 0,
                         "holonomy.stabilizer_search.words": 0,
                         "holonomy.stabilizer_search.witnesses": 0,
                         "holonomy.orbit_density.steps": 0}
        self.op_id = -1
        self._stack = [-1]
        self._layers = [None]
        self._restore = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, layer, name, fn, post=None):
        nid = self._name_id(name)
        flat = layer in _FLAT_LAYERS
        start, end, parent, op, names = (self.start, self.end, self.parent,
                                         self.op, self.name)
        stack, layers = self._stack, self._layers

        def traced(*args, **kwargs):
            if flat and layers[-1] == layer:
                return fn(*args, **kwargs)
            idx = len(start)
            start.append(perf_counter())
            end.append(0.0)
            parent.append(stack[-1])
            op.append(self.op_id)
            names.append(nid)
            stack.append(idx)
            layers.append(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                layers.pop()
            if post is not None:
                post(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count(self, key, amount):
        self.counters[key] += amount

    def _post_hooks(self):
        c = self._count
        hooks = {}
        for f in _ELIMINATIONS:
            hooks["intlinalg." + f] = (
                lambda args, result: c("intlinalg.cells",
                                       len(args[0]) * len(args[0][0])
                                       if args[0] else 0))

        def lift(args, result):
            c("origami.lift.returned", 1)
            c("origami.lift.found", result is not None)

        hooks["origami.lift_automorphism"] = lift
        hooks["sl2z.decompose_st"] = lambda a, r: c("sl2z.word_tokens", len(r))
        hooks["sl2z.periodic_points"] = (
            lambda a, r: c("sl2z.periodic_points.points", r[0]))
        hooks["holonomy.stabilizer_search"] = (
            lambda a, r: c("holonomy.stabilizer_search.witnesses",
                           len(r.witnesses)))
        hooks["holonomy.orbit_density"] = (
            lambda a, r: c("holonomy.orbit_density.steps", r.n_steps))
        hooks["origami.construct"] = (
            lambda a, r: c("origami.construct.calls", 1))
        return hooks

    def install(self):
        """Rebind every caller-visible name of the traced functions."""
        from minfol import holonomy, homology, origami

        hooks = self._post_hooks()
        replacements = {}
        for layer in LAYERS:
            module = sys.modules["minfol." + layer]
            for fname, fn in _public_functions(module):
                if layer == "cli" and fname != "run":
                    continue
                name = layer + "." + fname
                replacements[id(fn)] = (fn, self._wrap(layer, name, fn,
                                                       hooks.get(name)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "minfol" and not mod_name.startswith("minfol."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, attr, hit[1])

        self._rebind(homology.HomologyBasis, "decompose",
                     self._wrap("homology", "homology.decompose",
                                homology.HomologyBasis.decompose))
        self._rebind(origami.Origami, "__post_init__",
                     self._wrap("origami", "origami.construct",
                                origami.Origami.__post_init__,
                                hooks["origami.construct"]))
        self._rebind(holonomy.AffineLine, "compose",
                     self._count_words(holonomy.AffineLine.compose))

    def _count_words(self, compose):
        """AffineLine.compose is a counter, not a span: it is the unit of
        work of the stabilizer search (one call per word explored)."""
        search = self._name_id("holonomy.stabilizer_search")
        counters, stack, names = self.counters, self._stack, self.name

        def counted(a, b):
            if stack[-1] >= 0 and names[stack[-1]] == search:
                counters["holonomy.stabilizer_search.words"] += 1
            return compose(a, b)

        counted.__wrapped__ = compose
        return counted

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------ results

    def summary(self):
        """{span name: (calls, busy_s, self_s)} and {layer: busy_s}."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent, name = self.parent, self.name
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = [s.split(".", 1)[0] for s in self.names]
        per_name = {}
        per_layer = dict.fromkeys(LAYERS, 0.0)
        for i in range(n):
            nm = name[i]
            rec = per_name.setdefault(self.names[nm], [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur[i]
            rec[2] += dur[i] - child[i]
            p = parent[i]
            if p < 0 or layer_of[name[p]] != layer_of[nm]:
                per_layer[layer_of[nm]] += dur[i]
        return per_name, per_layer

    def metrics(self):
        """The PER_LAYER metrics this trace can give (cli process figures,
        the overhead and the roadmap rows are added by the caller)."""
        per_name, per_layer = self.summary()
        c = self.counters

        def calls(n):
            return per_name.get(n, (0, 0.0, 0.0))[0]

        def busy(n):
            return per_name.get(n, (0, 0.0, 0.0))[1]

        def self_s(n):
            return per_name.get(n, (0, 0.0, 0.0))[2]

        out = {}
        for f in _LINALG_TIMED:
            out["intlinalg.%s.calls" % f] = calls("intlinalg." + f)
            out["intlinalg.%s.busy_s" % f] = busy("intlinalg." + f)
        out["intlinalg.cells"] = c["intlinalg.cells"]
        out["permutations.calls"] = sum(
            rec[0] for nm, rec in per_name.items()
            if nm.startswith("permutations."))
        out["permutations.busy_s"] = per_layer["permutations"]
        out["origami.construct.calls"] = c["origami.construct.calls"]
        for f in ("sl2z_act", "canonical_form"):
            out["origami.%s.calls" % f] = calls("origami." + f)
            out["origami.%s.busy_s" % f] = busy("origami." + f)
        lift = "origami.lift_automorphism"
        out[lift + ".calls"] = calls(lift)
        out[lift + ".busy_s"] = busy(lift)
        out[lift + ".self_s"] = self_s(lift)
        returned = c["origami.lift.returned"]
        out["origami.lift_found_ratio"] = (c["origami.lift.found"] / returned
                                           if returned else 0.0)
        for f in ("homology_rank", "homology_basis"):
            key = "homology." + f
            out[key + ".calls"] = calls(key)
            out[key + ".busy_s"] = busy(key)
            out[key + ".self_s"] = self_s(key)
        out["homology.decompose.calls"] = calls("homology.decompose")
        out["homology.decompose.busy_s"] = busy("homology.decompose")
        out["homology.induced_action.busy_s"] = busy("homology.induced_action")
        out["homology.induced_action.self_s"] = self_s("homology.induced_action")
        out["sl2z.decompose_st.calls"] = calls("sl2z.decompose_st")
        out["sl2z.word_tokens"] = c["sl2z.word_tokens"]
        out["sl2z.periodic_points.calls"] = calls("sl2z.periodic_points")
        out["sl2z.periodic_points.busy_s"] = busy("sl2z.periodic_points")
        out["sl2z.periodic_points.points"] = c["sl2z.periodic_points.points"]
        search = "holonomy.stabilizer_search"
        words = c[search + ".words"]
        out[search + ".calls"] = calls(search)
        out[search + ".busy_s"] = busy(search)
        out[search + ".words"] = words
        out[search + ".witness_ratio"] = (c[search + ".witnesses"] / words
                                          if words else 0.0)
        orbit_busy = busy("holonomy.orbit_density")
        out["holonomy.orbit_density.busy_s"] = orbit_busy
        out["holonomy.orbit_density.steps_per_s"] = (
            c["holonomy.orbit_density.steps"] / orbit_busy if orbit_busy else 0.0)
        out["holonomy.rotation_number.busy_s"] = busy("holonomy.rotation_number")
        out["cover.busy_s"] = per_layer["cover"]
        out["torus3.busy_s"] = per_layer["torus3"]
        out["cli.run.busy_s"] = busy("cli.run")
        out["cli.self_s"] = self_s("cli.run")
        return out

    def op_span_time(self, op_index, name):
        """Summed duration of the named spans recorded during one op."""
        nid = self._name_ids.get(name)
        total = 0.0
        for i in range(len(self.start)):
            if self.op[i] == op_index and self.name[i] == nid:
                total += self.end[i] - self.start[i]
        return total

    def write(self, path, header):
        """One JSON header line, then the five span arrays back to back
        (float64 start, float64 end, int64 parent, int64 op, uint16
        name index), all in native byte order."""
        head = dict(header, names=self.names, count=len(self.start),
                    fields=["start:d", "end:d", "parent:l", "op:l", "name:H"],
                    byteorder=sys.byteorder)
        with open(path, "wb") as fh:
            fh.write(json.dumps(head, sort_keys=True).encode() + b"\n")
            for arr in (self.start, self.end, self.parent, self.op, self.name):
                arr.tofile(fh)
