"""Per-layer tracing installed from outside the library.

``Tracer.install()`` wraps the public functions and methods of each layer:
methods are replaced on their class, module functions in every
``twisted_bruhat`` module namespace that holds them.  Each call records a
span (name, start, end, parent span, query index) in flat arrays that stay in
memory; ``write`` dumps them at the end.  A layer's self time is the summed
duration of its spans minus the time their child spans cover.

Only the traced run installs a tracer; untimed work of the benchmark itself
(canonicalising answers) runs with the tracer paused.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, class or None, attribute names, layer whose self time the spans
# count in).  A span is named "<module>.<attribute>" unless SPAN_NAMES says
# otherwise.
TARGETS = [
    ("finite", "CartanDatum",
     ("inner", "coroot", "pairing", "reflect", "reflection",
      "simple_reflection", "root_name"), "finite"),
    ("finite", "WeylElement",
     ("apply", "__mul__", "inverse", "length", "word"), "finite"),
    ("finite", None, ("build_system", "standard_positive_system"), "finite"),
    ("affine_group", "AffineWeylElement",
     ("__mul__", "inverse", "inversion_chains", "word", "apply", "inv_apply",
      "length", "max_inversion_level", "in_inversion_set"), "affine_group"),
    ("affine_group", None,
     ("identity", "simple_reflections", "reflection", "translation",
      "from_word", "parse_word", "inversion_set"), "affine_group"),
    ("biclosed", "BiclosedSet",
     ("count_inversions_in", "count_in_chain", "contains", "classify",
      "level_star", "equals", "complement"), "biclosed"),
    ("biclosed", None,
     ("dot_action", "parse_biclosed", "from_inversion_set",
      "format_biclosed"), "biclosed"),
    ("orders", None, ("twisted_length_left", "twisted_length_right"),
     "orders.twisted_length"),
    ("orders", None, ("covers", "lower_covers", "upper_covers", "scan_ray"),
     "orders.scan_ray"),
    ("orders", None, ("length_ball",), "orders.length_ball"),
    ("orders", None,
     ("interval", "downset_corank", "strong_leq", "weak_leq", "weak_chain",
      "level_set_sample", "no_local_extremum_check", "antichain_at_level",
      "dot_iso_check"), "orders.builders"),
    ("poset", "GradedPoset", ("to_dot", "to_jsonl"), "poset"),
    ("cli", None, ("main",), "cli"),
    ("generic", "CoxElement",
     ("__mul__", "word", "length", "apply", "inv_apply", "inverse"), "generic"),
    ("generic", "ReflectionSubgroup",
     ("generator_roots", "positive_roots_to_depth"), "generic"),
    ("generic", None,
     ("identity", "simple_reflections", "from_word", "reflection_in",
      "inversion_roots", "n_tilde", "canonical_check", "universal_check",
      "is_straight_word", "in_A", "twisted_length_A", "interval_growth"),
     "generic"),
    ("linprog", None, ("cone_membership",), "linprog"),
    ("topes", "Hemispace", ("contains", "level_bound"), "topes"),
    ("topes", None,
     ("from_biclosed", "symdiff_positive", "tope_leq", "cone_member",
      "check_convex_truncated", "tope_block", "interval_lattice_check",
      "positive_roots_to_level", "all_roots_to_level"), "topes"),
]

SPAN_NAMES = {
    ("finite", "__mul__"): "finite.mul",
    ("affine_group", "__mul__"): "affine_group.mul",
    ("generic", "__mul__"): "generic.mul",
    ("orders", "twisted_length_left"): "orders.twisted_length",
    ("orders", "twisted_length_right"): "orders.twisted_length",
    ("poset", "to_dot"): "poset.export",
    ("poset", "to_jsonl"): "poset.export",
}

SELF_METRICS = {
    "finite": "finite.self_s",
    "affine_group": "affine_group.self_s",
    "biclosed": "biclosed.self_s",
    "orders.twisted_length": "orders.twisted_length.self_s",
    "orders.scan_ray": "orders.scan_ray.self_s",
    "orders.length_ball": "orders.length_ball.self_s",
    "orders.builders": "orders.builders.self_s",
    "poset": "poset.export.self_s",
    "cli": "cli.self_s",
    "generic": "generic.self_s",
    "linprog": "linprog.self_s",
    "topes": "topes.self_s",
}


class Tracer:
    def __init__(self):
        self.names = []  # span name id -> name
        self.layer_of = []  # span name id -> layer
        self._ids = {}
        self.span_name = array("H")
        self.parent = array("i")
        self.query_index = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.query = -1
        self.paused = False
        self.counts = Counter()
        self.in_interval = 0

    # ----- installation --------------------------------------------------

    def _id(self, name, layer):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._ids[name]

    def _wrap(self, fn, sid, hook):
        tr = self
        span_name, parent, query_index = self.span_name, self.parent, self.query_index
        start, end = self.start, self.end

        def traced(*args, **kwargs):
            if tr.paused:
                return fn(*args, **kwargs)
            i = len(span_name)
            span_name.append(sid)
            parent.append(tr.current)
            query_index.append(tr.query)
            end.append(0.0)
            caller = tr.current
            tr.current = i
            start.append(perf_counter())
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tr, fn, args, kwargs)
            finally:
                end[i] = perf_counter()
                tr.current = caller

        return functools.update_wrapper(traced, fn)

    def install(self):
        package = [
            m for name, m in list(sys.modules.items())
            if name == "twisted_bruhat" or name.startswith("twisted_bruhat.")
        ]
        for modname, clsname, attrs, layer in TARGETS:
            module = sys.modules.get(f"twisted_bruhat.{modname}")
            if module is None:
                continue
            owner = getattr(module, clsname) if clsname else module
            for attr in attrs:
                fn = owner.__dict__[attr] if clsname else getattr(module, attr)
                name = SPAN_NAMES.get((modname, attr), f"{modname}.{attr}")
                hook = HOOKS.get((modname, attr))
                wrapped = self._wrap(fn, self._id(name, layer), hook)
                if clsname:
                    setattr(owner, attr, wrapped)
                    continue
                for m in package:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapped)
        return self

    # ----- results ---------------------------------------------------------

    def write(self, path):
        """One JSON header line, then the raw span arrays in header order."""
        header = {
            "names": self.names,
            "layers": self.layer_of,
            "spans": len(self.span_name),
            "arrays": [
                ["span_name", "H"], ["parent", "i"], ["query_index", "i"],
                ["start", "d"], ["end", "d"],
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.parent, self.query_index,
                        self.start, self.end):
                arr.tofile(fh)

    def metrics(self):
        n = len(self.span_name)
        span_name, parent, start, end = (
            self.span_name, self.parent, self.start, self.end,
        )
        child = array("d", bytes(8 * n))  # time covered by each span's children
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        self_time = Counter()
        for i in range(n):
            self_time[self.layer_of[span_name[i]]] += end[i] - start[i] - child[i]
        by_name, layer_calls = Counter(), Counter()
        for sid, c in Counter(span_name).items():
            by_name[self.names[sid]] += c
            layer_calls[self.layer_of[sid]] += c
        k = self.counts
        ratio = lambda a, b: a / b if b else 0.0
        out = {
            "finite.calls": layer_calls["finite"],
            "affine_group.mul.calls": by_name["affine_group.mul"],
            "affine_group.inversion_chains.calls": by_name["affine_group.inversion_chains"],
            "affine_group.inversion_chains.hit_ratio": ratio(
                k["inversion_chains.hits"], by_name["affine_group.inversion_chains"]),
            "affine_group.word.calls": by_name["affine_group.word"],
            "biclosed.count_inversions_in.calls": by_name["biclosed.count_inversions_in"],
            "biclosed.count_in_chain.calls": by_name["biclosed.count_in_chain"],
            "biclosed.contains.calls": by_name["biclosed.contains"],
            "orders.twisted_length.calls": by_name["orders.twisted_length"],
            "orders.twisted_length.hit_ratio": ratio(
                k["twisted_length.hits"], by_name["orders.twisted_length"]),
            "orders.covers.calls": by_name["orders.covers"],
            "orders.scan_ray.calls": by_name["orders.scan_ray"],
            "orders.scan_ray.ray_evals": k["scan_ray.ray_evals"],
            "orders.scan_ray.doublings": k["scan_ray.doublings"],
            "orders.covers.yield_ratio": ratio(k["covers.found"], k["scan_ray.ray_evals"]),
            "orders.interval.calls": by_name["orders.interval"],
            "orders.interval.lower_covers_per_call": ratio(
                k["interval.lower_covers"], by_name["orders.interval"]),
            "orders.downset_corank.calls": by_name["orders.downset_corank"],
            "orders.weak_leq.calls": by_name["orders.weak_leq"],
            "poset.export.bytes": k["poset.export.bytes"],
            "cli.main.calls": by_name["cli.main"],
            "cli.exit_nonzero": k["cli.exit_nonzero"],
            "generic.mul.calls": by_name["generic.mul"],
            "generic.word.calls": by_name["generic.word"],
            "generic.length.calls": by_name["generic.length"],
            "generic.in_A.calls": by_name["generic.in_A"],
            "generic.in_A.budget_exceeded": k["in_A.budget_exceeded"],
            "linprog.cone_membership.calls": by_name["linprog.cone_membership"],
            "linprog.feasible_ratio": ratio(
                k["cone_membership.feasible"], by_name["linprog.cone_membership"]),
            "topes.contains.calls": by_name["topes.contains"],
            "topes.tope_block.nodes": k["tope_block.nodes"],
        }
        for layer, metric in SELF_METRICS.items():
            out[metric] = self_time[layer]
        out["trace.spans"] = n
        return out


# ----- hooks: counters measured where the work happens -----------------------


def _call_paused(tr, fn, *args):
    tr.paused = True
    try:
        return fn(*args)
    finally:
        tr.paused = False


def _inversion_chains(tr, fn, args, kwargs):
    tr.counts["inversion_chains.hits"] += args[0]._chains is not None
    return fn(*args, **kwargs)


def _twisted_length(cache_attr):
    def hook(tr, fn, args, kwargs):
        w, B = args[0], args[1]
        tr.counts["twisted_length.hits"] += w in getattr(B, cache_attr)
        return fn(*args, **kwargs)

    return hook


def _scan_ray(tr, fn, args, kwargs):
    result = fn(*args, **kwargs)
    lo, hi, deltas, _ = result
    w, B = args[0], args[1]
    # The window starts at this half-width and doubles until it certifies.
    n = _call_paused(
        tr, lambda: 2 + w.inverse().max_inversion_level() + B.level_star()
    )
    doublings = 0
    while n < hi:
        n *= 2
        doublings += 1
    tr.counts["scan_ray.ray_evals"] += len(deltas)
    tr.counts["scan_ray.doublings"] += doublings
    return result


def _covers(tr, fn, args, kwargs):
    result = fn(*args, **kwargs)
    tr.counts["covers.found"] += len(result[0]) + len(result[1])
    return result


def _interval(tr, fn, args, kwargs):
    tr.in_interval += 1
    try:
        return fn(*args, **kwargs)
    finally:
        tr.in_interval -= 1


def _lower_covers(tr, fn, args, kwargs):
    if tr.in_interval:
        tr.counts["interval.lower_covers"] += 1
    return fn(*args, **kwargs)


def _export(tr, fn, args, kwargs):
    text = fn(*args, **kwargs)
    tr.counts["poset.export.bytes"] += len(text.encode())
    return text


def _cli_main(tr, fn, args, kwargs):
    code = 1
    try:
        code = fn(*args, **kwargs)
        return code
    finally:
        tr.counts["cli.exit_nonzero"] += code != 0


def _in_A(tr, fn, args, kwargs):
    budget_exceeded = sys.modules["twisted_bruhat.generic"].BudgetExceeded
    try:
        return fn(*args, **kwargs)
    except budget_exceeded:
        tr.counts["in_A.budget_exceeded"] += 1
        raise


def _cone_membership(tr, fn, args, kwargs):
    cert = fn(*args, **kwargs)
    tr.counts["cone_membership.feasible"] += cert.feasible
    return cert


def _tope_block(tr, fn, args, kwargs):
    poset = fn(*args, **kwargs)
    tr.counts["tope_block.nodes"] += len(poset.nodes)
    return poset


HOOKS = {
    ("affine_group", "inversion_chains"): _inversion_chains,
    ("orders", "twisted_length_left"): _twisted_length("_lB"),
    ("orders", "twisted_length_right"): _twisted_length("_lBp"),
    ("orders", "scan_ray"): _scan_ray,
    ("orders", "covers"): _covers,
    ("orders", "interval"): _interval,
    ("orders", "lower_covers"): _lower_covers,
    ("poset", "to_dot"): _export,
    ("poset", "to_jsonl"): _export,
    ("cli", "main"): _cli_main,
    ("generic", "in_A"): _in_A,
    ("linprog", "cone_membership"): _cone_membership,
    ("topes", "tope_block"): _tope_block,
}
