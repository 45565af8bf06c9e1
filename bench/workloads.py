"""The four benchmark workloads: set-up, query calls and canonical digests.

Each workload has three functions:

* ``setup(fixed)`` imports the layers it needs, runs ``build_system`` for its
  types and builds its fixed objects; it returns the context the queries use.
* ``call(ctx, q)`` issues one query through the library's public functions.
  Only this call is timed.  Answers that the library signals with an
  exception but that are valid (``NotComparable``, ``TargetNotReached``) are
  returned as markers; every other exception escapes and counts as a failure.
* ``canon(ctx, q, raw)`` turns the raw answer into a representation-free JSON
  value (words, sorted sets, counts) whose digest is compared against the one
  recorded in ``pool.json``.  It raises ``QueryFailed`` for an answer that is
  not valid, such as a non-zero CLI exit code or a cone certificate that does
  not check out.

Queries are plain JSON objects, so the generator can hand them to the measured
process as data.  Nothing here imports ``twisted_bruhat`` at module level:
``setup`` does, so its cost lands in ``setup_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from fractions import Fraction


class QueryFailed(Exception):
    """The program answered, but the answer is not a valid one."""


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def query_id(q) -> str:
    return json.dumps(q, sort_keys=True, separators=(",", ":"))


def _word(w) -> str:
    return ".".join(map(str, w.word())) or "e"


def _parse(text):
    return tuple(int(p) for p in text.split(".")) if text not in ("", "e") else ()


def _root(r):
    base, k = r
    return [list(base), k]


# ----- strong-cold: one in-process CLI call per query ----------------------

_DOT_NODE = re.compile(r'^\s*(n\d+) \[label="(.*)\\n(-?\d+)"\];$')
_DOT_EDGE = re.compile(
    r'^\s*(n\d+) -> (n\d+) \[color=(\w+)(?:, label="([^"]*)")?\];$'
)


def canonical_dot(text):
    """Nodes as sorted (label, grade); edges as a sorted set of
    (lower label, upper label, reflection, colour)."""
    labels, nodes, edges = {}, [], set()
    for line in text.splitlines():
        m = _DOT_NODE.match(line)
        if m:
            labels[m.group(1)] = m.group(2)
            nodes.append((m.group(2), int(m.group(3))))
            continue
        m = _DOT_EDGE.match(line)
        if m:
            edges.add((m.group(1), m.group(2), m.group(4) or "", m.group(3)))
    edges = sorted((labels[a], labels[b], r, c) for a, b, r, c in edges)
    return {"nodes": sorted(nodes), "edges": edges}


def canonical_jsonl(text):
    return sorted(line for line in text.splitlines() if line.strip())


def strong_setup(fixed):
    from twisted_bruhat import build_system, cli

    for t in fixed["types"]:
        build_system(t)
    return {"cli": cli}


def strong_call(ctx, q):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ctx["cli"].main(q["argv"])
    return code, out.getvalue()


def strong_canon(ctx, q, raw):
    code, text = raw
    if code != 0:
        raise QueryFailed(f"exit code {code}")
    if "dot" in q["argv"]:
        return canonical_dot(text)
    return canonical_jsonl(text)


# ----- weak-warm: library queries against shared biclosed sets -------------


def weak_setup(fixed):
    from twisted_bruhat import build_system, orders, parse_biclosed

    sets = {}
    for name, (type_label, spec) in fixed["biclosed"].items():
        sets[name] = parse_biclosed(build_system(type_label), spec)
    return {"B": sets, "orders": orders}


def weak_call(ctx, q):
    from twisted_bruhat import from_word

    orders = ctx["orders"]
    B = ctx["B"][q["B"]]
    op = q["op"]
    elem = lambda text: from_word(B.datum, _parse(text))
    if op == "level_set":
        return [orders.level_set_sample(B, k, q["radius"]) for k in q["ks"]]
    if op == "no_local_extremum":
        return orders.no_local_extremum_check(B, q["radius"])
    if op == "ball_lengths":
        ball = orders.length_ball(B.datum, q["radius"])
        return [(w, orders.twisted_length_right(w, B)) for w in ball]
    if op == "weak_pair":
        u, v = elem(q["u"]), elem(q["v"])
        leq = orders.weak_leq(u, v, B)
        try:
            chain = orders.weak_chain(u, v, B)
        except orders.NotComparable:
            chain = "NotComparable"
        return leq, chain
    if op == "antichain":
        try:
            return orders.antichain_at_level(B, q["k"], q["size"], q["radius"])
        except orders.TargetNotReached:
            return "TargetNotReached"
    if op == "dot_iso":
        pairs = [(elem(u), elem(v)) for u, v in q["pairs"]]
        return orders.dot_iso_check(elem(q["w"]), B, pairs)
    raise ValueError(f"unknown op {op!r}")


def weak_canon(ctx, q, raw):
    op = q["op"]
    if isinstance(raw, str):
        return raw
    if op == "level_set":
        return [sorted(_word(w) for w in level) for level in raw]
    if op == "antichain":
        return sorted(_word(w) for w in raw)
    if op == "no_local_extremum":
        return sorted((_word(w), kind) for w, kind in raw)
    if op == "ball_lengths":
        return sorted((_word(w), n) for w, n in raw)
    if op == "weak_pair":
        leq, chain = raw
        if not isinstance(chain, str):
            chain = [_word(w) for w in chain]
        return [leq, chain]
    if op == "dot_iso":
        return sorted((_word(u), _word(v)) for u, v in raw)
    raise ValueError(f"unknown op {op!r}")


# ----- coxeter-growth: the (2,3,inf) backend --------------------------------


def coxeter_setup(fixed):
    from twisted_bruhat import generic

    cm = generic.coxeter_2_3_inf()
    return {
        "generic": generic,
        "cm": cm,
        "sub": generic.w_prime(cm),
        "target": generic.target_element(cm),
    }


def coxeter_call(ctx, q):
    g, cm = ctx["generic"], ctx["cm"]
    op = q["op"]
    if op == "n_tilde":
        return g.n_tilde(g.from_word(cm, _parse(q["z"])))
    if op == "twisted_length_A":
        return g.twisted_length_A(g.from_word(cm, _parse(q["z"])), ctx["target"])
    if op == "in_A":
        return [g.in_A(ctx["target"], tuple(r)) for r in q["roots"]]
    if op == "canonical":
        return g.canonical_check(ctx["sub"], g.reflection_in(cm, tuple(q["root"])))
    if op == "universal":
        return g.universal_check(ctx["sub"], q["budget"])
    if op == "interval_growth":
        return g.interval_growth(cm, tuple(q["budgets"]))
    raise ValueError(f"unknown op {op!r}")


def coxeter_canon(ctx, q, raw):
    if q["op"] == "n_tilde":
        return sorted(_word(t) for t in raw)
    if q["op"] == "interval_growth":
        return [
            [rec["budget"], rec["count"], sorted(rec["new_elements"])]
            for rec in raw
        ]
    return raw


# ----- topes-cones: hemispaces, tope blocks and exact cones -----------------


def topes_setup(fixed):
    from twisted_bruhat import (
        build_system,
        from_inversion_set,
        from_word,
        parse_biclosed,
    )
    from twisted_bruhat import linprog, topes

    hemispaces = {}
    for name, spec in fixed["hemispaces"].items():
        datum = build_system(spec["type"])
        if "inversion_set_of" in spec:
            B = from_inversion_set(from_word(datum, _parse(spec["inversion_set_of"])))
        else:
            B = parse_biclosed(datum, spec["biclosed"])
        hemispaces[name] = topes.from_biclosed(B)
    return {"H": hemispaces, "topes": topes, "linprog": linprog}


def topes_call(ctx, q):
    from twisted_bruhat import dot_action, from_word

    topes = ctx["topes"]
    op = q["op"]
    if op == "cone":
        return ctx["linprog"].cone_membership(q["generators"], q["target"])
    H = ctx["H"][q["H"]]
    if op == "tope_block":
        return topes.tope_block(H, H, q["radius"])
    if op == "lattice":
        B = H.biclosed
        H2 = topes.from_biclosed(dot_action(from_word(B.datum, _parse(q["w"])), B))
        try:
            return topes.interval_lattice_check(H, H2, H)
        except topes.NotComparable:
            return "NotComparable"
    if op == "convex":
        return topes.check_convex_truncated(H, q["level_bound"])
    raise ValueError(f"unknown op {op!r}")


def _check_cone(q, cert):
    gens = [[Fraction(x) for x in g] for g in q["generators"]]
    target = [Fraction(x) for x in q["target"]]
    dot = lambda u, v: sum(a * b for a, b in zip(u, v))
    if cert.feasible:
        combo = [
            sum(c * g[i] for c, g in zip(cert.coefficients, gens))
            for i in range(len(target))
        ]
        ok = combo == target and all(c >= 0 for c in cert.coefficients)
    else:
        y = cert.functional
        ok = dot(y, target) > 0 and all(dot(y, g) <= 0 for g in gens)
    if not ok:
        raise QueryFailed("cone certificate does not verify")


def topes_canon(ctx, q, raw):
    op = q["op"]
    if isinstance(raw, str):
        return raw
    if op == "cone":
        _check_cone(q, raw)
        return raw.feasible
    if op == "tope_block":
        keys = sorted(sorted(_root(r) for r in n.key) for n in raw.nodes)
        return {"keys": keys, "edges": len(raw.edges)}
    if op == "lattice":
        return [raw["interval_size"], raw["is_lattice"], len(raw["problems"])]
    if op == "convex":
        v = raw["violation"]
        return [v is None, raw["targets_checked"], raw["level_bound"]]
    raise ValueError(f"unknown op {op!r}")


class Workload:
    def __init__(self, setup, call, canon, warm):
        self.setup = setup
        self.call = call
        self.canon = canon
        # weak-warm is about hot caches: one untimed pass over its queries
        # fills them before the timed loop starts.
        self.warm = warm


WORKLOADS = {
    "strong-cold": Workload(strong_setup, strong_call, strong_canon, False),
    "weak-warm": Workload(weak_setup, weak_call, weak_canon, True),
    "coxeter-growth": Workload(coxeter_setup, coxeter_call, coxeter_canon, False),
    "topes-cones": Workload(topes_setup, topes_call, topes_canon, False),
}
