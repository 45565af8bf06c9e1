"""Build the query pool and record the digest of every query's answer.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 bench/record.py

writes ``bench/pool.json``.  The pool is fixed by a master seed, so every
benchmark seed samples its inputs from the same recorded queries; the digests
are those of the program at the commit that recorded them, and a later
change must reproduce them.  The queries are sorted by cost into strata
(see HEAVY and BAND), from which every run draws the same number, so that a
run's mix of work hardly depends on its seed.

Re-record only when the benchmark's queries change, never to accept a
changed answer.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, digest, query_id  # noqa: E402

MASTER_SEED = 20191905
TYPES = ("A2", "A3", "B2", "G2")


def _fmt(letters):
    return ".".join(map(str, letters)) or "e"


def _classes(rank):
    """(class, d1, d2) index sets; Mixed needs orthogonal simples (A3 only)."""
    full = list(range(1, rank + 1))
    out = [
        ("Finite", full, []),
        ("Cofinite", [], full),
        ("InfiniteWordInversion", [1], []),
        ("InfiniteWordInversion", [], []),
        ("InfiniteWordCoinversion", [], [rank]),
        ("InfiniteWordCoinversion", [], [1]),
    ]
    if rank == 3:
        out += [("Mixed", [1], [3]), ("Mixed", [3], [1])]
    return out


def _spec(twist, psi, d1, d2):
    ids = lambda s: ",".join(map(str, s))
    return f"twist:{_fmt(twist)} psi:{_fmt(psi)} d1:{{{ids(d1)}}} d2:{{{ids(d2)}}}"


def _rand_word(rng, letters, lo, hi):
    return tuple(rng.randint(1, letters) for _ in range(rng.randint(lo, hi)))


# ----- strong-cold ----------------------------------------------------------


def strong_pool(rng):
    from twisted_bruhat import build_system, from_word, parse_biclosed
    from twisted_bruhat.affine_group import format_word
    from twisted_bruhat.orders import lower_covers, twisted_length_left

    groups = {}
    for t in TYPES:
        datum = build_system(t)
        r = datum.rank
        for cls, d1, d2 in _classes(r):
            spec = _spec(
                _rand_word(rng, r + 1, 1, 2), _rand_word(rng, r, 0, 2), d1, d2
            )
            B = parse_biclosed(datum, spec)
            assert B.classify() == cls, (spec, B.classify(), cls)
            base = ["--type", t, "--biclosed", spec]
            for _ in range(2):
                w = _rand_word(rng, r + 1, 0, 3)
                groups.setdefault(f"covers/{t}", []).append(
                    {"argv": ["covers", *base, "--elem", _fmt(w)]}
                )
            # Comparable pairs one and two grades apart, walked down by
            # lower covers; a third pair is an arbitrary element two twisted
            # grades lower, which is often not below y (an empty interval).
            layer2 = []
            while not layer2:
                y = from_word(datum, _rand_word(rng, r + 1, 1, 3))
                layer1 = [z for _, z in lower_covers(y, B)]
                x1 = rng.choice(layer1) if layer1 else y
                layer2 = [z for _, z in lower_covers(x1, B)] if layer1 else []
            x2 = rng.choice(layer2)
            fmt = rng.choice(["jsonl", "dot"])
            pairs = [("interval1", x1)]
            # Two-grade intervals cost seconds in A3 and G2; they stay out so
            # that a run holds enough queries for its tail percentile.
            if t in ("A2", "B2"):
                pairs.append(("interval2", x2))
                ly = twisted_length_left(y, B)
                for _ in range(50):
                    z = from_word(datum, _rand_word(rng, r + 1, 0, 4))
                    if twisted_length_left(z, B) == ly - 2 and z not in layer2:
                        pairs.append(("interval2", z))
                        break
            for kind, x in pairs:
                groups.setdefault(f"{kind}/{t}", []).append(
                    {
                        "argv": [
                            "interval", *base,
                            "--x", format_word(x.word()),
                            "--y", format_word(y.word()),
                            "--format", fmt,
                        ]
                    }
                )
    return {"types": list(TYPES)}, groups


# ----- weak-warm -------------------------------------------------------------

WEAK_SETS = {
    "A2-iwi": ("A2", "twist:1.3 psi:1 d1:{1} d2:{}"),
    "A2-iwc": ("A2", "twist:2 psi:e d1:{} d2:{1}"),
    "B2-iwc": ("B2", "twist:3.1 psi:1 d1:{} d2:{2}"),
    "G2-iwi": ("G2", "twist:3.2 psi:e d1:{1} d2:{}"),
    "A3-mixed": ("A3", "twist:4.2 psi:2 d1:{1} d2:{3}"),
}
WEAK_RADIUS = {"A2": 7, "B2": 6, "G2": 5, "A3": 5}


def weak_pool(rng):
    from twisted_bruhat import build_system, parse_biclosed
    from twisted_bruhat.orders import level_set_sample

    groups = {}
    for name, (t, spec) in WEAK_SETS.items():
        datum = build_system(t)
        B = parse_biclosed(datum, spec)
        assert B.classify() not in ("Finite", "Cofinite")
        letters = datum.rank + 1
        R = WEAK_RADIUS[t]
        add = lambda kind, q: groups.setdefault(f"{kind}/{name}", []).append(
            {"B": name, "op": kind, **q}
        )
        for radius in range(R - 2, R + 1):
            add("ball_lengths", {"radius": radius})
            add("no_local_extremum", {"radius": radius})
            add("level_set", {"ks": [-1, 0, 1, 2], "radius": radius})
        for k in (-2, -1, 0, 1, 2, 3):
            size = len(level_set_sample(B, k, R))
            add("antichain", {"k": k, "size": max(1, size // 2), "radius": R})
        for _ in range(24):
            u = _rand_word(rng, letters, 0, 3)
            v = u + _rand_word(rng, letters, 1, 3)
            if rng.random() < 0.5:
                v = _rand_word(rng, letters, 1, 5)
            add("weak_pair", {"u": _fmt(u), "v": _fmt(v)})
        for _ in range(6):
            pairs = [
                [_fmt(_rand_word(rng, letters, 0, 4)), _fmt(_rand_word(rng, letters, 0, 4))]
                for _ in range(6)
            ]
            add("dot_iso", {"w": _fmt(_rand_word(rng, letters, 1, 3)), "pairs": pairs})
    return {"biclosed": WEAK_SETS}, groups


# ----- coxeter-growth --------------------------------------------------------


def _reduced_word(rng, generic, cm, length):
    gens = generic.simple_reflections(cm)
    w, word = generic.identity(cm), []
    while len(word) < length:
        a = rng.randint(1, 3)
        w2 = w * gens[a - 1]
        if w2.length() == len(word) + 1:
            w, word = w2, word + [a]
    return tuple(word)


def coxeter_pool(rng):
    from twisted_bruhat import generic

    cm = generic.coxeter_2_3_inf()
    groups = {}
    add = lambda group, q: groups.setdefault(group, []).append(q)
    for length in range(3, 11):
        for _ in range(6):
            z = _fmt(_reduced_word(rng, generic, cm, length))
            add(f"n_tilde/{length}", {"op": "n_tilde", "z": z})
    for length in range(2, 9):
        for _ in range(6):
            z = _fmt(_reduced_word(rng, generic, cm, length))
            add(f"twisted_length_A/{length}", {"op": "twisted_length_A", "z": z})
    roots = []
    for length in range(1, 8):
        for _ in range(8):
            z = generic.from_word(cm, _reduced_word(rng, generic, cm, length))
            roots.extend(generic.inversion_roots(z))
    roots = sorted({tuple(int(x) for x in r) for r in roots})
    for _ in range(30):
        add("in_A", {"op": "in_A", "roots": [list(r) for r in rng.sample(roots, 8)]})
    small = [r for r in roots if sum(r) <= 6]
    for depth in range(1, 3):
        band = [r for r in small if 3 * (depth - 1) < sum(r) <= 3 * depth]
        for r in rng.sample(band, min(8, len(band))):
            add(f"canonical/{depth}", {"op": "canonical", "root": list(r)})
    for budget in (4, 6, 8, 10, 12):
        add("universal", {"op": "universal", "budget": budget})
    for budgets in ((3,), (4,)):
        add("interval_growth", {"op": "interval_growth", "budgets": list(budgets)})
    return {}, groups


# ----- topes-cones -----------------------------------------------------------

TOPE_WORDS = {"A2": "1", "B2": "2", "G2": "1", "A3": "2"}
CONVEX_SPECS = {
    "A2": ["twist:1.2 psi:e d1:{} d2:{}", "twist:2 psi:1 d1:{1} d2:{}"],
    "B2": ["twist:1.2 psi:e d1:{} d2:{}", "twist:3 psi:e d1:{} d2:{2}"],
    "G2": ["twist:2 psi:1 d1:{1} d2:{}"],
    "A3": ["twist:1.2 psi:e d1:{} d2:{}"],
}
TOPE_RADII = {"A2": (1, 2, 3, 4), "B2": (1, 2, 3, 4), "G2": (1, 2, 3), "A3": (1, 2, 3)}


def topes_pool(rng):
    from twisted_bruhat import build_system, parse_biclosed

    hemispaces = {}
    groups = {}
    add = lambda group, q: groups.setdefault(group, []).append(q)
    for t in TYPES:
        datum = build_system(t)
        center = f"{t}-finite"
        hemispaces[center] = {"type": t, "inversion_set_of": TOPE_WORDS[t]}
        for radius in TOPE_RADII[t]:
            add(f"tope_block/{t}", {"op": "tope_block", "H": center, "radius": radius})
        for _ in range(6):
            w = _fmt(_rand_word(rng, datum.rank + 1, 1, 3 if t != "A3" else 2))
            add(f"lattice/{t}", {"op": "lattice", "H": center, "w": w})
        for i, spec in enumerate(CONVEX_SPECS[t]):
            name = f"{t}-convex{i}"
            hemispaces[name] = {"type": t, "biclosed": spec}
            assert parse_biclosed(datum, spec).classify() != "Mixed"
            for level in (1, 2):
                add(f"convex/{t}", {"op": "convex", "H": name, "level_bound": level})
        hemispaces[f"{t}-convexN"] = {"type": t, "inversion_set_of": "1.2.3"}
        add(f"convex/{t}", {"op": "convex", "H": f"{t}-convexN", "level_bound": 1})
    # Cone queries are three quarters of a run, so that the median latency
    # falls inside their dense range of cost rather than at its edge.
    for dim in (3, 4, 5):
        for n in (4, 6, 8, 10, 12, 16):
            for _ in range(12):
                gens = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(n)]
                target = [rng.randint(-3, 3) for _ in range(dim)]
                add(f"cone/{dim}x{n}", {"op": "cone", "generators": gens, "target": target})
    return {"hemispaces": hemispaces}, groups


POOLS = {
    "strong-cold": strong_pool,
    "weak-warm": weak_pool,
    "coxeter-growth": coxeter_pool,
    "topes-cones": topes_pool,
}


# A run takes every query of the costliest HEAVY share of the pool, and one
# query from each pair of neighbours in cost among the rest.  Its mix of cost
# then hardly depends on the seed, which keeps the spread between runs low,
# and the tail percentile rests on the same queries in every run.
HEAVY = 0.15
BAND = 2


def _strata(entries):
    entries.sort(key=lambda e: e[0])
    k = math.ceil(HEAVY * len(entries))
    rest = [e for _, e in entries[: len(entries) - k]]
    heavy = [e for _, e in entries[len(entries) - k:]]
    strata = [{"stratum": "heavy", "take": len(heavy), "queries": heavy}]
    n = len(rest) // BAND
    for b in range(n):
        band = rest[b * BAND: (b + 1) * BAND if b < n - 1 else None]
        strata.append({"stratum": f"band{b}", "take": 1, "queries": band})
    return strata


def record(name):
    """Answer every pool query three times: the answers must agree, and the
    faster of the last two calls (caches are warm by then) is its cost."""
    rng = random.Random(f"{MASTER_SEED}/{name}")
    fixed, groups = POOLS[name](rng)
    wl = WORKLOADS[name]
    ctx = wl.setup(fixed)
    entries = []
    for group in sorted(groups):
        costs = []
        for q in groups[group]:
            values, times = [], []
            for _ in range(3):
                t = time.perf_counter()
                raw = wl.call(ctx, q)
                times.append(time.perf_counter() - t)
                values.append(wl.canon(ctx, q, raw))
            if any(v != values[0] for v in values):
                raise SystemExit(f"{query_id(q)}: answer differs between calls")
            cost = min(times[1:])
            costs.append(1000 * cost)
            entries.append((cost, {"q": q, "digest": digest(values[0])}))
        costs.sort()
        print(
            f"{name:15s} {group:26s} n={len(costs):3d} "
            f"ms {costs[0]:8.2f} {costs[len(costs) // 2]:8.2f} {costs[-1]:8.2f}",
            file=sys.stderr,
        )
    return {"fixed": fixed, "strata": _strata(entries)}


def main():
    path = os.path.join(HERE, "pool.json")
    names = sys.argv[1:] or list(POOLS)
    pool = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            pool = json.load(fh)
    for name in names:
        pool[name] = record(name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, sort_keys=True, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
