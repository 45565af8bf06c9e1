"""The full verification suite: thirteen independent checks, each returning
(name, passed, detail).  `run_all` executes every check; the CLI and the
acceptance tests both consume this module so there is a single source of
truth for what 'verified' means."""

from __future__ import annotations

import random
from itertools import product
from operator import sub

from . import a2, generic, topes
from .affine_group import affine_tops, format_word, from_word, identity
from .affine_group import reflection
from .biclosed import (
    BiclosedSet,
    dot_action,
    from_inversion_set,
    full_positive_biclosed,
)
from .finite import build_system, enumerate_P_triples
from .orders import (
    TargetNotReached,
    affine_length,
    antichain_at_level,
    downset_corank,
    interval,
    level_set_sample,
    lower_covers,
    no_local_extremum_check,
    twisted_length_left,
    twisted_length_right,
    weak_leq,
)


def random_word(datum, rng, max_len):
    """A random affine word of length <= max_len (not necessarily reduced)."""
    n = rng.randint(0, max_len)
    return tuple(rng.randint(1, datum.rank + 1) for _ in range(n))


def random_biclosed(type_label, rng, mixed=False, twist_len=3):
    """A random w . P(psi, d1, d2)^hat; mixed=True forces d1, d2 nonempty."""
    datum = build_system(type_label)
    triples = enumerate_P_triples(datum)
    if mixed:
        triples = [t for t in triples if t[1] and t[2]]
    psi, d1, d2 = rng.choice(triples)
    twist = from_word(datum, random_word(datum, rng, twist_len))
    return BiclosedSet(twist, psi, d1, d2)


def _backends(rng):
    out = [("A2 alcove", a2.alcove_biclosed())]
    out.append(("A2 random", random_biclosed("A2", rng)))
    out.append(("A3 mixed", random_biclosed("A3", rng, mixed=True)))
    out.append(("A3 random", random_biclosed("A3", rng)))
    out.append(("B2 random", random_biclosed("B2", rng)))
    out.append(("G2 random", random_biclosed("G2", rng)))
    return out


def _random_comparable_pair(B, rng):
    datum = B.datum
    y = from_word(datum, random_word(datum, rng, 5))
    gap = rng.randint(1, 6)
    x = y
    for _ in range(gap):
        los = lower_covers(x, B)
        if not los:
            break
        _, x = rng.choice(los)
    return x, y


def check_local_finiteness():
    """Intervals of grade gap <= 6 are finite and correctly graded."""
    rng = random.Random(11)
    backends = _backends(rng)
    pairs_per = [9, 9, 8, 8, 8, 8]  # 50 pairs total
    tried = 0
    for (name, B), n_pairs in zip(backends, pairs_per):
        for _ in range(n_pairs):
            x, y = _random_comparable_pair(B, rng)
            poset = interval(x, y, B)
            tried += 1
            if x != y and poset.nodes and not poset.check_grading():
                return "local finiteness", False, f"bad grading on {name}"
            if poset.nodes and not {x, y} <= set(poset.keys()):
                return "local finiteness", False, f"endpoints lost on {name}"
    return "local finiteness", True, f"{tried} intervals, all finite"


def check_corank_finiteness():
    """downset_corank terminates for n <= 4, and every y in the corank-n
    layer below x has l_B(y) = l_B(x) - n."""
    rng = random.Random(12)
    backends = _backends(rng)
    total = 0
    for name, B in backends:
        for _ in range(20):
            x = from_word(B.datum, random_word(B.datum, rng, 4))
            n = rng.randint(1, 4)
            layer = downset_corank(x, B, n)
            want = twisted_length_left(x, B) - n
            for y in layer:
                if twisted_length_left(y, B) != want:
                    return "corank finiteness", False, (
                        f"{name}: {format_word(y.word())} in the corank-{n} "
                        f"layer below {format_word(x.word())} has l_B "
                        f"{twisted_length_left(y, B)}, not {want}"
                    )
            total += len(layer)
    return "corank finiteness", True, f"{total} downset elements, 0 failures"


def check_class_deltas():
    """The cover deltas l_B(s_{gamma+k delta} w) - l_B(w) = slope * k + const
    of `a2._CLASS_DELTAS` hold for every w and k: over the class elements
    w = u t_{m1 a^vee + m2 b^vee} both lengths are exact affine forms in
    (m1, m2, k) (`affine_length`), and the delta is (0, 0, slope, const).
    """
    B, datum = a2.alcove_biclosed(), a2.datum()
    mismatches = []
    for tag, u in a2._class_table().items():
        z = lambda m1, m2, k: u * a2.translation(m1, m2)
        before = affine_length(z, B)
        for gamma, (slope, const) in a2._CLASS_DELTAS[tag].items():
            after = affine_length(
                lambda m1, m2, k: reflection(datum, (gamma, k)) * z(m1, m2, k),
                B,
            )
            delta = None
            if None not in (before, after):
                delta = tuple(map(sub, after, before))
            if delta != (0, 0, slope, const):
                mismatches.append((tag, gamma, delta))
    detail = (f"{len(a2._CLASS_DELTAS)} classes, "
              f"{sum(map(len, a2._CLASS_DELTAS.values()))} rays, every w and k")
    return "class-delta formulas", not mismatches, f"{detail}; mismatches: {mismatches[:3]}"


def check_dihedral_cosets():
    """Every w is w(i)^{-1} z with z in U = <u, v> exactly once, and l_B(w)
    is `a2._FORM_LENGTHS` at z's form, k and i mod 2, for every i and k.

    coset_prefix(6 s) = t_{lambda_s}, u v = t_mu and u t_{lambda_s} =
    t_{lambda_s} u make w(i)^{-1} z = b t_{(s j + k', -s j + k')} for
    i = s (6 j + r), z = y t_{k' mu} and the candidate b = w(s r)^{-1} y.
    In each class (finite part, t1 + t2 mod 2) of t = trans(b), b's
    translation over the simple coroots, the values
    t1 - t2 + 2 s j, j >= j0, must be two rays, s = +1 up from some a and
    s = -1 down from a - 2: they cover V1 - V2 once; k' is free.  Each
    family (s, r, form) has l_B exact and affine over (j, 0, k)
    (`affine_length`): it must be (0, 0, slope, const[r mod 2]).
    """
    name = "dihedral cosets"
    t, u, v = a2.translation, a2.u_element(), a2.v_element()
    parts = {"": identity(a2.datum()), "u": u, "v": v}
    candidates = a2._coset_candidates()
    if u * v != t(*a2.MU) or any(
        a2.coset_prefix(6 * s) != t(*lam) or u * t(*lam) != t(*lam) * u
        for s, lam in a2.LAMBDA.items()
    ) or any(
        b != a2.coset_prefix(s * r).inverse() * parts[y]
        for s, r, _, y, b in candidates
    ):
        return name, False, "a coset identity fails"
    rays = {(tag, p): [] for tag in a2._class_table() for p in (0, 1)}
    for s, _, j0, _, b in candidates:
        t1, t2 = b.trans
        rays[a2.class_of(b), (t1 + t2) % 2].append((s, t1 - t2 + 2 * s * j0))
    for key, found in rays.items():
        ends = dict(found)
        if len(found) != 2 or ends.keys() != {1, -1} or ends[-1] != ends[1] - 2:
            shown = ", ".join(f"s={s:+d} at {a}" for s, a in sorted(found))
            return name, False, f"class {key} has rays [{shown}]"
    B = a2.alcove_biclosed()
    mismatches = []
    for form, (slope, const) in a2._FORM_LENGTHS.items():
        head, period = form[:-3].split("(")  # 'u(vu)^k': 'u', 'vu'
        mu = a2.MU if period == "uv" else tuple(-x for x in a2.MU)  # vu = t_-mu
        for (s, (l1, l2)), r in product(a2.LAMBDA.items(), range(6)):
            top = a2.coset_prefix(s * r).inverse()
            length = affine_length(
                lambda j, _, k: top * t(-j * l1, -j * l2) * parts[head]
                * t(k * mu[0], k * mu[1]),
                B,
            )
            if length != (0, 0, slope, const[r % 2]):
                mismatches.append((form, ("even", "odd")[r % 2]))
    mismatches = list(dict.fromkeys(mismatches))
    detail = (f"{len(candidates)} candidates tile {len(rays)} classes once; "
              f"{12 * len(a2._FORM_LENGTHS)} families, every i and k")
    return name, not mismatches, f"{detail}; mismatches: {mismatches}"


def _empty_on_domain(lo, hi, k_sign):
    """hi(m1, m2, k) < lo for all integers m1, m2 and every k of the domain:
    no slope along a free direction, and below lo at the k endpoint."""
    c1, c2, ck, c0 = hi
    if c1 or c2 or (ck and ck * k_sign >= 0):
        return False
    return c0 + ck * min(k_sign, 0) < lo


def check_inversion_formulas():
    """Every closed-form N(.) family matches the group computation for every
    parameter of its domain.

    A table chain agrees with the group's chain over its base for every
    parameter iff both have the same lo and the same affine top, or both are
    empty on the whole domain; an unlisted base needs an empty group chain.
    """
    k0 = a2.datum().weyl_table().k0
    mismatches = []
    chains = 0
    for name, family in a2.CLOSED_FORMS.items():
        group = affine_tops(
            lambda m1, m2, k: a2.closed_form_element(name, 2 * m1, 2 * m2, k),
            family.k_sign,
        )
        if group is None:
            mismatches.append((name, "finite part moves"))
            continue
        table = {}
        for base, lo, hi in family.chains:
            if base in table or base not in group:
                mismatches.append((name, base))
            table[base] = (lo, hi)
        for mu, top in group.items():
            chains += 1
            lo = k0[mu]
            listed = table.get(mu)
            if listed == (lo, top) or (
                _empty_on_domain(lo, top, family.k_sign)
                and (listed is None or _empty_on_domain(*listed, family.k_sign))
            ):
                continue
            mismatches.append((name, mu))
    ok = not mismatches
    return (
        "inversion formulas",
        ok,
        f"{len(a2.CLOSED_FORMS)} families, {chains} chains, every parameter; "
        f"mismatches: {mismatches[:3]}",
    )


def check_poincare():
    """Downset layer counts match the closed-form series; recursions hold."""
    B = a2.alcove_biclosed()
    datum = B.datum
    f_even = a2.poincare_series("even", 8)
    f_odd = a2.poincare_series("odd", 8)
    for x, series in ((identity(datum), f_even), (from_word(datum, (1,)), f_odd)):
        counts = [len(downset_corank(x, B, d)) for d in range(9)]
        if counts != series:
            return "poincare series", False, f"counts {counts} != series {series}"
    r1, r2 = a2.poincare_recursion_residual(10)
    ok = not any(r1) and not any(r2)
    return "poincare series", ok, f"residuals {max(map(abs, r1 + r2))}"


def check_level_sets():
    """Fixed-twisted-length sets keep growing with the search radius."""
    rng = random.Random(16)
    cases = [("A2 word-inversion", a2.alcove_biclosed(), (4, 8, 12))]
    cases.append(("A3 mixed", random_biclosed("A3", rng, mixed=True, twist_len=1), (3, 6, 9)))
    for name, B, radii in cases:
        for k in range(-2, 3):
            sizes = [len(level_set_sample(B, k, r)) for r in radii]
            if not (sizes[0] < sizes[1] < sizes[2]):
                detail = f"{name} k={k}: sizes {sizes} not strictly increasing"
                return "infinite level sets", False, detail
    return "infinite level sets", True, "all level sets grow with radius"


def check_antichain():
    """An antichain of 20 elements at twisted length 0.

    Uses a rank-3 Mixed twisting set: its fixed-length sets are
    two-dimensional, so the radius-14 ball already holds 20 elements
    (rank-2 level sets are single lines and stay below 20 there).
    """
    rng = random.Random(17)
    B = random_biclosed("A3", rng, mixed=True, twist_len=1)
    try:
        chain = antichain_at_level(B, 0, 20, 14)
    except TargetNotReached as exc:
        return "infinite antichain", False, repr(exc)
    lengths = {twisted_length_right(w, B) for w in chain}
    ok = len(chain) >= 20 and lengths == {0}
    return "infinite antichain", ok, f"{len(chain)} elements at level 0"


def check_no_local_extremum():
    rng = random.Random(18)
    cases = [("A2 alcove", a2.alcove_biclosed(), 6)]
    cases.append(("A2 coinversion", a2.alcove_biclosed().complement(), 6))
    cases.append(
        ("A3 mixed", random_biclosed("A3", rng, mixed=True, twist_len=1), 4)
    )
    for name, B, radius in cases:
        bad = no_local_extremum_check(B, radius)
        if bad:
            return "no local extrema", False, f"{name}: {bad[:3]}"
    return "no local extrema", True, "no weak-order extrema in any ball"


def check_interval_growth():
    """The rank-3 universal subgroup witnesses an infinite interval."""
    cm = generic.coxeter_2_3_inf()
    sub = generic.w_prime(cm)
    if not generic.universal_check(sub, budget=12):
        return "interval growth", False, "universal check failed"
    r1, r2, r3 = sub.generators
    expect = {
        r1: set(),
        r2: {generic.from_word(cm, (2,)), generic.from_word(cm, (2, 3, 2, 3, 2))},
        r3: {
            generic.from_word(cm, (3,)),
            generic.from_word(cm, (3, 2, 3)),
            generic.from_word(cm, (3, 2, 3, 2, 3, 2, 3)),
            generic.from_word(cm, (3, 2, 3, 2, 3, 2, 3, 2, 3)),
        },
    }
    for t, want in expect.items():
        got = set(generic.n_tilde(t)) - {t}
        if got != want:
            return "interval growth", False, f"Ntilde({t!r}) = {got}"
    w = generic.target_element(cm)
    begin = generic.n_tilde_A_in_subgroup(w, sub, depth=3)
    quoted = (r1 * r2 * r1, r1 * r2 * r3 * r2 * r1, r1 * r2 * r3 * r1 * r3 * r2 * r1)
    for need in (r1, *quoted):
        if need not in begin:
            return "interval growth", False, "quoted A-reflection list missing"
    table = generic.interval_growth(cm, budgets=(6, 8, 9, 10))
    counts = [rec["count"] for rec in table]
    increases = sum(1 for a, b in zip(counts, counts[1:]) if b > a)
    ok = counts == sorted(counts) and increases >= 3 and counts[-1] > 12
    return "interval growth", ok, f"counts {counts}"


def check_convexity_dichotomy():
    rng = random.Random(20)
    datumA2 = build_system("A2")
    w = from_word(datumA2, (1, 2, 3))
    cases = [
        ("A2 finite N(w)", topes.from_biclosed(from_inversion_set(w)), False),
        ("A2 alcove", topes.from_biclosed(full_positive_biclosed(datumA2)), False),
    ] + [
        (f"A3 mixed {i}", topes.from_biclosed(
            random_biclosed("A3", rng, mixed=True, twist_len=1)), True)
        for i in range(2)
    ]
    B_inf = random_biclosed("A3", rng)
    while B_inf.classify() == "Mixed":
        B_inf = random_biclosed("A3", rng)
    cases.append(("A3 non-mixed", topes.from_biclosed(B_inf), False))
    for name, H, want_violation in cases:
        report = topes.check_convex_truncated(H, level_bound=6)
        got = report["violation"] is not None
        if got != want_violation:
            detail = f"{name}: violation={got}, expected {want_violation}"
            return "convexity dichotomy", False, detail
    return "convexity dichotomy", True, f"{len(cases)} hemispaces separated"


def check_tope_blocks():
    """Block order == twisted weak order; sampled intervals are lattices."""
    rng = random.Random(21)
    datum = build_system("A2")
    center_B = from_inversion_set(identity(datum))
    center = topes.from_biclosed(center_B)
    items = list(topes.tope_block(center, center, radius=4).reps.items())
    for _ in range(200):
        (ka, (wa, _)), (kb, (wb, _)) = rng.sample(items, 2)
        if (ka <= kb) != weak_leq(wa, wb, center_B):
            return "tope blocks", False, f"order mismatch at {wa!r}, {wb!r}"
    failures = 0
    for _ in range(20):
        w = from_word(datum, random_word(datum, rng, 6))
        H2 = topes.from_biclosed(dot_action(w, center_B))
        try:
            rep = topes.interval_lattice_check(center, H2, center)
        except topes.NotComparable:
            failures += 1
            continue
        if not rep["is_lattice"]:
            return "tope blocks", False, f"non-lattice interval at {w!r}"
    return "tope blocks", True, f"order matches; {20 - failures} lattice intervals"


def check_figures():
    hasse = a2.figure_hasse(6)
    labels = {n.label for n in hasse.nodes}
    missing = [l for l in a2.FIGURE_LABELS if l not in labels]
    if missing:
        return "figure regeneration", False, f"hasse labels missing: {missing}"
    if not hasse.check_grading():
        return "figure regeneration", False, "hasse grading broken"
    records, _ = topes.figure_topes()  # raises if its grading breaks
    tope_labels = {r["label"] for r in records}
    for need in ("H1", "H19", "T1", "T64", "U6", "-H1", "-T64"):
        if need not in tope_labels:
            return "figure regeneration", False, f"tope label missing: {need}"
    return (
        "figure regeneration",
        True,
        f"{len(labels)} hasse nodes, {len(records)} tope descriptors",
    )


ALL_CHECKS = (
    check_local_finiteness,
    check_corank_finiteness,
    check_class_deltas,
    check_dihedral_cosets,
    check_inversion_formulas,
    check_poincare,
    check_level_sets,
    check_antichain,
    check_no_local_extremum,
    check_interval_growth,
    check_convexity_dichotomy,
    check_tope_blocks,
    check_figures,
)


def run_all():
    """Run every check; returns list of (name, ok, detail)."""
    return [fn() for fn in ALL_CHECKS]
