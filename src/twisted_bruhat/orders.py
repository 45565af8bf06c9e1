"""Twisted strong and weak Bruhat orders on affine Weyl groups.

Twisted lengths:  l_B(w) = l(w) - 2|N(w^-1) ∩ B|   (left, grades <=_B)
                  l'_B(w) = l(w) - 2|N(w) ∩ B|      (right, grades <='_B)

Cover enumeration scans each reflection ray k -> s_{gamma + k delta} w
over a window of levels k.  For w = u t_v the inverse of s_{gamma+k delta} w
is (u^-1 s_gamma) t_{V_k} with V_k affine in k, so over each finite root mu
its inversion chain runs from lo_mu to an integer top that is affine in k.
The delta l_B(s_{gamma+k delta} w) - l_B(w) is therefore plain integer
arithmetic on this ray profile plus B's chain counts; only the covers
themselves are built as elements, each an integer step along its ray
(`left_reflections`), with no group product.

The window doubles until the drift stabilizes at both ends: the per-step
change of the delta has been constant (and nonzero) for h consecutive
steps (h = Coxeter number) with the end value pointing away from the +-1
band.  The delta is piecewise affine in k with finitely many kinks, so an
exact check of its values around every kink beyond the window, and of its
slope past the last one, then proves that no further covers exist on the
ray.

Intervals and comparisons meet in the middle: lower covers from y for
ceil(gap/2) grades and upper covers from x for floor(gap/2).  Every
saturated chain from x to y crosses the middle grade, so x <=_B y iff the
two searches meet there, and [x, y] is every element on a cover path
through an element that both reach.

Each right weak step is one root: N(u s_a) is N(u) with r = u(a) added
(r > 0, a step up in length) or -r removed (r < 0), so l'_B(u s_a) =
l'_B(u) - 1 iff r is in H_B = B | -(Phi^hat+ \\ B) (`in_hemispace`).
And u <='_B v iff l'_B(v) - l'_B(u) = l(u^-1 v): a reduced word of u^-1 v
spells a chain from u to v.
"""

from __future__ import annotations

from typing import NamedTuple

from .affine_group import (
    AffineWeylElement,
    affine_simple_roots,
    format_word,
    identity,
    is_positive_affine,
    left_reflections,
    negate,
    simple_reflections,
)
from .biclosed import BiclosedSet, dot_action
from .linprog import CertificationFailed  # re-exported: orders.CertificationFailed
from .poset import GradedPoset, PosetEdge, PosetNode

_HARD_CAP = 10**4


class NotComparable(Exception):
    pass


class TargetNotReached(Exception):
    def __init__(self, found):
        super().__init__(f"only {len(found)} elements found")
        self.found = found


class CoverCertificate(NamedTuple):
    base_root: tuple
    window: tuple  # (lo, hi) of levels searched
    drift: tuple  # (negative-end drift, positive-end drift), both nonzero


# ----- twisted lengths -----------------------------------------------------


def twisted_length_left(w: AffineWeylElement, B: BiclosedSet) -> int:
    """l_B(w) = l(w) - 2|N(w^-1) ∩ B|."""
    cached = B._lB.get(w)
    if cached is None:
        winv = w.inverse()  # l(w^-1) = l(w)
        cached = winv.length() - 2 * B.count_inversions_in(winv)
        B._lB[w] = cached
    return cached


def twisted_length_right(w: AffineWeylElement, B: BiclosedSet) -> int:
    """l'_B(w) = l(w) - 2|N(w) ∩ B|; equals l_B(w^-1)."""
    cached = B._lBp.get(w)
    if cached is None:
        cached = w.length() - 2 * B.count_inversions_in(w)
        B._lBp[w] = cached
    return cached


# ----- certified cover search ----------------------------------------------


def _element_profile(w, B):
    """l_B(w) and, per root mu, (mu, u(mu), -(mu, v), lo_mu) for w = u t_v.

    covers asks for this once per ray, so B keeps the last one in a single
    slot; it depends on w only.
    """
    memo = B._ray_memo
    if memo is not None and memo[0] == w:
        return memo[1]
    table = B.datum.weyl_table()
    k0 = table.k0
    p = w._pairings()
    terms = []
    # (mu, v) = (u mu, u v) = sum_k (u mu)_k p_k
    for mu, umu in table.image[table.index[w.fin]].items():
        terms.append((mu, umu, -sum(a * x for a, x in zip(umu, p)), k0[mu]))
    profile = (twisted_length_left(w, B), tuple(terms))
    B._ray_memo = (w, profile)
    return profile


def _ray_profile(w, B, gamma):
    """(base, lines) with Delta(k) = l_B(s_{gamma+k delta} w) - l_B(w) equal
    to _ray_delta(B, (base, lines), k).

    Over each root mu the chain of N((s_{gamma+k delta} w)^-1) runs from lo
    to hi = a + b k, with a = -(mu, v) - [s_gamma(u mu) > 0] and
    b = <u mu, gamma^vee>, read off gamma's row of the Weyl table: for
    nu = s_gamma(u mu), [nu > 0] = 1 - k0(nu).  Chains with b = 0 do not
    move with k and are folded into base.
    """
    lB, terms = _element_profile(w, B)
    table = B.datum.weyl_table()
    row, k0 = table.srow[gamma], table.k0
    moving, fixed = [], []
    for mu, umu, c, lo in terms:
        nu, b = row[umu]
        (moving if b else fixed).append((mu, lo, c - 1 + k0[nu], b))
    base = lB - _ray_delta(B, (0, tuple(fixed)), 0)
    return base, tuple(moving)


def _ray_delta(B, profile, k):
    """Delta(k) from the profile: sum over chains of |chain| - 2|chain ∩ B|."""
    base, lines = profile
    chains = B.chains()
    total = -base
    for mu, lo, a, b in lines:
        hi = a + b * k
        if hi >= lo:
            # B.count_in_chain(mu, lo, hi), read off (tail, e) in place
            tail, e = chains[mu]
            if tail:
                inside = 0 if hi < e else hi - e + 1 if lo < e else hi - lo + 1
            else:
                inside = 0 if lo >= e else e - lo if hi >= e else hi - lo + 1
            total += hi - lo + 1 - 2 * inside
    return total


def _end_certified(values, h, positive_end):
    """Drift constant (nonzero) over h steps, pointing away from the band."""
    if len(values) < h + 1:
        return None
    if positive_end:
        tail = values[-(h + 1):]
    else:
        tail = values[: h + 1][::-1]
    diffs = {tail[i + 1] - tail[i] for i in range(h)}
    if len(diffs) != 1:
        return None
    drift = diffs.pop()
    if drift == 0:
        return None
    edge = tail[-1]
    if drift > 0 and edge >= 1:
        return drift
    if drift < 0 and edge <= -1:
        return drift
    return None


def _check_tail(B, profile, n, drift, positive_end):
    """Prove that Delta keeps the drift's sign, with |Delta| >= 3, past the
    window end +n (positive_end) or -n; raise CertificationFailed otherwise.

    Each chain term of Delta is piecewise affine in its top hi, with kinks
    at lo - 1 and at e - 1, the last level below B's threshold e on that
    chain (B.chains()); hi is affine in k.  So Delta is affine between the integers next to its kinks:
    checking the values at those integers beyond the end and at the first
    step past it, and that the slope past the last kink does not turn back,
    covers every k beyond the end.
    """
    out = 1 if positive_end else -1
    sign = 1 if drift > 0 else -1
    chains = B.chains()
    steps = {n + 1}
    for mu, lo, a, b in profile[1]:
        for t in (lo - 1, chains[mu][1] - 1):
            # kink at k = (t - a) / b: the integers on both sides of it
            for k in ((t - a) // b, -((a - t) // b)):
                if out * k > n:
                    steps.add(out * k)
    last = max(steps)
    values = {j: _ray_delta(B, profile, out * j) for j in steps | {last + 1}}
    for j in sorted(values):
        if sign * values[j] < 3:
            raise CertificationFailed(
                f"drift {drift} past k = {out * n} breaks down: "
                f"Delta({out * j}) = {values[j]}"
            )
    if sign * (values[last + 1] - values[last]) < 0:
        raise CertificationFailed(
            f"drift {drift} past k = {out * n} breaks down: Delta turns "
            f"back after k = {out * last}"
        )


def scan_ray(w, B, gamma):
    """Certified window of twisted-length deltas along one reflection ray.

    Returns (window_lo, window_hi, {k: delta}, CoverCertificate).  Each
    delta comes from the integer ray profile, without building the element
    s_{gamma+k delta} w.  The window doubles until the drift stabilizes at
    both ends (_end_certified); _check_tail then proves that no k outside
    it has delta = +-1, so every cover on the ray lies in the window.
    """
    datum = B.datum
    h = datum.coxeter_number
    profile = _ray_profile(w, B, gamma)
    n = 2 + w.inverse().max_inversion_level() + B.level_star()
    deltas = {}
    while True:
        for k in range(-n, n + 1):
            if k not in deltas:
                deltas[k] = _ray_delta(B, profile, k)
        values = [deltas[k] for k in range(-n, n + 1)]
        drift_pos = _end_certified(values, h, positive_end=True)
        drift_neg = _end_certified(values, h, positive_end=False)
        if drift_pos is not None and drift_neg is not None:
            _check_tail(B, profile, n, drift_pos, positive_end=True)
            _check_tail(B, profile, n, drift_neg, positive_end=False)
            cert = CoverCertificate(
                base_root=gamma,
                window=(-n, n),
                drift=(drift_neg, drift_pos),
            )
            return -n, n, deltas, cert
        if n >= _HARD_CAP:
            raise CertificationFailed(
                f"ray {datum.root_name(gamma)} of w={w!r} did not stabilize "
                f"within |k| <= {_HARD_CAP}"
            )
        n = min(2 * n, _HARD_CAP)


def covers(w, B):
    """All strong-order covers of w: (lower, upper, certificates).

    lower/upper are lists of (reflection affine root, element), sorted by
    (base canonical order, level).  Only the covers are built as elements,
    each with no group product: s_{gamma+k delta} w is an integer step
    along its ray from w (`left_reflections`).  Their twisted lengths
    l_B(w) +- 1 are seeded into B's cache.
    """
    lower, upper, certs = [], [], []
    lw = twisted_length_left(w, B)
    for gamma in B.datum.positive_roots:
        lo, hi, deltas, cert = scan_ray(w, B, gamma)
        certs.append(cert)
        levels = [k for k in range(lo, hi + 1) if deltas[k] in (1, -1)]
        for k, z in zip(levels, left_reflections(w, gamma, levels)):
            d = deltas[k]
            B._lB[z] = lw + d
            (upper if d == 1 else lower).append(((gamma, k), z))
    lower.sort(key=lambda p: p[0])
    upper.sort(key=lambda p: p[0])
    return lower, upper, certs


def lower_covers(w, B):
    return covers(w, B)[0]


def upper_covers(w, B):
    return covers(w, B)[1]


# ----- strong order: intervals and coranks ---------------------------------


def _cover_edge(datum, lo, hi, r):
    """The Hasse edge of the strong cover hi = s_r lo, r = (gamma, k) with
    gamma > 0: "weak" (a left weak cover) iff s_r is simple, i.e. r is
    (alpha_i, 0) or (theta, -1).  N(hi^-1) is N(lo^-1) with the l(s_r) roots
    of lo^-1 N(s_r) added or removed, so a weak relation has gap l(s_r)."""
    gamma, k = r
    name = datum.root_name(gamma)
    label = f"s[{name}{'+' if k >= 0 else ''}{k}d]" if k else f"s[{name}]"
    simples = affine_simple_roots(datum)
    simple = r in simples or negate(r) in simples
    return PosetEdge(lo, hi, label, "weak" if simple else "strong")


def _cover_layers(w, B, depth, step):
    """layers[i]: the elements i steps of `step` (lower_covers or
    upper_covers) away from w, each a dict in discovery order; and every
    cover read, as (z, reflection root, z2) with z2 in step(z, B)."""
    layers = [{w: None}]
    steps = []
    for _ in range(depth):
        nxt = {}
        for z in layers[-1]:
            for root, z2 in step(z, B):
                nxt[z2] = None
                steps.append((z, root, z2))
        layers.append(nxt)
    return layers, steps


def _meet(x, y, B, gap):
    """Lower covers from y for ceil(gap/2) grades and upper covers from x
    for floor(gap/2): (the middle-grade elements that both reach, the lower
    cover steps, the upper cover steps).  x <=_B y iff the middle is not
    empty."""
    down = (gap + 1) // 2
    below_y, down_steps = _cover_layers(y, B, down, lower_covers)
    above_x, up_steps = _cover_layers(x, B, gap - down, upper_covers)
    return below_y[-1].keys() & above_x[-1].keys(), down_steps, up_steps


def interval(x, y, B) -> GradedPoset:
    """The closed interval [x, y] in (W~, <=_B) as a graded poset.

    Meets in the middle (_meet): [x, y] is every element on a cover path
    from y down to the middle grade or from x up to it, through an element
    reached from both ends; empty poset if x is not below y.  The edges
    come in the order of a full lower-cover descent from y, each element's
    in root order.
    """
    lx = twisted_length_left(x, B)
    ly = twisted_length_left(y, B)
    if x == y:
        return GradedPoset(
            [PosetNode(x, lx, format_word(x.word()))], []
        )
    if lx >= ly:
        return GradedPoset()
    middle, down_steps, up_steps = _meet(x, y, B, ly - lx)
    if not middle:
        return GradedPoset()
    # keep what leads to the middle; below[hi] = the (root, lo) of every
    # cover hi = s_root lo inside [x, y].  Each list of steps runs a grade
    # at a time away from its end, so reversed it meets the middle first.
    keep = set(middle)
    below = {}
    for hi, root, lo in reversed(down_steps):
        if lo in keep:
            keep.add(hi)
            below.setdefault(hi, []).append((root, lo))
    for lo, root, hi in reversed(up_steps):
        if hi in keep:
            keep.add(lo)
            below.setdefault(hi, []).append((root, lo))
    # The full descent from y finds each element of [x, y] first from a
    # cover above it, which is in [x, y] too; so descending over `keep`
    # alone lists the edges in the same order.
    datum = B.datum
    poset_edges = []
    layer, seen = [y], {y}
    while layer:
        nxt = []
        for hi in layer:
            for root, lo in sorted(below.get(hi, ()), key=lambda p: p[0]):
                poset_edges.append(_cover_edge(datum, lo, hi, root))
                if lo not in seen:
                    seen.add(lo)
                    nxt.append(lo)
        layer = nxt
    if seen != keep:
        raise CertificationFailed(
            f"interval [{x!r}, {y!r}]: {len(keep - seen)} elements met from "
            f"x are not reached from y"
        )
    nodes = [
        PosetNode(z, twisted_length_left(z, B), format_word(z.word()))
        for z in sorted(keep, key=lambda z: (twisted_length_left(z, B), z.word()))
    ]
    return GradedPoset(nodes, poset_edges)


def downset_corank(x, B, n: int):
    """{y <=_B x : l_B(x) - l_B(y) = n}, by n-fold cover descent."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return set(_cover_layers(x, B, n, lower_covers)[0][n])


def strong_leq(x, y, B) -> bool:
    """x <=_B y: the lower covers from y and the upper covers from x meet
    in the middle grade (_meet)."""
    if x == y:
        return True
    gap = twisted_length_left(y, B) - twisted_length_left(x, B)
    if gap <= 0:
        return False
    return bool(_meet(x, y, B, gap)[0])


# ----- weak order ----------------------------------------------------------


def weak_leq(u, v, B) -> bool:
    """u <='_B v in the right twisted weak order.

    Criterion: N(u)\\N(v) ⊆ B and N(v)\\N(u) ⊆ complement of B, read per
    root between the tops of the two chains, which share their lowest
    level.  The left order compares inverses: weak_leq(u^-1, v^-1, B).
    """
    a, b = u.inversion_chains(), v.inversion_chains()
    for mu in a.keys() | b.keys():
        lo = (a.get(mu) or b[mu])[0]
        top_u = a.get(mu, (lo, lo - 1))[1]
        top_v = b.get(mu, (lo, lo - 1))[1]
        if top_u > top_v:
            if B.count_in_chain(mu, top_v + 1, top_u) != top_u - top_v:
                return False
        elif top_v > top_u and B.count_in_chain(mu, top_u + 1, top_v):
            return False
    return True


def weak_chain(u, v, B):
    """A saturated right-weak chain u -> v: u times the prefixes of the
    lex-least reduced word of u^-1 v, each a step up by one."""
    if not weak_leq(u, v, B):
        raise NotComparable("u is not below v in the right twisted weak order")
    gens = simple_reflections(B.datum)
    chain = [u]
    for a in (u.inverse() * v).word():
        chain.append(chain[-1] * gens[a - 1])
    return chain


# ----- ball enumeration, level sets, antichains ----------------------------


_BALL_CACHE = {}  # type label -> (elements by (length, word), ends)


def length_ball(datum, radius: int):
    """All w with l(w) <= radius, sorted by (length, word): the first
    ends[radius + 1] elements of one ball per type, which grows a level at
    a time from its last frontier.  w s_a is a level up iff w(a) > 0."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if datum.type_label not in _BALL_CACHE:
        _BALL_CACHE[datum.type_label] = ([identity(datum)], [0, 1])
    elements, ends = _BALL_CACHE[datum.type_label]
    steps = tuple(zip(affine_simple_roots(datum), simple_reflections(datum)))
    while len(ends) <= radius + 1:
        level = {}  # insertion-ordered; a repeat keeps its first place
        for w in elements[ends[-2]:]:
            for a, s in steps:
                if is_positive_affine(datum, w.apply(a)):
                    level[w * s] = None
        # No sort needed: the lex-least word of ws is that of the first
        # frontier element w it extends, plus the letter s, and the frontier
        # is in word order; so the level is found in word order.
        elements.extend(level)
        ends.append(len(elements))
    return tuple(elements[: ends[radius + 1]])


def level_set_sample(B, k: int, radius: int):
    """All w with l(w) <= radius and l'_B(w) = k."""
    return [
        w
        for w in length_ball(B.datum, radius)
        if twisted_length_right(w, B) == k
    ]


def no_local_extremum_check(B, radius: int):
    """Check every ball element has a weak upper and lower neighbor among us_i.

    l'_B(u s_a) = l'_B(u) - 1 iff u(a) is in the hemispace H_B.  Returns
    the list of violating (element, kind) pairs; expected empty for
    non-Finite, non-Cofinite B.
    """
    roots = affine_simple_roots(B.datum)
    violations = []
    for u in length_ball(B.datum, radius):
        down = {B.in_hemispace(u.apply(a)) for a in roots}
        if False not in down:
            violations.append((u, "no upper neighbor"))
        if True not in down:
            violations.append((u, "no lower neighbor"))
    return violations


def antichain_at_level(B, k: int, size_target: int, radius: int):
    """size_target elements of equal twisted length (hence an antichain).

    The radius ball is sorted by (length, word), so the first size_target
    elements of twisted length k in it are those of the smallest ball that
    holds size_target of them.  Raises TargetNotReached, carrying all of
    them, if the full radius falls short.
    """
    if size_target < 0:
        raise ValueError("size_target must be >= 0")
    sample = level_set_sample(B, k, radius)
    if len(sample) < size_target:
        raise TargetNotReached(sample)
    return sample[:size_target]


def dot_iso_check(w, B, pairs):
    """Verify u <='_B v iff wu <='_{w.B} wv on the given (u, v) pairs."""
    wB = dot_action(w, B)
    violations = []
    for u, v in pairs:
        if weak_leq(u, v, B) != weak_leq(w * u, w * v, wB):
            violations.append((u, v))
    return violations
