"""Twisted strong and weak Bruhat orders on affine Weyl groups.

Twisted lengths:  l_B(w) = l(w) - 2|N(w^-1) ∩ B|   (left, grades <=_B)
                  l'_B(w) = l(w) - 2|N(w) ∩ B|      (right, grades <='_B)

Cover enumeration scans each reflection ray k -> s_{gamma+k delta} w.
Over each finite root mu the chain of N((s_{gamma+k delta} w)^-1) runs
from k0(mu) to a top affine in k, read off the chain tops of w^-1
(`AffineWeylElement.chain_tops`), so the delta l_B(s_{gamma+k delta} w) -
l_B(w) is a sum of two hinges max(0, b k + d) per chain, read off B's
(tail, e) pairs; one sort of their thresholds splits it into affine
pieces.  Only the covers are built as elements, each an integer step
along its ray (`left_reflections`), with no group product.

The window of levels doubles until the drift (the per-step change of the
delta) is constant and nonzero over h steps at both ends (h = Coxeter
number), with the end value pointing away from the +-1 band.  The values
at both ends of each piece beyond the window, and the sign of the outer
slope, then prove that the ray has no further covers.  An end whose outer
piece is flat never certifies, and fails at once.

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

from bisect import bisect_right
from typing import NamedTuple

from .affine_group import (
    AffineWeylElement,
    affine_simple_roots,
    affine_tops,
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


def _same_type(B, *elements):
    for w in elements:
        if w.datum.type_label != B.datum.type_label:
            raise ValueError(
                f"element of type {w.datum.type_label} against a biclosed "
                f"set of type {B.datum.type_label}"
            )


def twisted_length_left(w: AffineWeylElement, B: BiclosedSet) -> int:
    """l_B(w) = l(w) - 2|N(w^-1) ∩ B|."""
    cached = B._lB.get(w)
    if cached is None:
        _same_type(B, w)
        winv = w.inverse()  # l(w^-1) = l(w)
        cached = winv.length() - 2 * B.count_inversions_in(winv)
        B._lB[w] = cached
    return cached


def twisted_length_right(w: AffineWeylElement, B: BiclosedSet) -> int:
    """l'_B(w) = l(w) - 2|N(w) ∩ B|; equals l_B(w^-1)."""
    cached = B._lBp.get(w)
    if cached is None:
        _same_type(B, w)
        cached = w.length() - 2 * B.count_inversions_in(w)
        B._lBp[w] = cached
    return cached


# ----- certified cover search ----------------------------------------------


def _ray_pieces(w, B, gamma):
    """The affine pieces (_pieces) of l_B(s_{gamma+k delta} w) - l_B(w).

    For w = u t_v, over each root mu the chain of N((s_{gamma+k delta} w)^-1)
    runs from k0(mu) to t_mu(w^-1) - k0(u mu) + k0(nu) + b k (`chain_tops`),
    for nu = s_gamma(u mu) and b = <u mu, gamma^vee> off gamma's Weyl table
    row.  covers scans every ray of one w, so B keeps l_B(w), scan_ray's
    start half-width and the terms of the last w in one slot."""
    table = B.datum.weyl_table()
    row, k0 = table.srow[gamma], table.k0
    if B._ray_memo is None or B._ray_memo[0] != w:
        tops = w.inverse().chain_tops()
        terms = [
            (mu, umu, tops[mu] - k0[umu], k0[mu])
            for mu, umu in table.image[table.index[w.fin]].items()
        ]
        n = 2 + w.inverse().max_inversion_level() + B.level_star()
        B._ray_memo = (w, twisted_length_left(w, B), n, terms)
    _, lB, _, terms = B._ray_memo
    lines = []
    for mu, umu, c, lo in terms:
        nu, b = row[umu]
        lines.append((mu, lo, c + k0[nu], b))
    return _pieces(B.chains(), lB, lines)


def _pieces(chains, base, lines):
    """(starts, affine): Delta(k) = A k + C for (A, C) = affine[i] on
    starts[i-1] <= k < starts[i], the outer pieces unbounded, where Delta(k)
    is -base plus, over lines (mu, lo, a, b), |chain| - 2|chain ∩ B| for the
    levels lo..hi = a + b k over mu.  With (tail, e) = chains[mu] and
    s = 1 if tail else -1, that is the hinges s·max(0, hi - lo + 1) and
    -2s·max(0, hi - max(lo, e) + 1).  A hinge max(0, b k + d) with b > 0
    is b k + d from k = ceil(-d / b) on and 0 before it; max(0, x) =
    x + max(0, -x) turns b < 0 into b > 0.
    """
    A, C = 0, -base
    events = []
    for mu, lo, a, b in lines:
        tail, e = chains[mu]
        s = 1 if tail else -1
        d, f = a - lo + 1, a + 1 - (e if e > lo else lo)
        if not b:
            C += s * max(0, d) - 2 * s * max(0, f)
            continue
        if b < 0:
            A -= s * b
            C += s * (d - 2 * f)
            b, d, f = -b, -d, -f
        events += ((-(d // b), s * b, s * d), (-(f // b), -2 * s * b, -2 * s * f))
    events.sort()
    starts, affine = [], [(A, C)]
    for t, dA, dC in events:
        A += dA
        C += dC
        if starts and starts[-1] == t:
            affine[-1] = (A, C)
        else:
            starts.append(t)
            affine.append((A, C))
    return starts, affine


def affine_length(build, B):
    """l_B(build(p, q, k)) as an exact affine form (c_p, c_q, c_k, c_0), or
    None.  Over mu > 0 and -mu, N(w^{-1}) has the tops t and -1 - t, affine
    in (p, q, k) (`affine_tops`), so the pair adds g(t), a sum of hinges read
    off B's (tail, e) pairs (`_pieces`).  Where each g is one piece A t + C,
    l_B is the sum of A t + C over the pairs; else None.
    """
    tops = affine_tops(lambda p, q, k: build(p, q, k).inverse(), 0)
    if tops is None:
        return None
    k0, form = B.datum.weyl_table().k0, [0, 0, 0, 0]
    for mu in B.datum.positive_roots:
        neg = tuple(-x for x in mu)
        lines = [(mu, k0[mu], 0, 1), (neg, k0[neg], -1, -1)]
        g = set(_pieces(B.chains(), 0, lines)[1])
        if len(g) > 1 or [a + b for a, b in zip(tops[mu], tops[neg])] != [0, 0, 0, -1]:
            return None
        ((A, C),) = g
        form = [f + A * c + d for f, c, d in zip(form, tops[mu], (0, 0, 0, C))]
    return tuple(form)


def _values(pieces, lo, hi):
    """[Delta(k) for lo <= k <= hi], one range per piece."""
    starts, affine = pieces
    i = bisect_right(starts, lo)
    values = []
    for end, (A, C) in zip(starts[i:] + [hi + 1], affine[i:]):
        end = min(end, hi + 1)
        values += range(A * lo + C, A * end + C, A) if A else [C] * (end - lo)
        lo = end
    return values


def _end_certified(values, h, positive_end):
    """Drift constant (nonzero) over h steps, pointing away from the band:
    the drift, else None."""
    if len(values) <= h:
        return None
    tail = values[-(h + 1):] if positive_end else values[h::-1]
    diffs = {y - x for x, y in zip(tail, tail[1:])}
    drift = diffs.pop() if len(diffs) == 1 else 0
    return drift if drift * tail[-1] > 0 else None


def _prove_tail(pieces, n, drift, out):
    """Prove that Delta keeps the drift's sign, with |Delta| >= 3, at every
    level out * j with j > n; raise CertificationFailed otherwise.  Each
    piece is affine, so the values at its two ends bound it, and past the
    outer start the slope must not turn back."""
    starts, affine = pieces
    sign = 1 if drift > 0 else -1
    ends = {n + 1} | {j for t in starts for j in (out * (t - 1), out * t) if j > n}
    for j in sorted(ends):
        A, C = affine[bisect_right(starts, out * j)]
        if sign * (A * out * j + C) < 3:
            raise CertificationFailed(
                f"drift {drift} past k = {out * n} breaks down: "
                f"Delta({out * j}) = {A * out * j + C}"
            )
    if sign * out * affine[-1 if out > 0 else 0][0] < 0:
        raise CertificationFailed(
            f"drift {drift} past k = {out * n} breaks down: Delta turns "
            f"back after k = {out * max(ends)}"
        )


def _certify(pieces, n, h):
    """(n, [Delta(k) for |k| <= n], (negative-end drift, positive-end
    drift)) for the first window n, 2n, 4n, ... whose two ends certify
    (_end_certified) and whose tails hold (_prove_tail).  Once an end's
    h + 1 values lie in its outer piece, it certifies within finitely many
    doublings if that piece's slope is nonzero, and never if it is zero."""
    starts, affine = pieces
    while True:
        values = _values(pieces, -n, n)
        drift = (_end_certified(values, h, False), _end_certified(values, h, True))
        if None not in drift:
            _prove_tail(pieces, n, drift[1], 1)
            _prove_tail(pieces, n, drift[0], -1)
            return n, values, drift
        for out, (A, C), outer in (
            (1, affine[-1], not starts or n - h >= starts[-1]),
            (-1, affine[0], not starts or h - n < starts[0]),
        ):
            if outer and A == 0:
                raise CertificationFailed(
                    f"zero drift past k = {out * n}: Delta = {C} at every "
                    f"level beyond, so no window certifies"
                )
        n *= 2


def scan_ray(w, B, gamma):
    """Certified window of twisted-length deltas along one reflection ray:
    (window_lo, window_hi, {k: delta}, CoverCertificate).  The deltas are
    read off the ray's affine pieces, with no element s_{gamma+k delta} w
    built, and the pieces prove that no k outside the window has
    delta = +-1 (_certify), so every cover on the ray lies in it.
    """
    pieces = _ray_pieces(w, B, gamma)
    n = B._ray_memo[2]  # the start half-width, kept by _ray_pieces
    n, values, drift = _certify(pieces, n, B.datum.coxeter_number)
    cert = CoverCertificate(base_root=gamma, window=(-n, n), drift=drift)
    return -n, n, dict(zip(range(-n, n + 1), values)), cert


def covers(w, B):
    """All strong-order covers of w: (lower, upper, certificates).

    lower/upper are lists of (reflection affine root, element) in
    (base canonical order, level) order, the order of the scan.  Only the
    covers are built as elements, each with no group product:
    s_{gamma+k delta} w is an integer step along its ray from w
    (`left_reflections`).  Their twisted lengths l_B(w) +- 1 are seeded
    into B's cache.
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
    _same_type(B, x)
    if n < 0:
        raise ValueError("n must be >= 0")
    return set(_cover_layers(x, B, n, lower_covers)[0][n])


def strong_leq(x, y, B) -> bool:
    """x <=_B y: the lower covers from y and the upper covers from x meet
    in the middle grade (_meet)."""
    gap = twisted_length_left(y, B) - twisted_length_left(x, B)
    if gap <= 0:
        return x == y
    return bool(_meet(x, y, B, gap)[0])


# ----- weak order ----------------------------------------------------------


def weak_leq(u, v, B) -> bool:
    """u <='_B v in the right twisted weak order.

    Criterion: N(u)\\N(v) ⊆ B and N(v)\\N(u) ⊆ complement of B, read per
    root between the tops of the two chains, which share their lowest
    level.  The left order compares inverses: weak_leq(u^-1, v^-1, B).
    """
    _same_type(B, u, v)
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
