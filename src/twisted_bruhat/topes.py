"""Hemispaces (topes) of the affine root system's oriented matroid.

A hemispace is H_B = B union -(Phi^hat+ \\ B) for B a biclosed set of
positive affine roots; its negation -H_B is the hemispace of the
complement Phi^hat+ \\ B (`BiclosedSet.complement`).  The order based at a
hemispace H0 is F <= G iff (F delta H0) subset (G delta H0), which is
finite-checkable inside a block (hemispaces at finite symmetric
difference).  A hemispace is its biclosed set; it reads B's pair (tail, e)
per delta-chain (`BiclosedSet.chains`: constant from level e up, flipped
below), so symmetric differences are read off in closed form.  As
B = w . P(psi, d1, d2)^hat, every hemispace, those of the paper's rank-2
figure included, has a P-triple and a twist.  On hemispaces the library
builds the tope order, tope blocks with their interval lattices, a
convexity check and the figure.  A block is walked by reflections s_r
with no group product: the dot action is the linear action on
hemispaces, H_{w.B} = w(H_B), so each neighbour reads its pairs off the
current ones (`biclosed.reflected_pairs`).  The walk holds only each
tope's pairs (tail, e), by which it recognises a tope it has seen, and
a link to the tope it came from.  `tope_block` builds from those links,
for each new tope, its symmetric difference, its representative and its
twist, one left reflection step each.  The interval lattice check walks
pairs alone: it keys each walked tope, and builds no representative.  Cone
feasibility questions are answered exactly by the integer simplex in
linprog.  The convexity check's LP search is truncated at a level, so it
certifies convexity only up to that level; a violation it finds is an
absolute non-convexity certificate, and so is the witness of a Mixed
hemispace, a closed form read off its pairs and checked by explicit code.
Its LPs share the roots of H as generators, so it solves an LP only for a
target that no Farkas functional of an earlier LP separates.
"""

from __future__ import annotations

from itertools import combinations
from math import lcm

from .affine_group import affine_simple_roots, identity, left_reflections
from .affine_group import negate
from .biclosed import BiclosedSet, pair_line_tops, parse_biclosed, reflect
from .biclosed import reflected_pairs
from .finite import CartanDatum, _span_roots, build_system
from .linprog import CertificationFailed, _dot, cone_membership
from .orders import NotComparable  # re-exported: topes.NotComparable
from .poset import GradedPoset, PosetEdge, PosetNode


class DifferentBlocks(Exception):
    pass


def positive_roots_to_level(datum: CartanDatum, level: int):
    k0 = datum.weyl_table().k0
    out = []
    for base in datum.roots:
        for k in range(k0[base], level + 1):
            out.append((base, k))
    return out


def all_roots_to_level(datum: CartanDatum, level: int):
    pos = positive_roots_to_level(datum, level)
    return pos + [negate(r) for r in pos]


class Hemispace:
    """H_B = B u -(Phi^hat+ \\ B) for the BiclosedSet B = `biclosed`: a
    total membership oracle over the whole affine root system, read off
    `BiclosedSet.in_hemispace`.  As -H_B = H_{Phi^hat+ \\ B}, the negation
    is the hemispace of B's complement, w . P(psi^-, -d2, -d1)^hat: the same
    pairs (tail, e) with every tail flipped.
    """

    def __init__(self, biclosed: BiclosedSet, label=""):
        self.biclosed = biclosed
        self.datum = biclosed.datum
        self.label = label

    def contains(self, r) -> bool:
        return self.biclosed.in_hemispace(r)

    def negated(self) -> "Hemispace":
        return Hemispace(self.biclosed.complement(), "-" + self.label)

    def level_bound(self) -> int:
        """All membership variation happens at levels below this bound."""
        return max(e for _, e in self.biclosed.chains().values())

    def __repr__(self):
        return f"Hemispace({self.label or self.biclosed!r})"


def from_biclosed(B: BiclosedSet, label="") -> Hemispace:
    return Hemispace(B, label)


def symdiff_positive(F: Hemispace, G: Hemispace) -> frozenset:
    """{positive r : F, G disagree on r}; finite iff same block.

    Hemispace symmetric differences are stable under negation, so the
    positive half determines the whole.  Read chain by chain: on positive
    roots F is constant from its threshold e_F up, and flipped below it.
    So F and G disagree on infinitely many levels (DifferentBlocks) when
    their tails differ, and otherwise exactly on the levels from
    min(e_F, e_G) up to below max(e_F, e_G).  Hemispaces of two types
    raise ValueError.
    """
    if F.datum.type_label != G.datum.type_label:
        raise ValueError(f"hemispaces of types {F.datum.type_label} and "
                         f"{G.datum.type_label}")
    return _symdiff(F.biclosed.chains(), G.biclosed.chains())


def _symdiff(chains, G_chains):
    """`symdiff_positive` on the chains of F and G."""
    out = []
    for mu, (tail, e) in chains.items():
        G_tail, G_e = G_chains[mu]
        if tail != G_tail:
            raise DifferentBlocks(
                "symmetric difference does not stabilize: different blocks"
            )
        out.extend((mu, k) for k in range(min(e, G_e), max(e, G_e)))
    return frozenset(out)


def tope_leq(F: Hemispace, G: Hemispace, base: Hemispace) -> bool:
    """F <= G in the tope poset based at `base`."""
    return symdiff_positive(F, base) <= symdiff_positive(G, base)


# ----- exact cone queries ---------------------------------------------------


def _vec(r):
    base, k = r
    return tuple(base) + (k,)


def cone_member(target, generators):
    """Exact feasibility of target in cone(generators), with certificate."""
    return cone_membership([_vec(g) for g in generators], _vec(target))


def check_convex_truncated(H: Hemispace, level_bound: int):
    """Search by exact LP for a root of -H in the cone of the roots of H,
    all of level at most `level_bound`; for a Mixed H with none there, take
    the closed-form +-delta witness (`_mixed_violation`, checked by
    `_check_witness`).  A violation is an absolute non-convexity
    certificate; 'no violation' certifies nothing beyond the truncation.

    Every LP has the roots g of H as generators, and `cone_membership`
    checks y . g <= 0 for the Farkas functional y it returns.  So y, kept
    scaled to integers, decides every later target t with y . t > 0 with
    no LP; a target in the cone is separated by no y and reaches its LP.
    Checked targets are those a certificate decided, from an LP or reused.
    """
    if level_bound < 0:
        raise ValueError("level_bound must be >= 0")
    h_roots, targets = [], []
    for r in all_roots_to_level(H.datum, level_bound):
        (h_roots if H.contains(r) else targets).append(r)
    functionals, checked, violation = [], 0, None
    for checked, target in enumerate(targets, 1):
        t = _vec(target)
        if any(_dot(y, t) > 0 for y in functionals):
            continue
        cert = cone_member(target, h_roots)
        if not cert.feasible:
            y = cert.functional
            L = lcm(*(c.denominator for c in y))
            functionals.append([c.numerator * (L // c.denominator) for c in y])
            continue
        support = [(g, c) for g, c in zip(h_roots, cert.coefficients) if c != 0]
        # a basic solution has at most one generator per dimension
        if len(support) > len(target[0]) + 1:
            raise CertificationFailed(
                f"cone support of {len(support)} generators exceeds the dimension"
            )
        violation = {
            "target": target,
            "generators": [g for g, _ in support],
            "coefficients": [c for _, c in support],
        }
        break
    if violation is None and H.biclosed.classify() == "Mixed":
        violation = _mixed_violation(H)
        if violation is not None:
            _check_witness(H, violation)
    return {
        "violation": violation,
        "level_bound": level_bound,
        "targets_checked": checked,
    }


def _check_witness(H: Hemispace, v):
    """Raise CertificationFailed unless the generators of the witness `v` are
    in H, its target is not, and sum c . g with every c > 0 is the target."""
    gens, coeffs = v["generators"], v["coefficients"]
    combo = [_dot(coeffs, col) for col in zip(*(_vec(g) for g in gens))]
    if (len(gens) != len(coeffs) or tuple(combo) != _vec(v["target"])
            or not all(map(H.contains, gens)) or H.contains(v["target"])
            or min(coeffs) <= 0):
        raise CertificationFailed(f"non-convexity witness does not verify: {v}")


def _mixed_violation(H: Hemispace):
    """The +-delta witness, read off the pairs (tail, e): a = nu + s delta
    and b = -nu + t delta in H at their lowest positive levels, so
    s + t >= k0(nu) + k0(-nu) = 1, and c the top root of H on a line whose
    upper tail leaves H (`BiclosedSet.line_tops`); then c + a + b =
    c + (s + t) delta lies above c, in -H.  None if no line or no pair
    nu, -nu qualifies."""
    B = H.biclosed
    chains, tops = B.chains(), B.line_tops()
    roots = H.datum.roots
    c = next((
        (mu, tops[mu]) for mu in roots
        if not chains[mu][0] and tops[mu] is not None
    ), None)
    if c is None:
        return None
    for nu in roots:
        neg_nu = tuple(-x for x in nu)
        s, t = B.lowest(nu, True), B.lowest(neg_nu, True)
        if s is not None and t is not None:
            return {
                "target": (c[0], c[1] + s + t),
                "generators": [c, (nu, s), (neg_nu, t)],
                "coefficients": [1, 1, 1],
            }
    return None


# ----- tope blocks ----------------------------------------------------------


def _block_generators(center: Hemispace):
    """Roots of the reflections generating W' for the center's
    representation: mu and delta - mu for the positive roots mu spanning
    Delta1 u Delta2 (their reflections contain the canonical simple
    generators of the affine reflection subgroup), moved by the twist w of
    B = w . P^hat.  As w s_r w^{-1} = s_{w(r)}, each keeps B in its block."""
    B = center.biclosed
    datum = B.datum
    span = _span_roots(B.psi, B.delta1 | B.delta2)
    if span == frozenset(datum.roots):
        # W' is the whole affine group; use its simple reflections.
        return affine_simple_roots(datum)
    w, k0 = B.twist, datum.weyl_table().k0
    return [
        w.apply(r)
        for mu in sorted(span) if not k0[mu]
        for r in ((mu, 0), (tuple(-x for x in mu), 1))
    ]


def _walk(center: Hemispace, base: Hemispace, radius: int):
    """[(chains, parent, r)] in order of discovery, over the radius-ball of
    the block {wH : w in W'} around `center`, which must lie in the same
    block as `base` (DifferentBlocks) and have its type (ValueError).  The
    tope of `chains` is s_r applied to the tope at index `parent`, whose
    pairs it reflects (`reflected_pairs`); the center comes first, with
    parent and r None.  A neighbour is recognised by its tuple of pairs
    (tail, e), a normal form of its set, so each tope appears once.  As
    s_r s_r = e, no tope is reflected by its own r; the walk builds no
    group element and no set."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    roots = _block_generators(center)
    table = center.datum.weyl_table()
    symdiff_positive(center, base)  # or DifferentBlocks, or ValueError
    chains = center.biclosed.chains()
    walk = [(chains, None, None)]
    seen = {tuple(chains.values())}
    start = 0
    for _ in range(radius):
        end = len(walk)
        for parent in range(start, end):
            chains, _, link = walk[parent]
            tops = pair_line_tops(table.k0, chains)
            for r in roots:
                if r == link:
                    continue
                out = reflected_pairs(table, chains, tops, r)
                pairs = tuple(out.values())
                if pairs not in seen:
                    seen.add(pairs)
                    walk.append((out, parent, r))
        start = end
    return walk


def tope_block(center: Hemispace, base: Hemispace, radius: int):
    """The radius-ball of the block {wH : w in W'} around `center`, graded
    and ordered based at `base` (which must lie in the same block).

    Returns a GradedPoset whose node keys are the positive symmetric
    differences with `base`; the poset carries a `reps` dict mapping keys
    to (element, Hemispace) representatives, F = w . center, in the walk's
    order (`_walk`).  Each representative takes one left reflection step
    from its parent's, and its set starts with the walk's pairs.
    """
    base_chains = base.biclosed.chains()
    reps, seen = [], {}
    for chains, parent, r in _walk(center, base, radius):
        if parent is None:
            w, F = identity(center.datum), center
        else:
            w, F = reps[parent]
            (w,) = left_reflections(w, r[0], (r[1],))
            F = Hemispace(reflect(r, F.biclosed, chains))
        reps.append((w, F))
        # the tails are base's, so the key determines the thresholds: a new
        # tuple of pairs is a new key
        seen[_symdiff(chains, base_chains)] = (w, F)
    nodes = []
    for key, (w, F) in sorted(seen.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
        label = ".".join(map(str, w.word())) or "e"
        nodes.append(PosetNode(key, len(key), label))
    # a cover drops one root of the upper key
    edges = [
        PosetEdge(b - {r}, b, "", "weak")
        for b in seen for r in b if b - {r} in seen
    ]
    poset = GradedPoset(nodes, edges)
    poset.reps = seen
    return poset


def _lattice_problems(keys):
    """[("meet" | "join", a, b)] for the pairs a, b of `keys` (a before or
    at b) with no meet or no join among `keys`, ordered by inclusion.  A
    meet exists iff the union of the pair's lower bounds is a key, and a
    join iff the pair has upper bounds and their intersection is a key."""
    members = set(keys)
    problems = []
    for i, a in enumerate(keys):
        for b in keys[i:]:
            meet, join = a & b, a | b
            lower = [z for z in keys if z <= meet]
            upper = [z for z in keys if join <= z]
            if frozenset().union(*lower) not in members:
                problems.append(("meet", a, b))
            if not upper or frozenset.intersection(*upper) not in members:
                problems.append(("join", a, b))
    return problems


def interval_lattice_check(H1: Hemispace, H2: Hemispace, base: Hemispace):
    """Enumerate [H1, H2] in the tope poset based at `base` and verify
    every pair has a unique meet and join inside the interval.  The
    interval is read off the walk of H1's block, which its P-triple and
    twist generate (`_walk`), so H1 may be any hemispace.  Each walked tope
    builds its key from its pairs alone, and none builds a representative.

    Known gap: the block radius counts generator steps, not tope-order
    steps, so the interval can miss elements of [H1, H2], H2 included
    (on A2, H1 = N(1) and H2 = 1.3.1 . N(1), one root apart)."""
    d1 = symdiff_positive(H1, base)
    d2 = symdiff_positive(H2, base)
    if not d1 <= d2:
        raise NotComparable("H1 is not <= H2 based at the given base")
    radius = len(d2) - len(d1) + 1
    base_chains = base.biclosed.chains()
    walk = _walk(H1, base, radius)
    keys = [_symdiff(chains, base_chains) for chains, _, _ in walk]
    keys = [key for key in keys if d1 <= key <= d2]
    problems = _lattice_problems(keys)
    return {
        "interval_size": len(keys),
        "is_lattice": not problems,
        "problems": problems,
    }


# ----- the rank-2 tope-poset figure ----------------------------------------

#: H1..H19: the inversion sets N(x), one word x each.
_H_WORDS = (
    "e", "1", "2", "3", "1.2", "2.1", "1.3", "3.1", "2.3", "3.2", "1.2.1",
    "1.2.3", "2.1.3", "1.3.2", "1.3.1", "3.1.2", "2.3.1", "2.3.2", "3.2.1",
)

#: T1..T6: a P-triple with trivial twist, and the generators x, y of its
#: block; T_i1..T_i4 are the triple twisted by x, y, x.y and y.x.
_T_TRIPLES = (
    ("psi:e d1:{2}", "2", "1.3.1"),
    ("psi:1 d1:{1}", "1", "2.3.2"),
    ("psi:1 d1:{2}", "1.2.1", "3"),
    ("psi:1.2.1 d1:{1}", "2", "1.3.1"),
    ("psi:2.1 d1:{2}", "1", "2.3.2"),
    ("psi:2.1 d1:{1}", "1.2.1", "3"),
)

#: U1..U6: the six chambers psi, every psi-positive chain in full.
_U_CHAMBERS = ("e", "1", "1.2", "1.2.1", "2.1", "2")


def figure_hemispaces():
    """All labelled hemispaces of the displayed tope poset (plus negatives),
    each built from its biclosed set."""
    datum = build_system("A2")
    specs = [(f"H{i}", x, "psi:e d1:{1,2}") for i, x in enumerate(_H_WORDS, 1)]
    for i, (triple, x, y) in enumerate(_T_TRIPLES, 1):
        twists = ("e", x, y, f"{x}.{y}", f"{y}.{x}")
        specs += [(f"T{i}{j or ''}", w, triple) for j, w in enumerate(twists)]
    specs += [
        (f"U{i}", "e", f"psi:{c} d1:{{}}") for i, c in enumerate(_U_CHAMBERS, 1)
    ]
    out = {
        label: from_biclosed(
            parse_biclosed(datum, f"twist:{w} {triple} d2:{{}}"), label
        )
        for label, w, triple in specs
    }
    for name in list(out):
        out["-" + name] = out[name].negated()
    return out


def figure_topes():
    """Regenerate the displayed tope-poset fragment: (records, poset), a
    descriptor record per label and a GradedPoset of the figure's covers.

    Two positive labels whose hemispaces differ on one root r are a cover,
    from the one holding -r up to the one holding r; negated labels mirror
    them.  Grades count flips, per tier (the tiers lie in distinct blocks);
    a negated hemispace counts down from the most flips in its tier.
    """
    datum = build_system("A2")
    k0 = datum.weyl_table().k0
    hs = figure_hemispaces()
    positive = [label for label in hs if label[0] != "-"]
    descriptors, span = {}, {}
    for label in positive:
        chains = hs[label].biclosed.chains()
        full = [datum.root_name(mu) for mu, (tail, _) in chains.items() if tail]
        flips = sorted(
            (datum.root_name(mu), k)
            for mu, (_, e) in chains.items()
            for k in range(k0[mu], e)
        )
        descriptors[label] = sorted(full), [f"{n}+{k}d" for n, k in flips]
        span[label[0]] = max(span.get(label[0], 0), len(flips))
    records = []
    nodes = []
    for label in hs:
        # a negated label keeps its positive label's descriptor
        sign, name = ("-", label[1:]) if label[0] == "-" else ("+", label)
        full, flips = descriptors[name]
        records.append({
            "label": label, "sign": sign, "full_chain_bases": full,
            "flips": flips,
        })
        n = len(flips)
        nodes.append(PosetNode(label, span[name[0]] - n if sign == "-" else n, label))
    edges = []
    for a, b in combinations(positive, 2):
        try:
            diff = symdiff_positive(hs[a], hs[b])
        except DifferentBlocks:
            continue
        if len(diff) == 1:
            (r,) = diff
            lo, hi = (a, b) if hs[a].contains(negate(r)) else (b, a)
            edges.append(PosetEdge(lo, hi, datum.root_name(r[0]), "weak"))
    edges += [
        PosetEdge("-" + e.upper, "-" + e.lower, e.reflection, "weak")
        for e in edges
    ]
    poset = GradedPoset(nodes, edges)
    if not poset.check_grading():
        raise CertificationFailed("tope figure grading is broken")
    return records, poset
