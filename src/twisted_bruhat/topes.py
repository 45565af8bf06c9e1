"""Hemispaces (topes) of the affine root system's oriented matroid.

A hemispace is H = B union -(Phi^hat \\ B) (sign '+') or its negation
(sign '-') for B a biclosed set of positive affine roots; the order based
at a hemispace H0 is F <= G iff (F delta H0) subset (G delta H0), which is
finite-checkable inside a block (hemispaces at finite symmetric
difference).  A hemispace holds only B's pair (tail, e) per delta-chain
(`BiclosedSet.chains`: constant from level e up, flipped below) and its
sign, so symmetric differences are read off in closed form.  The library
builds the hemispaces of biclosed sets (`from_biclosed`) and those of the
paper's rank-2 figure (`from_descriptor`), and on them the tope order,
tope blocks with their interval lattices, a convexity check and the
figure.  Cone feasibility questions are answered exactly by the integer
simplex in linprog.  The convexity check's LP search is truncated at a
level, so it certifies convexity only up to that level; a violation it
finds is an absolute non-convexity certificate, and so is the witness of
a Mixed hemispace, a closed form read off its pairs.
"""

from __future__ import annotations

from .affine_group import is_positive_affine, negate
from .biclosed import BiclosedSet, dot_action
from .finite import CartanDatum, _span_roots
from .linprog import CertificationFailed, cone_membership
from .orders import NotComparable  # re-exported: topes.NotComparable
from .poset import GradedPoset, PosetEdge, PosetNode


class DifferentBlocks(Exception):
    pass


def _k0(datum, base):
    return 0 if datum.is_positive(base) else 1


def positive_roots_to_level(datum: CartanDatum, level: int):
    out = []
    for base in datum.roots:
        for k in range(_k0(datum, base), level + 1):
            out.append((base, k))
    return out


def all_roots_to_level(datum: CartanDatum, level: int):
    pos = positive_roots_to_level(datum, level)
    return pos + [negate(r) for r in pos]


class Hemispace:
    """Total membership oracle over the whole affine root system.

    `chains` holds B's pair (tail, e) per finite root mu (see
    `BiclosedSet.chains`): the positive root mu + k delta is in B iff
    `tail`, except at the levels k0 <= k < e.  A hemispace built from a
    BiclosedSet keeps it as `biclosed`.
    """

    def __init__(self, datum, chains, sign="+", biclosed=None, label=""):
        if sign not in ("+", "-"):
            raise ValueError("sign must be '+' or '-'")
        self.datum = datum
        self.chains = chains
        self.sign = sign
        self.biclosed = biclosed
        self.label = label

    def contains(self, r) -> bool:
        positive = is_positive_affine(self.datum, r)
        base, k = r if positive else negate(r)
        tail, e = self.chains[tuple(base)]
        inb = (tail != (k < e)) == positive  # r in B, or -r not in B
        return inb if self.sign == "+" else not inb

    def negated(self) -> "Hemispace":
        return Hemispace(
            self.datum, self.chains, "-" if self.sign == "+" else "+",
            self.biclosed, "-" + self.label if self.label else "",
        )

    def level_bound(self) -> int:
        """All membership variation happens at levels below this bound."""
        return max(e for _, e in self.chains.values())

    def __repr__(self):
        return f"Hemispace({self.label or self.sign})"


def from_biclosed(B: BiclosedSet, sign="+", label="") -> Hemispace:
    return Hemispace(B.datum, B.chains(), sign, B, label)


def from_descriptor(datum, full_bases, flips, sign="+", label="") -> Hemispace:
    """The hemispace of B = (full delta-chains over `full_bases`) with the
    positive roots `flips` toggled.  The flips on each chain must be its
    lowest levels k0, k0 + 1, ..., so that B is again one pair (tail, e) per
    chain."""
    full = frozenset(tuple(b) for b in full_bases)
    levels = {mu: set() for mu in datum.roots}
    for base, k in flips:
        if not is_positive_affine(datum, (base, k)):
            raise ValueError("flips must be positive affine roots")
        levels[tuple(base)].add(k)
    chains = {}
    for mu, ks in levels.items():
        e = _k0(datum, mu) + len(ks)
        if ks and max(ks) != e - 1:
            raise ValueError(
                f"flips on {datum.root_name(mu)} are not the lowest levels "
                "of its chain"
            )
        chains[mu] = (mu in full, e)
    return Hemispace(datum, chains, sign, label=label)


def symdiff_positive(F: Hemispace, G: Hemispace) -> frozenset:
    """{positive r : F, G disagree on r}; finite iff same block.

    Hemispace symmetric differences are stable under negation, so the
    positive half determines the whole.  Read chain by chain: on positive
    roots F is constant from its threshold e_F up, and flipped below it.
    So F and G disagree on infinitely many levels (DifferentBlocks) when
    their signed tails differ, and otherwise exactly on the levels from
    min(e_F, e_G) up to below max(e_F, e_G).
    """
    flip = F.sign != G.sign
    G_chains = G.chains
    out = []
    for mu, (tail, e) in F.chains.items():
        G_tail, G_e = G_chains[mu]
        if (tail != G_tail) != flip:
            raise DifferentBlocks(
                "symmetric difference does not stabilize: different blocks"
            )
        out.extend((mu, k) for k in range(min(e, G_e), max(e, G_e)))
    return frozenset(out)


def tope_leq(F: Hemispace, G: Hemispace, base: Hemispace) -> bool:
    """F <= G in the tope poset based at `base`."""
    return symdiff_positive(F, base) <= symdiff_positive(G, base)


# ----- exact cone queries ---------------------------------------------------


def _vec(datum, r):
    base, k = r
    return tuple(base) + (k,)


def cone_member(datum: CartanDatum, target, generators):
    """Exact feasibility of target in cone(generators), with certificate."""
    return cone_membership(
        [_vec(datum, g) for g in generators], _vec(datum, target)
    )


# A violation's cone support may exceed the dimension by at most
# _COMBO_SIZE generators.
_COMBO_SIZE = 3


def check_convex_truncated(H: Hemispace, level_bound: int):
    """Search by exact LP for a root of -H in the cone of the roots of H,
    all of level at most `level_bound`; for a Mixed H with none there, take
    the closed-form +-delta witness (`_mixed_violation`).  A violation is
    an absolute non-convexity certificate; 'no violation' certifies nothing
    beyond the truncation of the LP search.
    """
    datum = H.datum
    universe = all_roots_to_level(datum, level_bound)
    h_roots = [r for r in universe if H.contains(r)]
    checked = 0
    violation = None
    for target in universe:
        if H.contains(target):
            continue
        checked += 1
        cert = cone_member(datum, target, h_roots)
        if cert.feasible:
            support = [
                (g, c)
                for g, c in zip(h_roots, cert.coefficients)
                if c != 0
            ]
            if len(support) > _COMBO_SIZE + (len(target[0]) + 1):
                raise CertificationFailed(
                    f"cone support of {len(support)} generators exceeds "
                    "combo size + dimension"
                )
            violation = {
                "target": target,
                "generators": [g for g, _ in support],
                "coefficients": [c for _, c in support],
            }
            break
    if violation is None and H.biclosed is not None and (
        H.biclosed.classify() == "Mixed"
    ):
        violation = _mixed_violation(H)
    return {
        "violation": violation,
        "level_bound": level_bound,
        "targets_checked": checked,
    }


def _lowest(H: Hemispace, mu, member: bool):
    """The lowest positive level k >= k0 of mu + k delta whose membership
    in H is `member`, or None.  Levels from e up are in H iff the signed
    tail is, and the levels k0 <= k < e below them are flipped."""
    tail, e = H.chains[mu]
    k0 = _k0(H.datum, mu)
    if (tail != (H.sign == "-")) == member:
        return e
    return k0 if e > k0 else None


def _top(H: Hemispace, mu):
    """The top level of the line mu + Z delta in H, or None if its upper
    tail lies in H or it misses H.  Below k0, mu - j delta is in H iff
    -mu + j delta is not."""
    tail, e = H.chains[mu]
    if tail != (H.sign == "-"):
        return None
    if e > _k0(H.datum, mu):
        return e - 1
    j = _lowest(H, tuple(-x for x in mu), False)
    return None if j is None else -j


def _mixed_violation(H: Hemispace):
    """The +-delta witness, read off the pairs (tail, e): a = nu + s delta
    and b = -nu + t delta in H at their lowest positive levels, so
    s + t >= k0(nu) + k0(-nu) = 1, and c the top root of H on a line whose
    upper tail leaves H; then c + a + b = c + (s + t) delta lies above c,
    in -H.  None if no line or no pair nu, -nu qualifies."""
    roots = H.datum.roots
    c = next(((mu, l) for mu in roots if (l := _top(H, mu)) is not None), None)
    if c is None:
        return None
    for nu in roots:
        neg_nu = tuple(-x for x in nu)
        s, t = _lowest(H, nu, True), _lowest(H, neg_nu, True)
        if s is not None and t is not None:
            return {
                "target": (c[0], c[1] + s + t),
                "generators": [c, (nu, s), (neg_nu, t)],
                "coefficients": [1, 1, 1],
            }
    return None


# ----- tope blocks ----------------------------------------------------------


def _block_generators(center: Hemispace):
    """Reflections generating W' for the center's representation: s_mu and
    s_{delta-mu} for the roots mu spanning Delta1 u Delta2 (these contain
    the canonical simple generators of the affine reflection subgroup),
    conjugated by the twist w of B = w . P^hat, so that each w g w^{-1}
    keeps B in its block."""
    from .affine_group import reflection

    B = center.biclosed
    datum = B.datum
    span = _span_roots(B.psi, B.delta1 | B.delta2)
    if span == frozenset(datum.roots):
        # W' is the whole affine group; use its simple reflections.
        from .affine_group import simple_reflections

        return list(simple_reflections(datum))
    w = B.twist
    gens = []
    for mu in sorted(span):
        if datum.is_positive(mu):
            for r in ((mu, 0), (tuple(-x for x in mu), 1)):
                gens.append(w * reflection(datum, r) * w.inverse())
    return gens


def tope_block(center: Hemispace, base: Hemispace, radius: int):
    """The radius-ball of the block {wH : w in W'} around `center`, graded
    and ordered based at `base` (which must lie in the same block).

    Returns a GradedPoset whose node keys are the positive symmetric
    differences with `base`; the poset carries a `reps` dict mapping keys
    to (element, Hemispace) representatives.
    """
    if center.biclosed is None:
        raise ValueError("block generation needs a biclosed-backed center")
    from .affine_group import identity

    datum = center.datum
    gens = _block_generators(center)
    seen = {}
    e = identity(datum)
    key0 = symdiff_positive(center, base)  # raises DifferentBlocks if apart
    seen[key0] = (e, center)
    frontier = [(e, center)]
    for _ in range(radius):
        nxt = []
        for w, F in frontier:
            for g in gens:
                # g . (w . B) = (g w) . B: one product per neighbour
                F2 = from_biclosed(dot_action(g, F.biclosed), center.sign)
                key = symdiff_positive(F2, base)
                if key not in seen:
                    seen[key] = (g * w, F2)
                    nxt.append(seen[key])
        frontier = nxt
    nodes = []
    for key, (w, F) in sorted(seen.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
        label = ".".join(map(str, w.word())) or "e"
        nodes.append(PosetNode(key, len(key), label))
    edges = []
    keys = list(seen)
    for a in keys:
        for b in keys:
            if len(b) == len(a) + 1 and a < b:
                edges.append(PosetEdge(a, b, "", "weak"))
    poset = GradedPoset(nodes, edges)
    poset.reps = seen
    return poset


def interval_lattice_check(H1: Hemispace, H2: Hemispace, base: Hemispace):
    """Enumerate [H1, H2] in the tope poset based at `base` and verify
    every pair has a unique meet and join inside the interval."""
    d1 = symdiff_positive(H1, base)
    d2 = symdiff_positive(H2, base)
    if not d1 <= d2:
        raise NotComparable("H1 is not <= H2 based at the given base")
    if H1.biclosed is None:
        raise ValueError("interval enumeration needs a biclosed-backed H1")
    radius = len(d2) - len(d1) + 1
    block = tope_block(H1, base, radius)
    members = {
        key: rep
        for key, rep in block.reps.items()
        if d1 <= key <= d2
    }
    keys = list(members)
    problems = []
    for i, a in enumerate(keys):
        for b in keys[i:]:
            lower = [z for z in keys if z <= a and z <= b]
            upper = [z for z in keys if a <= z and b <= z]
            if sum(all(y <= z for y in lower) for z in lower) != 1:
                problems.append(("meet", a, b))
            if sum(all(z <= y for y in upper) for z in upper) != 1:
                problems.append(("join", a, b))
    return {
        "interval_size": len(keys),
        "is_lattice": not problems,
        "problems": problems,
    }


# ----- the rank-2 tope-poset figure ----------------------------------------

_A = (1, 0)
_B = (0, 1)
_AB = (1, 1)
_NA = (-1, 0)
_NB = (0, -1)
_NAB = (-1, -1)

#: finite biclosed parts of the bottom hemispace tier (inversion sets).
_H_FINITE = {
    "H1": (),
    "H2": ((_A, 0),),
    "H3": ((_B, 0),),
    "H4": ((_NAB, 1),),
    "H5": ((_A, 0), (_AB, 0)),
    "H6": ((_B, 0), (_AB, 0)),
    "H7": ((_A, 0), (_NB, 1)),
    "H8": ((_NAB, 1), (_NB, 1)),
    "H9": ((_B, 0), (_NA, 1)),
    "H10": ((_NAB, 1), (_NA, 1)),
    "H11": ((_A, 0), (_AB, 0), (_B, 0)),
    "H12": ((_A, 0), (_AB, 0), (_A, 1)),
    "H13": ((_B, 0), (_AB, 0), (_B, 1)),
    "H14": ((_A, 0), (_NB, 1), (_A, 1)),
    "H15": ((_A, 0), (_NB, 1), (_NAB, 1)),
    "H16": ((_NAB, 2), (_NB, 1), (_NAB, 1)),
    "H17": ((_B, 0), (_NA, 1), (_B, 1)),
    "H18": ((_B, 0), (_NA, 1), (_NAB, 1)),
    "H19": ((_NAB, 2), (_NA, 1), (_NAB, 1)),
}

#: middle tier: two full chains plus finite perturbations on a third line.
_T_BASES = {
    "T1": (_A, _AB),
    "T2": (_B, _AB),
    "T3": (_B, _NA),
    "T4": (_NAB, _NA),
    "T5": (_NAB, _NB),
    "T6": (_A, _NB),
}
#: per T_i, the two perturbation roots e1 (level 0 side) and e2 (level 1).
_T_EXTRAS = {
    "T1": ((_B, 0), (_NB, 1)),
    "T2": ((_A, 0), (_NA, 1)),
    "T3": ((_AB, 0), (_NAB, 1)),
    "T4": ((_B, 0), (_NB, 1)),
    "T5": ((_A, 0), (_NA, 1)),
    "T6": ((_AB, 0), (_NAB, 1)),
}

#: top tier: the six positive systems, all chains in full.
_U_BASES = {
    "U1": (_A, _B, _AB),
    "U2": (_NA, _B, _AB),
    "U3": (_NA, _B, _NAB),
    "U4": (_NA, _NB, _NAB),
    "U5": (_A, _NB, _NAB),
    "U6": (_A, _NB, _AB),
}

_H_EDGES = [
    ("H1", "H2"), ("H1", "H3"), ("H1", "H4"),
    ("H2", "H5"), ("H2", "H7"), ("H3", "H6"), ("H3", "H9"),
    ("H4", "H8"), ("H4", "H10"),
    ("H5", "H11"), ("H5", "H12"), ("H6", "H11"), ("H6", "H13"),
    ("H7", "H14"), ("H7", "H15"), ("H8", "H15"), ("H8", "H16"),
    ("H9", "H17"), ("H9", "H18"), ("H10", "H18"), ("H10", "H19"),
]


def _figure_datum():
    from .finite import build_system

    return build_system("A2")


def figure_hemispaces():
    """All labelled hemispaces of the displayed tope poset (plus negatives)."""
    datum = _figure_datum()
    specs = [(name, (), roots) for name, roots in _H_FINITE.items()]
    for name, bases in _T_BASES.items():
        e1, e2 = _T_EXTRAS[name]
        specs += [
            (name, bases, ()),
            (name + "1", bases, (e1,)),
            (name + "2", bases, (e2,)),
            (name + "3", bases, (e1, (e1[0], e1[1] + 1))),
            (name + "4", bases, (e2, (e2[0], e2[1] + 1))),
        ]
    specs += [(name, bases, ()) for name, bases in _U_BASES.items()]
    out = {
        name: from_descriptor(datum, bases, flips, "+", name)
        for name, bases, flips in specs
    }
    for name in list(out):
        out["-" + name] = out[name].negated()
    return out


def _figure_edges():
    edges = list(_H_EDGES)
    for i in range(1, 7):
        t = f"T{i}"
        edges += [(t, t + "1"), (t, t + "2"), (t + "1", t + "3"),
                  (t + "2", t + "4")]
    # mirrored tiers, direction reversed under negation
    edges += [("-" + b, "-" + a) for a, b in edges]
    return edges


def _figure_grade(label: str) -> int:
    neg = label.startswith("-")
    core = label[1:] if neg else label
    if core.startswith("H"):
        g = len(_H_FINITE[core])
    elif core.startswith("U"):
        g = 0
    else:  # T tier
        g = 0 if len(core) == 2 else (1 if core[2] in "12" else 2)
    if neg:
        span = 3 if core.startswith("H") else (0 if core.startswith("U") else 2)
        return span - g
    return g


def figure_topes():
    """Regenerate the displayed tope-poset fragment.

    Returns (records, poset): structured descriptor records for every
    label, and a GradedPoset over the labels whose edges are the figure's
    covers, each verified against the finite tope-order criterion (the
    lower tope agrees with -Phi^hat on the one-root symmetric difference).
    Grades are per connected component (the tiers lie in distinct blocks).
    """
    datum = _figure_datum()
    hs = figure_hemispaces()
    records = []
    for label, h in hs.items():
        flip_names = sorted(
            (datum.root_name(mu), k)
            for mu, (_, e) in h.chains.items()
            for k in range(_k0(datum, mu), e)
        )
        records.append(
            {
                "label": label,
                "sign": h.sign,
                "full_chain_bases": sorted(
                    datum.root_name(mu) for mu, (tail, _) in h.chains.items()
                    if tail
                ),
                "flips": [f"{n}+{k}d" for n, k in flip_names],
            }
        )
    nodes = [
        PosetNode(label, _figure_grade(label), label) for label in hs
    ]
    edges = []
    for lo, hi in _figure_edges():
        F, G = hs[lo], hs[hi]
        diff = symdiff_positive(F, G)
        if len(diff) != 1:
            raise CertificationFailed(
                f"figure edge {lo} -> {hi} flips {len(diff)} roots"
            )
        (r,) = diff
        # upward = away from the all-negative hemispace: the lower tope
        # holds the negative root of the flipped pair.
        if not (F.contains(negate(r)) and G.contains(r)):
            raise CertificationFailed(f"figure edge {lo} -> {hi} points downward")
        edges.append(PosetEdge(lo, hi, datum.root_name(r[0]), "weak"))
    poset = GradedPoset(nodes, edges)
    if not poset.check_grading():
        raise CertificationFailed("tope figure grading is broken")
    return records, poset
