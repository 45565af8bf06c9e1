"""Biclosed sets in the affine root system, as twisted lifts of finite ones.

Every biclosed set of positive affine roots is of the form
``w . P(psi, d1, d2)^hat`` where ``P^hat`` lifts the finite biclosed set
of a P-triple (validated here: d1, d2 orthogonal sets of simple roots of
psi) to all its delta-chains and ``.`` is the dot action
``w . B = (N(w) \\ w(-B)) | (w(B) \\ -N(w))``.  On each delta-chain
``mu + Z_{>=k0} delta`` such a set is constant above one level and flipped
below it, so it is stored as one bit and one threshold per finite root
(`BiclosedSet.chains`).  That pair gives O(1) membership, exact per-chain
member counting (used heavily by the twisted length functions), and
equality as a comparison of normal forms.  A set has many
representations (w . P^hat = (w x) . P^hat for every x fixing P^hat), and
none is singled out; the dot action composes twists.  It is also the
linear action on hemispaces, so the chains of a reflected set s_r . B are
read off those of B (`reflected_pairs`).
"""

from __future__ import annotations

import re
from functools import lru_cache

from .affine_group import (
    AffineWeylElement,
    format_word,
    from_word,
    identity,
    is_positive_affine,
    left_reflections,
    negate,
    parse_word,
)
from .finite import (
    CartanDatum,
    PositiveSystem,
    _span_roots,
    standard_positive_system,
)

CLASSES = (
    "Finite",
    "Cofinite",
    "InfiniteWordInversion",
    "InfiniteWordCoinversion",
    "Mixed",
)


@lru_cache(maxsize=None)
def _P_roots(psi: PositiveSystem, d1: frozenset, d2: frozenset) -> frozenset:
    """P(psi, d1, d2) = (psi \\ span(d1)) | span(d2), once per triple.  An
    invalid triple raises ValueError and is not stored, so the cache holds
    at most the finitely many P-triples of each type."""
    datum = psi.datum
    simples = set(psi.simple_system)
    if not d1 <= simples or not d2 <= simples:
        raise ValueError("delta1/delta2 must be simple roots of psi")
    for a in d1:
        for b in d2:
            if datum.inner(a, b) != 0:
                raise ValueError(
                    f"orthogonality violated: ({datum.root_name(a)},"
                    f" {datum.root_name(b)}) != 0"
                )
    return (psi.roots - _span_roots(psi, d1)) | _span_roots(psi, d2)


class BiclosedSet:
    """w . P(psi, d1, d2)^hat with a decidable membership oracle."""

    def __init__(
        self,
        twist: AffineWeylElement,
        psi: PositiveSystem,
        delta1=(),
        delta2=(),
    ):
        self.datum = psi.datum
        if twist.datum.type_label != self.datum.type_label:
            raise ValueError(f"twist of type {twist.datum.type_label} for a"
                             f" set of type {self.datum.type_label}")
        self.twist = twist
        self.psi = psi
        self.delta1 = frozenset(tuple(r) for r in delta1)
        self.delta2 = frozenset(tuple(r) for r in delta2)
        self.P_roots = _P_roots(psi, self.delta1, self.delta2)
        self._chains = None
        self._line_tops = None
        self._lB = {}
        self._lBp = {}
        self._ray_memo = None  # (w, l_B(w), n, terms): orders._ray_pieces

    # ----- representation-level data ----------------------------------

    def chains(self):
        """Per finite root mu: (tail, e), read as "mu + k delta is in B iff
        tail, except at the levels k0 <= k < e" (k0 = 0 if mu > 0, else 1).

        For twist = u t_v and t_mu as in `AffineWeylElement.chain_tops`, a
        level k > t_mu is outside N(twist) and in B iff u^{-1}(mu) is in P,
        and a level k <= t_mu is in B iff -u^{-1}(mu) is not.  So tail is
        [u^{-1}(mu) in P], and the levels up to t_mu are flipped exactly when
        [-u^{-1}(mu) in P] equals it.  With e >= k0 the pair is a normal form
        of B on the chain.
        """
        if self._chains is None:
            table = self.datum.weyl_table()
            pre = table.image[table.inv[table.index[self.twist.fin]]]
            P = self.P_roots
            chains = {}
            for mu, t in self.twist.chain_tops().items():
                nu = pre[mu]
                tail = nu in P
                k0 = table.k0[mu]
                flipped = t >= k0 and tail == (tuple(-x for x in nu) in P)
                chains[mu] = (tail, t + 1 if flipped else k0)
            self._chains = chains
        return self._chains

    def contains(self, r) -> bool:
        if not is_positive_affine(self.datum, r):
            raise ValueError("membership is defined on positive affine roots")
        return self.in_hemispace(r)

    def count_in_chain(self, base, lo: int, hi: int) -> int:
        """|B intersect {base + k delta : lo <= k <= hi}| in O(1), for
        lo >= k0: the levels of [lo, hi] at or above e if tail, else those
        below e.  A base outside the finite roots raises ValueError."""
        try:
            tail, e = self.chains()[tuple(base)]
        except KeyError:
            raise ValueError(f"not a root: {tuple(base)}") from None
        if hi < lo:
            return 0
        if tail:
            if hi < e:
                return 0
            return hi - e + 1 if lo < e else hi - lo + 1
        if lo >= e:
            return 0
        return e - lo if hi >= e else hi - lo + 1

    def count_inversions_in(self, w: AffineWeylElement) -> int:
        """|N(w) ∩ B|."""
        total = 0
        for base, (lo, hi) in w.inversion_chains().items():
            total += self.count_in_chain(base, lo, hi)
        return total

    def in_hemispace(self, r) -> bool:
        """r in H_B = B ∪ -(Phi^hat+ \\ B), for any affine root r: r in B if
        r > 0, and -r not in B if r < 0."""
        positive = is_positive_affine(self.datum, r)
        base, k = r if positive else negate(r)
        tail, e = self.chains()[tuple(base)]
        return (tail != (k < e)) == positive

    def lowest(self, mu, member: bool):
        """The lowest level k >= k0 of mu + k delta whose membership in B is
        `member`, or None (`_lowest`); ValueError if mu is not a root."""
        try:
            return _lowest(self.datum.weyl_table().k0, self.chains(), mu, member)
        except KeyError:
            raise ValueError(f"not a root: {tuple(mu)}") from None

    def line_tops(self):
        """Per finite root nu: the top level of the line nu + Z delta whose
        membership in H_B differs from nu's tail, or None (`pair_line_tops`)."""
        if self._line_tops is None:
            k0 = self.datum.weyl_table().k0
            self._line_tops = pair_line_tops(k0, self.chains())
        return self._line_tops

    # ----- derived structure -------------------------------------------

    def classify(self) -> str:
        d = frozenset(self.psi.simple_system)
        if self.delta1 == d:
            return "Finite"
        if self.delta2 == d:
            return "Cofinite"
        if self.delta1 and self.delta2:
            return "Mixed"
        if self.delta2:
            return "InfiniteWordCoinversion"
        return "InfiniteWordInversion"

    def complement(self) -> "BiclosedSet":
        """The biclosed complement: w . P(psi^-, -d2, -d1)^hat."""
        table = self.datum.weyl_table()
        w0 = table.elements[table.w0]
        psi_neg = PositiveSystem(self.datum, self.psi.chamber * w0)
        neg = lambda s: [tuple(-x for x in r) for r in s]
        return BiclosedSet(self.twist, psi_neg, neg(self.delta2), neg(self.delta1))

    # ----- equality ----------------------------------------------------

    def level_star(self) -> int:
        """1 + the highest level of N(twist): B agrees with P^hat above it."""
        return 1 + self.twist.max_inversion_level()

    def equals(self, other: "BiclosedSet") -> bool:
        """Equality as sets of roots: the same (tail, e) on every chain."""
        return self is other or self.chains() == other.chains()

    def __repr__(self):
        return format_biclosed(self)


def _lowest(k0, chains, mu, member: bool):
    """The lowest level k >= k0 of mu + k delta whose membership is
    `member`, on the pairs `chains`: e if that is the tail, else k0 if the
    chain is flipped, else None."""
    tail, e = chains[mu]
    if tail == member:
        return e
    return k0[mu] if e > k0[mu] else None


def pair_line_tops(k0, chains):
    """Per finite root nu: the top level of the line nu + Z delta whose
    membership in the hemispace of the pairs `chains` differs from nu's
    tail, or None if none does.

    That is e - 1 if nu's chain is flipped.  Else it lies below k0(nu),
    where nu - j delta is in the hemispace iff -nu + j delta is not in the
    set: it is -j for the lowest such j whose membership is nu's tail.
    """
    tops = {}
    for nu, (tail, e) in chains.items():
        if e > k0[nu]:
            tops[nu] = e - 1
        else:
            j = _lowest(k0, chains, tuple(-x for x in nu), tail)
            tops[nu] = None if j is None else -j
    return tops


def reflected_pairs(table, chains, tops, r):
    """The pairs of s_r . B for an affine root r = (gamma, m), read off
    B's pairs `chains` and their `pair_line_tops` `tops`, with no group
    element; `table` is the type's `WeylTable`.

    The dot action is the linear action on hemispaces, H_{w.B} = w(H_B)
    (Dyer, J. Algebra 163, 1994), and s_r(mu + k delta) =
    nu + (k - p m) delta for nu = s_gamma(mu), p = <mu, gamma^vee>.  So
    mu's tail is nu's, and its threshold lies p m above nu's top, if nu
    has one.  The pairs (nu, p) are gamma's row of the Weyl table
    (`WeylTable.srow`), in the order of `BiclosedSet.chains`, so a tope
    walk keys each set by its tuple of pairs.
    """
    gamma, m = r
    row = table.srow.get(tuple(gamma))
    if row is None:
        raise ValueError(f"not a root: {tuple(gamma)}")
    k0s = table.k0
    out = {}
    for mu, (nu, p) in row.items():
        top, k0 = tops[nu], k0s[mu]
        out[mu] = (
            chains[nu][0], k0 if top is None else max(k0, top + 1 + p * m)
        )
    return out


def dot_action(u: AffineWeylElement, B: BiclosedSet) -> BiclosedSet:
    """u . (w . P^hat) = (uw) . P^hat (the representation composes twists)."""
    return BiclosedSet(u * B.twist, B.psi, B.delta1, B.delta2)


def reflect(r, B: BiclosedSet, chains) -> BiclosedSet:
    """s_r . B for an affine root r = (gamma, m): the twist takes one
    `left_reflections` step, and the set starts with its chains, as
    `reflected_pairs` read them."""
    gamma, m = r
    (twist,) = left_reflections(B.twist, gamma, (m,))
    out = BiclosedSet(twist, B.psi, B.delta1, B.delta2)
    out._chains = chains
    return out


def empty_biclosed(datum: CartanDatum) -> BiclosedSet:
    """B = empty set: P(psi, Delta, {}) with trivial twist."""
    psi = standard_positive_system(datum)
    return BiclosedSet(identity(datum), psi, psi.simple_system, ())


def full_positive_biclosed(datum: CartanDatum) -> BiclosedSet:
    """B = (Phi+)^hat: every positive chain in full."""
    return BiclosedSet(identity(datum), standard_positive_system(datum))


def from_inversion_set(x: AffineWeylElement) -> BiclosedSet:
    """N(x) as a BiclosedSet: x . P(psi, Delta, {})^hat = x . {} = N(x)."""
    return BiclosedSet(
        x,
        standard_positive_system(x.datum),
        standard_positive_system(x.datum).simple_system,
        (),
    )


# ----- text grammar --------------------------------------------------------

_BIC_RE = re.compile(
    r"^\s*twist:(?P<twist>\S+)\s+psi:(?P<psi>\S+)\s+"
    r"d1:\{(?P<d1>[^}]*)\}\s+d2:\{(?P<d2>[^}]*)\}\s*$"
)


def parse_biclosed(datum: CartanDatum, text: str) -> BiclosedSet:
    """Parse 'twist:<word> psi:<word> d1:{i,j} d2:{k}'.

    psi is the finite chamber word over letters 1..rank; d-indices i refer
    to the psi-simple roots chamber(alpha_i), 1-based.
    """
    m = _BIC_RE.match(text)
    if m is None:
        raise ValueError(f"bad biclosed syntax: {text!r}")
    twist = from_word(datum, parse_word(datum, m.group("twist")))
    psi_word = parse_word(datum, m.group("psi"))
    if any(a > datum.rank for a in psi_word):
        raise ValueError("psi word must use finite letters only")
    chamber = datum.identity()
    for a in psi_word:
        chamber = chamber * datum.simple_reflection(a - 1)
    psi = PositiveSystem(datum, chamber)

    def indices(group):
        group = group.strip()
        if not group:
            return []
        out = [int(p) for p in group.split(",")]
        for i in out:
            if not 1 <= i <= datum.rank:
                raise ValueError(f"simple-root index {i} out of range 1..{datum.rank}")
        return out

    d1 = [chamber.apply(datum.simple_roots[i - 1]) for i in indices(m.group("d1"))]
    d2 = [chamber.apply(datum.simple_roots[i - 1]) for i in indices(m.group("d2"))]
    return BiclosedSet(twist, psi, d1, d2)


def format_biclosed(B: BiclosedSet) -> str:
    datum = B.datum
    chamber = B.psi.chamber
    chamber_word = chamber.word()
    inv = chamber.inverse()

    def idx(roots):
        out = []
        for r in roots:
            pre = inv.apply(r)
            out.append(datum.simple_roots.index(pre) + 1)
        return ",".join(map(str, sorted(out)))

    return (
        f"twist:{format_word(B.twist.word())}"
        f" psi:{format_word(tuple(a + 1 for a in chamber_word))}"
        f" d1:{{{idx(B.delta1)}}} d2:{{{idx(B.delta2)}}}"
    )
