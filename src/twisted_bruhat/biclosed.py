"""Biclosed sets in the affine root system, as twisted lifts of finite ones.

Every biclosed set of positive affine roots is of the form
``w . P(psi, d1, d2)^hat`` where ``P^hat`` lifts a finite biclosed set to
all its delta-chains and ``.`` is the dot action
``w . B = (N(w) \\ w(-B)) | (w(B) \\ -N(w))``.  This module makes that
representation a total, O(1)-per-root membership oracle, with exact
per-chain member counting (used heavily by the twisted length functions).
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
    negate,
    parse_word,
)
from .finite import (
    CartanDatum,
    FiniteBiclosed,
    PositiveSystem,
    WeylElement,
    build_system,
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
def _longest_element(type_label) -> WeylElement:
    datum = build_system(type_label)
    for w in datum.weyl_elements:
        if all(
            not datum.is_positive(w.apply(r)) for r in datum.positive_roots
        ):
            return w
    raise AssertionError("no longest element")


@lru_cache(maxsize=None)
def _finite_part(psi: PositiveSystem, delta1, delta2) -> FiniteBiclosed:
    """FiniteBiclosed(psi, d1, d2), built once per triple.  Invalid triples
    raise and are not stored, so the cache holds at most the finitely many
    P-triples of each type."""
    return FiniteBiclosed(psi, delta1, delta2)


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
        self.twist = twist
        self.psi = psi
        self.finite_part = _finite_part(
            psi,
            frozenset(tuple(r) for r in delta1),
            frozenset(tuple(r) for r in delta2),
        )
        self.delta1 = self.finite_part.delta1
        self.delta2 = self.finite_part.delta2
        self.P_roots = self.finite_part.roots
        self._per_base = None
        self._lB = {}
        self._lBp = {}
        self._ray_memo = None  # (w, profile): orders._element_profile

    # ----- representation-level data ----------------------------------

    def _base_data(self):
        """Per finite root mu: (pos, neg, t) = (u^{-1}(mu) in P,
        -u^{-1}(mu) in P, t_mu) for twist = u t_v, t_mu as in
        `AffineWeylElement.chain_tops`.

        For positive r = mu + k delta: r is in B iff pos when k > t_mu (r is
        outside N(twist)), and iff not neg when k <= t_mu (r is in N(twist)).
        """
        if self._per_base is None:
            table = self.datum.weyl_table()
            pre = table.image[table.inv[table.index[self.twist.fin]]]
            P = self.P_roots
            data = {}
            for mu, t in self.twist.chain_tops().items():
                nu = pre[mu]
                data[mu] = (nu in P, tuple(-x for x in nu) in P, t)
            self._per_base = data
        return self._per_base

    def contains(self, r) -> bool:
        base, k = r
        if not is_positive_affine(self.datum, r):
            raise ValueError("membership is defined on positive affine roots")
        pos, neg, t = self._base_data()[tuple(base)]
        return pos if k > t else not neg

    def count_in_chain(self, base, lo: int, hi: int) -> int:
        """|B intersect {base + k delta : lo <= k <= hi}| in O(1): the levels
        above t if pos, plus those up to t if not neg."""
        pos, neg, t = self._base_data()[tuple(base)]
        n = max(0, hi - max(lo, t + 1) + 1) if pos else 0
        if not neg:
            n += max(0, min(hi, t) - lo + 1)
        return n

    def count_inversions_in(self, w: AffineWeylElement, inverse: bool) -> int:
        """|N(w^{-1}) ∩ B| (inverse=True) or |N(w) ∩ B|."""
        elem = w.inverse() if inverse else w
        total = 0
        for base, (lo, hi) in elem.inversion_chains().items():
            total += self.count_in_chain(base, lo, hi)
        return total

    # ----- derived structure -------------------------------------------

    def I_roots(self) -> frozenset:
        """I_B: finite roots whose chain meets B infinitely often."""
        u = self.twist.fin
        return frozenset(u.apply(p) for p in self.P_roots)

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
        w0 = _longest_element(self.datum.type_label)
        psi_neg = PositiveSystem(self.datum, self.psi.chamber * w0)
        neg = lambda s: [tuple(-x for x in r) for r in s]
        return BiclosedSet(self.twist, psi_neg, neg(self.delta2), neg(self.delta1))

    # ----- equality and canonical form ---------------------------------

    def level_star(self, other: "BiclosedSet" = None) -> int:
        l = self.twist.max_inversion_level()
        if other is not None:
            l = max(l, other.twist.max_inversion_level())
        return 1 + l

    def equals(self, other: "BiclosedSet") -> bool:
        """Oracle equality: I_B match plus agreement up to level L*."""
        if self is other:
            return True
        if self.I_roots() != other.I_roots():
            return False
        lstar = self.level_star(other)
        datum = self.datum
        for base in datum.roots:
            k0 = 0 if datum.is_positive(base) else 1
            for k in range(k0, lstar + 1):
                if self.contains((base, k)) != other.contains((base, k)):
                    return False
        return True

    def canonicalized(self) -> "BiclosedSet":
        """Greedily strip trailing twist letters that fix the oracle."""
        current = self
        while True:
            word = current.twist.word()
            if not word:
                return current
            shorter = BiclosedSet(
                from_word(self.datum, word[:-1]),
                current.psi,
                current.delta1,
                current.delta2,
            )
            if shorter.equals(current):
                current = shorter
            else:
                return current

    def __repr__(self):
        return format_biclosed(self)


def dot_action(u: AffineWeylElement, B: BiclosedSet) -> BiclosedSet:
    """u . (w . P^hat) = (uw) . P^hat (the representation composes twists)."""
    return BiclosedSet(u * B.twist, B.psi, B.delta1, B.delta2)


def dot_action_pointwise(u: AffineWeylElement, member_fn, r) -> bool:
    """Membership of r in u.B straight from the defining formula.

    (N(u) \\ u(-B)) | (u(B) \\ -N(u)) -- used as the oracle cross-check.
    """
    datum = u.datum
    in_nu = u.in_inversion_set(r)
    ui_r = u.inv_apply(r)
    neg_ui_r = negate(ui_r)
    in_u_minus_B = is_positive_affine(datum, neg_ui_r) and member_fn(neg_ui_r)
    if in_nu and not in_u_minus_B:
        return True
    in_uB = is_positive_affine(datum, ui_r) and member_fn(ui_r)
    # r is positive, so r never lies in -N(u) (a set of negative roots).
    return in_uB


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
