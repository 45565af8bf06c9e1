"""Finite crystallographic root systems with exact arithmetic.

Shipped types: A2, A3, B2, G2.  Roots are integer coefficient vectors over
the simple basis; inner products go through the integer Gram matrix, and
the pairing <v, r^vee> of a root-lattice vector with a coroot is a Cartan
integer, so inner products, pairings and reflections of roots are ints.
`CartanDatum.coroot`, 2r/(r,r) over the simple roots, is the one
`fractions.Fraction` vector here (rational for B2 and G2); the library
itself reads coroots over the simple coroots, in ints, from `WeylTable`.
There is no floating point anywhere.

Also houses the finite Weyl group (fully enumerated -- at rank <= 3 it has
at most 24 elements), positive systems, and the P-triples (psi, d1, d2)
of orthogonal simple subsets d1, d2 of psi.  `WeylTable` enumerates the
group on first use and holds it as integer tables built from the root
images: products, inverses and lengths are lookups in it, and so are
positive systems, reduced words (finite and affine), the root images of
affine elements and left multiplication by each reflection s_mu, with
mu^vee over the simple coroots in ints.  The other modules read the
finite root facts off it too, the lowest level k0 of each delta-chain
(1 iff mu < 0), each reflection's row srow and the longest element w0,
and never call `pairing`, `reflect` or `is_positive`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

#: Gram matrices of pairwise inner products of the simple roots, in a
#: normalization where every entry is an integer.
_GRAM_TABLE = {
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "B2": ((2, -1), (-1, 1)),
    "G2": ((2, -3), (-3, 6)),
}

_LETTERS = "abc"


class CartanDatum:
    """A finite irreducible crystallographic root system of rank <= 3.

    Roots are tuples of ints (coefficients over the simple basis).  The
    Coxeter number, a stabilization horizon of the cover search, is
    h = |Phi| / rank.
    """

    def __init__(self, type_label: str):
        if type_label not in _GRAM_TABLE:
            raise ValueError(f"unknown type label: {type_label!r}")
        self.type_label = type_label
        gram = _GRAM_TABLE[type_label]
        self.rank = len(gram)
        self.gram = gram
        self.simple_roots = tuple(
            tuple(1 if j == i else 0 for j in range(self.rank))
            for i in range(self.rank)
        )
        self.roots = self._generate_roots()
        self._root_set = frozenset(self.roots)
        self.coxeter_number = len(self.roots) // self.rank
        self.positive_roots = tuple(
            sorted(r for r in self.roots if self.is_positive(r))
        )
        # in an irreducible system the highest root is the unique root of
        # largest height
        self.highest_root = max(self.positive_roots, key=sum)
        self._table = None

    # ----- basic linear algebra over the simple basis ------------------

    def inner(self, u, v) -> int:
        """Exact inner product of two coefficient vectors."""
        total = 0
        for i, ui in enumerate(u):
            if ui:
                row = self.gram[i]
                for j, vj in enumerate(v):
                    if vj:
                        total += ui * vj * row[j]
        return total

    def norm_sq(self, r) -> int:
        return self.inner(r, r)

    def coroot(self, r):
        """r^vee = 2r/(r,r) as a tuple of Fractions over the simple basis."""
        c = Fraction(2, self.norm_sq(r))
        return tuple(c * x for x in r)

    def pairing(self, v, r) -> int:
        """<v, r^vee> = 2(v,r)/(r,r) for a root r, exact in integers
        because v lies in the root lattice."""
        return 2 * self.inner(v, r) // self.norm_sq(r)

    def reflect(self, mirror, v):
        """Reflection of v in the hyperplane of `mirror`: v - <v,m^vee> m."""
        if tuple(mirror) not in self._root_set:
            raise ValueError(f"not a root: {mirror}")
        c = self.pairing(v, mirror)
        return tuple(x - c * m for x, m in zip(v, mirror))

    @staticmethod
    def is_positive(r) -> bool:
        """Positivity dichotomy: some coefficient > 0 (then all are >= 0)."""
        return any(x > 0 for x in r)

    def _generate_roots(self):
        frontier = set(self.simple_roots)
        roots = set(frontier)
        while frontier:
            nxt = set()
            for r in frontier:
                for s in self.simple_roots:
                    c = self.pairing(r, s)
                    img = tuple(x - c * m for x, m in zip(r, s))
                    if img not in roots:
                        nxt.add(img)
            roots |= nxt
            frontier = nxt
        return tuple(sorted(roots))

    # ----- Weyl group --------------------------------------------------

    def weyl_table(self) -> "WeylTable":
        """The integer tables of the Weyl group, built on first use."""
        if self._table is None:
            self._table = WeylTable(self)
        return self._table

    def identity(self) -> "WeylElement":
        return WeylElement(self, self.simple_roots)

    def simple_reflection(self, i: int) -> "WeylElement":
        return self.reflection(self.simple_roots[i])

    def reflection(self, r) -> "WeylElement":
        """The reflection s_r for a finite root r."""
        return WeylElement(
            self, tuple(self.reflect(r, a) for a in self.simple_roots)
        )

    # ----- rendering ---------------------------------------------------

    def root_name(self, r) -> str:
        """Render a root as e.g. 'a', '-b', 'a+b', '3a+2b'."""
        terms = []
        for i, c in enumerate(r):
            if c == 0:
                continue
            letter = _LETTERS[i]
            if c == 1:
                term = letter
            elif c == -1:
                term = "-" + letter
            else:
                term = f"{c}{letter}"
            terms.append(term)
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += t if t.startswith("-") else "+" + t
        return out

    def parse_root_name(self, text: str):
        coords = [0] * self.rank
        text = text.strip()
        if text == "0":
            return tuple(coords)
        import re

        for m in re.finditer(r"([+-]?)(\d*)([a-c])", text):
            sign = -1 if m.group(1) == "-" else 1
            mag = int(m.group(2)) if m.group(2) else 1
            coords[_LETTERS.index(m.group(3))] = sign * mag
        return tuple(coords)

    def __repr__(self):
        return f"CartanDatum({self.type_label})"


class WeylElement:
    """Finite Weyl group element, stored as the images of the simple roots."""

    __slots__ = ("datum", "imgs", "_hash")

    def __init__(self, datum: CartanDatum, imgs):
        self.datum = datum
        self.imgs = tuple(tuple(r) for r in imgs)
        self._hash = hash(self.imgs)

    def apply(self, v):
        """Image of a coefficient vector over the simple roots."""
        n = self.datum.rank
        out = [0] * n
        for c, img in zip(v, self.imgs):
            if c:
                for j in range(n):
                    out[j] += c * img[j]
        return tuple(out)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.datum.type_label != other.datum.type_label:
            raise ValueError(f"cannot multiply types {self.datum.type_label}"
                             f" and {other.datum.type_label}")
        t = self.datum.weyl_table()
        return t.elements[t.mul[t.index[self]][t.index[other]]]

    def inverse(self) -> "WeylElement":
        t = self.datum.weyl_table()
        return t.elements[t.inv[t.index[self]]]

    def length(self) -> int:
        """The number of positive roots u sends negative, read off the
        table's root images."""
        t = self.datum.weyl_table()
        image = t.image[t.index[self]]
        positive = self.datum.is_positive
        return sum(not positive(image[r]) for r in self.datum.positive_roots)

    def __eq__(self, other):
        # the hash leaves the type out, so no set or dict order moves
        return (isinstance(other, WeylElement) and self.imgs == other.imgs
                and self.datum.type_label == other.datum.type_label)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        word = self.word()
        return "W[" + (".".join(str(i + 1) for i in word) if word else "e") + "]"

    def word(self):
        """Canonical (lex-least) reduced word, as 0-based simple indices."""
        t = self.datum.weyl_table()
        return [a - 1 for a in t.reduced_word(t.index[self], (0,) * t.rank)]


class WeylTable:
    """The finite Weyl group as integer tables, after Casselman, *Machine
    calculations in Weyl groups* (Invent. Math. 1994).

    ``elements`` is the group, found by composing simple-root images and
    sorted by them; write u for ``elements[n]``.  ``image[n]`` maps each
    root mu to u(mu), ``mul[n][m]`` is the index of u elements[m], and
    ``inv[n]`` that of u^{-1}; ``smul[mu][n]`` is that of s_mu u for a root
    mu, ``lmul[i]`` is ``smul[a_i]`` for i < rank and ``lmul[rank]`` is
    ``smul[theta]``.  ``coroots[mu]`` is mu^vee over the simple coroots, in
    ints: mu^vee = sum_i mu_i (a_i, a_i)/(mu, mu) a_i^vee.  ``pos[n][i]``
    is 1 if u^{-1}(a_i) is positive, else 0, and ``pos[n][rank]`` the same for
    u^{-1}(-theta).  ``cartan[i][k]`` is <a_k, a_i^vee>, and
    ``cartan[rank][k]`` is <a_k, theta^vee>; ``e`` is the index of the
    identity and ``w0`` that of the longest element.  ``k0[mu]`` is the
    lowest positive level of the chain mu + k delta (0 if mu > 0, else 1),
    and ``srow[gamma][mu]`` is (s_gamma(mu), <mu, gamma^vee>) for roots
    gamma and mu, in the order of ``datum.roots``.  Everything but the
    Cartan integers and the coroots is built from the integer root images.

    Affine translations are stored over the simple coroots too, so both
    act on them in ints: u(v) = sum_i c_i coroots[u(a_i)] for
    v = sum_i c_i a_i^vee, and (a_k, v) = sum_i c_i cartan[i][k].
    """

    def __init__(self, datum: CartanDatum):
        rank = datum.rank
        theta = datum.highest_root
        mirrors = datum.simple_roots + (theta,)
        self.rank = rank
        self.theta = theta
        self.cartan = tuple(
            tuple(datum.pairing(a, b) for a in datum.simple_roots)
            for b in mirrors
        )
        # w s sends a_i to w(s(a_i)): close {e} under the simple reflections
        gens = [datum.reflection(a) for a in datum.simple_roots]
        found = frontier = {datum.identity()}
        while frontier:
            frontier = {
                WeylElement(datum, [w.apply(r) for r in s.imgs])
                for w in frontier for s in gens
            } - found
            found = found | frontier
        elements = self.elements = tuple(sorted(found, key=lambda w: w.imgs))
        index = self.index = {w: n for n, w in enumerate(elements)}
        image = self.image = tuple(
            {r: u.apply(r) for r in datum.roots} for u in elements
        )
        # u elements[m] sends a_i to u(elements[m](a_i))
        by_imgs = {u.imgs: n for n, u in enumerate(elements)}
        self.mul = tuple(
            tuple(
                by_imgs[tuple(img[r] for r in v.imgs)] for v in elements
            )
            for img in image
        )
        self.e = index[datum.identity()]
        self.inv = tuple(row.index(self.e) for row in self.mul)
        targets = datum.simple_roots + (tuple(-x for x in theta),)
        self.pos = tuple(
            tuple(int(datum.is_positive(image[m][a])) for a in targets)
            for m in self.inv
        )
        self.smul = {
            mu: self.mul[index[datum.reflection(mu)]] for mu in datum.roots
        }
        self.lmul = tuple(self.smul[b] for b in mirrors)
        self.w0 = next(n for n, p in enumerate(self.pos) if not any(p[:rank]))
        self.k0 = {mu: 1 - datum.is_positive(mu) for mu in datum.roots}
        self.srow = {}
        for gamma in datum.roots:
            # mu - s_gamma(mu) = p gamma, read on one nonzero coordinate
            j = next(i for i, x in enumerate(gamma) if x)
            self.srow[gamma] = {
                mu: (nu, (mu[j] - nu[j]) // gamma[j])
                for mu, nu in image[self.smul[gamma][self.e]].items()
            }
        self.coroots = {
            mu: tuple(
                m * datum.gram[i][i] // datum.norm_sq(mu)
                for i, m in enumerate(mu)
            )
            for mu in datum.roots
        }

    def reduced_word(self, n, p):
        """Lex-least reduced word of w = u t_v, u = elements[n], given
        p_k = (a_k, u(v)) as ints; 1-based letters, rank + 1 = affine.

        The letter a_i is a left descent iff N(w) holds a_i, i.e.
        p_i - [u^{-1}(a_i) > 0] >= 0; the affine letter iff N(w) holds
        delta - theta, i.e. -(theta, u v) - [u^{-1}(-theta) > 0] >= 1.
        Then s_i w = (s_i u) t_v takes p_k to p_k - <a_k, a_i^vee> p_i, and
        s_0 w = (s_theta u) t_{v + u^{-1} theta^vee} takes it to
        p_k - <a_k, theta^vee> ((theta, u v) + 1).  The walk ends at
        (e, 0); a length-0 element other than e would be a translation off
        the coroot lattice, which `AffineWeylElement` refuses.
        """
        rank, pos, cartan = self.rank, self.pos, self.cartan
        p = list(p)
        out = []
        while n != self.e or any(p):
            sign = pos[n]
            for i in range(rank):
                if p[i] >= sign[i]:
                    c = p[i]
                    break
            else:
                h = sum(t * x for t, x in zip(self.theta, p))
                if -h < 1 + sign[rank]:
                    raise ValueError("translation not in the coroot lattice")
                i, c = rank, h + 1
            p = [x - a * c for x, a in zip(p, cartan[i])]
            n = self.lmul[i][n]
            out.append(i + 1)
        return tuple(out)


class PositiveSystem:
    """A positive system w(Phi+), stored by its chamber element w."""

    def __init__(self, datum: CartanDatum, chamber: WeylElement):
        self.datum = datum
        self.chamber = chamber
        self._roots = None

    def _image(self):
        t = self.datum.weyl_table()
        return t.image[t.index[self.chamber]]

    @property
    def roots(self) -> frozenset:
        if self._roots is None:
            image = self._image()
            self._roots = frozenset(image[r] for r in self.datum.positive_roots)
        return self._roots

    @property
    def simple_system(self):
        return tuple(sorted(self.chamber.imgs))

    def __eq__(self, other):
        return (
            isinstance(other, PositiveSystem) and self.roots == other.roots
        )

    def __hash__(self):
        return hash(frozenset(self.roots))

    def __repr__(self):
        return f"PositiveSystem({self.chamber!r})"


def standard_positive_system(datum: CartanDatum) -> PositiveSystem:
    return PositiveSystem(datum, datum.identity())


def _span_roots(psi: PositiveSystem, simples):
    """The roots in the span of some simple roots of psi = u(Phi+).

    The simple roots of psi are the u(a_i), so these roots are the u(r) for
    the roots r with r_k = 0 whenever u(a_k) is not among `simples`.
    """
    image = psi._image()
    off = [k for k, img in enumerate(psi.chamber.imgs) if img not in simples]
    return frozenset(
        image[r] for r in psi.datum.roots if all(r[k] == 0 for k in off)
    )


@lru_cache(maxsize=None)
def enumerate_P_triples(datum: CartanDatum):
    """All valid (psi, d1, d2) with d1 orthogonal to d2, as a tuple built
    once per datum (at most 408 triples, for A3)."""
    triples = []
    for w in datum.weyl_table().elements:
        psi = PositiveSystem(datum, w)  # w(Phi+) determines w
        simples = psi.simple_system
        n = len(simples)
        for mask1 in range(1 << n):
            d1 = [simples[i] for i in range(n) if mask1 >> i & 1]
            rest = [simples[i] for i in range(n) if not mask1 >> i & 1]
            for mask2 in range(1 << len(rest)):
                d2 = [rest[i] for i in range(len(rest)) if mask2 >> i & 1]
                if all(
                    datum.inner(a, b) == 0 for a in d1 for b in d2
                ):
                    triples.append((psi, frozenset(d1), frozenset(d2)))
    return tuple(triples)


@lru_cache(maxsize=None)
def build_system(type_label: str) -> CartanDatum:
    """Build (and cache) the root-system datum for a shipped type label."""
    return CartanDatum(type_label)
