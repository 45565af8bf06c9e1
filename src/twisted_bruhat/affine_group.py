"""The affine Weyl group W~ = W x| Q^vee in translation normal form.

An element is stored as a pair ``(finite_part, translation)`` meaning
``w = finite_part . t_v`` where ``t_v(x) = x + (x, v) delta``.  The
translation v lies in the coroot lattice Q^vee, and is stored as its
integer coordinates c over the simple coroots, v = sum c_i a_i^vee (in A2
and A3 these are also its coordinates over the simple roots).

Convention (fixed globally, following the source convention for twisted
orders): ``inversion_set(w)`` is the set of positive affine roots sent
negative by ``w^{-1}`` -- i.e. the inversion set of the *inverse*.  With
this convention N(uv) decomposes by the product formula and
N(s_1...s_k) = {a_{s_1}, s_1(a_{s_2}), ...} for reduced words.

All arithmetic is in ints, over the finite group's `WeylTable`.  A finite
u maps coroots to coroots, u(a_i^vee) = (u a_i)^vee, so u(v) is a sum of
rows ``coroots[u(a_i)]``: products and inverses are a table lookup for the
finite part and such a sum for the translation.  Words and covers take no
products: left multiplication by an affine reflection,

    s_{gamma + k delta} (u t_v) = (s_gamma u) t_{v - k u^{-1} gamma^vee},

is one table lookup for s_gamma u and an integer step for the translation.
`from_word` walks its letters right to left this way, the mirror image of
the descent walk behind `word()`, and `left_reflections` builds the covers
on one reflection ray.  Everything else reads the integers
p_k = (a_k, u(v)) and the same table: the chain tops t_mu behind the
inversion chains, the action on affine roots, and reduced words (an
integer descent walk).
"""

from __future__ import annotations

from functools import lru_cache

from .finite import CartanDatum, WeylElement, build_system


# ----- affine roots ----------------------------------------------------------
#
# An affine root is a pair ``(base, level)``: a finite root plus an integer
# multiple of delta.  delta pairs to zero with everything, so inner products
# only ever see the base.


def is_positive_affine(datum: CartanDatum, r) -> bool:
    """level >= k0: (base positive, level >= 0) or (base negative, >= 1).
    A base outside the finite roots raises ValueError."""
    base, level = r
    try:
        return level >= datum.weyl_table().k0[tuple(base)]
    except KeyError:
        raise ValueError(f"not a root: {tuple(base)}") from None


def negate(r):
    base, level = r
    return (tuple(-x for x in base), -level)


def _image(u: WeylElement, c):
    """u(v) over the simple coroots for v = sum c_i a_i^vee: the sum of the
    rows coroots[u(a_i)], as u(a_i^vee) = (u a_i)^vee."""
    coroots = u.datum.weyl_table().coroots
    rows = [coroots[a] for a in u.imgs]
    return [sum(x * y for x, y in zip(c, col)) for col in zip(*rows)]


class AffineWeylElement:
    """Element u t_v of the affine Weyl group: ``fin`` is u, and ``trans``
    is the tuple of ints c with v = sum c_i a_i^vee over the simple
    coroots.  A coordinate that is not an integer (a coweight off the
    coroot lattice, outside W~), or a count of coordinates other than the
    rank, raises ValueError."""

    __slots__ = ("datum", "fin", "trans", "_hash", "_inv", "_chains", "_word")

    def __init__(self, datum: CartanDatum, fin: WeylElement, trans):
        trans = tuple(trans)
        c = tuple(map(int, trans))
        if c != trans:
            raise ValueError("translation not in the coroot lattice")
        if len(c) != datum.rank:
            raise ValueError(f"translation needs {datum.rank} coordinates")
        self.datum = datum
        self.fin = fin
        self.trans = c
        self._hash = hash((fin.imgs, c))
        self._inv = None
        self._chains = None
        self._word = None

    # ----- group structure --------------------------------------------

    def __mul__(self, other: "AffineWeylElement") -> "AffineWeylElement":
        # (u1 t_v1)(u2 t_v2) = u1 u2 t_{u2^{-1}(v1) + v2}; u1 u2 checks types
        fin = self.fin * other.fin
        v = _image(other.fin.inverse(), self.trans)
        return AffineWeylElement(
            self.datum, fin, [x + y for x, y in zip(v, other.trans)]
        )

    def inverse(self) -> "AffineWeylElement":
        # (u t_v)^{-1} = u^{-1} t_{-u(v)}
        if self._inv is None:
            v = _image(self.fin, self.trans)
            self._inv = AffineWeylElement(
                self.datum, self.fin.inverse(), [-x for x in v]
            )
            self._inv._inv = self
        return self._inv

    def is_identity(self) -> bool:
        return self.fin.is_identity() and all(x == 0 for x in self.trans)

    # ----- integer root data -------------------------------------------

    def _pairings(self):
        """p_k = (a_k, u(v)) = (u^{-1} a_k, v) for self = u t_v, from the
        pairings q_j = (a_j, v) = sum_i c_i <a_j, a_i^vee>."""
        datum = self.datum
        table = datum.weyl_table()
        q = [
            sum(c * x for c, x in zip(self.trans, col))
            for col in zip(*table.cartan)
        ]
        pre = table.image[table.inv[table.index[self.fin]]]
        return tuple(
            sum(m * x for m, x in zip(pre[a], q)) for a in datum.simple_roots
        )

    def chain_tops(self):
        """{mu: t_mu} over the finite roots, t_mu = (mu, u(v)) - [u^{-1}(mu) > 0].

        N(self) over mu is the chain from the lowest positive level (0 if
        mu > 0, else 1) up to t_mu, empty when t_mu is below it.
        """
        p = self._pairings()
        table = self.datum.weyl_table()
        pre = table.image[table.inv[table.index[self.fin]]]
        k0 = table.k0  # [nu > 0] = 1 - k0[nu]
        return {
            mu: sum(m * x for m, x in zip(mu, p)) - 1 + k0[nu]
            for mu, nu in pre.items()
        }

    # ----- action on affine roots -------------------------------------

    def apply(self, r):
        """(beta, l) -> (u beta, l + (u beta, u v))."""
        base, level = r
        table = self.datum.weyl_table()
        ub = table.image[table.index[self.fin]][tuple(base)]
        return (ub, level + sum(b * x for b, x in zip(ub, self._pairings())))

    def inv_apply(self, r):
        return self.inverse().apply(r)

    # ----- inversion data ---------------------------------------------

    def inversion_chains(self):
        """Per finite base root, the chain [lo, hi] of N(self); dict base->(lo,hi).

        The non-empty chains of `chain_tops`: N(w) = positive affine roots r
        with w^{-1}(r) negative.
        """
        if self._chains is None:
            k0 = self.datum.weyl_table().k0
            chains = {}
            for mu, hi in self.chain_tops().items():
                lo = k0[mu]
                if hi >= lo:
                    chains[mu] = (lo, hi)
            self._chains = chains
        return self._chains

    def length(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.inversion_chains().values())

    def max_inversion_level(self) -> int:
        chains = self.inversion_chains()
        return max((hi for _, hi in chains.values()), default=0)

    def in_inversion_set(self, r) -> bool:
        base, level = r
        ch = self.inversion_chains().get(tuple(base))
        return ch is not None and ch[0] <= level <= ch[1]

    # ----- words -------------------------------------------------------

    def word(self):
        """Canonical reduced word: lexicographically least, 1-based letters.

        Letters 1..rank are the finite simple reflections, rank+1 the
        affine one (s_{delta - theta}).  Read off the integer descent walk
        `WeylTable.reduced_word` from p_k = (a_k, u(v)) for self = u t_v.
        """
        if self._word is None:
            table = self.datum.weyl_table()
            self._word = table.reduced_word(
                table.index[self.fin], self._pairings()
            )
        return self._word

    def __eq__(self, other):
        # the hash leaves the type out: A2's and B2's identities share it
        return (
            isinstance(other, AffineWeylElement)
            and self.fin.imgs == other.fin.imgs
            and self.trans == other.trans
            and self.datum.type_label == other.datum.type_label
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        w = self.word()
        return "Aff[" + (".".join(map(str, w)) if w else "e") + "]"


# ----- constructors --------------------------------------------------------


def identity(datum: CartanDatum) -> AffineWeylElement:
    return AffineWeylElement(datum, datum.identity(), (0,) * datum.rank)


def affine_simple_roots(datum: CartanDatum):
    """(a_i, 0) for the finite simple roots, then delta - theta = (-theta, 1):
    the roots of the simple reflections, in letter order."""
    minus_theta = tuple(-x for x in datum.highest_root)
    return tuple((a, 0) for a in datum.simple_roots) + ((minus_theta, 1),)


@lru_cache(maxsize=None)
def _simple_reflections_cached(type_label):
    datum = build_system(type_label)
    return tuple(reflection(datum, r) for r in affine_simple_roots(datum))


def simple_reflections(datum: CartanDatum):
    """The rank+1 simple reflections of the affine group (affine one last)."""
    return _simple_reflections_cached(datum.type_label)


def reflection(datum: CartanDatum, r) -> AffineWeylElement:
    """s_{mu + n delta} = s_mu t_{-n mu^vee} for an affine root r = (mu, n)."""
    mu, n = r
    mu = tuple(mu)
    table = datum.weyl_table()
    if mu not in table.coroots:
        raise ValueError(f"not a root: {mu}")
    return AffineWeylElement(
        datum,
        table.elements[table.smul[mu][table.e]],
        [-n * x for x in table.coroots[mu]],
    )


def translation(datum: CartanDatum, vec) -> AffineWeylElement:
    """t_v for a coroot-lattice vector given over the simple-root basis.

    v = sum v_i a_i is in the coroot lattice iff it has rank coordinates and
    each coordinate v_i (a_i, a_i)/2 over the simple coroots is an integer;
    else ValueError.
    """
    gram = datum.gram
    if len(vec) != datum.rank or any(
        x * gram[i][i] % 2 for i, x in enumerate(vec)
    ):
        raise ValueError("translation not in the coroot lattice")
    return AffineWeylElement(
        datum, datum.identity(), [x * gram[i][i] // 2 for i, x in enumerate(vec)]
    )


# ----- the integer walk: left multiplication by affine reflections ----------


def _left_ray(table, n, gamma):
    """The ray k -> s_{gamma + k delta} (u t_v) for u = elements[n]: the
    index of s_gamma u, and the step u^{-1} gamma^vee over the simple
    coroots."""
    return table.smul[gamma][n], table.coroots[table.image[table.inv[n]][gamma]]


def left_reflections(w: AffineWeylElement, gamma, levels):
    """[s_{gamma + k delta} w for k in levels], for a finite root gamma.

    The ray's finite part s_gamma u and its step u^{-1} gamma^vee are read
    once; each element is then an integer step away from w, built once.
    """
    table = w.datum.weyl_table()
    n, step = _left_ray(table, table.index[w.fin], gamma)
    u = table.elements[n]
    return [
        AffineWeylElement(w.datum, u, [x - k * y for x, y in zip(w.trans, step)])
        for k in levels
    ]


def from_word(datum: CartanDatum, letters) -> AffineWeylElement:
    """Product of 1-based simple-reflection letters (rank+1 = affine).

    Read right to left as left multiplications by the simple reflections
    s_r, r = (a_i, 0) or delta - theta = (-theta, 1): a finite letter moves
    only the finite part, the affine one also adds u^{-1} theta^vee to the
    translation.  The element is built once, at the end.
    """
    letters = tuple(letters)
    for a in letters:
        if not 1 <= a <= datum.rank + 1:
            raise ValueError(f"letter out of range: {a}")
    table = datum.weyl_table()
    roots = affine_simple_roots(datum)
    n, c = table.e, [0] * datum.rank
    for a in reversed(letters):
        gamma, k = roots[a - 1]
        n, step = _left_ray(table, n, gamma)
        if k:
            c = [x - k * y for x, y in zip(c, step)]
    return AffineWeylElement(datum, table.elements[n], c)


def affine_tops(build, k_sign):
    """The chain tops of N(build(p, q, k)) as exact affine forms
    (c_p, c_q, c_k, c_0) in the parameters (p, q, k), such as (m1, m2, k)
    or (j, 0, k), or None if the finite part moves.

    The element is U t_{V + K Lambda} with U fixed, so each top
    (mu, U(V + K Lambda)) - [U^{-1} mu > 0] is affine in K: four
    evaluations inside the domain of k (`a2.Family.k_sign`) give it exactly.
    """
    k0, step = (-1, -1) if k_sign < 0 else (0, 1)
    points = ((0, 0, k0), (1, 0, k0), (0, 1, k0), (0, 0, k0 + step))
    elems = [build(*point) for point in points]
    if len({e.fin.imgs for e in elems}) != 1:
        return None
    t0, t1, t2, tk = (e.chain_tops() for e in elems)
    forms = {}
    for mu, top in t0.items():
        ck = (tk[mu] - top) * step
        forms[mu] = (t1[mu] - top, t2[mu] - top, ck, top - ck * k0)
    return forms


def parse_word(datum: CartanDatum, text: str):
    text = text.strip()
    if text in ("", "e"):
        return ()
    try:
        letters = tuple(int(p) for p in text.split("."))
    except ValueError as exc:
        raise ValueError(f"bad word syntax: {text!r}") from exc
    for a in letters:
        if not 1 <= a <= datum.rank + 1:
            raise ValueError(
                f"letter {a} out of range 1..{datum.rank + 1} in {text!r}"
            )
    return letters


def format_word(letters) -> str:
    return ".".join(map(str, letters)) if letters else "e"


# ----- inversion sets as materialized sets ---------------------------------


def inversion_set(w: AffineWeylElement) -> frozenset:
    """N(w): positive affine roots made negative by w^{-1} (note convention)."""
    out = set()
    for base, (lo, hi) in w.inversion_chains().items():
        out.update((base, k) for k in range(lo, hi + 1))
    return frozenset(out)
