"""An integer Coxeter backend for bonds in {2, 3, inf}.

Realizes the rank-3 group W = <s1,s2,s3 | s1^2=s2^2=s3^2=(s1s2)^3=(s1s3)^2=e>,
its rank-3 universal reflection subgroup W' = <s1, s2s3s2, s3s2s3s2s3>, and a
bounded-search witness that the twisted interval [e, s1(s2s3s2)(s3s2s3s2s3)]
is infinite for the twisting set A = N(target^inf).

Elements act on V = Z^rank, over the simple-root basis, through the
reflection representation with simple roots of norm 1, whose Gram entries are
0 / -1/2 / -1 for bonds 2 / 3 / inf.  Everything here uses the doubled form
B(u, v) = 2(u, v) instead, with entries 2 on the diagonal and 0 / -1 / -2
off it, so s_gamma(v) = v - B(v, gamma) gamma and every root, matrix entry and
form value is a plain int.  The representation is faithful, so elements are
compared by their matrices.

An element is stored as its columns w(a_j) and w^{-1}(a_j).  Words,
lengths, `from_word` and inversion roots take no group products: they walk
those columns as integer tables (Casselman, Invent. Math. 1994).  s_i is a
left descent of w iff w^{-1}(a_i) < 0 (Bjorner-Brenti, GTM 231, Ch. 4),
and a step by s_i on either side moves each column by a multiple of one
other column, read off the doubled Gram row of a_i.

Convention: N(x) = {positive gamma : x^{-1}(gamma) < 0}, matching the affine
modules, so N(s_{i1}...s_{ik}) = {a_{i1}, s_{i1} a_{i2}, ...} for reduced
words and Ntilde(x) = {reflections t : alpha_t in N(x)}.
"""

from __future__ import annotations

from functools import lru_cache

from .linprog import CertificationFailed, _dot

INF = "inf"


class BudgetExceeded(CertificationFailed):
    """A bounded search gave up before it could decide; the CLI exits 3."""


class CoxeterMatrix:
    """A Coxeter matrix, compared and hashed by value (an lru_cache key)."""

    def __init__(self, rank: int, bonds: tuple):
        # bonds: symmetric tuple-of-tuples, entries in {1 on diag, 2, 3, INF}
        for i in range(rank):
            if bonds[i][i] != 1:
                raise ValueError("diagonal bond entries must be 1")
            for j in range(rank):
                if bonds[i][j] != bonds[j][i]:
                    raise ValueError("bond matrix must be symmetric")
                if i != j and bonds[i][j] not in (2, 3, INF):
                    raise ValueError("off-diagonal bonds must be 2, 3 or inf")
        self.rank = rank
        self.bonds = bonds
        # rows[i][j] = 2(a_i, a_j): 2 on the diagonal (bond 1), else
        # 0 / -1 / -2 for bond 2 / 3 / inf
        form = {1: 2, 2: 0, 3: -1, INF: -2}
        self.rows = tuple(tuple(form[b] for b in row) for row in bonds)

    def __eq__(self, other):
        if not isinstance(other, CoxeterMatrix):
            return NotImplemented
        return (self.rank, self.bonds) == (other.rank, other.bonds)

    def __hash__(self):
        return hash((self.rank, self.bonds))


def coxeter_2_3_inf() -> CoxeterMatrix:
    """The (2,3,inf) triangle group: m(1,2)=3, m(1,3)=2, m(2,3)=inf."""
    return CoxeterMatrix(3, ((1, 3, 2), (3, 1, INF), (2, INF, 1)))


def _simple_vec(cm: CoxeterMatrix, i: int):
    return tuple(int(j == i) for j in range(cm.rank))


def inner(cm: CoxeterMatrix, u, v) -> int:
    """The doubled form 2(u, v)."""
    return sum(x * sum(b * y for b, y in zip(r, v)) for x, r in zip(u, cm.rows))


def reflect_in_root(cm: CoxeterMatrix, gamma, v):
    """s_gamma(v) = v - 2 (v, gamma) gamma  (all roots have norm 1)."""
    c = inner(cm, v, gamma)
    return tuple(a - c * g for a, g in zip(v, gamma))


def is_positive_root(v) -> bool:
    """Roots have all-nonnegative or all-nonpositive coordinates."""
    if all(x >= 0 for x in v) and any(x > 0 for x in v):
        return True
    if all(x <= 0 for x in v) and any(x < 0 for x in v):
        return False
    raise ValueError(f"mixed-sign vector is not a root: {v}")


def _positive(v):
    """The positive one of the roots v and -v."""
    return v if is_positive_root(v) else tuple(-x for x in v)


def _act(cols, v):
    """The vector with coordinates v over the given columns."""
    out = [0] * len(cols)
    for coef, col in zip(v, cols):
        if coef:
            for k in range(len(out)):
                out[k] += coef * col[k]
    return tuple(out)


class CoxElement:
    """Group element as the tuple of images of the simple roots."""

    __slots__ = ("cm", "imgs", "inv_imgs", "_hash", "_word")

    def __init__(self, cm: CoxeterMatrix, imgs, inv_imgs):
        self.cm = cm
        self.imgs = tuple(map(tuple, imgs))
        self.inv_imgs = tuple(map(tuple, inv_imgs))
        self._hash = hash(self.imgs)
        self._word = None

    def apply(self, v):
        return _act(self.imgs, v)

    def inv_apply(self, v):
        return _act(self.inv_imgs, v)

    def __mul__(self, other: "CoxElement") -> "CoxElement":
        imgs = tuple(self.apply(col) for col in other.imgs)
        inv_imgs = tuple(other.inv_apply(col) for col in self.inv_imgs)
        return CoxElement(self.cm, imgs, inv_imgs)

    def inverse(self) -> "CoxElement":
        return CoxElement(self.cm, self.inv_imgs, self.imgs)

    def is_identity(self) -> bool:
        return all(
            col == _simple_vec(self.cm, i) for i, col in enumerate(self.imgs)
        )

    def word(self):
        """Lexicographically least reduced word (1-based letters).

        s_i is a left descent of w iff w^{-1}(a_i) < 0, and the inverse
        columns of s_i w are those of w^{-1} s_i (`_step`): the walk strips
        the least descent until none is left.
        """
        if self._word is None:
            rows = self.cm.rows
            cols = list(self.inv_imgs)
            out = []
            while True:
                for i, ci in enumerate(cols):
                    if not is_positive_root(ci):
                        break
                else:
                    break
                out.append(i + 1)
                cols = _step(rows, cols, i)
            self._word = tuple(out)
        return self._word

    def length(self) -> int:
        return len(self.word())

    def __eq__(self, other):
        return isinstance(other, CoxElement) and self.imgs == other.imgs

    def __hash__(self):
        return self._hash

    def __repr__(self):
        w = self.word()
        return "Cox[" + (".".join(map(str, w)) if w else "e") + "]"


def identity(cm: CoxeterMatrix) -> CoxElement:
    cols = tuple(_simple_vec(cm, i) for i in range(cm.rank))
    return CoxElement(cm, cols, cols)


@lru_cache(maxsize=8)
def simple_reflections(cm: CoxeterMatrix):
    return tuple(_reflection(cm, _simple_vec(cm, i)) for i in range(cm.rank))


def _step(rows, cols, i):
    """The columns moved by s_i on the right: col_j - 2(a_j, a_i) col_i.

    For the columns w(a_j) of w these are the columns of w s_i; for the
    inverse columns w^{-1}(a_j) they are those of s_i w.
    """
    ci = cols[i]
    return [tuple(x - b * y for x, y in zip(c, ci)) for c, b in zip(cols, rows[i])]


def _walk(cm: CoxeterMatrix, letters):
    """The columns of s_{a1} ... s_{ak} for letters a1 ... ak, in ints."""
    cols = [_simple_vec(cm, i) for i in range(cm.rank)]
    for a in letters:
        cols = _step(cm.rows, cols, a - 1)
    return cols


def from_word(cm: CoxeterMatrix, letters) -> CoxElement:
    """Product of 1-based simple-reflection letters, with no group product:
    its columns walk the letters, its inverse columns walk them reversed."""
    letters = tuple(letters)
    for a in letters:
        if not 1 <= a <= cm.rank:
            raise ValueError(f"letter out of range: {a}")
    return CoxElement(cm, _walk(cm, letters), _walk(cm, reversed(letters)))


def reflection_in(cm: CoxeterMatrix, gamma) -> CoxElement:
    """s_gamma for a root gamma; any other vector is refused.  Made positive,
    a root v other than a_i with 2(v, a_i) > 0 goes to the lower positive
    root s_i(v), so v is a root iff this descent ends at a simple root."""
    v = [-x for x in gamma] if all(x <= 0 for x in gamma) else list(gamma)
    while len(v) == cm.rank and min(v) >= 0 and sum(v) > 1:
        c, i = max((_dot(row, v), i) for i, row in enumerate(cm.rows))
        if c <= 0:
            break
        v[i] -= c
    if len(v) != cm.rank or min(v) < 0 or sum(v) != 1:
        raise ValueError(f"not a root: {tuple(gamma)}")
    return _reflection(cm, gamma)


def _reflection(cm: CoxeterMatrix, gamma) -> CoxElement:
    """s_gamma for a gamma that is a root by construction, unchecked."""
    cols = [reflect_in_root(cm, gamma, _simple_vec(cm, i)) for i in range(cm.rank)]
    return CoxElement(cm, cols, cols)


def inversion_roots(w: CoxElement):
    """N(w) as root vectors, via the reduced-word telescoping formula."""
    cm = w.cm
    out = []
    imgs = [_simple_vec(cm, i) for i in range(cm.rank)]
    for a in w.word():
        out.append(imgs[a - 1])
        imgs = _step(cm.rows, imgs, a - 1)
    return out


# Longest w whose Ntilde(w) is listed, and most steps of an A-membership scan.
_N_TILDE_BUDGET = 64
_IN_A_BUDGET = 64


def n_tilde(w: CoxElement):
    """Ntilde(w): the reflections whose roots lie in N(w), for l(w) <= 64."""
    if w.length() > _N_TILDE_BUDGET:
        raise BudgetExceeded(f"l(w) = {w.length()} > budget {_N_TILDE_BUDGET}")
    return frozenset(_reflection(w.cm, _positive(g)) for g in inversion_roots(w))


# ----- the section-4 instance ----------------------------------------------


def r_generators(cm: CoxeterMatrix):
    """r1 = s1, r2 = s2 s3 s2, r3 = s3 s2 s3 s2 s3."""
    return (
        from_word(cm, (1,)),
        from_word(cm, (2, 3, 2)),
        from_word(cm, (3, 2, 3, 2, 3)),
    )


def target_element(cm: CoxeterMatrix) -> CoxElement:
    """s1 (s2 s3 s2) (s3 s2 s3 s2 s3) = r1 r2 r3."""
    return from_word(cm, (1, 2, 3, 2, 3, 2, 3, 2, 3))


def _reflection_root(t: CoxElement):
    """The positive root of a reflection: the middle of its palindromic word."""
    inv = inversion_roots(t)
    return _positive(inv[len(inv) // 2])


def _positive_orbit(gens, seed, depth: int):
    """The positive roots reached from `seed` by <= depth of the reflections
    `gens`, taking the positive root of each image."""
    seen = set(seed)
    frontier = set(seen)
    for _ in range(depth):
        nxt = set()
        for v in frontier:
            for g in gens:
                u = _positive(g.apply(v))
                if u not in seen:
                    seen.add(u)
                    nxt.add(u)
        frontier = nxt
    return seen


class ReflectionSubgroup:
    def __init__(self, cm: CoxeterMatrix, generators: tuple):
        self.cm = cm
        self.generators = generators  # CoxElement reflections

    def generator_roots(self):
        return tuple(_reflection_root(g) for g in self.generators)

    def positive_roots_to_depth(self, depth: int):
        """Phi_{W'}^+ truncated: orbit of the generator roots under words of
        length <= depth in the generators."""
        return _positive_orbit(self.generators, self.generator_roots(), depth)


def w_prime(cm: CoxeterMatrix) -> ReflectionSubgroup:
    return ReflectionSubgroup(cm, r_generators(cm))


def canonical_check(sub: ReflectionSubgroup, t: CoxElement) -> bool:
    """True iff Ntilde(t) intersect T_{W'} = {t}: t is a canonical generator.

    Positive roots whose pairs all have 2(a, b) in {0, -1} or <= -2 are the
    canonical simple roots of the reflection subgroup they generate (the
    dihedral criterion of Dyer, J. Algebra 135 (1990), and Deodhar, Arch.
    Math. 53 (1989)); for the integer values here that is 2(a, b) <= 0.
    Then the canonical generators are exactly the generators.  A subgroup
    whose generators fail the criterion raises ValueError.
    """
    roots = sub.generator_roots()
    for i, a in enumerate(roots):
        if any(inner(sub.cm, a, b) > 0 for b in roots[i + 1:]):
            raise ValueError("generator roots fail the dihedral criterion")
    return t in sub.generators


def universal_check(sub: ReflectionSubgroup, budget: int = 12) -> bool:
    """No relation among the generators up to the budget, and pairwise
    2(a, b) = -2 (so every pairwise product has infinite order)."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    roots = sub.generator_roots()
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if inner(sub.cm, roots[i], roots[j]) != -2:
                return False
            p = sub.generators[i] * sub.generators[j]
            q = p
            for _ in range(budget):
                if q.is_identity():
                    return False
                q = q * p
    return True


# ----- the periodic twisting set A = N(target^inf) --------------------------


# straightness is tested on the powers w^2 .. w^_STRAIGHT_POWERS
_STRAIGHT_POWERS = 4


def is_straight_word(w: CoxElement) -> bool:
    l1 = w.length()
    p = w
    for n in range(2, _STRAIGHT_POWERS + 1):
        p = p * w
        if p.length() != n * l1:
            return False
    return l1 > 0


def _height(v) -> int:
    return sum(abs(x) for x in v)


def in_A(w: CoxElement, gamma) -> bool:
    """gamma in N(w^inf) iff w^{-m}(gamma) < 0 for some m; bounded scan.

    The scan stops early once the iterates' heights have grown strictly for
    several consecutive steps while staying positive (they then stay
    positive: the straight element moves every surviving root away from the
    walls), and otherwise gives up after _IN_A_BUDGET steps.
    """
    v = gamma
    growth_streak = 0
    prev_h = _height(v)
    for _ in range(_IN_A_BUDGET):
        v = w.inv_apply(v)
        if not is_positive_root(v):
            return True
        h = _height(v)
        growth_streak = growth_streak + 1 if h > prev_h else 0
        prev_h = h
        if growth_streak >= 3 * w.length():
            return False
    raise BudgetExceeded("A-membership scan did not stabilize")


def twisted_length_A(z: CoxElement, w: CoxElement, in_A_memo=None) -> int:
    """l_A(z) = l(z) - 2 |N(z) ∩ A| for A = N(w^inf).

    `in_A_memo`, a dict root -> in_A(w, root), is read and filled when given;
    it must only ever be used with this one w.
    """
    memo = {} if in_A_memo is None else in_A_memo
    hits = 0
    for g in inversion_roots(z):
        if g not in memo:
            memo[g] = in_A(w, g)
        hits += memo[g]
    return z.length() - 2 * hits


def n_tilde_A_in_subgroup(w: CoxElement, sub: ReflectionSubgroup, depth: int):
    """Ntilde(w^inf) ∩ T_{W'}: subgroup reflections whose root lies in A."""
    out = []
    for root in sorted(sub.positive_roots_to_depth(depth)):
        if in_A(w, root):
            out.append(_reflection(sub.cm, root))
    return out


# ----- the infinite-interval growth table -----------------------------------


def _root_pool(cm: CoxeterMatrix, depth: int):
    """All positive roots obtainable from the simples in <= depth reflections."""
    simples = [_simple_vec(cm, i) for i in range(cm.rank)]
    return sorted(_positive_orbit(simple_reflections(cm), simples, depth))


def interval_growth(cm: CoxeterMatrix, budgets=(6, 8, 9, 10)):
    """Counts of z with z in the twisted interval bounded by e and the target,
    witnessed by explicit l_A-monotone reflection chains of bounded depth.

    Returns a list of {"budget": L, "count": n, "new_elements": [words]}
    records; counts are cumulative and nondecreasing by construction.
    l(z), l_A(z) and in_A are memoized for the duration of one call, so
    memory stays bounded by the largest budget.
    """
    w = target_element(cm)
    if not is_straight_word(w):
        raise CertificationFailed("target is not straight")
    lengths, twisted, in_A_memo = {}, {}, {}

    def length(z):
        if z not in lengths:
            lengths[z] = z.length()
        return lengths[z]

    def lA(z):
        if z not in twisted:
            twisted[z] = twisted_length_A(z, w, in_A_memo)
        return twisted[z]

    e = identity(cm)
    l_e, l_t = lA(e), lA(w)
    lo, hi = (e, w) if l_e <= l_t else (w, e)
    lo_l, hi_l = min(l_e, l_t), max(l_e, l_t)

    found = []
    up_seen = {lo}
    down_seen = {hi}
    records = []
    for L in budgets:
        pool = [_reflection(cm, g) for g in _root_pool(cm, L)]
        up_seen |= _saturate(up_seen, pool, length, lA, +1, hi_l, L)
        down_seen |= _saturate(down_seen, pool, length, lA, -1, lo_l, L)
        members = up_seen & down_seen
        new = sorted(
            (z for z in members if z not in found),
            key=lambda z: (z.length(), z.word()),
        )
        found.extend(new)
        records.append(
            {
                "budget": L,
                "count": len(found),
                "new_elements": [
                    ".".join(map(str, z.word())) or "e" for z in new
                ],
            }
        )
    return records


def _saturate(seed, pool, length, lA, direction, stop_level, max_len):
    """Grow `seed` by steps z -> t z with l(t z) <= max_len and l_A moving by
    `direction`, until l_A reaches `stop_level`.  The cheap length test comes
    before l_A."""
    seen = set(seed)
    frontier = list(seed)
    while frontier:
        nxt = []
        for z in frontier:
            lz = lA(z)
            if (direction > 0 and lz >= stop_level) or (
                direction < 0 and lz <= stop_level
            ):
                continue
            for t in pool:
                z2 = t * z
                if z2 in seen or length(z2) > max_len:
                    continue
                if lA(z2) == lz + direction:
                    seen.add(z2)
                    nxt.append(z2)
        frontier = nxt
    return seen
