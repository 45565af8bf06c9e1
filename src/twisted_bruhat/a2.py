"""The rank-2 alcove order worked in full: closed-form cover deltas for the
six translation-coset classes, explicit inversion-set formulas, sphericity
of short intervals, the infinite-dihedral coset decomposition read off the
translation with its twisted-length table (both proved in `verify`), the
Poincare series, and the Hasse-figure fragment.

Throughout, B is hard-fixed to {a, b, a+b}^hat (all three positive chains
in full); other twisting sets go through the generic engine.

Translation indexing: ``translation(m1, m2)`` is t_{m1 a^vee + m2 b^vee}
(coroot-lattice coordinates).  The inversion-set table `CLOSED_FORMS` is
written in these coordinates: one integer affine top t(m1, m2, k) per
delta-line, read over mu > 0; over -mu the top is -1 - t, as for every
element (`root_tops`).  `closed_form_set`, `closed_form_element` and
`translation_inversion` take the paper's parameters: in its normalization
(a,a) = 1 the same element is t_{k1 a + k2 b} with k1 = 2 m1, k2 = 2 m2,
and odd k1, k2 raise ValueError.

Poincare grading note: the closed-form series matches the twisted-length
grading l_B(w) - l_B(u) of the downset counts (the ordinary-length grading
does not; see tests).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from .affine_group import (
    AffineWeylElement,
    from_word,
    identity,
    reflection,
    translation as _translation,
)
from .biclosed import full_positive_biclosed
from .finite import build_system
from .orders import (
    CertificationFailed,
    _cover_edge,
    length_ball,
    lower_covers,
    twisted_length_left,
)
from .poset import GradedPoset, PosetNode

ALPHA = (1, 0)
BETA = (0, 1)
AB = (1, 1)

class UnsupportedLength(Exception):
    pass


def datum():
    return build_system("A2")


def alcove_biclosed():
    """B = {a, b, a+b}^hat, the twisting set of the alcove order."""
    return full_positive_biclosed(datum())


def translation(m1: int, m2: int) -> AffineWeylElement:
    """t_{m1 a^vee + m2 b^vee}."""
    return _translation(datum(), (m1, m2))


def root_translation(k1: int, k2: int) -> AffineWeylElement:
    """The element t_{k1 a + k2 b} in the (a,a)=1 normalization (k's even)."""
    return translation(*_halves(k1, k2))


# ----- six classes and their cover deltas ----------------------------------

_CLASS_DELTAS = {
    # tag -> {gamma: (slope, const)} for l_B(s_{gamma+k d} w) - l_B(w)
    "T": {ALPHA: (-2, -1), BETA: (-2, -1), AB: (-4, -3)},
    "sasbT": {ALPHA: (4, 1), BETA: (-2, -1), AB: (2, 1)},
    "sbsaT": {ALPHA: (-2, -1), BETA: (4, 1), AB: (2, 1)},
    "sbsasbT": {ALPHA: (2, 1), BETA: (2, 1), AB: (4, 3)},
    "sbT": {ALPHA: (-4, -1), BETA: (2, 1), AB: (-2, -1)},
    "saT": {ALPHA: (2, 1), BETA: (-4, -1), AB: (-2, -1)},
}


@lru_cache(maxsize=None)
def _class_table():
    """tag -> the class's finite part u, as u t_0 (cached: read-only)."""
    d = datum()
    return {
        tag: from_word(d, word)
        for tag, word in (
            ("T", ()), ("sasbT", (1, 2)), ("sbsaT", (2, 1)),
            ("sbsasbT", (1, 2, 1)), ("sbT", (2,)), ("saT", (1,)),
        )
    }


def class_of(w: AffineWeylElement) -> str:
    """Which of the six translation cosets w lies in (by its finite part)."""
    return {u.fin: tag for tag, u in _class_table().items()}[w.fin]


def predicted_delta(w: AffineWeylElement, gamma, k: int) -> int:
    """Closed-form l_B(s_{gamma+k delta} w) - l_B(w) for the alcove order."""
    slope, const = _CLASS_DELTAS[class_of(w)][tuple(gamma)]
    return slope * k + const


# ----- explicit inversion-set closed forms ---------------------------------


class Family(NamedTuple):
    """One inversion-set family: an element spec and the tops of N(.).

    The element is t_v x_1 ... x_j s_{gamma + k delta}, with t_v =
    translation(m1, m2) when `translation` is set, `word` the finite
    letters (1 = s_a, 2 = s_b), and the reflection present when `gamma` is.
    `k_sign` is the domain of k: 1 for k >= 0, -1 for k < 0, 0 for every k.
    `tops` holds one affine top per positive root mu, t = c_m1 m1 + c_m2 m2
    + c_k k + c_0 written (c_m1, c_m2, c_k, c_0): N(element) holds the
    levels 0..t over mu and 1..-1-t over -mu (`root_tops`).
    """

    translation: bool
    word: tuple
    gamma: tuple | None
    k_sign: int
    tops: dict


#: name -> Family, the twenty closed forms of the paper.  Roots are in
#: simple-root coordinates; the top over mu > 0 fixes N(.) on the line of mu.
CLOSED_FORMS = {
    's(a+kd), k>=0': Family(False, (), ALPHA, 1, {
        ALPHA: (0, 0, 2, 0), BETA: (0, 0, -1, -1), AB: (0, 0, 1, -1)}),
    's(a+kd), k<0': Family(False, (), ALPHA, -1, {
        ALPHA: (0, 0, 2, 0), BETA: (0, 0, -1, -1), AB: (0, 0, 1, -1)}),
    's(a+b+kd), k>=0': Family(False, (), AB, 1, {
        ALPHA: (0, 0, 1, 0), BETA: (0, 0, 1, 0), AB: (0, 0, 2, 0)}),
    's(a+b+kd), k<0': Family(False, (), AB, -1, {
        ALPHA: (0, 0, 1, 0), BETA: (0, 0, 1, 0), AB: (0, 0, 2, 0)}),
    's(b+kd), k>=0': Family(False, (), BETA, 1, {
        ALPHA: (0, 0, -1, -1), BETA: (0, 0, 2, 0), AB: (0, 0, 1, -1)}),
    's(b+kd), k<0': Family(False, (), BETA, -1, {
        ALPHA: (0, 0, -1, -1), BETA: (0, 0, 2, 0), AB: (0, 0, 1, -1)}),
    't': Family(True, (), None, 0, {
        ALPHA: (2, -1, 0, -1), BETA: (-1, 2, 0, -1), AB: (1, 1, 0, -1)}),
    't.s(a+kd)': Family(True, (), ALPHA, 0, {
        ALPHA: (2, -1, 2, 0), BETA: (-1, 2, -1, -1), AB: (1, 1, 1, -1)}),
    't.s(a+b+kd)': Family(True, (), AB, 0, {
        ALPHA: (2, -1, 1, 0), BETA: (-1, 2, 1, 0), AB: (1, 1, 2, 0)}),
    't.sa': Family(True, (1,), None, 0, {
        ALPHA: (2, -1, 0, 0), BETA: (-1, 2, 0, -1), AB: (1, 1, 0, -1)}),
    't.sa.s(a+kd)': Family(True, (1,), ALPHA, 0, {
        ALPHA: (2, -1, -2, -1), BETA: (-1, 2, 1, -1), AB: (1, 1, -1, -1)}),
    't.sa.s(b+kd)': Family(True, (1,), BETA, 0, {
        ALPHA: (2, -1, 1, 0), BETA: (-1, 2, 1, -1), AB: (1, 1, 2, 0)}),
    't.sa.s(a+b+kd)': Family(True, (1,), AB, 0, {
        ALPHA: (2, -1, -1, -1), BETA: (-1, 2, 2, 0), AB: (1, 1, 1, 0)}),
    't.sa.sb': Family(True, (1, 2), None, 0, {
        ALPHA: (2, -1, 0, 0), BETA: (-1, 2, 0, -1), AB: (1, 1, 0, 0)}),
    't.sa.sb.s(a+kd)': Family(True, (1, 2), ALPHA, 0, {
        ALPHA: (2, -1, -1, 0), BETA: (-1, 2, 2, 0), AB: (1, 1, 1, 0)}),
    't.sa.sb.s(b+kd)': Family(True, (1, 2), BETA, 0, {
        ALPHA: (2, -1, -1, 0), BETA: (-1, 2, -1, -1), AB: (1, 1, -2, -1)}),
    't.sa.sb.s(a+b+kd)': Family(True, (1, 2), AB, 0, {
        ALPHA: (2, -1, -2, -1), BETA: (-1, 2, 1, 0), AB: (1, 1, -1, -1)}),
    't.sa.sb.sa': Family(True, (1, 2, 1), None, 0, {
        ALPHA: (2, -1, 0, 0), BETA: (-1, 2, 0, 0), AB: (1, 1, 0, 0)}),
    't.sa.sb.sa.s(a+kd)': Family(True, (1, 2, 1), ALPHA, 0, {
        ALPHA: (2, -1, 1, 0), BETA: (-1, 2, -2, -1), AB: (1, 1, -1, 0)}),
    't.sa.sb.sa.s(a+b+kd)': Family(True, (1, 2, 1), AB, 0, {
        ALPHA: (2, -1, -1, -1), BETA: (-1, 2, -1, -1), AB: (1, 1, -2, -1)}),
}


def root_tops(family: Family):
    """{root: top} over every root: t over mu > 0 and -1 - t over -mu, as
    in every element's `chain_tops`; each chain starts at k0(root)."""
    tops = dict(family.tops)
    for mu, (c1, c2, ck, c0) in family.tops.items():
        tops[tuple(-x for x in mu)] = (-c1, -c2, -ck, -1 - c0)
    return tops


def _chain_set(chains):
    """The affine roots (base, l) with lo <= l <= hi, over (base, lo, hi)."""
    return frozenset(
        (base, l) for base, lo, hi in chains for l in range(lo, hi + 1)
    )


def _halves(k1: int, k2: int):
    if k1 % 2 or k2 % 2:
        raise ValueError("t_{k1 a + k2 b} is a group element only for even k1, k2")
    return k1 // 2, k2 // 2


def _point(family: Family, k1: int, k2: int, k: int):
    """(m1, m2, k, 1) for the doubled k1 = 2 m1, k2 = 2 m2, with k checked
    against the family's domain."""
    if family.k_sign and (k >= 0) != (family.k_sign > 0):
        raise ValueError(f"k = {k} is outside the family's domain")
    return (*_halves(k1, k2), k, 1)


def closed_form_set(name, k1=0, k2=0, k=0):
    """N(closed_form_element(name, k1, k2, k)) read off the table."""
    family = CLOSED_FORMS[name]
    point = _point(family, k1, k2, k)
    k0 = datum().weyl_table().k0
    return _chain_set(
        (base, k0[base], sum(c * x for c, x in zip(top, point)))
        for base, top in root_tops(family).items()
    )


def closed_form_element(name, k1=0, k2=0, k=0):
    family = CLOSED_FORMS[name]
    m1, m2, k, _ = _point(family, k1, k2, k)
    d = datum()
    w = translation(m1, m2) if family.translation else identity(d)
    w = w * from_word(d, family.word)
    if family.gamma is not None:
        w = w * reflection(d, (family.gamma, k))
    return w


def translation_inversion(k1: int, k2: int):
    """The six-chain closed form for N(t_{k1 a + k2 b}) (root coordinates)."""
    return closed_form_set("t", k1, k2)


# ----- sphericity ----------------------------------------------------------


def sphericity(poset: GradedPoset) -> str:
    """'Spherical' iff every length-2 subinterval has exactly 4 elements.

    Hasse edges raise the grade by 1, so the length-2 subintervals [a, b] are
    the two-edge paths a -> z -> b, and their middles are those z.
    """
    grades = poset.grading()
    if not grades:
        raise UnsupportedLength("empty interval")
    length = max(grades.values()) - min(grades.values())
    if length not in (2, 3):
        raise UnsupportedLength(f"interval length {length}, want 2 or 3")
    up = {key: set() for key in grades}
    for e in poset.edges:
        up[e.lower].add(e.upper)
    for a in up:
        middles = Counter(b for z in up[a] for b in up[z])  # b -> #{z}
        if any(n != 2 for n in middles.values()):
            return "NonSpherical"
    return "Spherical"


# ----- infinite-dihedral coset decomposition -------------------------------

#: u v = t_mu and coset_prefix(6 s) = t_{lambda_s}, in `translation`'s
#: coordinates; u fixes lambda_s, as -a + b is orthogonal to a + b.
MU = (1, 1)
LAMBDA = {1: (-1, 1), -1: (1, -1)}

#: form of z -> (slope, (const for even i, const for odd i)):
#: l_B(w(i)^{-1} z) = slope * k + const.
_FORM_LENGTHS = {
    "u(vu)^k": (-4, (-3, -2)),
    "(vu)^k": (-4, (0, -1)),
    "v(uv)^k": (4, (1, 2)),
    "(uv)^k": (4, (0, -1)),
}


def u_element() -> AffineWeylElement:
    """u = s_a s_b s_a = s_{a+b}."""
    return from_word(datum(), (1, 2, 1))


def v_element() -> AffineWeylElement:
    """v = s_{delta-a-b}."""
    return from_word(datum(), (3,))


def coset_prefix(i: int) -> AffineWeylElement:
    """w(i): the length-|i| prefix of (s_b s_3 s_a)^inf (i>=0) or
    (s_a s_3 s_b)^inf (i<0)."""
    cycle = (2, 3, 1) if i >= 0 else (1, 3, 2)
    return from_word(datum(), tuple(cycle[j % 3] for j in range(abs(i))))


class DihedralDecomposition(NamedTuple):
    i: int
    form: str  # one of 'u(vu)^k', '(vu)^k', 'v(uv)^k', '(uv)^k'
    k: int

    @property
    def u_v_word(self) -> tuple:
        """z as its alternating letters in {'u', 'v'}: head + period^k."""
        head, period = self.form[:-3].split("(")
        return tuple(head + period * self.k)

    def predicted_twisted_length(self) -> int:
        slope, const = _FORM_LENGTHS[self.form]
        return slope * self.k + const[self.i % 2]


@lru_cache(maxsize=None)
def _coset_candidates():
    """The 24 (s, r, j0, y, b): b = w(s r)^{-1} y for y in {e, u}, and j0
    the least j, 1 for (s, r) = (-1, 0) as w(0) is counted at s = +1."""
    ys = {"": identity(datum()), "u": u_element()}
    return tuple(
        (s, r, int((s, r) == (-1, 0)), y, coset_prefix(s * r).inverse() * ys[y])
        for s in (1, -1) for r in range(6) for y in ys
    )


def dihedral_decompose(w: AffineWeylElement) -> DihedralDecomposition:
    """The unique w = w(i)^{-1} z with z in U = <u, v>, read off w's finite
    part and translation V = trans(w), over the simple coroots; no group
    products.

    For i = s (6 j + r) with 0 <= r < 6 and z = y (uv)^{k'}, w(i)^{-1} z
    is b t_{-j lambda_s + k' mu} for the candidate (s, r, j0, y, b).  So a
    candidate with w's finite part fits iff V - trans(b) = (s j + k',
    -s j + k') in coroot coordinates has integral j >= j0 and k'.
    `verify.check_dihedral_cosets` proves that exactly one fits every w;
    else CertificationFailed.
    """
    found = []
    for s, r, j0, y, b in _coset_candidates():
        if b.fin != w.fin:
            continue
        d1, d2 = (x - t for x, t in zip(w.trans, b.trans))
        (sj, odd), kp = divmod(d1 - d2, 2), (d1 + d2) // 2
        if not odd and s * sj >= j0:
            found.append((6 * sj + s * r, y, kp))  # i = s (6 j + r)
    if len(found) != 1:
        raise CertificationFailed(
            f"{len(found)} dihedral coset decompositions of {w!r}"
        )
    ((i, y, kp),) = found
    # u (uv)^{k'} = v (uv)^{k'-1}
    if not y:
        form, k = ("(uv)^k", kp) if kp >= 0 else ("(vu)^k", -kp)
    else:
        form, k = ("u(vu)^k", -kp) if kp <= 0 else ("v(uv)^k", kp - 1)
    return DihedralDecomposition(i, form, k)


# ----- Poincare series -----------------------------------------------------

_DENOM = (1, 0, -2, 0, 1)  # t^4 - 2t^2 + 1, constant term first
_NUM_EVEN = (1, 2, 2, 1)  # 1 + 2t + 2t^2 + t^3
_NUM_ODD = (1, 3, 2)  # 1 + 3t + 2t^2


def _series(num, denom, d_max):
    out = []
    for n in range(d_max + 1):
        c = num[n] if n < len(num) else 0
        for j in range(1, min(n, len(denom) - 1) + 1):
            c -= denom[j] * out[n - j]
        q, rem = divmod(c, denom[0])
        if rem:
            raise ArithmeticError(f"coefficient {n} of the series is not integral")
        out.append(q)
    return out


def poincare_series(parity: str, d_max: int):
    """Power-series coefficients of the closed-form Poincare series."""
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    if parity == "even":
        return _series(_NUM_EVEN, _DENOM, d_max)
    if parity == "odd":
        return _series(_NUM_ODD, _DENOM, d_max)
    raise ValueError("parity must be 'even' or 'odd'")


def poincare_recursion_residual(d_max: int):
    """Residual coefficients of F1 = 1 + 2tF2 - 2t^2 F1 + t^3 F2 and
    F2 = 1 + 3tF1 - 2t^2 F2; all zero if the closed forms are consistent."""
    f1 = poincare_series("even", d_max)
    f2 = poincare_series("odd", d_max)

    def c(seq, n):
        return seq[n] if n >= 0 else 0

    ns = range(d_max + 1)
    return (
        [f1[n] - (n == 0) - 2 * c(f2, n - 1) + 2 * c(f1, n - 2) - c(f2, n - 3)
         for n in ns],
        [f2[n] - (n == 0) - 3 * c(f1, n - 1) + 2 * c(f2, n - 2) for n in ns],
    )


# ----- the Hasse-figure fragment -------------------------------------------

#: Every node label printed in the Hasse-diagram figure fragment.
FIGURE_LABELS = (
    "e", "1", "2", "3", "31", "32", "13", "23", "131", "132", "232",
    "123", "213", "231", "1231", "1232", "1213", "2131", "2132", "3123",
    "3213", "21231", "32131", "32132", "12132", "13123", "213123",
)


def figure_hasse(word_length_bound: int = 6) -> GradedPoset:
    """The alcove-order Hasse fragment on the l(w) <= bound ball.

    Nodes carry canonical-word digit labels; edges are covering relations,
    'weak' kind when also a cover in the B-twisted left weak order (the
    figure's black edges) and 'strong' otherwise (blue).
    """
    d = datum()
    B = alcove_biclosed()
    elements = length_ball(d, word_length_bound)  # sorted by (length, word)
    ball = set(elements)
    # display words: keep the figure's choice of reduced word where one is
    # given, else fall back to the canonical (lex-least) word
    preferred = {
        from_word(d, tuple(int(c) for c in lab)): lab
        for lab in FIGURE_LABELS
        if lab != "e"
    }
    nodes = [
        PosetNode(
            w,
            twisted_length_left(w, B),
            preferred.get(w) or "".join(map(str, w.word())) or "e",
        )
        for w in elements
    ]
    edges = [
        _cover_edge(d, w2, w, refl_root)
        for w in elements
        for refl_root, w2 in lower_covers(w, B)
        if w2 in ball
    ]
    return GradedPoset(nodes, edges)
