"""Finite root systems, Weyl groups, and finitely biclosed sets."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from twisted_bruhat import build_system, from_word, identity
from twisted_bruhat.biclosed import _P_roots
from twisted_bruhat.finite import (
    CartanDatum,
    PositiveSystem,
    WeylElement,
    _span_roots,
    enumerate_P_triples,
    standard_positive_system,
)

# ----- exhaustive biclosed-set oracle (2-closure by open cones) -----------


def _cone_pairs(datum: CartanDatum):
    """For each unordered root pair, the roots in their strictly-positive span."""
    table = {}
    roots = datum.roots
    for a, b in itertools.combinations(roots, 2):
        hits = tuple(
            g for g in roots if g != a and g != b and _in_open_cone(a, b, g)
        )
        if hits:
            table[frozenset((a, b))] = hits
    return table


def _in_open_cone(a, b, g) -> bool:
    """g = x a + y b with x, y > 0, by Cramer's rule on a nonzero 2x2 minor
    d of (a, b): the solution is x = det(g, b) / d, y = det(a, g) / d."""
    for i, j in itertools.combinations(range(len(a)), 2):
        det = lambda p, q: p[i] * q[j] - p[j] * q[i]
        d = det(a, b)
        if d:
            x, y = det(g, b), det(a, g)
            return (
                x * d > 0
                and y * d > 0
                and all(d * gk == x * ak + y * bk for ak, bk, gk in zip(a, b, g))
            )
    return False  # a and b are parallel


@lru_cache(maxsize=None)
def _cone_pairs_cached(type_label):
    return _cone_pairs(build_system(type_label))


def is_two_closed(datum: CartanDatum, subset) -> bool:
    """2-closure check: pairs of members never positively combine outside."""
    s = frozenset(tuple(r) for r in subset)
    table = _cone_pairs_cached(datum.type_label)
    for a, b in itertools.combinations(sorted(s), 2):
        for g in table.get(frozenset((a, b)), ()):
            if g not in s:
                return False
    return True


def is_biclosed(datum: CartanDatum, subset) -> bool:
    s = frozenset(tuple(r) for r in subset)
    comp = frozenset(datum.roots) - s
    return is_two_closed(datum, s) and is_two_closed(datum, comp)


def enumerate_biclosed_finite(datum: CartanDatum):
    """All biclosed subsets of Phi by exhaustive scan (rank <= 3 only)."""
    if datum.rank > 3:
        raise ValueError("exhaustive enumeration supported for rank <= 3 only")
    out = []
    roots = datum.roots
    for bits in itertools.product((0, 1), repeat=len(roots)):
        s = frozenset(r for r, b in zip(roots, bits) if b)
        if is_biclosed(datum, s):
            out.append(s)
    return out


# (roots, positive roots, |W|, biclosed subsets, P-triples, highest root)
EXPECTED = {
    "A2": (6, 3, 6, 20, 42, (1, 1)),
    "A3": (12, 6, 24, 138, 408, (1, 1, 1)),
    "B2": (8, 4, 8, 26, 56, (1, 2)),
    "G2": (12, 6, 12, 38, 84, (3, 2)),
}


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_root_system_counts(label):
    d = build_system(label)
    n_roots, n_pos, n_weyl, n_bic, n_triples, highest = EXPECTED[label]
    assert len(d.roots) == n_roots
    assert len(d.positive_roots) == n_pos
    assert len(d.weyl_table().elements) == n_weyl
    assert len(list(enumerate_biclosed_finite(d))) == n_bic
    assert len(list(enumerate_P_triples(d))) == n_triples


def _weyl_elements(d):
    """The former `CartanDatum.weyl_elements`, as the oracle of the table's
    own enumeration: compose simple-root images breadth first from the
    identity, then sort by those images."""
    e = d.identity()
    seen = {e}
    frontier = [e]
    gens = [
        WeylElement(d, [d.reflect(a, b) for b in d.simple_roots])
        for a in d.simple_roots
    ]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                ws = WeylElement(d, [w.apply(r) for r in s.imgs])
                if ws not in seen:
                    seen.add(ws)
                    nxt.append(ws)
        frontier = nxt
    return tuple(sorted(seen, key=lambda w: w.imgs))


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_table_enumerates_the_group_in_oracle_order(label):
    """WeylTable.elements, and so every index into the table, is the former
    enumeration in its order; enumerate_P_triples walks the chambers in it
    (each chamber has at least the triple (psi, {}, {}))."""
    d = build_system(label)
    oracle = _weyl_elements(d)
    assert d.weyl_table().elements == oracle
    chambers = [psi.chamber for psi, _, _ in enumerate_P_triples(d)]
    assert tuple(dict.fromkeys(chambers)) == oracle


def _fraction_inner(d, u, v):
    return sum(
        Fraction(ui) * vj * d.gram[i][j]
        for i, ui in enumerate(u)
        for j, vj in enumerate(v)
    )


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_integer_pairing_and_reflection(label):
    """<v, r^vee> is an int equal to the Fraction formula 2(v,r)/(r,r) on
    every pair of roots, and s_r(v) is the integer root v - <v, r^vee> r."""
    d = build_system(label)
    for r in d.roots:
        for v in d.roots:
            c = d.pairing(v, r)
            assert type(c) is int
            assert c == 2 * _fraction_inner(d, v, r) / _fraction_inner(d, r, r)
            image = d.reflect(r, v)
            assert image == tuple(x - c * m for x, m in zip(v, r))
            assert image in d.roots and all(type(x) is int for x in image)


def test_coxeter_numbers():
    got = {label: build_system(label).coxeter_number for label in EXPECTED}
    assert got == {"A2": 3, "A3": 4, "B2": 4, "G2": 6}


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_reflections_permute_roots(label):
    d = build_system(label)
    root_set = set(d.roots)
    for s in map(d.simple_reflection, range(d.rank)):
        assert {tuple(s.apply(r)) for r in d.roots} == root_set


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_inner_product_invariance(label):
    d = build_system(label)
    for w in d.weyl_table().elements:
        for r in d.positive_roots:
            assert d.inner(w.apply(r), w.apply(r)) == d.inner(r, r)


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_word_roundtrip_and_length(label):
    d = build_system(label)
    for w in d.weyl_table().elements:
        word = w.word()
        rebuilt = d.identity()
        for i in word:
            rebuilt = rebuilt * d.simple_reflection(i)
        assert rebuilt == w
        assert len(word) == w.length()


def _word_by_descents(w):
    """The former descent loop, as the oracle of the table walk: strip the
    least i with w^{-1}(a_i) < 0, i.e. with w(r) = -a_i for a positive r."""
    d = w.datum
    out = []
    while not w.is_identity():
        i = next(
            i
            for i, a in enumerate(d.simple_roots)
            if any(w.apply(r) == tuple(-x for x in a) for r in d.positive_roots)
        )
        out.append(i)
        w = d.simple_reflection(i) * w
    return out


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_table_inverse_and_word(label):
    d = build_system(label)
    for w in d.weyl_table().elements:
        assert (w * w.inverse()).is_identity()
        assert (w.inverse() * w).is_identity()
        assert w.word() == _word_by_descents(w)


def _fraction_apply(w, v):
    """The former Fraction kernel, as the oracle of the integer one."""
    n = w.datum.rank
    out = [Fraction(0)] * n
    for i, c in enumerate(v):
        if c:
            img = w.imgs[i]
            for j in range(n):
                out[j] += Fraction(c) * img[j]
    if all(f.denominator == 1 for f in out):
        return tuple(int(f) for f in out)
    return tuple(out)


def _fraction_mul(u, v):
    return WeylElement(u.datum, tuple(_fraction_apply(u, r) for r in v.imgs))


def _fraction_length(w):
    d = w.datum
    return sum(
        1 for r in d.positive_roots if not d.is_positive(_fraction_apply(w, r))
    )


def _typed(vec):
    return [(type(x), x) for x in vec]


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_table_products_match_fraction_oracle(label):
    d = build_system(label)
    elements = d.weyl_table().elements
    for u in elements:
        assert u.length() == _fraction_length(u)
        for v in elements:
            uv = u * v
            assert uv == _fraction_mul(u, v)
            assert uv is elements[elements.index(uv)]


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_table_reflections_and_coroots(label):
    """smul[mu] is left multiplication by s_mu, lmul its rows at the simple
    roots and theta, and coroots[mu] expands mu^vee over the simple coroots
    a_i^vee = 2 a_i / (a_i, a_i).  k0[mu] is the lowest positive level over
    mu, srow[gamma][mu] is (s_gamma(mu), <mu, gamma^vee>) on every pair of
    roots, in the order of the roots, and w0 is the longest element."""
    d = build_system(label)
    t = d.weyl_table()
    for mu in d.roots:
        s = d.reflection(mu)
        assert [t.elements[m] for m in t.smul[mu]] == [s * u for u in t.elements]
        expansion = [
            sum(c * x for c, x in zip(t.coroots[mu], col))
            for col in zip(*(d.coroot(a) for a in d.simple_roots))
        ]
        assert tuple(expansion) == d.coroot(mu)
    assert t.lmul == tuple(
        t.smul[b] for b in d.simple_roots + (d.highest_root,)
    )
    assert t.k0 == {mu: 0 if d.is_positive(mu) else 1 for mu in d.roots}
    assert list(t.srow) == list(d.roots)
    for gamma, row in t.srow.items():
        assert list(row) == list(d.roots)
        for mu, got in row.items():
            assert got == (d.reflect(gamma, mu), d.pairing(mu, gamma))
    w0 = t.elements[t.w0]
    assert w0.length() == len(d.positive_roots)
    assert w0.length() == max(w.length() for w in d.weyl_table().elements)


# ----- the former per-module root caches, kept as oracles of WeylTable ----


def _ray_pairings(d):
    """The former `orders._ray_pairings`: per positive root gamma and root
    rho, (<rho, gamma^vee>, s_gamma(rho) > 0)."""
    table = {}
    for gamma in d.positive_roots:
        row = table[gamma] = {}
        for rho in d.roots:
            p = d.pairing(rho, gamma)
            img = tuple(r - p * g for r, g in zip(rho, gamma))
            row[rho] = (p, d.is_positive(img))
    return table


def _reflection_rows(d, gamma):
    """The former `biclosed._reflection_rows`: per root mu, in the order of
    the roots, (mu, s_gamma(mu), <mu, gamma^vee>, k0(mu))."""
    table = d.weyl_table()
    image = table.image[table.smul[gamma][table.e]]
    j = next(i for i, x in enumerate(gamma) if x)
    return tuple(
        (mu, nu, (mu[j] - nu[j]) // gamma[j], 1 - d.is_positive(mu))
        for mu, nu in image.items()
    )


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_table_rows_match_former_caches(label):
    """The cover search reads (b, [s_gamma(u mu) > 0]) and the tope walk
    reads (mu, nu, p, k0(mu)) off srow and k0, as the two deleted caches
    held them, on every root gamma."""
    d = build_system(label)
    t = d.weyl_table()
    pairings = _ray_pairings(d)
    for gamma in d.roots:
        row = t.srow[gamma]
        assert _reflection_rows(d, gamma) == tuple(
            (mu, nu, p, t.k0[mu]) for mu, (nu, p) in row.items()
        )
        if gamma in pairings:
            assert pairings[gamma] == {
                rho: (p, 1 - t.k0[nu]) for rho, (nu, p) in row.items()
            }


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_apply_matches_fraction_oracle(label):
    """Same values as the oracle on every root and on seeded random
    vectors: ints, integral Fractions, Fractions with denominators up to 3,
    and mixtures of ints and Fractions.  An int vector maps to ints; no
    library caller passes any other."""
    d = build_system(label)
    rng = random.Random(f"apply/{label}")
    vectors = list(d.roots)
    for _ in range(200):
        vectors.append(tuple(rng.randint(-9, 9) for _ in range(d.rank)))
        vectors.append(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                  for _ in range(d.rank))
        )
        vectors.append(tuple(Fraction(rng.randint(-9, 9)) for _ in range(d.rank)))
        vectors.append(
            tuple(rng.choice((k, Fraction(k, rng.randint(1, 3))))
                  for k in (rng.randint(-9, 9) for _ in range(d.rank)))
        )
    for w in d.weyl_table().elements:
        for v in vectors:
            if all(type(x) is int for x in v):
                assert _typed(w.apply(v)) == _typed(_fraction_apply(w, v))
            else:
                assert w.apply(v) == _fraction_apply(w, v)


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_affine_products_on_random_words(label):
    d = build_system(label)
    rng = random.Random(f"affine/{label}")
    word = lambda: tuple(
        rng.randint(1, d.rank + 1) for _ in range(rng.randint(0, 8))
    )
    e = identity(d)
    for _ in range(60):
        a, b, c = word(), word(), word()
        x, y, z = from_word(d, a), from_word(d, b), from_word(d, c)
        assert (x * y) * z == x * (y * z)
        assert x * x.inverse() == e and x.inverse() * x == e
        assert from_word(d, a + b) == x * y


def test_longest_element_length():
    for label, n_pos in (("A2", 3), ("A3", 6), ("B2", 4), ("G2", 6)):
        d = build_system(label)
        assert max(w.length() for w in d.weyl_table().elements) == n_pos


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_enumerated_biclosed_are_biclosed(label):
    d = build_system(label)
    for subset in enumerate_biclosed_finite(d):
        assert is_biclosed(d, subset)


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_P_triples_are_two_closed(label):
    d = build_system(label)
    for psi, d1, d2 in enumerate_P_triples(d):
        assert is_two_closed(d, _P_roots(psi, d1, d2))


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_span_roots_match_integer_combinations(label):
    """Simple roots of psi form a Z-basis of the root lattice, and root
    coefficients are at most 3 in rank <= 3, so the roots in span(J) are the
    roots among the combinations of J with coefficients in [-3, 3]."""
    d = build_system(label)
    for psi, d1, d2 in enumerate_P_triples(d):
        for J in (d1, d2, d1 | d2):
            J = sorted(J)
            combos = {
                tuple(sum(c * r[k] for c, r in zip(cs, J)) for k in range(d.rank))
                for cs in itertools.product(range(-3, 4), repeat=len(J))
            }
            assert _span_roots(psi, J) == frozenset(combos & set(d.roots))


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_P_triples_cached_once_per_type(label):
    d = build_system(label)
    cached = enumerate_P_triples(d)
    assert isinstance(cached, tuple)
    assert enumerate_P_triples(d) is cached
    assert cached == tuple(enumerate_P_triples.__wrapped__(d))


def test_positive_system_simple_system():
    d = build_system("A2")
    psi = standard_positive_system(d)
    assert set(psi.simple_system) == set(d.simple_roots)
    assert psi.roots == frozenset(d.positive_roots)


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_positive_systems_match_fraction_oracle(label):
    d = build_system(label)
    for w in d.weyl_table().elements:
        psi = PositiveSystem(d, w)
        assert psi.roots == {_fraction_apply(w, r) for r in d.positive_roots}
        assert psi.simple_system == tuple(
            sorted(_fraction_apply(w, a) for a in d.simple_roots)
        )


def test_root_name_roundtrip():
    for label in EXPECTED:
        d = build_system(label)
        for r in d.roots:
            assert d.parse_root_name(d.root_name(r)) == r


def test_bad_type_label():
    with pytest.raises((ValueError, KeyError)):
        build_system("E8")
