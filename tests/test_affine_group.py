"""Affine Weyl group arithmetic: words, inversion sets, translations.

Convention under test everywhere: N(w) is the inversion set of w^{-1}.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_bruhat import (
    build_system,
    from_word,
    identity,
    inversion_set,
    reflection,
    simple_reflections,
    translation,
)
from twisted_bruhat.affine_group import (
    AffineWeylElement,
    format_word,
    negate,
    parse_word,
)

TYPES = ("A2", "A3", "B2", "G2")


def words(label, max_len=8):
    d = build_system(label)
    return st.lists(
        st.integers(1, d.rank + 1), min_size=0, max_size=max_len
    ).map(tuple)


@settings(max_examples=60, deadline=None)
@given(w1=words("A2"), w2=words("A2"), w3=words("A2"))
def test_group_law_a2(w1, w2, w3):
    d = build_system("A2")
    x, y, z = (from_word(d, w) for w in (w1, w2, w3))
    assert (x * y) * z == x * (y * z)
    assert x * x.inverse() == identity(d)
    assert x * identity(d) == x


@pytest.mark.parametrize("label", TYPES)
def test_coxeter_relations(label):
    d = build_system(label)
    gens = simple_reflections(d)
    for s in gens:
        assert s * s == identity(d)


@settings(max_examples=60, deadline=None)
@given(w=words("A2", 10))
def test_length_equals_word_and_inversions_a2(w):
    d = build_system("A2")
    x = from_word(d, w)
    assert x.length() == len(x.word()) <= len(w)
    assert len(inversion_set(x)) == x.length()


@pytest.mark.parametrize("label", TYPES)
def test_inversion_word_formula(label):
    """N(s_{i1}..s_{ik}) accumulates prefix images of the letters' roots."""
    d = build_system(label)
    rng = random.Random(4)
    gens = simple_reflections(d)
    for _ in range(30):
        word = tuple(rng.randint(1, d.rank + 1) for _ in range(rng.randint(0, 8)))
        x = from_word(d, word)
        direct = set()
        prefix = identity(d)
        for a in x.word():
            s = gens[a - 1]
            gamma = next(iter(inversion_set(s)))
            r = prefix.apply(gamma)
            direct.add(r)
            prefix = prefix * s
        assert direct == set(inversion_set(x))


def product_inversion(w: AffineWeylElement, u: AffineWeylElement) -> frozenset:
    """N(wu) = (N(w) \\ w(-N(u))) union (w N(u) \\ -N(w)) -- the product formula."""
    nw = inversion_set(w)
    nu = inversion_set(u)
    w_minus_nu = frozenset(w.apply(negate(r)) for r in nu)
    w_nu = frozenset(w.apply(r) for r in nu)
    minus_nw = frozenset(negate(r) for r in nw)
    return (nw - w_minus_nu) | (w_nu - minus_nw)


@pytest.mark.parametrize("label", TYPES)
def test_product_inversion_formula(label):
    d = build_system(label)
    rng = random.Random(5)
    for _ in range(25):
        w = from_word(d, tuple(rng.randint(1, d.rank + 1) for _ in range(6)))
        u = from_word(d, tuple(rng.randint(1, d.rank + 1) for _ in range(6)))
        assert product_inversion(w, u) == inversion_set(w * u)


def test_translation_additivity():
    d = build_system("A2")
    for u in ((1, 0), (0, 1), (2, -1)):
        for v in ((1, 1), (-1, 0), (0, -2)):
            lhs = translation(d, u) * translation(d, v)
            rhs = translation(d, tuple(a + b for a, b in zip(u, v)))
            assert lhs == rhs


def test_translation_conjugation():
    """w t_v w^{-1} = t_{w(v)} for finite w."""
    d = build_system("A2")
    rng = random.Random(6)
    for _ in range(20):
        w = from_word(d, tuple(rng.randint(1, d.rank) for _ in range(4)))
        v = (rng.randint(-2, 2), rng.randint(-2, 2))
        lhs = w * translation(d, v) * w.inverse()
        assert lhs == translation(d, w.fin.apply(v))


@pytest.mark.parametrize(
    "vec",
    [(Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 2), 0)],
    ids=["coweight", "half_a"],
)
def test_construction_off_the_coroot_lattice_raises(vec):
    """A translation with a coordinate off the integers is no element of the
    affine Weyl group: it is refused where it is built, before any length,
    twisted length or weak-order comparison could read it.  The coweight
    (2a + b)/3 pairs integrally with every root, so no later read would
    stop it."""
    d = build_system("A2")
    with pytest.raises(ValueError, match="coroot lattice"):
        AffineWeylElement(d, d.identity(), vec)


@pytest.mark.parametrize(
    "label, vec", [("A3", (1, 0)), ("A2", (1, 0, 0)), ("B2", ())]
)
def test_construction_with_the_wrong_rank_raises(label, vec):
    """One coordinate per simple coroot: A3's (1, 0) would read length 6
    and act as t_{a1^vee}, yet compare unequal to translation(d, (1, 0, 0))."""
    d = build_system(label)
    with pytest.raises(ValueError, match="coordinates"):
        AffineWeylElement(d, d.identity(), vec)


def _in_roots(w):
    """w's translation over the simple roots, v_i = 2 c_i / (a_i, a_i), in
    Fractions: the stored form before translations moved to the simple
    coroots."""
    gram = w.datum.gram
    return tuple(Fraction(2 * c, gram[i][i]) for i, c in enumerate(w.trans))


def _from_roots(datum, fin, v):
    """fin t_v for v over the simple roots: c_i = v_i (a_i, a_i) / 2."""
    gram = datum.gram
    return AffineWeylElement(
        datum, fin, [Fraction(x) * gram[i][i] / 2 for i, x in enumerate(v)]
    )


def _mul_in_fractions(x, y):
    """The former `__mul__`, kept as the oracle of the integer one:
    (u1 t_v1)(u2 t_v2) = u1 u2 t_{u2^{-1}(v1) + v2} in Fractions over the
    simple roots."""
    v = y.fin.inverse().apply(_in_roots(x))
    return _from_roots(
        x.datum, x.fin * y.fin, [a + b for a, b in zip(v, _in_roots(y))]
    )


def _inverse_in_fractions(x):
    """The former `inverse`: (u t_v)^{-1} = u^{-1} t_{-u(v)} in Fractions."""
    v = x.fin.apply(_in_roots(x))
    return _from_roots(x.datum, x.fin.inverse(), [-a for a in v])


@pytest.mark.parametrize("label", TYPES)
def test_products_and_inverses_match_fraction_oracle(label):
    """500 seeded pairs of words of up to 16 letters: the integer product
    and inverse are the Fraction ones, and their translations are ints.  In
    B2 and G2 the simple coroots differ from the simple roots."""
    d = build_system(label)
    rng = random.Random(37)
    word = lambda: [rng.randint(1, d.rank + 1) for _ in range(rng.randint(0, 16))]
    for _ in range(500):
        x, y = from_word(d, word()), from_word(d, word())
        xy, inv = x * y, x.inverse()
        assert xy == _mul_in_fractions(x, y)
        assert inv == _inverse_in_fractions(x)
        assert all(type(c) is int for c in xy.trans + inv.trans)


def _chain_tops_in_fractions(w):
    """The former `inversion_chains` loop, kept as the oracle of
    `chain_tops`: c_mu = (mu, u(v)) in Fraction per root, minus
    [u^{-1}(mu) > 0]."""
    d = w.datum
    uinv = w.fin.inverse()
    uv = w.fin.apply(_in_roots(w))
    tops = {}
    for mu in d.roots:
        c = d.inner(mu, uv)
        assert c.denominator == 1
        tops[mu] = int(c) - (1 if d.is_positive(uinv.apply(mu)) else 0)
    return tops


def _apply_in_fractions(w, r):
    base, level = r
    shift = w.datum.inner(base, _in_roots(w))
    assert shift.denominator == 1
    return (w.fin.apply(base), level + int(shift))


@pytest.mark.parametrize("label", TYPES)
def test_chain_tops_match_fraction_oracle(label):
    """500 seeded words plus the translations t_lam, lam = sum n_i a_i^vee
    with |n_i| <= 1 (in G2, b^vee = b/3): the integer tops, the chains read
    off them and the action on affine roots agree with Fraction arithmetic."""
    d = build_system(label)
    rng = random.Random(19)
    elements = [
        from_word(d, [rng.randint(1, d.rank + 1) for _ in range(rng.randint(0, 16))])
        for _ in range(500)
    ]
    coroots = [d.coroot(a) for a in d.simple_roots]
    for i, ns in enumerate(itertools.product(range(-1, 2), repeat=d.rank)):
        lam = [sum(n * c[j] for n, c in zip(ns, coroots)) for j in range(d.rank)]
        t = translation(d, lam)
        elements += [t, t * elements[i]]
    for w in elements:
        tops = _chain_tops_in_fractions(w)
        assert w.chain_tops() == tops
        floor = {mu: 0 if d.is_positive(mu) else 1 for mu in d.roots}
        assert w.inversion_chains() == {
            mu: (floor[mu], t) for mu, t in tops.items() if t >= floor[mu]
        }
        for r in ((d.roots[0], 0), (d.roots[-1], -2), (d.highest_root, 3)):
            assert w.apply(r) == _apply_in_fractions(w, r)


def _word_by_rebuilding(w):
    """The former `word()`, kept as the oracle of the descent walk: strip the
    least simple affine root in N(w) by building s_i * w, until w = e."""
    d = w.datum
    simples = [(a, 0) for a in d.simple_roots]
    simples.append((tuple(-x for x in d.highest_root), 1))
    gens = simple_reflections(d)
    e = identity(d)
    out = []
    while w != e:
        i = next(i for i, a in enumerate(simples) if w.in_inversion_set(a))
        out.append(i + 1)
        w = gens[i] * w
    return tuple(out)


def _check_word(d, w):
    word = w.word()
    assert word == _word_by_rebuilding(w)
    assert from_word(d, word) == w
    assert len(word) == w.length()


@pytest.mark.parametrize("label", TYPES)
def test_word_matches_rebuilding_oracle(label):
    d = build_system(label)
    rng = random.Random(17)
    for _ in range(500):
        word = [rng.randint(1, d.rank + 1) for _ in range(rng.randint(0, 16))]
        _check_word(d, from_word(d, word))


@pytest.mark.parametrize("label", TYPES)
def test_word_of_translations(label):
    """t_lam for lam = sum n_i a_i^vee with |n_i| <= 2; in G2, b^vee = b/3."""
    d = build_system(label)
    coroots = [d.coroot(a) for a in d.simple_roots]
    if label == "G2":
        assert coroots[1] == (0, Fraction(1, 3))
    for ns in itertools.product(range(-2, 3), repeat=d.rank):
        lam = tuple(
            sum(n * c[j] for n, c in zip(ns, coroots)) for j in range(d.rank)
        )
        _check_word(d, translation(d, lam))


@pytest.mark.parametrize(
    "label, vec",
    [
        ("A2", (Fraction(2, 3), Fraction(1, 3))),
        ("A2", (1,)),  # would act as t_a but compare unequal to it
        ("A2", (1, 0, 0)),
        ("B2", (0, 1)),  # the short root b, while b^vee = 2b
        ("B2", (Fraction(1, 2), 0)),
        ("G2", (0, Fraction(1, 6))),  # half of b^vee = b/3
    ],
)
def test_translation_rejects_coweights_off_the_coroot_lattice(label, vec):
    """Checked where t_v is built: B2's t_b would otherwise report
    length() == 3 although it lies outside the affine Weyl group.  Every
    coroot-lattice vector is accepted (test_word_of_translations)."""
    d = build_system(label)
    with pytest.raises(ValueError, match="coroot lattice"):
        translation(d, vec)


@pytest.mark.parametrize("label", TYPES)
def test_reflections_are_involutions(label):
    d = build_system(label)
    for gamma in d.positive_roots:
        for k in (-2, -1, 0, 1, 3):
            t = reflection(d, (gamma, k))
            assert t * t == identity(d)
            assert t.inverse() == t


def _from_word_by_products(d, letters):
    """The former `from_word`, kept as the oracle of the integer walk: one
    group product per letter, left to right."""
    gens = simple_reflections(d)
    w = identity(d)
    for a in letters:
        w = w * gens[a - 1]
    return w


@pytest.mark.parametrize("label", TYPES)
def test_from_word_matches_product_oracle(label):
    """500 seeded words of up to 16 letters, and the empty word: the same
    element, translation tuple and hash as the product fold."""
    d = build_system(label)
    rng = random.Random(23)
    samples = [()] + [
        tuple(rng.randint(1, d.rank + 1) for _ in range(rng.randint(0, 16)))
        for _ in range(500)
    ]
    for word in samples:
        w, oracle = from_word(d, word), _from_word_by_products(d, word)
        assert w == oracle
        assert w.trans == oracle.trans and hash(w) == hash(oracle)
    assert from_word(d, ()) == identity(d)


@pytest.mark.parametrize("label", TYPES)
def test_from_word_takes_no_products(label, products):
    d = build_system(label)
    rng = random.Random(29)
    for _ in range(50):
        from_word(d, [rng.randint(1, d.rank + 1) for _ in range(16)])
    assert products == []


def test_from_word_takes_any_iterable():
    d = build_system("B2")
    word = (3, 1, 2, 3, 2, 1, 3)
    expected = _from_word_by_products(d, word)
    assert from_word(d, iter(word)) == expected
    assert from_word(d, (a for a in word)) == expected
    assert from_word(d, list(word)) == expected


@pytest.mark.parametrize("bad", [0, 4, -1])
def test_from_word_rejects_a_letter_before_any_work(monkeypatch, bad):
    """Every letter is checked before the walk takes its first step."""
    from twisted_bruhat import affine_group

    def fail(*args):
        raise AssertionError("the walk started before the letters were checked")

    monkeypatch.setattr(affine_group, "_left_ray", fail)
    d = build_system("A2")
    with pytest.raises(ValueError, match=f"letter out of range: {bad}"):
        from_word(d, (a for a in (1, 2, 3, bad, 1)))


def test_parse_format_word_roundtrip():
    d = build_system("A3")
    for word in ((), (1,), (1, 2, 3, 4, 1), (4, 4, 2)):
        assert parse_word(d, format_word(word)) == word
    with pytest.raises(ValueError):
        parse_word(d, "1.9")

