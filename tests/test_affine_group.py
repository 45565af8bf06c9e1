"""Affine Weyl group arithmetic: words, inversion sets, translations.

Convention under test everywhere: N(w) is the inversion set of w^{-1}.
"""

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
    format_word,
    parse_word,
    product_inversion,
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


def test_translation_outside_coroot_lattice_raises():
    t = translation(build_system("A2"), (Fraction(1, 2), 0))
    with pytest.raises(ValueError):
        t.inversion_chains()
    with pytest.raises(ValueError):
        t.apply(((0, 1), 0))


@pytest.mark.parametrize("label", TYPES)
def test_reflections_are_involutions(label):
    d = build_system(label)
    for gamma in d.positive_roots:
        for k in (-2, -1, 0, 1, 3):
            t = reflection(d, (gamma, k))
            assert t * t == identity(d)
            assert t.inverse() == t


def test_parse_format_word_roundtrip():
    d = build_system("A3")
    for word in ((), (1,), (1, 2, 3, 4, 1), (4, 4, 2)):
        assert parse_word(d, format_word(word)) == word
    with pytest.raises(ValueError):
        parse_word(d, "1.9")

