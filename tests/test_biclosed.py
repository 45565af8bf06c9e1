"""Biclosed sets of affine roots: membership oracle, classification,
equality, dot action, and the text format."""

import random

import pytest

from twisted_bruhat import (
    build_system,
    dot_action,
    empty_biclosed,
    format_biclosed,
    from_inversion_set,
    from_word,
    full_positive_biclosed,
    inversion_set,
    parse_biclosed,
)
from twisted_bruhat.affine_group import (
    AffineWeylElement,
    identity,
    is_positive_affine,
    negate,
)
from twisted_bruhat.biclosed import BiclosedSet, _P_roots
from twisted_bruhat.finite import enumerate_P_triples, standard_positive_system
from twisted_bruhat.orders import length_ball
from twisted_bruhat.topes import Hemispace, from_biclosed
from conftest import random_biclosed, random_element

TYPES = ("A2", "A3", "B2", "G2")

CLASSES = {
    "Finite",
    "Cofinite",
    "InfiniteWordInversion",
    "InfiniteWordCoinversion",
    "Mixed",
}


def all_roots_to_level(datum, level):
    out = []
    for base in datum.roots:
        k0 = 0 if datum.is_positive(base) else 1
        out.extend((base, k) for k in range(k0, level + 1))
    return out


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


def _twisted_triples(label, seed):
    """B = w . P(psi, d1, d2)^hat for every P-triple, each under the trivial
    twist and two seeded random ones."""
    datum = build_system(label)
    rng = random.Random(seed)
    for psi, d1, d2 in enumerate_P_triples(datum):
        for twist_len in (0, 4, 8):
            yield BiclosedSet(random_element(datum, rng, twist_len), psi, d1, d2)


def _floor(datum, base):
    return 0 if datum.is_positive(base) else 1


def _levels_around(datum, B, base, reach):
    """The positive levels of the chain over base within reach of the
    twist's top t over it, where membership switches sides."""
    t = B.twist.chain_tops()[base]
    k0 = _floor(datum, base)
    return range(max(k0, t - reach), max(k0, t + reach) + 1)


@pytest.mark.parametrize("label", TYPES)
def test_membership_matches_pointwise_definition(label):
    """O(1) chain membership == twist-dot-action of the finite core P, on
    every P-triple, at levels on both sides of each threshold."""
    datum = build_system(label)
    for B in _twisted_triples(label, 31):
        in_P_hat = lambda r: tuple(r[0]) in B.P_roots
        for base in datum.roots:
            top = _levels_around(datum, B, base, 3)[-1]
            for k in range(_floor(datum, base), top + 1):
                expected = dot_action_pointwise(B.twist, in_P_hat, (base, k))
                assert B.contains((base, k)) == expected, (
                    format_biclosed(B), base, k
                )


@pytest.mark.parametrize("label", TYPES)
def test_in_hemispace_matches_pointwise_definition(label):
    """r is in H_B = B | -(Phi^hat+ \\ B) iff r is in B (r > 0) or -r is
    not (r < 0), on every affine root up to level +-6 and on three twisted
    sets of every class; the Hemispace of B holds exactly H_B, and that of
    B's complement exactly the complement of H_B."""
    datum = build_system(label)
    rng = random.Random(33)
    by_class = {}
    for triple in enumerate_P_triples(datum):
        B = BiclosedSet(identity(datum), *triple)
        by_class.setdefault(B.classify(), []).append(triple)
    assert set(by_class) == CLASSES - ({"Mixed"} if label != "A3" else set())
    for cls in sorted(by_class):
        for twist_len in (0, 4, 8):
            twist = random_element(datum, rng, twist_len)
            B = BiclosedSet(twist, *rng.choice(by_class[cls]))
            in_P_hat = lambda r: tuple(r[0]) in B.P_roots
            plus, minus = Hemispace(B), Hemispace(B.complement())
            for r in all_roots_to_level(datum, 6):
                inside = dot_action_pointwise(twist, in_P_hat, r)
                for root, expected in ((r, inside), (negate(r), not inside)):
                    assert B.in_hemispace(root) == expected, (cls, root)
                    assert plus.contains(root) == expected, (cls, root)
                    assert minus.contains(root) != expected, (cls, root)


@pytest.mark.parametrize("r", (((2, 0), 0), ((0, 0), 1), ((2, 0), -3)))
def test_membership_refuses_non_roots(r):
    """A base outside the finite roots is refused with a ValueError naming
    it, not a KeyError, by every membership entry point, at a positive and
    at a negative level, and by the two chain readers."""
    B = full_positive_biclosed(build_system("A2"))
    for contains in (
        B.contains, B.in_hemispace, from_biclosed(B).contains,
        lambda r: is_positive_affine(B.datum, r),
        lambda r: B.count_in_chain(r[0], 0, 3),
        lambda r: B.lowest(r[0], True),
    ):
        with pytest.raises(ValueError) as got:
            contains(r)
        assert str(got.value) == f"not a root: {r[0]}"


@pytest.mark.parametrize("label", TYPES)
def test_count_in_chain_matches_scan(label):
    datum = build_system(label)
    for B in _twisted_triples(label, 32):
        for base in datum.roots:
            levels = _levels_around(datum, B, base, 2)
            for lo in levels:
                for hi in range(lo - 1, levels[-1] + 2):
                    scan = sum(
                        1 for k in range(lo, hi + 1) if B.contains((base, k))
                    )
                    assert B.count_in_chain(base, lo, hi) == scan


def test_classification_values():
    rng = random.Random(33)
    d = build_system("A2")
    assert empty_biclosed(d).classify() == "Finite"
    assert full_positive_biclosed(d).classify() == "InfiniteWordInversion"
    # the complement keeps the structural (delta1, delta2) = (0, 0) shape
    assert full_positive_biclosed(d).complement().classify() == (
        "InfiniteWordInversion"
    )
    w = from_word(d, (1, 2, 3))
    assert from_inversion_set(w).classify() == "Finite"
    for label in TYPES:
        for _ in range(10):
            assert random_biclosed(label, rng).classify() in CLASSES


def test_complement_membership_and_class_swap():
    rng = random.Random(34)
    d = build_system("A3")
    swap = {
        "Finite": "Cofinite",
        "Cofinite": "Finite",
        "InfiniteWordInversion": "InfiniteWordCoinversion",
        "InfiniteWordCoinversion": "InfiniteWordInversion",
        "Mixed": "Mixed",
    }
    for _ in range(10):
        B = random_biclosed("A3", rng)
        C = B.complement()
        if B.delta1 or B.delta2:
            assert C.classify() == swap[B.classify()]
        for r in all_roots_to_level(d, 4):
            assert C.contains(r) != B.contains(r)


def test_from_inversion_set_matches_N():
    rng = random.Random(35)
    for label in TYPES:
        d = build_system(label)
        for _ in range(10):
            w = random_element(d, rng, 8)
            B = from_inversion_set(w)
            N = inversion_set(w)
            for r in all_roots_to_level(d, 6):
                assert B.contains(r) == (r in N)


def test_dot_action_composes():
    rng = random.Random(36)
    d = build_system("A2")
    for _ in range(10):
        B = random_biclosed("A2", rng)
        u = random_element(d, rng, 5)
        v = random_element(d, rng, 5)
        lhs = dot_action(u, dot_action(v, B))
        rhs = dot_action(u * v, B)
        assert lhs.equals(rhs)


@pytest.mark.parametrize("label", TYPES)
def test_dot_action_shares_finite_part(label):
    """The finite part P(psi, d1, d2) is memoised per triple; it must equal
    a fresh construction, and the twisted set keeps its own twist."""
    rng = random.Random(38)
    d = build_system(label)
    for _ in range(10):
        B = random_biclosed(label, rng)
        u = random_element(d, rng, 5)
        uB = dot_action(u, B)
        assert uB.P_roots is B.P_roots
        assert (uB.psi, uB.delta1, uB.delta2) == (B.psi, B.delta1, B.delta2)
        assert uB.P_roots == _P_roots.__wrapped__(B.psi, B.delta1, B.delta2)
        assert uB.twist == u * B.twist


def test_invalid_P_triples_raise_and_are_not_cached():
    """d1, d2 must be orthogonal sets of simple roots of psi; a triple that
    is not raises ValueError and leaves the P-triple cache as it was."""
    d = build_system("A2")
    psi, e = standard_positive_system(d), identity(d)
    a, b = d.simple_roots
    before = _P_roots.cache_info().currsize
    with pytest.raises(ValueError, match="must be simple roots of psi"):
        BiclosedSet(e, psi, [d.highest_root], [])
    with pytest.raises(ValueError, match=r"orthogonality violated: \(a, b\)"):
        BiclosedSet(e, psi, [a], [b])
    assert _P_roots.cache_info().currsize == before


def test_dot_action_identity_on_N():
    """u . N(v)-hat = N(uv)-hat."""
    rng = random.Random(37)
    d = build_system("A2")
    for _ in range(15):
        u = random_element(d, rng, 6)
        v = random_element(d, rng, 6)
        assert dot_action(u, from_inversion_set(v)).equals(
            from_inversion_set(u * v)
        )


def _equals_oracle(B, C):
    """The former `equals`: the finite roots whose chain meets B infinitely
    often (I_B = u(P) for twist u t_v) must match, then membership must
    agree on every positive root up to level L* = 1 + the higher top
    inversion level of the two twists.  Membership is read off the dot
    action pointwise, not off B's chains."""
    def I(X):
        return frozenset(X.twist.fin.apply(p) for p in X.P_roots)

    def member(X, r):
        return dot_action_pointwise(
            X.twist, lambda q: tuple(q[0]) in X.P_roots, r
        )

    if I(B) != I(C):
        return False
    lstar = 1 + max(
        B.twist.max_inversion_level(), C.twist.max_inversion_level()
    )
    return all(
        member(B, r) == member(C, r)
        for r in all_roots_to_level(B.datum, lstar)
    )


def test_equals_matches_level_scan_oracle():
    """Normal-form equality agrees with the I_B + L* scan on 504 pairs.

    Each B = (w x) . P^hat, with x a short element fixing P^hat when there
    is one (rank-2 infinite-word sets have them), is paired with an equal
    set under another twist or triple ((w x') . P^hat for another fixer x'
    of P^hat, w . P^hat, u^-1 . (u . B), the other chambers' forms of a
    Finite or Cofinite set), a one-letter neighbour, or an unrelated set.
    """
    rng = random.Random(40)
    outcomes = {True: 0, False: 0}
    other_form = 0
    for label in TYPES:
        datum = build_system(label)
        triples = enumerate_P_triples(datum)
        ball = length_ball(datum, 4)
        fixers = {}
        for i in range(126):
            triple = rng.choice(triples)
            if triple not in fixers:
                P_hat = BiclosedSet(ball[0], *triple)
                fixers[triple] = [
                    x for x in ball[1:] if BiclosedSet(x, *triple).equals(P_hat)
                ] or [ball[0]]
            w = random_element(datum, rng, 5)
            x = rng.choice(fixers[triple])
            B = BiclosedSet(w * x, *triple)
            kind = i % 6
            if kind == 0:
                others = [y for y in (ball[0], *fixers[triple]) if y != x]
                C = BiclosedSet(w * rng.choice(others or [x]), *triple)
            elif kind == 1:
                C = BiclosedSet(w, *triple)
            elif kind == 2:
                u = random_element(datum, rng, 5)
                C = dot_action(u.inverse(), dot_action(u, B))
            elif kind == 3:
                psi, d1, d2 = rng.choice(triples)
                shape = {"Finite": (psi.simple_system, ()),
                         "Cofinite": ((), psi.simple_system)}
                C = BiclosedSet(B.twist, psi, *shape.get(B.classify(), (d1, d2)))
            elif kind == 4:
                C = dot_action(from_word(datum, (rng.randint(1, datum.rank + 1),)), B)
            else:
                C = BiclosedSet(random_element(datum, rng, 6), *rng.choice(triples))
            want = _equals_oracle(B, C)
            assert B.equals(C) == want == C.equals(B), (
                format_biclosed(B), format_biclosed(C)
            )
            outcomes[want] += 1
            other_form += want and (B.twist != C.twist or B.psi != C.psi)
    assert min(outcomes.values()) >= 100, outcomes
    assert other_form >= 50, other_form


@pytest.mark.parametrize("label", TYPES)
def test_format_parse_roundtrip(label):
    rng = random.Random(39)
    datum = build_system(label)
    for _ in range(8):
        B = random_biclosed(label, rng)
        C = parse_biclosed(datum, format_biclosed(B))
        assert B.equals(C)


def test_parse_errors():
    d = build_system("A2")
    with pytest.raises(ValueError):
        parse_biclosed(d, "nonsense")
    with pytest.raises(ValueError):
        parse_biclosed(d, "twist:e psi:e d1:{99} d2:{}")
