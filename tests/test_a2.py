"""The rank-2 alcove order: class deltas, closed-form inversion sets (with
the former 102-chain table as the oracle of the one-top-per-line table),
sphericity, the dihedral coset decomposition (with the former greedy
descent as its oracle), automorphisms (defined here: only tests use them),
the Poincare series, and the Hasse-figure fragment."""

import random

import pytest

from twisted_bruhat import (
    build_system,
    dot_action,
    from_word,
    identity,
    interval,
    inversion_set,
    reflection,
    strong_leq,
    twisted_length_left,
    upper_covers,
)
from twisted_bruhat import a2, verify
from twisted_bruhat.affine_group import AffineWeylElement, affine_tops
from twisted_bruhat.biclosed import full_positive_biclosed
from twisted_bruhat.orders import CertificationFailed, affine_length, length_ball
from conftest import random_biclosed, random_element


@pytest.fixture(scope="module")
def setup():
    d = build_system("A2")
    return d, a2.alcove_biclosed()


def rand_elem(d, rng, max_len=10):
    return from_word(d, tuple(rng.choice((1, 2, 3)) for _ in range(rng.randrange(0, max_len))))


def test_class_of_reads_a_cached_table(setup, monkeypatch):
    """The class table is built once: a second class_of builds no element."""
    d, _ = setup
    w = from_word(d, (1, 2, 3))
    first = a2.class_of(w)
    calls = []
    monkeypatch.setattr(a2, "from_word", lambda *a: calls.append(a))
    assert a2.class_of(w) == first
    assert calls == []


def test_class_of_translation_cosets(setup):
    d, _ = setup
    assert a2.class_of(a2.translation(2, -1)) == "T"
    assert a2.class_of(from_word(d, (1,)) * a2.translation(1, 1)) == "saT"
    assert a2.class_of(from_word(d, (2,))) == "sbT"
    assert a2.class_of(from_word(d, (1, 2))) == "sasbT"
    assert a2.class_of(from_word(d, (2, 1))) == "sbsaT"
    assert a2.class_of(from_word(d, (1, 2, 1))) == "sbsasbT"


def test_class_deltas_match_engine(setup):
    d, B = setup
    rng = random.Random(51)
    for _ in range(12):
        w = rand_elem(d, rng, 7)
        lw = twisted_length_left(w, B)
        for gamma in (a2.ALPHA, a2.BETA, a2.AB):
            for k in range(-8, 9):
                got = twisted_length_left(reflection(d, (gamma, k)) * w, B) - lw
                assert got == a2.predicted_delta(w, gamma, k)


def test_class_delta_proof_passes():
    _, ok, detail = verify.check_class_deltas()
    assert ok, detail
    assert detail == "6 classes, 18 rays, every w and k; mismatches: []"


_CLASS_ENTRIES = [
    (tag, gamma, i)
    for tag, row in a2._CLASS_DELTAS.items()
    for gamma in row
    for i in (0, 1)
]


@pytest.mark.parametrize(
    "tag,gamma,i", _CLASS_ENTRIES,
    ids=[f"{tag}-{gamma}-{'slope' if i == 0 else 'const'}"
         for tag, gamma, i in _CLASS_ENTRIES],
)
def test_class_delta_proof_reports_each_entry(monkeypatch, tag, gamma, i):
    """Each of the 36 table entries, off by +1 or -1, fails the proof at
    exactly its (class, ray)."""
    entry = a2._CLASS_DELTAS[tag][gamma]
    for off in (1, -1):
        bad = entry[:i] + (entry[i] + off,) + entry[i + 1:]
        with monkeypatch.context() as m:
            m.setitem(a2._CLASS_DELTAS[tag], gamma, bad)
            _, ok, detail = verify.check_class_deltas()
        assert not ok
        assert f"[({tag!r}, {gamma!r}, " in detail, detail


def test_class_delta_proof_refuses_other_twisting_sets(monkeypatch):
    """The table holds for B = (Phi+)^hat alone: for another B the proof
    fails and reports the deltas it reads for B.  The complement's are the
    table negated, and those of s_1 . (Phi+)^hat at class T are class saT's
    row; the first three mismatches are class T's rays."""
    alcove = a2.alcove_biclosed()
    row = a2._CLASS_DELTAS["T"]
    for other, want in (
        (alcove.complement(), {g: (-s, -c) for g, (s, c) in row.items()}),
        (dot_action(from_word(alcove.datum, (1,)), alcove),
         a2._CLASS_DELTAS["saT"]),
    ):
        monkeypatch.setattr(a2, "alcove_biclosed", lambda: other)
        _, ok, detail = verify.check_class_deltas()
        shown = [("T", gamma, (0, 0, *delta)) for gamma, delta in want.items()]
        assert not ok and detail.endswith(f"mismatches: {shown}"), detail


# ----- oracle: the former alcove-only twisted length -------------------------


def _alcove_length(build, k0):
    """The former `verify._alcove_length`: l_B(w) for B = (Phi+)^hat as an
    affine form (c_p, c_q, c_k, c_0) in the parameters (p, q, k) of
    w = build(p, q, k), or None.

    Over mu > 0, N(w^{-1}) has the levels 0..t_mu, all in B, and over -mu
    the levels 1..t_{-mu}, none in B.  Where t_mu + t_{-mu} = -1 the pair
    adds max(0, t_{-mu}) - max(0, t_mu + 1) = t_{-mu} to l_B(w).
    """
    tops = affine_tops(lambda p, q, k: build(p, q, k).inverse(), 0)
    if tops is None:
        return None
    for mu, top in tops.items():
        pair = tuple(a + b for a, b in zip(top, tops[tuple(-x for x in mu)]))
        if pair != (0, 0, 0, -1):
            return None
    negative = [top for mu, top in tops.items() if k0[mu]]
    return tuple(map(sum, zip(*negative)))


def _alcove_k0():
    """The former `verify._alcove_k0`: k0 of the A2 roots (1 iff negative),
    or None if `a2`'s B is not (Phi+)^hat, the twisting set that
    `_alcove_length` assumes."""
    B = a2.alcove_biclosed()
    if not B.equals(full_positive_biclosed(B.datum)):
        return None
    return B.datum.weyl_table().k0


def test_affine_length_matches_the_alcove_formula(monkeypatch):
    """On every family the two rank-2 proofs read, the 6 class families,
    their 18 rays and the 48 coset families, `affine_length` gives the
    former alcove-only formula's form, never None."""
    k0 = _alcove_k0()
    read = []

    def recorded(build, B, _real=verify.affine_length):
        # the families are lambdas over loop variables: read them now
        read.append((_real(build, B), _alcove_length(build, k0)))
        return read[-1][0]

    monkeypatch.setattr(verify, "affine_length", recorded)
    assert verify.check_class_deltas()[1]
    assert len(read) == 6 + 18
    assert verify.check_dihedral_cosets()[1]
    assert len(read) == 6 + 18 + 48
    assert all(got == want is not None for got, want in read), read


def _random_family(datum, rng):
    """x t_{p a + q b + k c} y for random x, y and random a, b, c over the
    simple coroots: the finite part stays put."""
    x, y = random_element(datum, rng, 4), random_element(datum, rng, 4)
    a, b, c = ([rng.randint(-1, 1) for _ in range(datum.rank)] for _ in "abc")
    fin = datum.identity()
    return lambda p, q, k: x * AffineWeylElement(
        datum, fin, [p * i + q * j + k * l for i, j, l in zip(a, b, c)]
    ) * y


def test_affine_length_matches_twisted_length_pointwise():
    """On random families x t_{p a + q b + k c} y and random B of all four
    types, A3 Mixed included, every form `affine_length` returns is
    l_B(w) at 15 random points (p, q, k); draws go on until 20 forms have
    been seen, and at least one draw of each type gives None."""
    rng = random.Random(52)
    forms, none = 0, set()
    for draw in range(2000):
        label = ("A2", "A3", "B2", "G2")[draw % 4]
        B = random_biclosed(label, rng, mixed=label == "A3" and draw % 8 == 1)
        build = _random_family(B.datum, rng)
        form = affine_length(build, B)
        if form is None:
            none.add(label)
            continue
        for _ in range(15):
            point = [rng.randint(-4, 4) for _ in range(3)]
            want = sum(c * x for c, x in zip(form, point + [1]))
            assert twisted_length_left(build(*point), B) == want, (B, point)
        forms += 1
        if forms >= 20 and len(none) == 4:
            break
    assert forms >= 20 and len(none) == 4, (draw, forms, none)


def test_affine_tops_refuse_a_moving_finite_part():
    """The tops are affine only while the finite part stays put: a family
    whose finite part moves with p, q or k has no tops and no length."""
    d = a2.datum()
    s_a, t = from_word(d, (1,)), a2.translation
    B = a2.alcove_biclosed()
    for moving in (
        lambda p, q, k: t(p, q) * (s_a if p % 2 else identity(d)),
        lambda p, q, k: t(p, q) * (s_a if q % 2 else identity(d)),
        lambda p, q, k: (s_a if k % 2 else identity(d)) * t(k, p),
    ):
        assert affine_tops(moving, 0) is None
        assert affine_tops(moving, -1) is None
        assert affine_length(moving, B) is None


def test_twisted_class_deltas_are_a_right_translate_of_the_table():
    """For every u in W(A2) and every class c, the deltas of
    u . (Phi+)^hat at c that `affine_length` reads are the table's row at
    the class of c u: 6 x 6 classes x 3 rays."""
    alcove, datum = a2.alcove_biclosed(), a2.datum()
    rays = 0
    for u in a2._class_table().values():
        B = dot_action(u, alcove)
        for c in a2._class_table().values():
            z = lambda m1, m2, k: c * a2.translation(m1, m2)
            before = affine_length(z, B)
            for gamma, (slope, const) in a2._CLASS_DELTAS[a2.class_of(c * u)].items():
                after = affine_length(
                    lambda m1, m2, k: reflection(datum, (gamma, k)) * z(m1, m2, k),
                    B,
                )
                assert [x - y for x, y in zip(after, before)] == [0, 0, slope, const]
                rays += 1
    assert rays == 108


def test_closed_forms_match_inversion_sets():
    """The sampled oracle of verify's proof, on a smaller box."""
    evens = range(-4, 5, 2)
    ks = range(-4, 5)
    for name, family in a2.CLOSED_FORMS.items():
        in_domain = [
            k for k in ks if not family.k_sign or (k >= 0) == (family.k_sign > 0)
        ]
        if name == "t":
            params = [(k1, k2, 0) for k1 in evens for k2 in evens]
        elif name.startswith("t"):
            params = [(k1, k2, k) for k1 in evens for k2 in evens for k in in_domain]
        else:
            params = [(0, 0, k) for k in in_domain]
        for k1, k2, k in params:
            elem = a2.closed_form_element(name, k1, k2, k)
            assert a2.closed_form_set(name, k1, k2, k) == inversion_set(elem), (
                name, k1, k2, k,
            )


# ----- oracle: the former 102-chain table ------------------------------------

#: The former `a2.CLOSED_FORMS`: per family the chains (base, lo, hi) of
#: N(.), with hi an affine form (c_m1, c_m2, c_k, c_0); a base left out is
#: empty on the family's domain.
_FORMER_CHAINS = {
    's(a+kd), k>=0': (
        ((1, 0), 0, (0, 0, 2, 0)), ((0, -1), 1, (0, 0, 1, 0)),
        ((1, 1), 0, (0, 0, 1, -1)),
    ),
    's(a+kd), k<0': (
        ((-1, 0), 1, (0, 0, -2, -1)), ((0, 1), 0, (0, 0, -1, -1)),
        ((-1, -1), 1, (0, 0, -1, 0)),
    ),
    's(a+b+kd), k>=0': (
        ((1, 1), 0, (0, 0, 2, 0)), ((1, 0), 0, (0, 0, 1, 0)),
        ((0, 1), 0, (0, 0, 1, 0)),
    ),
    's(a+b+kd), k<0': (
        ((-1, -1), 1, (0, 0, -2, -1)), ((-1, 0), 1, (0, 0, -1, -1)),
        ((0, -1), 1, (0, 0, -1, -1)),
    ),
    's(b+kd), k>=0': (
        ((0, 1), 0, (0, 0, 2, 0)), ((-1, 0), 1, (0, 0, 1, 0)),
        ((1, 1), 0, (0, 0, 1, -1)),
    ),
    's(b+kd), k<0': (
        ((0, -1), 1, (0, 0, -2, -1)), ((1, 0), 0, (0, 0, -1, -1)),
        ((-1, -1), 1, (0, 0, -1, 0)),
    ),
    't': (
        ((1, 0), 0, (2, -1, 0, -1)), ((-1, 0), 1, (-2, 1, 0, 0)),
        ((0, 1), 0, (-1, 2, 0, -1)), ((0, -1), 1, (1, -2, 0, 0)),
        ((1, 1), 0, (1, 1, 0, -1)), ((-1, -1), 1, (-1, -1, 0, 0)),
    ),
    't.s(a+kd)': (
        ((1, 0), 0, (2, -1, 2, 0)), ((-1, 0), 1, (-2, 1, -2, -1)),
        ((0, 1), 0, (-1, 2, -1, -1)), ((0, -1), 1, (1, -2, 1, 0)),
        ((1, 1), 0, (1, 1, 1, -1)), ((-1, -1), 1, (-1, -1, -1, 0)),
    ),
    't.s(a+b+kd)': (
        ((1, 0), 0, (2, -1, 1, 0)), ((-1, 0), 1, (-2, 1, -1, -1)),
        ((0, 1), 0, (-1, 2, 1, 0)), ((0, -1), 1, (1, -2, -1, -1)),
        ((1, 1), 0, (1, 1, 2, 0)), ((-1, -1), 1, (-1, -1, -2, -1)),
    ),
    't.sa': (
        ((1, 0), 0, (2, -1, 0, 0)), ((-1, 0), 1, (-2, 1, 0, -1)),
        ((0, 1), 0, (-1, 2, 0, -1)), ((0, -1), 1, (1, -2, 0, 0)),
        ((1, 1), 0, (1, 1, 0, -1)), ((-1, -1), 1, (-1, -1, 0, 0)),
    ),
    't.sa.s(a+kd)': (
        ((1, 0), 0, (2, -1, -2, -1)), ((-1, 0), 1, (-2, 1, 2, 0)),
        ((0, 1), 0, (-1, 2, 1, -1)), ((0, -1), 1, (1, -2, -1, 0)),
        ((1, 1), 0, (1, 1, -1, -1)), ((-1, -1), 1, (-1, -1, 1, 0)),
    ),
    't.sa.s(b+kd)': (
        ((1, 0), 0, (2, -1, 1, 0)), ((-1, 0), 1, (-2, 1, -1, -1)),
        ((0, 1), 0, (-1, 2, 1, -1)), ((0, -1), 1, (1, -2, -1, 0)),
        ((1, 1), 0, (1, 1, 2, 0)), ((-1, -1), 1, (-1, -1, -2, -1)),
    ),
    't.sa.s(a+b+kd)': (
        ((1, 0), 0, (2, -1, -1, -1)), ((-1, 0), 1, (-2, 1, 1, 0)),
        ((0, 1), 0, (-1, 2, 2, 0)), ((0, -1), 1, (1, -2, -2, -1)),
        ((1, 1), 0, (1, 1, 1, 0)), ((-1, -1), 1, (-1, -1, -1, -1)),
    ),
    't.sa.sb': (
        ((1, 0), 0, (2, -1, 0, 0)), ((-1, 0), 1, (-2, 1, 0, -1)),
        ((0, 1), 0, (-1, 2, 0, -1)), ((0, -1), 1, (1, -2, 0, 0)),
        ((1, 1), 0, (1, 1, 0, 0)), ((-1, -1), 1, (-1, -1, 0, -1)),
    ),
    't.sa.sb.s(a+kd)': (
        ((1, 0), 0, (2, -1, -1, 0)), ((-1, 0), 1, (-2, 1, 1, -1)),
        ((0, 1), 0, (-1, 2, 2, 0)), ((0, -1), 1, (1, -2, -2, -1)),
        ((1, 1), 0, (1, 1, 1, 0)), ((-1, -1), 1, (-1, -1, -1, -1)),
    ),
    't.sa.sb.s(b+kd)': (
        ((1, 0), 0, (2, -1, -1, 0)), ((-1, 0), 1, (-2, 1, 1, -1)),
        ((0, 1), 0, (-1, 2, -1, -1)), ((0, -1), 1, (1, -2, 1, 0)),
        ((1, 1), 0, (1, 1, -2, -1)), ((-1, -1), 1, (-1, -1, 2, 0)),
    ),
    't.sa.sb.s(a+b+kd)': (
        ((1, 0), 0, (2, -1, -2, -1)), ((-1, 0), 1, (-2, 1, 2, 0)),
        ((0, 1), 0, (-1, 2, 1, 0)), ((0, -1), 1, (1, -2, -1, -1)),
        ((1, 1), 0, (1, 1, -1, -1)), ((-1, -1), 1, (-1, -1, 1, 0)),
    ),
    't.sa.sb.sa': (
        ((1, 0), 0, (2, -1, 0, 0)), ((-1, 0), 1, (-2, 1, 0, -1)),
        ((0, 1), 0, (-1, 2, 0, 0)), ((0, -1), 1, (1, -2, 0, -1)),
        ((1, 1), 0, (1, 1, 0, 0)), ((-1, -1), 1, (-1, -1, 0, -1)),
    ),
    't.sa.sb.sa.s(a+kd)': (
        ((1, 0), 0, (2, -1, 1, 0)), ((-1, 0), 1, (-2, 1, -1, -1)),
        ((0, 1), 0, (-1, 2, -2, -1)), ((0, -1), 1, (1, -2, 2, 0)),
        ((1, 1), 0, (1, 1, -1, 0)), ((-1, -1), 1, (-1, -1, 1, -1)),
    ),
    't.sa.sb.sa.s(a+b+kd)': (
        ((1, 0), 0, (2, -1, -1, -1)), ((-1, 0), 1, (-2, 1, 1, 0)),
        ((0, 1), 0, (-1, 2, -1, -1)), ((0, -1), 1, (1, -2, 1, 0)),
        ((1, 1), 0, (1, 1, -2, -1)), ((-1, -1), 1, (-1, -1, 2, 0)),
    ),
}


def _empty_on_domain(lo, hi, k_sign):
    """The former `verify._empty_on_domain`: hi(m1, m2, k) < lo for all
    integers m1, m2 and every k of the domain: no slope along a free
    direction, and below lo at the k endpoint."""
    c1, c2, ck, c0 = hi
    if c1 or c2 or (ck and ck * k_sign >= 0):
        return False
    return c0 + ck * min(k_sign, 0) < lo


def test_tops_restate_the_former_chains():
    """Each former chain starts at k0 of its base and ends at the base's
    top from `root_tops`, over every root; each base that a family leaves
    out is empty on the family's domain."""
    k0 = a2.datum().weyl_table().k0
    assert _FORMER_CHAINS.keys() == a2.CLOSED_FORMS.keys()
    assert sum(map(len, _FORMER_CHAINS.values())) == 102
    for name, chains in _FORMER_CHAINS.items():
        family = a2.CLOSED_FORMS[name]
        tops = a2.root_tops(family)
        assert tops.keys() == set(a2.datum().roots), name
        listed = {base: (lo, hi) for base, lo, hi in chains}
        assert len(listed) == len(chains), name
        for base, top in tops.items():
            if base in listed:
                assert listed[base] == (k0[base], top), (name, base)
            else:
                assert _empty_on_domain(k0[base], top, family.k_sign), (name, base)


@pytest.mark.parametrize("gamma", ("a", "b", "a+b"))
def test_reflection_tops_hold_for_every_k(monkeypatch, gamma):
    """The k >= 0 and k < 0 families of s(gamma + k delta) have the same
    tops, so the proof passes with either domain, or with every k."""
    pair = (f"s({gamma}+kd), k>=0", f"s({gamma}+kd), k<0")
    up, down = (a2.CLOSED_FORMS[name] for name in pair)
    assert up.tops == down.tops
    for k_sign in (-1, 1, 0):
        for name in pair:
            monkeypatch.setitem(
                a2.CLOSED_FORMS, name,
                a2.CLOSED_FORMS[name]._replace(k_sign=k_sign),
            )
        _, ok, detail = verify.check_inversion_formulas()
        assert ok, (k_sign, detail)


def _perturbed_tables():
    """(family name, perturbed family): each must fail the proof."""
    forms = a2.CLOSED_FORMS
    for name, i in (("t.sa.s(a+kd)", 0), ("t.sa.s(a+kd)", 1),
                    ("t.sa.s(a+kd)", 2), ("t.sa.s(a+kd)", 3),
                    ("s(b+kd), k<0", 2), ("s(b+kd), k<0", 3)):
        (mu, top), *rest = forms[name].tops.items()
        top = top[:i] + (top[i] + 1,) + top[i + 1:]
        yield f"{name} coefficient {i} off by one", name, forms[name]._replace(
            tops=dict([(mu, top), *rest]))
    # the last line of s(a+kd), k>=0 is empty at k = 0 but not beyond
    for name in ("t", "s(a+kd), k>=0"):
        *kept, _ = forms[name].tops.items()
        yield f"{name} line dropped", name, forms[name]._replace(tops=dict(kept))


@pytest.mark.parametrize(
    "name,family", [case[1:] for case in _perturbed_tables()],
    ids=[case[0] for case in _perturbed_tables()],
)
def test_inversion_proof_reports_perturbed_family(monkeypatch, name, family):
    monkeypatch.setitem(a2.CLOSED_FORMS, name, family)
    _, ok, detail = verify.check_inversion_formulas()
    assert not ok and repr(name) in detail, detail


def test_inversion_proof_needs_a_fixed_finite_part(monkeypatch):
    """Tops are affine in the parameters only while the finite part stays
    put; an element whose finite part moves with k is reported."""
    real = a2.closed_form_element
    s_a = from_word(a2.datum(), (1,))
    monkeypatch.setattr(
        a2, "closed_form_element",
        lambda name, k1, k2, k: real(name, k1, k2, k) * (s_a if k % 2 else s_a * s_a),
    )
    _, ok, detail = verify.check_inversion_formulas()
    assert not ok and "finite part moves" in detail, detail


def test_translation_inversion_even_parameters():
    for k1 in range(-6, 7, 2):
        for k2 in range(-6, 7, 2):
            elem = a2.root_translation(k1, k2)
            assert a2.translation_inversion(k1, k2) == inversion_set(elem)


def test_root_translation_rejects_odd():
    with pytest.raises(ValueError):
        a2.root_translation(1, 0)
    # the closed forms take the same even parameters, and k inside the domain
    for call in (
        lambda: a2.translation_inversion(0, 3),
        lambda: a2.closed_form_set("t.sa", 1, 0),
        lambda: a2.closed_form_element("t.sa.sb", 2, -1, 0),
        lambda: a2.closed_form_set("s(a+kd), k>=0", 0, 0, -1),
        lambda: a2.closed_form_element("s(b+kd), k<0", 0, 0, 0),
    ):
        with pytest.raises(ValueError):
            call()


def test_sphericity_frozen_examples(setup):
    d, B = setup
    cases = (
        ((2,), (2, 3, 2), "Spherical"),
        ((1, 2), (2, 1, 3, 2), "NonSpherical"),
        ((3, 2, 1), (3, 1), "Spherical"),
        ((2, 3), (2, 3, 1, 2, 3), "NonSpherical"),
    )
    for lo, hi, want in cases:
        poset = interval(from_word(d, lo), from_word(d, hi), B)
        assert a2.sphericity(poset) == want


def test_sphericity_rejects_long_intervals(setup):
    d, B = setup
    x = identity(d)
    for _ in range(4):
        x = upper_covers(x, B)[0][1]
    poset = interval(identity(d), x, B)
    with pytest.raises(a2.UnsupportedLength):
        a2.sphericity(poset)


# ----- oracle: the former greedy coset descent -------------------------------


def _u_subgroup_positive_roots(level_bound: int):
    """Positive roots of U = <v, u>: the (a+b) +- k delta lines."""
    out = []
    for k in range(0, level_bound + 1):
        out.append((a2.AB, k))
    for k in range(1, level_bound + 1):
        out.append(((-1, -1), k))
    return out


def greedy_decompose(w):
    """Write w = w(i)^{-1} z with z in U = <v, u>, w(i)^{-1} minimal in wU,
    by a greedy descent of products; (i, z_word, form, k)."""
    u, v = a2.u_element(), a2.v_element()
    m = w
    letters = []
    while True:
        if (m * u).length() < m.length():
            m = m * u
            letters.append("u")
        elif (m * v).length() < m.length():
            m = m * v
            letters.append("v")
        else:
            break
    # minimality in wU: m sends no root on the (a+b) lines negative
    bound = m.max_inversion_level() + 1
    if any(
        m.inverse().in_inversion_set(r)
        for r in _u_subgroup_positive_roots(bound)
    ):
        raise CertificationFailed(
            "greedy coset descent did not reach the minimal representative"
        )
    z_word = tuple(reversed(letters))
    if any(x == y for x, y in zip(z_word, z_word[1:])):
        raise CertificationFailed(f"non-alternating U-word {z_word}")
    i = match_prefix_index(m)
    if not z_word:
        form, k = "(uv)^k", 0
    elif z_word[0] == "u" and z_word[-1] == "u":
        form, k = "u(vu)^k", (len(z_word) - 1) // 2
    elif z_word[0] == "v" and z_word[-1] == "v":
        form, k = "v(uv)^k", (len(z_word) - 1) // 2
    elif z_word[0] == "v":
        form, k = "(vu)^k", len(z_word) // 2
    else:
        form, k = "(uv)^k", len(z_word) // 2
    return i, z_word, form, k


def match_prefix_index(m):
    """The i with w(i)^{-1} = m.  w(i) is a prefix of a power of a Coxeter
    element, hence reduced of length |i|, so i is -l(m) or l(m)."""
    n = m.length()
    for i in (-n, n):
        if a2.coset_prefix(i).inverse() == m:
            return i
    raise AssertionError("coset minimum is not a w(i)^{-1}")


def _scan_prefix_index(m):
    """The window scan, as the oracle of `match_prefix_index`: the first i
    in [-l(m) - 2, l(m) + 2] with w(i)^{-1} = m, or None."""
    bound = m.length() + 2
    for i in range(-bound, bound + 1):
        if a2.coset_prefix(i).inverse() == m:
            return i
    return None


def dihedral_reassemble(dec):
    w = a2.coset_prefix(dec.i).inverse()
    parts = {"u": a2.u_element(), "v": a2.v_element()}
    for letter in dec.u_v_word:
        w = w * parts[letter]
    return w


def _fields(dec):
    return dec.i, dec.u_v_word, dec.form, dec.k


def test_dihedral_decomposition_roundtrip_and_length(setup):
    d, B = setup
    rng = random.Random(52)
    forms = set()
    for _ in range(400):
        w = rand_elem(d, rng, 12)
        dec = a2.dihedral_decompose(w)
        assert _fields(dec) == greedy_decompose(w)
        assert dihedral_reassemble(dec) == w
        assert dec.predicted_twisted_length() == twisted_length_left(w, B)
        # alternating u/v word
        assert all(x != y for x, y in zip(dec.u_v_word, dec.u_v_word[1:]))
        forms.add(dec.form)
    assert forms == {"u(vu)^k", "(vu)^k", "v(uv)^k", "(uv)^k"}


def test_dihedral_decomposition_matches_greedy_on_ball(setup):
    d, _ = setup
    ball = length_ball(d, 12)
    assert len(ball) == 235
    for w in ball:
        assert _fields(a2.dihedral_decompose(w)) == greedy_decompose(w), w


def test_dihedral_decompose_refuses_an_ambiguous_tiling(monkeypatch):
    """Two candidates that both fit w, or none, are a certification failure."""
    d = a2.datum()
    candidates = a2._coset_candidates()
    monkeypatch.setattr(a2, "_coset_candidates", lambda: candidates * 2)
    with pytest.raises(CertificationFailed, match="2 dihedral coset"):
        a2.dihedral_decompose(identity(d))
    monkeypatch.setattr(a2, "_coset_candidates", lambda: ())
    with pytest.raises(CertificationFailed, match="0 dihedral coset"):
        a2.dihedral_decompose(identity(d))


def test_match_prefix_index_matches_scan(setup):
    """On every element m of the length-9 ball, the two candidates -l(m)
    and l(m) find the index the window scan finds, and both reject the
    elements that are no w(i)^{-1}."""
    d, _ = setup
    ball = length_ball(d, 9)
    matched = 0
    for m in ball:
        want = _scan_prefix_index(m)
        if want is None:
            with pytest.raises(AssertionError):
                match_prefix_index(m)
        else:
            assert match_prefix_index(m) == want
            assert abs(want) == m.length()
            matched += 1
    assert matched == 19  # w(i)^{-1} for |i| <= 9


def test_coset_prefix_inverses_are_minimal():
    for i in range(-6, 7):
        m = a2.coset_prefix(i).inverse()
        dec = a2.dihedral_decompose(m)
        assert dec.i == i and dec.u_v_word == ()


def test_dihedral_proof_passes():
    name, ok, detail = verify.check_dihedral_cosets()
    assert (name, ok) == ("dihedral cosets", True), detail
    assert detail == (
        "24 candidates tile 12 classes once; 48 families, every i and k; "
        "mismatches: []"
    )


_FORM_ENTRIES = [
    (form, entry) for form in a2._FORM_LENGTHS
    for entry in ("slope", "even", "odd")
]


@pytest.mark.parametrize(
    "form,entry", _FORM_ENTRIES,
    ids=[f"{form}-{entry}" for form, entry in _FORM_ENTRIES],
)
def test_dihedral_proof_reports_each_entry(monkeypatch, form, entry):
    """Each of the 12 table entries, off by +1 or -1, fails the proof at
    its form and at the parities it feeds: a slope at both."""
    slope, const = a2._FORM_LENGTHS[form]
    for off in (1, -1):
        if entry == "slope":
            bad, parities = (slope + off, const), ("even", "odd")
        elif entry == "even":
            bad, parities = (slope, (const[0] + off, const[1])), ("even",)
        else:
            bad, parities = (slope, (const[0], const[1] + off)), ("odd",)
        with monkeypatch.context() as m:
            m.setitem(a2._FORM_LENGTHS, form, bad)
            _, ok, detail = verify.check_dihedral_cosets()
        assert not ok
        assert detail.endswith(
            f"mismatches: {[(form, p) for p in parities]!r}"
        ), detail


_CANDIDATES = a2._coset_candidates()


@pytest.mark.parametrize("drop", range(len(_CANDIDATES)))
def test_dihedral_proof_reports_a_missing_candidate(monkeypatch, drop):
    """Without any one candidate, its class keeps a single ray."""
    rest = _CANDIDATES[:drop] + _CANDIDATES[drop + 1:]
    monkeypatch.setattr(a2, "_coset_candidates", lambda: rest)
    _, ok, detail = verify.check_dihedral_cosets()
    assert not ok and detail.startswith("class (") and "has rays [s=" in detail


def test_dihedral_proof_reports_a_shifted_ray(monkeypatch):
    """A candidate whose least j is off leaves a gap or an overlap."""
    for shift in (1, -1):
        moved = [
            (s, r, j0 + shift if i == 0 else j0, y, b)
            for i, (s, r, j0, y, b) in enumerate(_CANDIDATES)
        ]
        monkeypatch.setattr(a2, "_coset_candidates", lambda: moved)
        _, ok, detail = verify.check_dihedral_cosets()
        assert not ok and "has rays" in detail, detail


def test_dihedral_proof_checks_the_candidates(monkeypatch):
    """A candidate b that is not w(s r)^{-1} y fails the identities."""
    (s, r, j0, y, b), *rest = _CANDIDATES
    wrong = (s, r, j0, y, b * a2.u_element())
    monkeypatch.setattr(a2, "_coset_candidates", lambda: (wrong, *rest))
    _, ok, detail = verify.check_dihedral_cosets()
    assert (ok, detail) == (False, "a coset identity fails")


def uvk_u_wi_inversion(k: int, i: int):
    """Closed form for N((uv)^k u w(i)) from the coset-length computation."""
    fi, ci = i // 2, -(-i // 2)  # i / 2 rounded down and up
    return a2._chain_set((
        (a2.ALPHA, 0, k - ci),
        (a2.BETA, 0, k + fi),
        (a2.AB, 0, 2 * k),
        ((-1, 0), 1, ci - k - 1),
        ((0, -1), 1, -fi - k - 1),
    ))


def test_uvk_u_wi_inversion_closed_form(setup):
    d, _ = setup
    u, v = a2.u_element(), a2.v_element()
    for k in range(0, 4):
        for i in range(-5, 6):
            w = identity(d)
            for _ in range(k):
                w = w * u * v
            w = w * u * a2.coset_prefix(i)
            assert uvk_u_wi_inversion(k, i) == inversion_set(w)


# ----- automorphisms of the alcove order ------------------------------------

_SIGMA = {1: 2, 2: 3, 3: 1}
_SIGMA_INV = {1: 3, 2: 1, 3: 2}


def sigma(w, inverse=False):
    """The order-3 diagram rotation s_3 -> s_1 -> s_2 -> s_3."""
    table = _SIGMA_INV if inverse else _SIGMA
    return from_word(a2.datum(), tuple(table[a] for a in w.word()))


def automorphism(kind, w):
    """sigma / eta / eta_prime / rho -- automorphisms of the alcove order.

    eta(w) = sigma(w) s_a s_b and eta_prime(w) = sigma^{-1}(w) s_b s_a both
    lower l_B by 2; rho = eta o eta_prime^{-1} preserves l_B and shifts the
    coset-prefix index i by 2 while fixing the U-factor.
    """
    d = a2.datum()
    sasb = from_word(d, (1, 2))
    sbsa = from_word(d, (2, 1))
    if kind == "sigma":
        return sigma(w)
    if kind == "eta":
        return sigma(w) * sasb
    if kind == "eta_prime":
        return sigma(w, inverse=True) * sbsa
    if kind == "eta_prime_inv":
        return sigma(w * sasb)
    if kind == "rho":
        return automorphism("eta", automorphism("eta_prime_inv", w))
    raise ValueError(f"unknown automorphism kind: {kind}")


def test_automorphism_lengths(setup):
    d, B = setup
    rng = random.Random(53)
    for _ in range(100):
        w = rand_elem(d, rng, 10)
        lb = twisted_length_left(w, B)
        assert twisted_length_left(automorphism("eta", w), B) == lb - 2
        assert twisted_length_left(automorphism("eta_prime", w), B) == lb - 2
        assert twisted_length_left(automorphism("rho", w), B) == lb


def test_automorphisms_preserve_order(setup):
    """eta and rho carry cover pairs to comparable pairs."""
    d, B = setup
    rng = random.Random(54)
    for _ in range(40):
        w = rand_elem(d, rng, 6)
        ups = upper_covers(w, B)
        if not ups:
            continue
        _, w2 = rng.choice(ups)
        for kind in ("eta", "eta_prime", "rho"):
            assert strong_leq(
                automorphism(kind, w), automorphism(kind, w2), B
            )


def test_rho_shifts_coset_index(setup):
    d, _ = setup
    u, v = a2.u_element(), a2.v_element()
    for i in range(-5, 6):
        for z in (identity(d), u, v, u * v, v * u):
            w = a2.coset_prefix(i).inverse() * z
            dec0 = a2.dihedral_decompose(w)
            dec1 = a2.dihedral_decompose(automorphism("rho", w))
            assert dec1.i == dec0.i + 2
            assert dec1.u_v_word == dec0.u_v_word


def test_eta_prime_inv_roundtrip(setup):
    d, _ = setup
    rng = random.Random(55)
    for _ in range(50):
        w = rand_elem(d, rng, 8)
        assert automorphism("eta_prime_inv", automorphism("eta_prime", w)) == w


def test_sigma_is_a_homomorphism(setup):
    d, _ = setup
    rng = random.Random(56)
    for _ in range(30):
        x, y = rand_elem(d, rng, 6), rand_elem(d, rng, 6)
        assert sigma(x * y) == sigma(x) * sigma(y)
        assert sigma(sigma(x, inverse=True)) == x


def test_poincare_series_frozen():
    assert a2.poincare_series("even", 8) == [1, 2, 4, 5, 7, 8, 10, 11, 13]
    assert a2.poincare_series("odd", 8) == [1, 3, 4, 6, 7, 9, 10, 12, 13]
    r1, r2 = a2.poincare_recursion_residual(10)
    assert not any(r1) and not any(r2)
    with pytest.raises(ValueError):
        a2.poincare_series("both", 4)


def test_figure_hasse_fragment():
    poset = a2.figure_hasse(6)
    labels = {n.label for n in poset.nodes}
    assert set(a2.FIGURE_LABELS) <= labels
    assert poset.check_grading()
    kinds = {e.kind for e in poset.edges}
    assert kinds == {"weak", "strong"}
    grade = {n.label: n.grade for n in poset.nodes}
    assert grade["e"] == 0 and grade["3"] == 1 and grade["1"] == -1
