"""The (2,3,inf) Coxeter backend and the infinite-interval witness."""

import functools
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from twisted_bruhat import generic


@pytest.fixture(scope="module")
def cm():
    return generic.coxeter_2_3_inf()


def test_coxeter_matrix_validation():
    with pytest.raises(ValueError):
        generic.CoxeterMatrix(2, ((2, 3), (3, 1)))  # bad diagonal
    with pytest.raises(ValueError):
        generic.CoxeterMatrix(2, ((1, 3), (4, 1)))  # asymmetric / bad bond


def test_defining_relations(cm):
    s1, s2, s3 = generic.simple_reflections(cm)
    e = generic.identity(cm)
    for s in (s1, s2, s3):
        assert s * s == e
    p12 = s1 * s2
    assert p12 * p12 * p12 == e
    assert (s1 * s3) * (s1 * s3) == e
    # s2 s3 has infinite order: no small power is trivial
    p23 = s2 * s3
    q = p23
    for _ in range(20):
        assert not q.is_identity()
        q = q * p23


def test_word_length_and_inversions(cm):
    rng = random.Random(61)
    for _ in range(60):
        word = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 10)))
        w = generic.from_word(cm, word)
        assert w.length() == len(w.word()) <= len(word)
        assert len(generic.inversion_roots(w)) == w.length()
        assert generic.from_word(cm, w.word()) == w
        assert len(generic.n_tilde(w)) == w.length()


def test_inverse_and_product(cm):
    rng = random.Random(62)
    for _ in range(40):
        a = generic.from_word(cm, tuple(rng.randint(1, 3) for _ in range(6)))
        b = generic.from_word(cm, tuple(rng.randint(1, 3) for _ in range(6)))
        assert (a * b).inverse() == b.inverse() * a.inverse()
        assert a * a.inverse() == generic.identity(cm)


def test_integer_arithmetic(cm):
    """Columns and roots are ints, and inner() is twice the norm-1 Gram form."""
    rng = random.Random(63)
    for _ in range(20):
        w = generic.from_word(cm, tuple(rng.randint(1, 3) for _ in range(8)))
        for col in w.imgs + w.inv_imgs:
            assert all(type(x) is int for x in col)
    pool = generic._root_pool(cm, 6)
    assert all(type(x) is int for r in pool for x in r)
    half_gram = {1: Fraction(1), 2: Fraction(0), 3: Fraction(-1, 2),
                 generic.INF: Fraction(-1)}
    for _ in range(40):
        u, v = rng.choice(pool), rng.choice(pool)
        old = sum(u[i] * half_gram[cm.bonds[i][j]] * v[j]
                  for i in range(3) for j in range(3))
        assert generic.inner(cm, u, v) == 2 * old


def test_r_generators_canonical_and_universal(cm):
    sub = generic.w_prime(cm)
    assert generic.universal_check(sub, budget=12)
    assert generic.universal_check(sub, budget=0)
    # a negative budget is an error, not a vacuous pass
    with pytest.raises(ValueError, match="budget must be >= 0"):
        generic.universal_check(sub, budget=-1)
    for t in sub.generators:
        assert generic.canonical_check(sub, t)
    r1, r2, r3 = sub.generators
    assert r1.word() == (1,)
    assert r2.word() == (2, 3, 2)
    assert r3.word() == (3, 2, 3, 2, 3)


def test_n_tilde_quotes(cm):
    """Frozen: the proper parts of Ntilde(r_i)."""
    sub = generic.w_prime(cm)
    r1, r2, r3 = sub.generators
    fw = lambda *w: generic.from_word(cm, w)
    assert generic.n_tilde(r1) == {r1}
    assert generic.n_tilde(r2) - {r2} == {fw(2), fw(2, 3, 2, 3, 2)}
    assert generic.n_tilde(r3) - {r3} == {
        fw(3), fw(3, 2, 3), fw(3, 2, 3, 2, 3, 2, 3), fw(3, 2, 3, 2, 3, 2, 3, 2, 3),
    }


def test_target_is_straight_with_expected_lengths(cm):
    w = generic.target_element(cm)
    assert w.word() == (1, 2, 3, 2, 3, 2, 3, 2, 3)
    assert generic.is_straight_word(w)
    assert generic.twisted_length_A(generic.identity(cm), w) == 0
    assert generic.twisted_length_A(w, w) == -9


def test_quoted_A_reflections(cm):
    sub = generic.w_prime(cm)
    w = generic.target_element(cm)
    begin = set(generic.n_tilde_A_in_subgroup(w, sub, depth=3))
    r1, r2, r3 = sub.generators
    for need in (r1, r1 * r2 * r1, r1 * r2 * r3 * r2 * r1,
                 r1 * r2 * r3 * r1 * r3 * r2 * r1):
        assert need in begin


def test_in_A_membership(cm):
    w = generic.target_element(cm)
    # the simple root a1 is an inversion of w itself, hence of w^inf
    assert generic.in_A(w, (1, 0, 0))


def test_budget_exceeded(cm):
    w = generic.from_word(cm, (2, 3) * 33)
    assert w.length() == 66
    with pytest.raises(generic.BudgetExceeded):
        generic.n_tilde(w)


def test_interval_growth_first_steps(cm):
    """Frozen prefix of the growth table (budgets kept small for speed)."""
    table = generic.interval_growth(cm, budgets=(6, 8, 9))
    assert [rec["count"] for rec in table] == [0, 15, 17]
    assert "1.2.3.2.3.2.3.2" in table[1]["new_elements"]
    assert "e" in table[1]["new_elements"]


# ----- oracles: the loops before the per-call memo and the root-based check --


def _saturate_oracle(seed, pool, lA, direction, stop_level, max_len):
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
                if z2 in seen or z2.length() > max_len:
                    continue
                if lA(z2) == lz + direction:
                    seen.add(z2)
                    nxt.append(z2)
        frontier = nxt
    return seen


def _interval_growth_oracle(cm, budgets):
    """interval_growth with a plain twisted_length_A per candidate."""
    w = generic.target_element(cm)
    e = generic.identity(cm)
    lA = lambda z: generic.twisted_length_A(z, w)
    l_e, l_t = lA(e), lA(w)
    lo, hi = (e, w) if l_e <= l_t else (w, e)
    lo_l, hi_l = min(l_e, l_t), max(l_e, l_t)
    found, up_seen, down_seen, records = [], {lo}, {hi}, []
    for L in budgets:
        pool = [generic.reflection_in(cm, g) for g in generic._root_pool(cm, L)]
        up_seen |= _saturate_oracle(up_seen, pool, lA, +1, hi_l, L)
        down_seen |= _saturate_oracle(down_seen, pool, lA, -1, lo_l, L)
        new = sorted(
            (z for z in up_seen & down_seen if z not in found),
            key=lambda z: (z.length(), z.word()),
        )
        found.extend(new)
        records.append({
            "budget": L,
            "count": len(found),
            "new_elements": [".".join(map(str, z.word())) or "e" for z in new],
        })
    return records


def _canonical_check_oracle(sub, t):
    """Ntilde(t) ∩ T_{W'} = {t}, with each reflection's root re-derived
    through its reduced word."""
    own = generic.n_tilde(t)
    if t not in own:
        return False
    sub_roots = sub.positive_roots_to_depth(t.length() + 2)
    return {r for r in own if generic._reflection_root(r) in sub_roots} == {t}


@pytest.mark.parametrize("budgets", [(3,), (4,), (6, 8)])
def test_interval_growth_matches_oracle(cm, budgets):
    assert generic.interval_growth(cm, budgets) == _interval_growth_oracle(cm, budgets)


def test_canonical_check_matches_oracle(cm):
    sub = generic.w_prime(cm)
    # both sides search the same truncated Phi_{W'}^+; build each depth once
    sub.positive_roots_to_depth = functools.lru_cache(maxsize=None)(
        sub.positive_roots_to_depth
    )
    verdicts = []
    for root in generic._root_pool(cm, 5):
        t = generic.reflection_in(cm, root)
        verdicts.append(generic.canonical_check(sub, t))
        assert verdicts[-1] == _canonical_check_oracle(sub, t), root
    assert True in verdicts and False in verdicts
    # non-reflections are never canonical
    for word in ((1, 2), (2, 3, 2, 3), (1, 2, 3, 2, 3, 2, 3, 2, 3)):
        z = generic.from_word(cm, word)
        assert generic.canonical_check(sub, z) is _canonical_check_oracle(sub, z) is False


def _descends_to_a_simple_root(cm, v):
    """The root oracle: a vector of one sign, made positive, is a root iff
    reflecting it in a simple root that pairs positively with it, step by
    step, keeps it positive and ends at a simple root.  For a root other
    than a_i, s_i(v) is again a positive root, and each step lowers the
    height."""
    if all(x <= 0 for x in v):
        v = tuple(-x for x in v)
    simples = [generic._simple_vec(cm, i) for i in range(cm.rank)]
    while v not in simples:
        if any(x < 0 for x in v):
            return False
        a = next((a for a in simples if generic.inner(cm, v, a) > 0), None)
        if a is None:
            return False
        v = generic.reflect_in_root(cm, a, v)
    return True


def _is_refused(cm, v):
    try:
        generic.reflection_in(cm, v)
    except ValueError:
        return True
    return False


def test_reflection_in_refuses_non_roots(cm):
    """Every root of the depth-10 pool and its negative is taken, so is
    every root the benchmark's canonical queries name, and on every vector
    with coordinates in -7..7 the check agrees with the descent oracle, on
    (2,3,inf) and on A1 x affine A1."""
    pool = generic._root_pool(cm, 10)
    assert len(pool) == 145
    pool_file = Path(__file__).resolve().parents[1] / "bench" / "pool.json"
    strata = json.loads(pool_file.read_text())["coxeter-growth"]["strata"]
    queried = [
        tuple(entry["q"]["root"])
        for stratum in strata for entry in stratum["queries"]
        if entry["q"]["op"] == "canonical"
    ]
    assert len(queried) == 10
    for root in pool + queried:
        for v in (root, tuple(-x for x in root)):
            assert not _is_refused(cm, v), v
            assert generic.reflection_in(cm, v).apply(v) == tuple(-x for x in v)
    for v in ((1, 1, 1), (2, 0, 0), (0, 0, 0), (1, -1, 0)):
        assert _is_refused(cm, v), v
    # a vector of the wrong length built a malformed element
    for v in ((1, 0), (0, 1, 0, 0), ()):
        assert _is_refused(cm, v), v
    # no vector of mixed signs has doubled norm 2 here; in A1 x affine A1,
    # (-1, 1, 1) does
    inf = generic.INF
    other = generic.CoxeterMatrix(3, ((1, 2, 2), (2, 1, inf), (2, inf, 1)))
    assert generic.inner(other, (-1, 1, 1), (-1, 1, 1)) == 2
    assert _is_refused(other, (-1, 1, 1))
    # there, (1, 1, 1) has doubled norm 2 and one sign, but is no root
    assert generic.inner(other, (1, 1, 1), (1, 1, 1)) == 2
    assert _is_refused(other, (1, 1, 1))
    # non-roots that the former norm-and-sign test took, per matrix
    norm_and_sign_only = {}
    for matrix in (cm, other):
        n = 0
        for v in itertools.product(range(-7, 8), repeat=3):
            descends = _descends_to_a_simple_root(matrix, v)
            assert _is_refused(matrix, v) != descends, (matrix.bonds, v)
            if descends:
                assert generic.reflection_in(matrix, v).apply(v) == tuple(-x for x in v)
            elif generic.inner(matrix, v, v) == 2 and (min(v) >= 0 or max(v) <= 0):
                n += 1
        norm_and_sign_only[matrix] = n
    assert norm_and_sign_only == {cm: 0, other: 14}


def test_canonical_check_length_budget(cm):
    """No length budget: a reflection of length 67 gets its verdict."""
    sub = generic.w_prime(cm)
    long_reflection = generic.from_word(cm, (2, 3) * 33 + (2,))
    assert long_reflection.length() == 67
    assert generic.canonical_check(sub, long_reflection) is False


def test_canonical_check_rejects_non_canonical_generators(cm):
    """a1 and a1 + a2 pair positively, so they are not the canonical simple
    roots of the subgroup they generate."""
    sub = generic.ReflectionSubgroup(cm, (
        generic.reflection_in(cm, (1, 0, 0)),
        generic.reflection_in(cm, (1, 1, 0)),
    ))
    with pytest.raises(ValueError):
        generic.canonical_check(sub, sub.generators[0])


# ----- oracles: word, from_word and inversion_roots by group products -------


def _word_oracle(w):
    gens = generic.simple_reflections(w.cm)
    out = []
    while not w.is_identity():
        i = next(i for i in range(w.cm.rank) if not generic.is_positive_root(
            w.inv_apply(generic._simple_vec(w.cm, i))))
        out.append(i + 1)
        w = gens[i] * w
    return tuple(out)


def _from_word_oracle(cm, letters):
    gens = generic.simple_reflections(cm)
    w = generic.identity(cm)
    for a in letters:
        w = w * gens[a - 1]
    return w


def _inversion_roots_oracle(w):
    gens = generic.simple_reflections(w.cm)
    prefix, out = generic.identity(w.cm), []
    for a in _word_oracle(w):
        out.append(prefix.apply(generic._simple_vec(w.cm, a - 1)))
        prefix = prefix * gens[a - 1]
    return out


@pytest.fixture
def cox_products(monkeypatch):
    """A list that grows by one entry per CoxElement product."""
    calls = []
    mul = generic.CoxElement.__mul__

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(generic.CoxElement, "__mul__", counted)
    return calls


def test_walks_match_product_oracles(cm):
    rng = random.Random(64)
    words = [()] + [
        tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 20)))
        for _ in range(300)
    ]
    for letters in words:
        w = generic.from_word(cm, letters)
        ref = _from_word_oracle(cm, letters)
        assert (w.imgs, w.inv_imgs, hash(w)) == (ref.imgs, ref.inv_imgs, hash(ref))
        fresh = generic.CoxElement(cm, ref.imgs, ref.inv_imgs)
        assert fresh.word() == _word_oracle(ref), letters
        assert generic.inversion_roots(w) == _inversion_roots_oracle(ref)


def test_walks_take_no_products(cm, cox_products):
    rng = random.Random(65)
    for _ in range(50):
        letters = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 20)))
        w = generic.from_word(cm, letters)
        w.word(), w.length(), generic.inversion_roots(w), generic.n_tilde(w)
    assert cox_products == []


@pytest.mark.parametrize("letter", [0, -1, 4])
def test_from_word_rejects_letters_out_of_range(cm, letter):
    """Letter 0 would index s3 and -1 would index s2; 4 has no generator."""
    with pytest.raises(ValueError, match="letter out of range"):
        generic.from_word(cm, (1, letter))


def test_simple_reflections_cached(cm):
    assert generic.simple_reflections(cm) is generic.simple_reflections(cm)
