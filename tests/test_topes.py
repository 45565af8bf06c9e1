"""Hemispaces, tope blocks, convexity certificates, and the tope figure."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from twisted_bruhat import (
    BiclosedSet,
    PosetEdge,
    build_system,
    dot_action,
    from_inversion_set,
    from_word,
    full_positive_biclosed,
    identity,
    inversion_set,
    weak_leq,
)
from twisted_bruhat import topes
from twisted_bruhat.affine_group import (
    AffineWeylElement,
    is_positive_affine,
    left_reflections,
    negate,
    reflection,
    simple_reflections,
)
from twisted_bruhat.biclosed import parse_biclosed, reflect
from twisted_bruhat.biclosed import reflected_pairs
from twisted_bruhat.finite import _span_roots, enumerate_P_triples
from twisted_bruhat.linprog import (
    CertificationFailed,
    ConeCertificate,
    _dot,
    cone_membership,
)
from conftest import random_biclosed, random_element


# ----- oracles: partition and oriented-matroid axiom spot checks -----------


def partition_check(H, level: int) -> bool:
    """Exactly one of r, -r belongs to H, for all roots to the level."""
    return all(
        H.contains(r) != H.contains(negate(r))
        for r in topes.positive_roots_to_level(H.datum, level)
    )


def _closure(datum, subset, universe):
    gens = [topes._vec(r) for r in subset]
    return frozenset(
        r for r in universe
        if cone_membership(gens, topes._vec(r)).feasible
    )


def closure_axiom_check(datum, level: int, samples: int, seed=0):
    """Spot-check the four oriented-matroid axioms for cone closure on the
    roots of level <= `level`: (i) finite support, (ii) cx(X)* = cx(X*),
    (iii) x in cx(X u {x*}) => x in cx(X), (iv) exchange."""
    rng = random.Random(seed)
    universe = topes.all_roots_to_level(datum, level)
    for _ in range(samples):
        X = rng.sample(universe, rng.randint(1, 4))
        cx = _closure(datum, X, universe)
        # (i): witnessed by the LP's finite support; assert membership of X.
        if not set(X) <= cx:
            return False
        # (ii)
        cx_neg = _closure(datum, [negate(r) for r in X], universe)
        if frozenset(negate(r) for r in cx) != cx_neg:
            return False
        # (iii)
        x = rng.choice(universe)
        with_star = _closure(datum, X + [negate(x)], universe)
        # x in cx(X u {x*}) must force x in cx(X)
        if x in with_star and x not in cx and negate(x) not in X:
            return False
        # (iv) exchange
        y = rng.choice(universe)
        base = [r for r in X if r != y]
        cx_base = _closure(datum, base, universe)
        cx_with_ystar = _closure(datum, base + [negate(y)], universe)
        if x in cx_with_ystar and x not in cx_base:
            cx_exch = _closure(datum, base + [negate(x)], universe)
            if y not in cx_exch:
                return False
    return True


@pytest.fixture(scope="module")
def a2():
    return build_system("A2")


def test_partition_and_negation(a2):
    rng = random.Random(81)
    for _ in range(6):
        H = topes.from_biclosed(random_biclosed("A2", rng))
        assert partition_check(H, 6)
        N = H.negated()
        for r in topes.all_roots_to_level(a2, 4):
            assert N.contains(r) != H.contains(r)


def test_symdiff_properties(a2):
    rng = random.Random(82)
    base = topes.from_biclosed(from_inversion_set(identity(a2)))
    for _ in range(8):
        w = random_element(a2, rng, 5)
        H = topes.from_biclosed(from_inversion_set(w))
        assert topes.symdiff_positive(H, H) == frozenset()
        d1 = topes.symdiff_positive(H, base)
        d2 = topes.symdiff_positive(base, H)
        assert d1 == d2


def test_symdiff_with_empty_base_is_N(a2):
    """symdiff(Plus(N(w)), Plus(N(e))) = N(w)."""
    rng = random.Random(83)
    base = topes.from_biclosed(from_inversion_set(identity(a2)))
    for _ in range(10):
        w = random_element(a2, rng, 6)
        H = topes.from_biclosed(from_inversion_set(w))
        assert topes.symdiff_positive(H, base) == inversion_set(w)


def scan_symdiff(F, G):
    """The level scan: every positive root up to two levels past both
    oracles' variation bounds, DifferentBlocks if the margin disagrees."""
    bound = max(F.level_bound(), G.level_bound())
    out = set()
    for r in topes.positive_roots_to_level(F.datum, bound + 2):
        if F.contains(r) != G.contains(r):
            if r[1] > bound:
                raise topes.DifferentBlocks("different blocks")
            out.add(r)
    return frozenset(out)


def _symdiff_or_blocks(fn, F, G):
    try:
        return fn(F, G)
    except topes.DifferentBlocks:
        return "DifferentBlocks"


def test_symdiff_matches_level_scan():
    rng = random.Random(87)
    outcomes = {"same": 0, "apart": 0}
    for type_label in ("A2", "A3", "B2", "G2"):
        datum = build_system(type_label)
        triples = enumerate_P_triples(datum)
        pick = lambda n: BiclosedSet(
            random_element(datum, rng, n), *rng.choice(triples)
        )
        for _ in range(260):
            B = pick(rng.randrange(6))
            if rng.random() < 0.6:  # same block: another twist of B
                C = dot_action(random_element(datum, rng, 5), B)
            else:
                C = pick(3)
            F = topes.from_biclosed(rng.choice((B, B.complement())))
            G = topes.from_biclosed(rng.choice((C, C.complement())))
            want = _symdiff_or_blocks(scan_symdiff, F, G)
            assert _symdiff_or_blocks(topes.symdiff_positive, F, G) == want
            outcomes["apart" if want == "DifferentBlocks" else "same"] += 1
    assert min(outcomes.values()) > 100, outcomes
    # the figure's hemispaces, against each other and against other
    # biclosed ones (inversion sets share a block with H1)
    a2 = build_system("A2")
    hs = list(topes.figure_hemispaces().values())
    for s in "+-" * 6:
        H = topes.from_biclosed(from_inversion_set(random_element(a2, rng, 6)))
        hs.append(H if s == "+" else H.negated())
    for F in hs:
        for G in hs:
            assert _symdiff_or_blocks(
                topes.symdiff_positive, F, G
            ) == _symdiff_or_blocks(scan_symdiff, F, G)


def test_different_blocks_detected(a2):
    """Plus(emptyset) and Plus(full positive hat) differ infinitely."""
    F = topes.from_biclosed(from_inversion_set(identity(a2)))
    G = topes.from_biclosed(full_positive_biclosed(a2))
    with pytest.raises(topes.DifferentBlocks):
        topes.symdiff_positive(F, G)


def test_hemispaces_of_two_types_are_refused():
    """symdiff_positive, tope_leq, tope_block and interval_lattice_check
    raise ValueError naming both types, in either order; A2 against B2
    once answered as if the two agreed, and B2 against A2 raised a bare
    KeyError."""
    hs = {
        label: topes.from_biclosed(full_positive_biclosed(build_system(label)))
        for label in ("A2", "A3", "B2")
    }
    for a, b in (("A2", "B2"), ("B2", "A2"), ("A2", "A3"), ("A3", "A2")):
        F, G = hs[a], hs[b]
        calls = (
            lambda: topes.symdiff_positive(F, G),
            lambda: topes.tope_leq(F, F, G),
            lambda: topes.tope_block(F, G, 2),
            lambda: topes.interval_lattice_check(F, F, G),
        )
        for call in calls:
            with pytest.raises(ValueError, match=f"types {a} and {b}$"):
                call()


def test_tope_order_is_right_weak_order(a2):
    """F <= G based at Plus(N(e)) iff the elements compare in weak order."""
    rng = random.Random(84)
    B0 = from_inversion_set(identity(a2))
    base = topes.from_biclosed(B0)
    for _ in range(40):
        u = random_element(a2, rng, 5)
        v = random_element(a2, rng, 5)
        F = topes.from_biclosed(from_inversion_set(u))
        G = topes.from_biclosed(from_inversion_set(v))
        assert topes.tope_leq(F, G, base) == weak_leq(u, v, B0)


def test_convexity_no_violation_for_convex_classes(a2):
    w = from_word(a2, (1, 2, 3))
    for B in (from_inversion_set(w), full_positive_biclosed(a2)):
        H = topes.from_biclosed(B)
        report = topes.check_convex_truncated(H, level_bound=5)
        assert report["violation"] is None
        assert report["targets_checked"] > 0


def assert_violation_certificate(H, v):
    """Re-verify a non-convexity certificate independently: the target is in
    -H, the generators in H, and the positive combination is the target."""
    assert not H.contains(v["target"])
    assert all(H.contains(g) for g in v["generators"])
    dim = len(v["target"][0]) + 1
    combo = [Fraction(0)] * dim
    for g, c in zip(v["generators"], v["coefficients"]):
        assert c > 0
        vec = topes._vec(g)
        combo = [x + c * y for x, y in zip(combo, vec)]
    assert combo == list(topes._vec(v["target"]))


def test_convexity_refuses_a_non_basic_certificate(monkeypatch, a2):
    """The simplex returns a basic solution, with at most one generator per
    dimension; a certificate with more is refused, not reported."""

    def wide(target, generators):
        n = len(target[0]) + 2
        return ConeCertificate(
            True, (1,) * n + (0,) * (len(generators) - n), ()
        )

    monkeypatch.setattr(topes, "cone_member", wide)
    H = topes.from_biclosed(from_inversion_set(from_word(a2, (1, 2, 3))))
    with pytest.raises(CertificationFailed, match="exceeds the dimension"):
        topes.check_convex_truncated(H, level_bound=2)


def test_convexity_violation_for_mixed():
    rng = random.Random(85)
    for _ in range(3):
        B = random_biclosed("A3", rng, mixed=True, twist_len=1)
        H = topes.from_biclosed(B)
        report = topes.check_convex_truncated(H, level_bound=5)
        v = report["violation"]
        assert v is not None
        assert_violation_certificate(H, v)


def test_convexity_checks_the_mixed_witness(monkeypatch):
    """The closed-form witness of a Mixed hemispace is checked before it is
    reported: each wrong witness below fails exactly one of its checks."""
    H = topes.from_biclosed(
        random_biclosed("A3", random.Random(85), mixed=True, twist_len=1)
    )
    assert topes.check_convex_truncated(H, level_bound=0)["violation"] == (
        topes._mixed_violation(H)
    )
    good = topes._mixed_violation(H)
    c, a, b = good["generators"]
    out = next(r for r in topes.all_roots_to_level(H.datum, 2) if not H.contains(r))
    wrong = [
        dict(good, coefficients=[1, 1, 2]),  # the sum misses the target
        dict(good, coefficients=[1, 1, 1, 0], generators=[c, a, b, c]),
        {"target": c, "generators": [c], "coefficients": [1]},  # target in H
        {"target": out, "generators": [out], "coefficients": [1]},  # g not in H
    ]
    for witness in wrong:
        monkeypatch.setattr(topes, "_mixed_violation", lambda H: witness)
        with pytest.raises(CertificationFailed, match="does not verify"):
            topes.check_convex_truncated(H, level_bound=0)


def _convexity_by_lp_per_target(H, level_bound):
    """The former search of `check_convex_truncated`, kept as its oracle:
    one LP per root of -H up to the level bound, no functional reused."""
    datum = H.datum
    universe = topes.all_roots_to_level(datum, level_bound)
    h_roots = [r for r in universe if H.contains(r)]
    gens = [topes._vec(g) for g in h_roots]
    checked = 0
    violation = None
    for target in universe:
        if H.contains(target):
            continue
        checked += 1
        cert = cone_membership(gens, topes._vec(target))
        if cert.feasible:
            support = [
                (g, c) for g, c in zip(h_roots, cert.coefficients) if c != 0
            ]
            violation = {
                "target": target,
                "generators": [g for g, _ in support],
                "coefficients": [c for _, c in support],
            }
            break
    if violation is None and H.biclosed.classify() == "Mixed":
        violation = topes._mixed_violation(H)
    return {
        "violation": violation,
        "level_bound": level_bound,
        "targets_checked": checked,
    }


def _convexity_cases():
    """(H, level): every P-triple of A2, B2 and G2 at levels 1-3, a seeded
    A3 sample with Mixed triples at levels 1-2, and twisted random biclosed
    sets of every type with their negations at levels 1-2."""
    cases = []
    for label in ("A2", "B2", "G2"):
        datum = build_system(label)
        for triple in enumerate_P_triples(datum):
            H = topes.from_biclosed(BiclosedSet(identity(datum), *triple))
            cases += [(H, level) for level in (1, 2, 3)]
    for B in _biclosed_by_class("A3", random.Random(28), 3):
        cases += [(topes.from_biclosed(B), level) for level in (1, 2)]
    rng = random.Random(29)
    for label in ("A2", "B2", "G2", "A3"):
        for _ in range(4):
            H = topes.from_biclosed(random_biclosed(label, rng, twist_len=3))
            cases += [(F, level) for F in (H, H.negated()) for level in (1, 2)]
    return cases


def test_convexity_matches_lp_per_target():
    """Reusing Farkas functionals leaves every report as it was: the same
    violation with the same certificate, targets_checked and level bound."""
    cases = _convexity_cases()
    assert len(cases) == 640
    violations = 0
    for H, level in cases:
        report = topes.check_convex_truncated(H, level)
        assert report == _convexity_by_lp_per_target(H, level), (H, level)
        violations += report["violation"] is not None
    assert 0 < violations < len(cases)


def _bench_hemispaces():
    """The hemispaces of the benchmark's topes-cones workload, built as its
    set-up builds them."""
    pool_file = Path(__file__).resolve().parents[1] / "bench" / "pool.json"
    fixed = json.loads(pool_file.read_text())["topes-cones"]["fixed"]
    out = {}
    for name, spec in fixed["hemispaces"].items():
        datum = build_system(spec["type"])
        if "inversion_set_of" in spec:
            word = tuple(int(a) for a in spec["inversion_set_of"].split("."))
            B = from_inversion_set(from_word(datum, word))
        else:
            B = parse_biclosed(datum, spec["biclosed"])
        out[name] = topes.from_biclosed(B)
    return out


def test_convexity_reuses_farkas_functionals(monkeypatch):
    """On every benchmark hemispace at levels 1, 2, 3 and 6, at most four
    LPs decide the whole truncated -H (one per target took 9-78): the Farkas
    functionals of the first LPs separate the rest.  Each functional is
    <= 0 on every generator, the same roots of H for every LP, and > 0 on
    the target whose LP returned it; scaling to integers keeps its signs."""
    solved = []
    cone_member = topes.cone_member

    def counted(target, generators):
        cert = cone_member(target, generators)
        solved.append((target, generators, cert))
        return cert

    monkeypatch.setattr(topes, "cone_member", counted)
    hemispaces = _bench_hemispaces()
    assert len(hemispaces) == 14
    for name, H in hemispaces.items():
        datum = H.datum
        for level in (1, 2, 3, 6):
            solved.clear()
            report = topes.check_convex_truncated(H, level)
            assert report["violation"] is None
            assert 1 <= len(solved) <= 4, (name, level, len(solved))
            assert report["targets_checked"] == len(
                topes.all_roots_to_level(datum, level)
            ) // 2
            h_roots = solved[0][1]
            for target, generators, cert in solved:
                assert generators == h_roots
                y = cert.functional
                assert _dot(y, topes._vec(target)) > 0
                assert all(_dot(y, topes._vec(g)) <= 0 for g in generators)


# The former +-delta search for the witness of a Mixed hemispace, kept as
# the oracle of the closed form `topes._mixed_violation`.
_SEARCH_LEVEL = 24


def search_mixed_violation(H):
    """The +-delta construction: a = nu + s delta and b = -nu + t delta in
    H sum to a delta-multiple; adding it repeatedly to a root of H on an
    upper-bounded chain escapes into -H."""
    datum = H.datum
    k0 = datum.weyl_table().k0
    for nu in datum.roots:
        neg_nu = tuple(-x for x in nu)
        for s in range(k0[nu], _SEARCH_LEVEL):
            a = (nu, s)
            if not H.contains(a):
                continue
            for t in range(k0[neg_nu], _SEARCH_LEVEL):
                b = (neg_nu, t)
                if not H.contains(b) or s + t < 1:
                    continue
                found = _escape_along_delta(H, a, b)
                if found is not None:
                    return found
    return None


def _escape_along_delta(H, a, b):
    step = a[1] + b[1]
    for c in topes.all_roots_to_level(H.datum, _SEARCH_LEVEL):
        if not H.contains(c):
            continue
        for m in range(1, 6):
            tgt = (c[0], c[1] + m * step)
            if not H.contains(tgt):
                return {
                    "target": tgt,
                    "generators": [c, a, b],
                    "coefficients": [Fraction(1), Fraction(m), Fraction(m)],
                }
    return None


def test_lowest_and_top_match_level_scan():
    """The O(1) reads of the pairs behind the Mixed witness and the
    reflected chains, `BiclosedSet.lowest` and `line_tops`, agree with a
    scan of each line mu + Z delta of H_B past every threshold."""
    rng = random.Random(96)
    for type_label in ("A2", "A3", "B2", "G2"):
        for _ in range(15):
            B = random_biclosed(type_label, rng)
            B = rng.choice((B, B.complement()))
            H = topes.from_biclosed(B)
            bound = H.level_bound() + 2
            for mu in H.datum.roots:
                line = range(-bound, bound + 1)
                for member in (True, False):
                    want = next((
                        k for k in line
                        if k >= H.datum.weyl_table().k0[mu]
                        and H.contains((mu, k)) == member
                    ), None)
                    assert B.lowest(mu, member) == want
                tail = H.contains((mu, bound))
                differ = [l for l in line if H.contains((mu, l)) != tail]
                want = max(differ) if differ else None
                assert B.line_tops()[mu] == want


def test_mixed_witness_matches_search():
    """On 200 seeded A3 Mixed hemispaces (100 sets and their negations)
    the closed form finds a witness exactly where the level-24 search does,
    and every witness of either passes the certificate check."""
    rng = random.Random(95)
    found = 0
    for _ in range(100):
        B = random_biclosed("A3", rng, mixed=True, twist_len=2)
        for C in (B, B.complement()):
            H = topes.from_biclosed(C)
            v = topes._mixed_violation(H)
            want = search_mixed_violation(H)
            assert (v is None) == (want is None), C
            for cert in (v, want):
                if cert is not None:
                    assert_violation_certificate(H, cert)
            found += v is not None
    assert found > 0


def test_closure_axioms_spot_check(a2):
    assert closure_axiom_check(a2, level=2, samples=6, seed=3)


def test_tope_block_matches_weak_order(a2):
    rng = random.Random(86)
    B0 = from_inversion_set(identity(a2))
    center = topes.from_biclosed(B0)
    block = topes.tope_block(center, center, radius=3)
    assert block.check_grading()
    items = list(block.reps.items())
    assert len(items) > 10
    for _ in range(100):
        (ka, (wa, _)), (kb, (wb, _)) = rng.sample(items, 2)
        assert (ka <= kb) == weak_leq(wa, wb, B0)


def test_tope_block_reps_match_full_products(a2):
    """Neighbours built as g . (w . B) give the keys and words of the
    (g w) . B construction."""
    for B0 in (from_inversion_set(identity(a2)),
               random_biclosed("A2", random.Random(93))):  # Cofinite
        center = topes.from_biclosed(B0)
        gens = [reflection(a2, r) for r in topes._block_generators(center)]
        seen = {topes.symdiff_positive(center, center): identity(a2)}
        frontier = [identity(a2)]
        for _ in range(3):
            nxt = []
            for w in frontier:
                for g in gens:
                    F2 = topes.from_biclosed(dot_action(g * w, B0))
                    key = topes.symdiff_positive(F2, center)
                    if key not in seen:
                        seen[key] = g * w
                        nxt.append(g * w)
            frontier = nxt
        block = topes.tope_block(center, center, radius=3)
        assert [(k, w.word()) for k, (w, _) in block.reps.items()] == [
            (k, w.word()) for k, w in seen.items()
        ]


@pytest.mark.parametrize("seed", (88, 89, 91, 92))
def test_tope_block_of_twisted_center(seed):
    """Infinite-word centers with a nontrivial twist w: the subgroup's
    reflections conjugated by w stay in the block (unconjugated, they left
    it and tope_block raised DifferentBlocks)."""
    B = random_biclosed("A2", random.Random(seed))
    assert B.twist != identity(B.datum)
    center = topes.from_biclosed(B)
    block = topes.tope_block(center, center, radius=3)
    assert len(block.nodes) == 7
    assert block.check_grading()
    for r in topes._block_generators(center):
        g = reflection(B.datum, r)
        topes.symdiff_positive(topes.from_biclosed(dot_action(g, B)), center)


# ----- oracles: tope blocks and lattices by group products ---------------


def _block_by_products(center, base, radius):
    """The former tope_block walk: {key: (w, F)} in insertion order, each
    neighbour built as g . (w . B) = (g w) . B, by products, with the
    generators w s_r w^{-1} conjugated by the twist w."""
    B = center.biclosed
    datum = B.datum
    span = _span_roots(B.psi, B.delta1 | B.delta2)
    if span == frozenset(datum.roots):
        gens = list(simple_reflections(datum))
    else:
        t = B.twist
        gens = [
            t * reflection(datum, r) * t.inverse()
            for mu in sorted(span) if datum.is_positive(mu)
            for r in ((mu, 0), (tuple(-x for x in mu), 1))
        ]
    seen = {topes.symdiff_positive(center, base): (identity(datum), center)}
    frontier = list(seen.values())
    for _ in range(radius):
        nxt = []
        for w, F in frontier:
            for g in gens:
                F2 = topes.from_biclosed(dot_action(g, F.biclosed))
                key = topes.symdiff_positive(F2, base)
                if key not in seen:
                    seen[key] = (g * w, F2)
                    nxt.append(seen[key])
        frontier = nxt
    return seen


def _lattice_problems_by_bounds(keys):
    """The former cubic meet/join loop: count the greatest lower and the
    least upper bounds of every pair."""
    problems = []
    for i, a in enumerate(keys):
        for b in keys[i:]:
            lower = [z for z in keys if z <= a and z <= b]
            upper = [z for z in keys if a <= z and b <= z]
            if sum(all(y <= z for y in lower) for z in lower) != 1:
                problems.append(("meet", a, b))
            if sum(all(z <= y for y in upper) for z in upper) != 1:
                problems.append(("join", a, b))
    return problems


def _biclosed_by_class(label, rng, per_class):
    """`per_class` random w . P^hat per class of `label`'s P-triples."""
    datum = build_system(label)
    by_class = {}
    for psi, d1, d2 in enumerate_P_triples(datum):
        cls = BiclosedSet(identity(datum), psi, d1, d2).classify()
        by_class.setdefault(cls, []).append((psi, d1, d2))
    out = []
    for cls in sorted(by_class):
        for _ in range(per_class):
            psi, d1, d2 = rng.choice(by_class[cls])
            twist = random_element(datum, rng, 4)
            out.append(BiclosedSet(twist, psi, d1, d2))
    return out


def _reflected(B, r):
    """`reflected_pairs` of B's pairs and line tops."""
    table = B.datum.weyl_table()
    return reflected_pairs(table, B.chains(), B.line_tops(), r)


@pytest.mark.parametrize("label", ("A2", "B2", "G2", "A3"))
def test_reflected_chains_match_dot_action(label):
    """The pairs of s_r . B read off B's (`reflected_pairs`) equal those of
    the product s_r . B, for every root gamma and level m in [-3, 3]."""
    datum = build_system(label)
    Bs = _biclosed_by_class(label, random.Random(94), 2)
    classes = {B.classify() for B in Bs}
    assert len(classes) == (5 if label == "A3" else 4)
    for B in Bs:
        for gamma in datum.roots:
            for m in range(-3, 4):
                r = (gamma, m)
                want = dot_action(reflection(datum, r), B).chains()
                assert _reflected(B, r) == want, (B, r)


def test_reflected_chains_refuse_non_roots(a2):
    """A gamma outside the roots raises the ValueError of `reflection`, and
    the failure adds no row: the Weyl tables hold one row per type and
    root, 38 over the four types."""
    B = from_inversion_set(identity(a2))
    for gamma in ((2, 0), (1, -1), (0, 0)):
        with pytest.raises(ValueError, match="not a root") as got:
            _reflected(B, (gamma, 0))
        with pytest.raises(ValueError) as want:
            reflection(a2, (gamma, 0))
        assert str(got.value) == str(want.value)
    labels = ("A2", "A3", "B2", "G2")
    rows = lambda: sum(len(build_system(l).weyl_table().srow) for l in labels)
    assert rows() == 38
    with pytest.raises(ValueError):
        _reflected(B, ((2, 0), 0))
    assert rows() == 38
    assert (2, 0) not in a2.weyl_table().srow


def test_negative_bounds_are_refused(a2):
    H = topes.from_biclosed(from_inversion_set(identity(a2)))
    with pytest.raises(ValueError, match="radius"):
        topes.tope_block(H, H, -2)
    with pytest.raises(ValueError, match="level_bound"):
        topes.check_convex_truncated(H, -1)


def _edges_by_all_pairs(keys):
    """The former edge loop of `tope_block`: every pair of keys a < b one
    grade apart, the oracle of its per-key lookup."""
    return {
        PosetEdge(a, b, "", "weak")
        for a in keys
        for b in keys
        if len(b) == len(a) + 1 and a < b
    }


@pytest.mark.parametrize("label", ("A2", "B2", "G2", "A3"))
def test_tope_block_matches_product_walk(label):
    """Same keys in the same order, the same representative words, and
    representatives whose chains are those of the product w . C, for every
    class (A3 Mixed included), for C = B and its complement, and based at C
    and at a block member two steps from C; the edges are those of the
    all-pairs loop, each once.  Based at -C, another block, the walk raises
    DifferentBlocks."""
    radius = 2 if label == "A3" else 3
    far_bases = n_edges = 0
    for B in _biclosed_by_class(label, random.Random(95), 3):
        for C in (B, B.complement()):
            center = topes.from_biclosed(C)
            near = _block_by_products(center, center, 1)
            # the last member found two steps out, if the block reaches
            ball = _block_by_products(center, center, 2)
            key, (_, far) = list(ball.items())[-1]
            far_bases += key not in near
            for base in (center, far):
                want = _block_by_products(center, base, radius)
                block = topes.tope_block(center, base, radius)
                got = block.reps
                assert list(got) == list(want)
                edges = _edges_by_all_pairs(got)
                assert set(block.edges) == edges
                assert len(block.edges) == len(edges)
                n_edges += len(edges)
                assert [w.word() for w, _ in got.values()] == [
                    w.word() for w, _ in want.values()
                ]
                for w, F in got.values():
                    assert F.biclosed.chains() == dot_action(w, C).chains()
            with pytest.raises(topes.DifferentBlocks):
                topes.tope_block(center, center.negated(), radius)
    assert far_bases > 0 and n_edges > 0


def _interval_lattice_by_block(H1, H2, base, walk=None):
    """The former `interval_lattice_check`: the keys of the block poset
    `tope_block(H1, base, gap + 1)` between those of H1 and H2, or of
    `walk(H1, base, gap + 1)`, a dict keyed in order of discovery."""
    d1 = topes.symdiff_positive(H1, base)
    d2 = topes.symdiff_positive(H2, base)
    if not d1 <= d2:
        raise topes.NotComparable("H1 is not <= H2 based at the given base")
    radius = len(d2) - len(d1) + 1
    if walk is None:
        seen = topes.tope_block(H1, base, radius).reps
    else:
        seen = walk(H1, base, radius)
    keys = [key for key in seen if d1 <= key <= d2]
    problems = topes._lattice_problems(keys)
    return {
        "interval_size": len(keys),
        "is_lattice": not problems,
        "problems": problems,
    }


@pytest.mark.parametrize("label", ("A2", "B2", "G2", "A3"))
def test_interval_lattice_check_matches_block_poset(label):
    """The check reads the walk's keys and gives the report of the block
    poset it once built, on 30 random pairs of a random block's members,
    based at the block's center or at H1; some pairs are NotComparable."""
    rng = random.Random(99)
    Bs = _biclosed_by_class(label, rng, 2)
    outcomes = set()
    for _ in range(30):
        center = topes.from_biclosed(rng.choice(Bs))
        reps = topes.tope_block(center, center, 2).reps
        members = [F for _, F in reps.values()]
        H1, H2 = rng.choice(members), rng.choice(members)
        base = rng.choice((center, H1))
        try:
            want = _interval_lattice_by_block(H1, H2, base)
        except topes.NotComparable:
            with pytest.raises(topes.NotComparable):
                topes.interval_lattice_check(H1, H2, base)
            outcomes.add("NotComparable")
            continue
        assert topes.interval_lattice_check(H1, H2, base) == want
        outcomes.add(want["interval_size"] > 1)
    assert outcomes == {"NotComparable", True, False}


def _walk_by_representatives(center, base, radius):
    """The former `topes._walk`: {key: (w, F)} in order of discovery, where
    each new tope builds its key, its representative s_r w and its twist
    as it is found, kept as the oracle of the walk over pairs alone."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    roots = topes._block_generators(center)
    base_chains = base.biclosed.chains()
    chains = center.biclosed.chains()
    e = identity(center.datum)
    seen = {topes._symdiff(chains, base_chains): (e, center)}
    pairs_seen = {tuple(chains.values())}
    frontier = [(e, center)]
    for _ in range(radius):
        nxt = []
        for w, F in frontier:
            for r in roots:
                chains = _reflected(F.biclosed, r)
                pairs = tuple(chains.values())
                if pairs in pairs_seen:
                    continue
                pairs_seen.add(pairs)
                (w2,) = left_reflections(w, r[0], (r[1],))
                F2 = topes.Hemispace(reflect(r, F.biclosed, chains))
                seen[topes._symdiff(chains, base_chains)] = (w2, F2)
                nxt.append((w2, F2))
        frontier = nxt
    return seen


def _report_or_raised(check, *args):
    try:
        return check(*args)
    except (topes.NotComparable, topes.DifferentBlocks) as exc:
        return type(exc).__name__


@pytest.mark.parametrize("label", ("A2", "B2", "G2", "A3"))
def test_walk_over_pairs_matches_representative_walk(label):
    """The walk over pairs alone gives the former walk's answers, on centers
    of every class with random twists (A3 Mixed included) and on their
    complements, based at the center and at two other block members:
    `tope_block` the same keys in the same order, with equal elements and
    chains; `interval_lattice_check` the same report, problems in the same
    order, on incomparable members and on members at most two roots apart
    (radius <= 3); both raise DifferentBlocks for a base in another
    block."""
    rng = random.Random(100)
    outcomes = set()
    for B in _biclosed_by_class(label, rng, 3):
        for C in (B, B.complement()):
            center = topes.from_biclosed(C)
            ball = _walk_by_representatives(center, center, 2)
            members = [F for _, F in ball.values()]
            bases = [center] + rng.sample(members[1:], min(2, len(members) - 1))
            for base in bases:
                radius = rng.randint(0, 3)
                want = _walk_by_representatives(center, base, radius)
                got = topes.tope_block(center, base, radius).reps
                assert list(got) == list(want)
                for (w, F), (w_want, F_want) in zip(got.values(), want.values()):
                    assert w == w_want
                    assert F.biclosed.chains() == F_want.biclosed.chains()
                keys = [topes.symdiff_positive(F, base) for F in members]
                pairs = [
                    (H1, H2)
                    for H1, d1 in zip(members, keys)
                    for H2, d2 in zip(members, keys)
                    if not d1 <= d2 or len(d2) - len(d1) <= 2  # radius <= 3
                ]
                for H1, H2 in rng.sample(pairs, min(6, len(pairs))):
                    report = _report_or_raised(
                        _interval_lattice_by_block, H1, H2, base,
                        _walk_by_representatives,
                    )
                    assert _report_or_raised(
                        topes.interval_lattice_check, H1, H2, base
                    ) == report
                    if isinstance(report, dict):
                        report = report["interval_size"] > 1, report["is_lattice"]
                    outcomes.add(report)
            other = center.negated()
            for walk in (_walk_by_representatives, topes.tope_block):
                with pytest.raises(topes.DifferentBlocks):
                    walk(center, other, 1)
            assert _report_or_raised(
                topes.interval_lattice_check, center, center, other
            ) == "DifferentBlocks"
    assert {"NotComparable", (True, True), (False, True)} <= outcomes, outcomes


@pytest.mark.parametrize("label", ("A2", "B2", "G2", "A3"))
def test_walk_reflects_no_tope_back_to_its_parent(label, monkeypatch):
    """s_r s_r = e, so the walk reflects the center by every generator and
    every other tope it expands by all but the root that reached it: on
    centers of every class, radius <= 3, `reflected_pairs` runs
    |generators| + (expanded - 1)(|generators| - 1) times."""
    calls = []

    def counted(*args, _real=topes.reflected_pairs):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(topes, "reflected_pairs", counted)
    for i, B in enumerate(_biclosed_by_class(label, random.Random(102), 1)):
        center, radius = topes.from_biclosed(B), i % 4
        n = len(topes._block_generators(center))
        calls.clear()
        walk = topes._walk(center, center, radius)
        depth = [0]
        for _, parent, _ in walk[1:]:
            depth.append(depth[parent] + 1)
        expanded = sum(d < radius for d in depth)
        assert len(calls) == (n + (expanded - 1) * (n - 1) if radius else 0)


def test_interval_lattice_check_builds_no_element_or_set(monkeypatch):
    """The interval check walks pairs alone: it creates no AffineWeylElement
    and no BiclosedSet, on blocks of every A3 class, while `tope_block`
    creates both for its representatives."""
    cases = []
    for B in _biclosed_by_class("A3", random.Random(101), 1):
        center = topes.from_biclosed(B)
        reps = topes.tope_block(center, center, 2).reps
        H2 = topes.from_biclosed(dot_action(reps[max(reps, key=len)][0], B))
        cases.append((center, H2))
    made = []
    for cls in (AffineWeylElement, BiclosedSet):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            made.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    sizes = [
        topes.interval_lattice_check(H1, H2, H1)["interval_size"]
        for H1, H2 in cases
    ]
    assert made == []
    assert len(cases) == 5 and max(sizes) > 2
    topes.tope_block(cases[0][0], cases[0][0], 1)
    assert {"AffineWeylElement", "BiclosedSet"} <= set(made)


@pytest.mark.parametrize("label", ("A2", "B2", "G2", "A3"))
def test_negated_holds_exactly_the_other_roots(label):
    """H.negated(), the hemispace of B's complement, holds exactly the
    affine roots up to level +-6 that H does not, on every class; negating
    twice gives back H's chains."""
    datum = build_system(label)
    for B in _biclosed_by_class(label, random.Random(98), 2):
        H = topes.from_biclosed(B, "H")
        N = H.negated()
        assert N.label == "-H"
        for r in topes.all_roots_to_level(datum, 6):
            assert N.contains(r) != H.contains(r), (B, r)
        assert N.negated().biclosed.chains() == B.chains(), B


def test_tope_block_and_lattice_take_no_products(products):
    """Neither the walk nor the lattice check multiplies group elements."""
    a3 = build_system("A3")
    centers = [
        topes.from_biclosed(from_inversion_set(identity(a3))),
        topes.from_biclosed(random_biclosed("A3", random.Random(96))).negated(),
        topes.from_biclosed(
            random_biclosed("A3", random.Random(97), mixed=True)
        ),
    ]
    products.clear()
    for center in centers:
        block = topes.tope_block(center, center, 3)
        key = max(block.reps, key=len)
        _, top = block.reps[key]
        topes.interval_lattice_check(center, top, center)
    assert products == []


def test_lattice_problems_match_bounds_oracle(a2):
    """The union/intersection meet and join test lists the problems of the
    cubic loop, in its order, on sub-families of block keys."""
    rng = random.Random(98)
    center = topes.from_biclosed(from_inversion_set(identity(a2)))
    keys = list(topes.tope_block(center, center, 4).reps)
    with_problems = 0
    for _ in range(200):
        family = rng.sample(keys, rng.randint(1, 12))
        want = _lattice_problems_by_bounds(family)
        assert topes._lattice_problems(family) == want
        with_problems += bool(want)
    assert with_problems > 100


@pytest.mark.xfail(strict=True, reason=(
    "the block radius counts generator steps, not tope-order steps, so "
    "interval_lattice_check can miss elements of [H1, H2], H2 included"
))
def test_interval_lattice_check_reaches_H2(a2):
    B = parse_biclosed(a2, "twist:1 psi:e d1:{1,2} d2:{}")
    H1 = topes.from_biclosed(B)
    H2 = topes.from_biclosed(dot_action(from_word(a2, (1, 3, 1)), B))
    gap = len(topes.symdiff_positive(H2, H1))
    assert gap == 1
    report = topes.interval_lattice_check(H1, H2, H1)
    assert report["interval_size"] == 2


@pytest.mark.parametrize("i", range(1, 7))
def test_tope_block_of_figure_T_holds_its_twists(i):
    """T_i1..T_i4 lie within two generator steps of T_i in its block."""
    hs = topes.figure_hemispaces()
    T = hs[f"T{i}"]
    block = topes.tope_block(T, T, radius=2)
    for j in range(1, 5):
        assert topes.symdiff_positive(hs[f"T{i}{j}"], T) in block.reps


def test_interval_lattice_of_figure():
    """[H1, H5] = [N(e), N(1.2)] is the chain e < 1 < 1.2."""
    hs = topes.figure_hemispaces()
    report = topes.interval_lattice_check(hs["H1"], hs["H5"], hs["H1"])
    assert report["interval_size"] == 3
    assert report["is_lattice"]


def test_interval_lattice_check(a2):
    B0 = from_inversion_set(identity(a2))
    center = topes.from_biclosed(B0)
    w = from_word(a2, (1, 2, 3, 1))
    H2 = topes.from_biclosed(dot_action(w, B0))
    report = topes.interval_lattice_check(center, H2, center)
    assert report["is_lattice"]
    assert report["interval_size"] >= 2
    # incomparable pair raises
    H3 = topes.from_biclosed(dot_action(from_word(a2, (2,)), B0))
    with pytest.raises(topes.NotComparable):
        topes.interval_lattice_check(H3, H2, center)


def test_figure_topes_structure():
    records, poset = figure = topes.figure_topes()
    labels = {r["label"] for r in records}
    # 19 H + 6*5 T + 6 U = 55, doubled by negation
    assert len(records) == 110
    for need in ("H1", "H19", "T1", "T13", "T64", "U1", "U6", "-H1", "-U6"):
        assert need in labels
    assert poset.check_grading()
    assert len(poset.edges) == 90


def test_figure_typo_corrected_descriptors():
    """H15..H19 use the corrected third root (delta - alpha - beta form)."""
    records, _ = topes.figure_topes()
    by_label = {r["label"]: r for r in records}
    assert sorted(by_label["H15"]["flips"]) == sorted(
        ["a+0d", "-b+1d", "-a-b+1d"]
    )
    assert sorted(by_label["H16"]["flips"]) == sorted(
        ["-a-b+2d", "-b+1d", "-a-b+1d"]
    )
    assert sorted(by_label["H18"]["flips"]) == sorted(
        ["b+0d", "-a+1d", "-a-b+1d"]
    )
    assert sorted(by_label["H19"]["flips"]) == sorted(
        ["-a-b+2d", "-a+1d", "-a-b+1d"]
    )


#: The figure's covers as drawn: the bottom tier, then per T_i the edges
#: T_i -> T_i1, T_i2 and T_i1 -> T_i3, T_i2 -> T_i4.
_H_EDGES = [
    ("H1", "H2"), ("H1", "H3"), ("H1", "H4"),
    ("H2", "H5"), ("H2", "H7"), ("H3", "H6"), ("H3", "H9"),
    ("H4", "H8"), ("H4", "H10"),
    ("H5", "H11"), ("H5", "H12"), ("H6", "H11"), ("H6", "H13"),
    ("H7", "H14"), ("H7", "H15"), ("H8", "H15"), ("H8", "H16"),
    ("H9", "H17"), ("H9", "H18"), ("H10", "H18"), ("H10", "H19"),
]


def drawn_figure_edges():
    edges = list(_H_EDGES)
    for i in range(1, 7):
        t = f"T{i}"
        edges += [(t, t + "1"), (t, t + "2"), (t + "1", t + "3"),
                  (t + "2", t + "4")]
    # mirrored tiers, direction reversed under negation
    edges += [("-" + b, "-" + a) for a, b in edges]
    return edges


def test_figure_edges_match_the_drawing():
    """The derived covers are the drawn ones, in the same order."""
    _, poset = topes.figure_topes()
    assert [(e.lower, e.upper) for e in poset.edges] == drawn_figure_edges()


def test_figure_edges_flip_one_root():
    _, poset = topes.figure_topes()
    hs = topes.figure_hemispaces()
    for e in poset.edges:
        F, G = hs[e.lower], hs[e.upper]
        diff = topes.symdiff_positive(F, G)
        assert len(diff) == 1
        (r,) = diff
        assert F.contains(negate(r)) and G.contains(r)


# ----- oracle: the figure as drawn, one descriptor per label ----------------

_A = (1, 0)
_B = (0, 1)
_AB = (1, 1)
_NA = (-1, 0)
_NB = (0, -1)
_NAB = (-1, -1)

#: finite biclosed parts of the bottom hemispace tier (inversion sets).
_H_FINITE = {
    "H1": (),
    "H2": ((_A, 0),),
    "H3": ((_B, 0),),
    "H4": ((_NAB, 1),),
    "H5": ((_A, 0), (_AB, 0)),
    "H6": ((_B, 0), (_AB, 0)),
    "H7": ((_A, 0), (_NB, 1)),
    "H8": ((_NAB, 1), (_NB, 1)),
    "H9": ((_B, 0), (_NA, 1)),
    "H10": ((_NAB, 1), (_NA, 1)),
    "H11": ((_A, 0), (_AB, 0), (_B, 0)),
    "H12": ((_A, 0), (_AB, 0), (_A, 1)),
    "H13": ((_B, 0), (_AB, 0), (_B, 1)),
    "H14": ((_A, 0), (_NB, 1), (_A, 1)),
    "H15": ((_A, 0), (_NB, 1), (_NAB, 1)),
    "H16": ((_NAB, 2), (_NB, 1), (_NAB, 1)),
    "H17": ((_B, 0), (_NA, 1), (_B, 1)),
    "H18": ((_B, 0), (_NA, 1), (_NAB, 1)),
    "H19": ((_NAB, 2), (_NA, 1), (_NAB, 1)),
}

#: middle tier: two full chains plus finite perturbations on a third line.
_T_BASES = {
    "T1": (_A, _AB),
    "T2": (_B, _AB),
    "T3": (_B, _NA),
    "T4": (_NAB, _NA),
    "T5": (_NAB, _NB),
    "T6": (_A, _NB),
}
#: per T_i, the two perturbation roots e1 (level 0 side) and e2 (level 1).
_T_EXTRAS = {
    "T1": ((_B, 0), (_NB, 1)),
    "T2": ((_A, 0), (_NA, 1)),
    "T3": ((_AB, 0), (_NAB, 1)),
    "T4": ((_B, 0), (_NB, 1)),
    "T5": ((_A, 0), (_NA, 1)),
    "T6": ((_AB, 0), (_NAB, 1)),
}

#: top tier: the six positive systems, all chains in full.
_U_BASES = {
    "U1": (_A, _B, _AB),
    "U2": (_NA, _B, _AB),
    "U3": (_NA, _B, _NAB),
    "U4": (_NA, _NB, _NAB),
    "U5": (_A, _NB, _NAB),
    "U6": (_A, _NB, _AB),
}


def from_descriptor(datum, full_bases, flips):
    """The pairs (tail, e) of B = (full delta-chains over `full_bases`) with
    the positive roots `flips` toggled.  The flips on each chain must be its
    lowest levels k0, k0 + 1, ..., so that B is again one pair (tail, e) per
    chain."""
    full = frozenset(tuple(b) for b in full_bases)
    levels = {mu: set() for mu in datum.roots}
    for base, k in flips:
        if not is_positive_affine(datum, (base, k)):
            raise ValueError("flips must be positive affine roots")
        levels[tuple(base)].add(k)
    chains = {}
    for mu, ks in levels.items():
        e = datum.weyl_table().k0[mu] + len(ks)
        if ks and max(ks) != e - 1:
            raise ValueError(
                f"flips on {datum.root_name(mu)} are not the lowest levels "
                "of its chain"
            )
        chains[mu] = (mu in full, e)
    return chains


def descriptor_figure(datum):
    """The pairs of every positive label of the figure, in its order."""
    specs = [(name, (), roots) for name, roots in _H_FINITE.items()]
    for name, bases in _T_BASES.items():
        e1, e2 = _T_EXTRAS[name]
        specs += [
            (name, bases, ()),
            (name + "1", bases, (e1,)),
            (name + "2", bases, (e2,)),
            (name + "3", bases, (e1, (e1[0], e1[1] + 1))),
            (name + "4", bases, (e2, (e2[0], e2[1] + 1))),
        ]
    specs += [(name, bases, ()) for name, bases in _U_BASES.items()]
    return {
        name: from_descriptor(datum, bases, flips)
        for name, bases, flips in specs
    }


def test_figure_matches_descriptor_oracle(a2):
    """All 110 figure hemispaces have the drawn descriptor's pairs: a
    negated label's are its positive label's with every tail flipped and
    the same thresholds, as the complement's; on inversion sets N(w) the
    descriptor (no full chains, flips N(w)) agrees with
    `from_inversion_set`."""
    hs = topes.figure_hemispaces()
    want = descriptor_figure(a2)
    assert list(hs) == list(want) + ["-" + label for label in want]
    for label, h in hs.items():
        chains = want[label.lstrip("-")]
        if label[0] == "-":
            chains = {mu: (not tail, e) for mu, (tail, e) in chains.items()}
        assert h.biclosed.chains() == chains, label
        assert h.label == label
    rng = random.Random(94)
    for _ in range(20):
        w = random_element(a2, rng, 7)
        want = from_descriptor(a2, (), inversion_set(w))
        assert from_inversion_set(w).chains() == want, w
