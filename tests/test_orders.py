"""Twisted strong and weak orders: covers, intervals, coranks, level sets."""

import random
from collections import Counter

import pytest

from twisted_bruhat import (
    BiclosedSet,
    build_system,
    covers,
    downset_corank,
    empty_biclosed,
    from_inversion_set,
    from_word,
    full_positive_biclosed,
    identity,
    interval,
    inversion_set,
    lower_covers,
    reflection,
    strong_leq,
    twisted_length_left,
    twisted_length_right,
    upper_covers,
    weak_chain,
    weak_leq,
)
from twisted_bruhat import a2, orders
from twisted_bruhat.affine_group import format_word, simple_reflections
from twisted_bruhat.finite import enumerate_P_triples
from twisted_bruhat.poset import GradedPoset, PosetNode
from twisted_bruhat.orders import (
    CertificationFailed,
    NotComparable,
    TargetNotReached,
    _end_certified,
    antichain_at_level,
    dot_iso_check,
    length_ball,
    level_set_sample,
    no_local_extremum_check,
    scan_ray,
)
from conftest import random_biclosed, random_element


def test_covers_of_identity_alcove_order():
    """Frozen: e has lower covers s1, s2 and upper covers s3, s1s3s1, s2s3s2."""
    d = build_system("A2")
    B = full_positive_biclosed(d)
    lower, upper, certs = covers(identity(d), B)
    assert {w.word() for _, w in lower} == {(1,), (2,)}
    assert {w.word() for _, w in upper} == {(3,), (1, 3, 1), (2, 3, 2)}
    assert certs
    for cert in certs:
        assert cert.drift[0] != 0 and cert.drift[1] != 0


def test_cover_deltas_are_plus_minus_one():
    rng = random.Random(41)
    for label in ("A2", "A3", "B2", "G2"):
        d = build_system(label)
        for _ in range(4):
            B = random_biclosed(label, rng)
            w = random_element(d, rng, 5)
            lw = twisted_length_left(w, B)
            for _, lo in lower_covers(w, B):
                assert twisted_length_left(lo, B) == lw - 1
            for _, up in upper_covers(w, B):
                assert twisted_length_left(up, B) == lw + 1


def _biclosed_of_each_class(label, rng, twist_len=3):
    """One randomly twisted B per biclosed class that the type has."""
    d = build_system(label)
    by_class = {}
    for psi, d1, d2 in enumerate_P_triples(d):
        B = BiclosedSet(identity(d), psi, d1, d2)
        by_class.setdefault(B.classify(), []).append((psi, d1, d2))
    return [
        BiclosedSet(random_element(d, rng, twist_len), *rng.choice(by_class[c]))
        for c in sorted(by_class)
    ]


def _fresh(B):
    return BiclosedSet(B.twist, B.psi, B.delta1, B.delta2)


def test_scan_ray_matches_element_construction():
    """Every delta of a certified window equals l_B(s_{g+k d} w) - l_B(w),
    computed by building the element, on a fresh B."""
    rng = random.Random(49)
    classes = set()
    for label in ("A2", "A3", "B2", "G2"):
        d = build_system(label)
        for B in _biclosed_of_each_class(label, rng):
            classes.add(B.classify())
            oracle = _fresh(B)
            w = random_element(d, rng, 6)
            lw = twisted_length_left(w, oracle)
            for gamma in d.positive_roots:
                lo, hi, deltas, _ = scan_ray(w, B, gamma)
                for k in range(lo, hi + 1):
                    z = reflection(d, (gamma, k)) * w
                    assert deltas[k] == twisted_length_left(z, oracle) - lw
    assert len(classes) == 5


def test_covers_match_product_oracle():
    """Every cover that `covers` builds along its ray equals the former
    product reflection(d, root) * w, for each type and each biclosed
    class, twisted and untwisted elements alike."""
    rng = random.Random(51)
    classes = set()
    for label in ("A2", "A3", "B2", "G2"):
        d = build_system(label)
        for B in _biclosed_of_each_class(label, rng):
            classes.add(B.classify())
            for w in (identity(d), random_element(d, rng, 6)):
                lower, upper, _ = covers(w, B)
                assert lower or upper
                for root, z in lower + upper:
                    oracle = reflection(d, root) * w
                    assert z == oracle and z.trans == oracle.trans
    assert len(classes) == 5


def test_covers_seed_correct_twisted_lengths():
    rng = random.Random(50)
    for label in ("A2", "A3", "B2", "G2"):
        d = build_system(label)
        for _ in range(3):
            B = random_biclosed(label, rng)
            w = random_element(d, rng, 6)
            lower, upper, _ = covers(w, B)
            assert lower or upper
            oracle = _fresh(B)
            for z, length in B._lB.items():
                assert length == twisted_length_left(z, oracle)


# ----- cover rays: the affine pieces against the former per-level code -----


def _ray_profile(w, B, gamma):
    """(base, lines) of the ray, in the former per-level form: the chains
    that do not move with k are folded into base, and Delta(k) is
    _ray_delta(B, (base, lines), k)."""
    table = B.datum.weyl_table()
    row, k0 = table.srow[gamma], table.k0
    p = w._pairings()
    moving, fixed = [], []
    for mu, umu in table.image[table.index[w.fin]].items():
        nu, b = row[umu]
        a = -sum(x * y for x, y in zip(umu, p)) - 1 + k0[nu]
        (moving if b else fixed).append((mu, k0[mu], a, b))
    base = twisted_length_left(w, B) - _ray_delta(B, (0, tuple(fixed)), 0)
    return base, tuple(moving)


def _ray_delta(B, profile, k):
    """Delta(k) from the profile, one level at a time: the sum over chains
    of |chain| - 2|chain ∩ B|, the count read off (tail, e) in place."""
    base, lines = profile
    chains = B.chains()
    total = -base
    for mu, lo, a, b in lines:
        hi = a + b * k
        if hi >= lo:
            tail, e = chains[mu]
            if tail:
                inside = 0 if hi < e else hi - e + 1 if lo < e else hi - lo + 1
            else:
                inside = 0 if lo >= e else e - lo if hi >= e else hi - lo + 1
            total += hi - lo + 1 - 2 * inside
    return total


def _end_certified_by_cases(values, h, positive_end):
    """The former drift test of one window end, case by case."""
    if len(values) < h + 1:
        return None
    if positive_end:
        tail = values[-(h + 1):]
    else:
        tail = values[: h + 1][::-1]
    diffs = {tail[i + 1] - tail[i] for i in range(h)}
    if len(diffs) != 1:
        return None
    drift = diffs.pop()
    if drift == 0:
        return None
    edge = tail[-1]
    if drift > 0 and edge >= 1:
        return drift
    if drift < 0 and edge <= -1:
        return drift
    return None


def _check_tail(B, profile, n, drift, positive_end):
    """The former tail proof: Delta at the integers next to every kink
    beyond the window end, and at the first step past it, keeps the drift's
    sign with |Delta| >= 3, and the slope past the last kink does not turn
    back; CertificationFailed otherwise."""
    out = 1 if positive_end else -1
    sign = 1 if drift > 0 else -1
    chains = B.chains()
    steps = {n + 1}
    for mu, lo, a, b in profile[1]:
        for t in (lo - 1, chains[mu][1] - 1):
            for k in ((t - a) // b, -((a - t) // b)):
                if out * k > n:
                    steps.add(out * k)
    last = max(steps)
    values = {j: _ray_delta(B, profile, out * j) for j in steps | {last + 1}}
    for j in sorted(values):
        if sign * values[j] < 3:
            raise CertificationFailed(
                f"drift {drift} past k = {out * n} breaks down: "
                f"Delta({out * j}) = {values[j]}"
            )
    if sign * (values[last + 1] - values[last]) < 0:
        raise CertificationFailed(
            f"drift {drift} past k = {out * n} breaks down: Delta turns "
            f"back after k = {out * last}"
        )


def _scan_by_levels(B, profile, n, h, cap=10**4):
    """The former scan_ray loop: every level of the doubling window, up to
    a hard cap on its half-width, then the per-kink tail proof."""
    deltas = {}
    while True:
        for k in range(-n, n + 1):
            if k not in deltas:
                deltas[k] = _ray_delta(B, profile, k)
        values = [deltas[k] for k in range(-n, n + 1)]
        drift = (
            _end_certified_by_cases(values, h, positive_end=False),
            _end_certified_by_cases(values, h, positive_end=True),
        )
        if None not in drift:
            _check_tail(B, profile, n, drift[1], positive_end=True)
            _check_tail(B, profile, n, drift[0], positive_end=False)
            return n, values, drift
        if n >= cap:
            raise CertificationFailed(f"did not stabilize within |k| <= {cap}")
        n = min(2 * n, cap)


def _raises(fn, *args):
    try:
        fn(*args)
    except CertificationFailed:
        return True
    return False


def _rays_of_each_class(rng, per_class=8):
    """(w, B, gamma) over every positive root, for up to per_class P-triples
    of each biclosed class of each type (A3's Mixed included), each with a
    random twist and a random element of up to 8 letters."""
    for label in ("A2", "A3", "B2", "G2"):
        d = build_system(label)
        by_class = {}
        for triple in enumerate_P_triples(d):
            B = BiclosedSet(identity(d), *triple)
            by_class.setdefault(B.classify(), []).append(triple)
        for triples in by_class.values():
            for triple in rng.sample(triples, min(per_class, len(triples))):
                B = BiclosedSet(random_element(d, rng, 8), *triple)
                w = random_element(d, rng, 8)
                for gamma in d.positive_roots:
                    yield w, B, gamma


def test_ray_pieces_match_per_level_oracle():
    """On rays of every class of all four types: the pieces give the former
    per-level delta at every k up to past the outermost start, scan_ray
    returns the former window, deltas and drifts, and the piece tail proof
    fails exactly where the per-kink one does."""
    rng = random.Random(52)
    classes = set()
    for w, B, gamma in _rays_of_each_class(rng):
        classes.add(B.classify())
        h = B.datum.coxeter_number
        profile = _ray_profile(w, B, gamma)
        pieces = orders._ray_pieces(w, B, gamma)
        reach = 3 + max(map(abs, pieces[0]))
        assert orders._values(pieces, -reach, reach) == [
            _ray_delta(B, profile, k) for k in range(-reach, reach + 1)
        ]
        n0 = 2 + w.inverse().max_inversion_level() + B.level_star()
        n, values, drift = _scan_by_levels(B, profile, n0, h)
        lo, hi, deltas, cert = scan_ray(w, B, gamma)
        assert (lo, hi, cert.window, cert.drift) == (-n, n, (-n, n), drift)
        assert deltas == dict(zip(range(-n, n + 1), values))
        for m in (1, n0, reach // 2, reach):
            for d in (-2, 2):
                for out in (1, -1):
                    assert _raises(orders._prove_tail, pieces, m, d, out) == (
                        _raises(_check_tail, B, profile, m, d, out > 0)
                    )
    assert classes == {
        "Finite", "Cofinite", "InfiniteWordInversion",
        "InfiniteWordCoinversion", "Mixed",
    }


def test_end_certified_matches_former_cases():
    rng = random.Random(53)
    for _ in range(3000):
        h = rng.randint(2, 6)
        values = [rng.choice((-3, -1, 0, 1, 3))]
        step = rng.choice((-2, 0, 2))
        for _ in range(rng.randint(0, 9)):
            values.append(values[-1] + (step if rng.random() < 0.9 else 1))
        for positive_end in (True, False):
            assert _end_certified(values, h, positive_end) == (
                _end_certified_by_cases(values, h, positive_end)
            )


def test_hinges_match_count_in_chain():
    """One chain of levels lo..k, k the ray level: its piece is
    |chain| - 2|chain ∩ B|, with the count from count_in_chain, for every
    (tail, e, lo) of a box and every k in it."""
    d = build_system("A2")
    B = full_positive_biclosed(d)
    mu = d.roots[0]
    for tail in (True, False):
        for e in range(-3, 6):
            B._chains = {mu: (tail, e)}
            for lo in range(-3, 6):
                pieces = orders._pieces(B._chains, 0, [(mu, lo, 0, 1)])
                assert orders._values(pieces, -6, 9) == [
                    max(0, hi - lo + 1) - 2 * B.count_in_chain(mu, lo, hi)
                    for hi in range(-6, 10)
                ]


def test_tail_check_rejects_far_breakpoint():
    """A hand-built profile with Delta(k) = 2|k| + 1 up to k = 20, where a
    third chain starts and turns Delta down to 1 at k = 40.  The window
    |k| <= 10 looks stable; the tail check finds the turn."""
    d = build_system("A2")
    B = full_positive_biclosed(d)
    # (root, lo, a, b): that chain of N((s w)^-1) runs from lo to a + b k
    rising = (((-1, 0), 1, 0, 2), ((0, -1), 1, 0, -2))
    far = ((1, 1), 0, -81, 4)
    bad = (-1, rising + (far,))
    assert [_ray_delta(B, bad, k) for k in (-3, 0, 20, 21, 40)] == [
        7, 1, 41, 39, 1,
    ]
    window = [_ray_delta(B, bad, k) for k in range(-10, 11)]
    assert _end_certified(window, d.coxeter_number, positive_end=True) == 2
    assert _end_certified(window, d.coxeter_number, positive_end=False) == 2
    _check_tail(B, bad, 10, 2, positive_end=False)
    with pytest.raises(CertificationFailed):
        _check_tail(B, bad, 10, 2, positive_end=True)
    good = (-1, rising)
    _check_tail(B, good, 10, 2, positive_end=True)
    _check_tail(B, good, 10, 2, positive_end=False)
    # the pieces: the same values, and the same verdicts
    bad_pieces = orders._pieces(B.chains(), *bad)
    assert orders._values(bad_pieces, -10, 10) == window
    assert [orders._values(bad_pieces, k, k)[0] for k in (-3, 0, 20, 21, 40)] == [
        7, 1, 41, 39, 1,
    ]
    orders._prove_tail(bad_pieces, 10, 2, -1)
    with pytest.raises(CertificationFailed, match="turns back after k = 20"):
        orders._prove_tail(bad_pieces, 10, 2, 1)
    with pytest.raises(CertificationFailed):
        orders._certify(bad_pieces, 10, d.coxeter_number)
    good_pieces = orders._pieces(B.chains(), *good)
    orders._prove_tail(good_pieces, 10, 2, 1)
    orders._prove_tail(good_pieces, 10, 2, -1)


def test_tail_check_finds_breakdown_at_biclosed_threshold():
    """A breakdown at B's own kink e - 1.  B = N(w) is flipped on the levels
    1..3 of the chain over -a-b (tail False, e = 4).  A moving chain over it
    with top -30 + 2k dips Delta to 2 at k = 16 (top 2, just below the kink
    at 3) against a baseline rising by one per step; the integers next to
    the kink (16, 17) expose it, those next to e (17) alone would not."""
    d = build_system("A2")
    B = from_inversion_set(from_word(d, (3, 1, 2, 3, 1, 2)))
    assert B.chains()[(-1, -1)] == (False, 4)
    assert B.chains()[(1, 0)] == (False, 0)
    profile = (13, (((1, 0), 0, 0, 1), ((-1, -1), 1, -30, 2)))
    assert [_ray_delta(B, profile, k) for k in range(14, 19)] == [2, 3, 2, 3, 6]
    window = [_ray_delta(B, profile, k) for k in range(-14, 15)]
    assert _end_certified(window, d.coxeter_number, positive_end=True) == 1
    with pytest.raises(CertificationFailed, match=r"Delta\(16\) = 2"):
        _check_tail(B, profile, 14, 1, positive_end=True)
    # unflipped (e = k0 everywhere), the same profile keeps rising
    unflipped = from_inversion_set(identity(d))
    _check_tail(unflipped, profile, 14, 1, positive_end=True)
    # the pieces: the same values, the same first breakdown
    pieces = orders._pieces(B.chains(), *profile)
    assert orders._values(pieces, 14, 18) == [2, 3, 2, 3, 6]
    assert orders._values(pieces, -14, 14) == window
    with pytest.raises(CertificationFailed, match=r"Delta\(16\) = 2"):
        orders._prove_tail(pieces, 14, 1, 1)
    orders._prove_tail(orders._pieces(unflipped.chains(), *profile), 14, 1, 1)


def test_zero_outer_slope_fails_at_once():
    """Delta = 2|k| + 1 for k < 0 and 1 for every k >= 0: infinitely many
    covers.  The positive end is flat from the first window on, so the
    search stops there, naming the zero drift, where the former loop
    doubled the window up to its cap."""
    d = build_system("A2")
    B = full_positive_biclosed(d)
    profile = (-1, (((0, -1), 1, 0, -2),))
    pieces = orders._pieces(B.chains(), *profile)
    assert orders._values(pieces, -3, 3) == [7, 5, 3, 1, 1, 1, 1]
    with pytest.raises(CertificationFailed, match=r"zero drift past k = 10: Delta = 1"):
        orders._certify(pieces, 10, d.coxeter_number)
    with pytest.raises(CertificationFailed, match="did not stabilize"):
        _scan_by_levels(B, profile, 10, d.coxeter_number)


def test_breakpoints_beyond_former_cap_certify():
    """Delta = 2|k| + 1 up to k = 5, flat at 11 up to k = 12000, then
    rising by 2 per step.  The window ends from |k| <= 10 on lie on the
    flat stretch, and the former loop gave up at its cap |k| <= 10**4; the
    pieces show that the positive end certifies past 12000, and it does at
    the eleventh doubling."""
    d = build_system("A2")
    B = full_positive_biclosed(d)
    rising = (((-1, 0), 1, 0, 2), ((0, -1), 1, 0, -2))
    flatten = ((1, 1), 0, -11, 2)
    rise_again = ((-1, -1), 1, -24000, 2)
    profile = (-1, rising + (flatten, rise_again))
    assert [_ray_delta(B, profile, k) for k in (0, 5, 12000, 12001)] == [
        1, 11, 11, 13,
    ]
    with pytest.raises(CertificationFailed, match="did not stabilize"):
        _scan_by_levels(B, profile, 10, d.coxeter_number)
    pieces = orders._pieces(B.chains(), *profile)
    n, values, drift = orders._certify(pieces, 10, d.coxeter_number)
    assert (n, drift) == (10 * 2**11, (2, 2))
    assert values[n + 12001] == 13 and values[-1] == 2 * (n - 12000) + 11
    assert values[:3] == [2 * n + 1, 2 * n - 1, 2 * n - 3]


def test_elements_of_other_types_are_refused():
    """An element, finite or affine, is equal only to elements of its own
    type (a finite one keeps the hash of its root images, so no set order
    moves).  Products of two types, a biclosed set whose twist is of
    another type (so dot_action and dot_iso_check across types), and each
    order entry point given an element of another type than B raise
    ValueError, naming both types."""
    labels = ("A2", "A3", "B2", "G2")
    for first in labels:
        for second in labels:
            if first == second:
                continue
            d, other = build_system(first), build_system(second)
            assert from_word(d, ()) != from_word(other, ())
            assert len({from_word(d, ()), from_word(other, ())}) == 2
            assert d.identity() != other.identity()
            assert hash(d.identity()) == hash(d.identity().imgs)
            B = full_positive_biclosed(d)
            x, z = from_word(d, (1, 2)), from_word(other, (1,))
            with pytest.raises(ValueError, match=f"{first}.*{second}"):
                x * z
            calls = (
                lambda: z * x,
                lambda: z.fin * x.fin,
                lambda: BiclosedSet(z, B.psi),
                lambda: orders.dot_action(z, B),
                lambda: dot_iso_check(z, B, [(x, x)]),
                lambda: twisted_length_left(z, B),
                lambda: twisted_length_right(z, B),
                lambda: covers(z, B),
                lambda: interval(x, z, B),
                lambda: interval(z, x, B),
                lambda: strong_leq(z, z, B),
                lambda: strong_leq(x, z, B),
                lambda: downset_corank(z, B, 0),
                lambda: weak_leq(z, z, B),
                lambda: weak_leq(x, z, B),
            )
            for call in calls:
                with pytest.raises(ValueError, match=f"{second}.*{first}"):
                    call()
            assert {w.datum for w in [*B._lB, *B._lBp]} <= {d}


def test_interval_grading_and_membership():
    rng = random.Random(42)
    d = build_system("A2")
    B = full_positive_biclosed(d)
    for _ in range(15):
        y = random_element(d, rng, 5)
        x = y
        for _ in range(3):
            los = lower_covers(x, B)
            if not los:
                break
            _, x = rng.choice(los)
        poset = interval(x, y, B)
        assert poset.check_grading()
        keys = set(poset.keys())
        assert x in keys and y in keys
        for z in keys:
            assert strong_leq(x, z, B) and strong_leq(z, y, B)


def _descend_layers(y, B, depth):
    """The oracle's layered down-sets: layers[i] = elements reached by i
    lower-cover steps from y, each a dict in discovery order, and every
    cover edge read, as (lower, upper, reflection root)."""
    layers = [{y: None}]
    edges = []
    for _ in range(depth):
        nxt = {}
        for z in layers[-1]:
            for refl_root, z2 in lower_covers(z, B):
                nxt[z2] = None
                edges.append((z2, z, refl_root))
        layers.append(nxt)
    return layers, edges


def _oracle_interval(x, y, B, descent):
    """[x, y] by a full descent from y pruned to the ancestors of x.

    descent = _descend_layers(y, B, depth) for a depth of at least the
    grade gap; the layers and edges below the gap are dropped.
    """
    lx = twisted_length_left(x, B)
    ly = twisted_length_left(y, B)
    if x == y:
        return GradedPoset([PosetNode(x, lx, format_word(x.word()))], [])
    if lx >= ly:
        return GradedPoset()
    gap = ly - lx
    layers = descent[0][: gap + 1]
    expanded = set().union(*layers[:-1])
    edges = [e for e in descent[1] if e[1] in expanded]
    if x not in layers[-1]:
        return GradedPoset()
    # keep nodes on some descending path y -> ... -> x
    keep = {x}
    frontier = {x}
    up = {}
    for lo, hi, _ in edges:
        up.setdefault(lo, set()).add(hi)
    while frontier:
        nxt = set()
        for z in frontier:
            for z2 in up.get(z, ()):
                if z2 not in keep:
                    keep.add(z2)
                    nxt.add(z2)
        frontier = nxt
    assert y in keep
    nodes = [
        PosetNode(z, twisted_length_left(z, B), format_word(z.word()))
        for z in sorted(keep, key=lambda z: (twisted_length_left(z, B), z.word()))
    ]
    poset_edges = [
        orders._cover_edge(B.datum, lo, hi, refl)
        for lo, hi, refl in edges
        if lo in keep and hi in keep
    ]
    return GradedPoset(nodes, poset_edges)


def test_interval_and_strong_leq_match_full_descent():
    """The two-ended interval equals the full descent from y pruned to the
    ancestors of x, nodes and edges in order, and strong_leq equals
    membership in the descent: every class of every type, grade gaps 0-6,
    comparable, incomparable and misordered pairs."""
    rng = random.Random(61)
    seen = Counter()
    for label in ("A2", "A3", "B2", "G2"):
        d = build_system(label)
        for B in _biclosed_of_each_class(label, rng):
            # three gaps down from y; a Finite order has a least element,
            # so there y starts six grades above a random element
            gaps = sorted(rng.sample(range(1, 7), 3))
            y = random_element(d, rng, 3)
            for _ in range(6 if B.classify() == "Finite" else 0):
                y = rng.choice(upper_covers(y, B))[1]
            descent = _descend_layers(y, B, gaps[-1])
            layers = descent[0]
            ly = twisted_length_left(y, B)
            below = [rng.choice(list(layers[gap])) for gap in gaps]
            for x in below:  # misordered: y is above x
                assert interval(y, x, B) == GradedPoset()
                assert not strong_leq(y, x, B)
                seen["misordered"] += 1
            xs = [y] + below
            # near misses: the other upper covers of an element a grade lower
            for gap in (0, gaps[1]):
                z = rng.choice(list(layers[gap + 1]))
                others = [w for _, w in upper_covers(z, B) if w not in layers[gap]]
                if others:
                    xs.append(rng.choice(others))
            for x in xs:
                gap = ly - twisted_length_left(x, B)
                poset = interval(x, y, B)
                assert poset == _oracle_interval(x, y, B, descent), (label, gap)
                comparable = x in layers[gap]
                assert strong_leq(x, y, B) == comparable
                seen["comparable" if comparable else "incomparable"] += 1
                seen[gap] += bool(poset.nodes)
    assert all(seen[gap] >= 5 for gap in range(7)), seen
    assert seen["incomparable"] >= 20 and seen["misordered"] == 51, seen


def test_interval_reads_covers_of_the_two_ends(monkeypatch):
    """A two-grade interval reads the covers of exactly x and y, and a
    one-grade interval those of y alone."""
    d = build_system("A2")
    B = full_positive_biclosed(d)
    y = from_word(d, (1, 2, 3, 1))
    x1 = lower_covers(y, B)[0][1]
    x2 = lower_covers(x1, B)[0][1]
    read = []
    real = orders.covers
    monkeypatch.setattr(
        orders, "covers", lambda w, B: read.append(w) or real(w, B)
    )
    assert len(interval(x2, y, B).nodes) == 4
    assert len(read) == 2 and set(read) == {x2, y}
    del read[:]
    assert len(interval(x1, y, B).nodes) == 2
    assert read == [y]


def _left_weak(edge, B):
    """The edge-kind oracle: lower <= upper in the left twisted weak order,
    by the inversion sets of the inverses."""
    return weak_leq(edge.lower.inverse(), edge.upper.inverse(), B)


def test_edge_kind_matches_left_weak_oracle():
    """An interval or Hasse-figure edge is "weak" iff its ends compare in
    the left weak order, on every class of every type under twists of up
    to 4 letters and on the alcove figure; the figure has s_0 = s_(theta,
    -1) edges, so taking (theta, +1) for the affine simple root fails."""
    rng = random.Random(51)
    kinds = Counter()
    for label in ("A2", "A3", "B2", "G2"):
        d = build_system(label)
        for B in _biclosed_of_each_class(label, rng, twist_len=4):
            for _ in range(3):
                y = random_element(d, rng, 5)
                x = y
                for _ in range(3):
                    los = lower_covers(x, B)
                    if los:
                        _, x = rng.choice(los)
                for edge in interval(x, y, B).edges:
                    assert (edge.kind == "weak") == _left_weak(edge, B), edge
                    kinds[edge.kind] += 1
    B = a2.alcove_biclosed()
    for edge in a2.figure_hasse(8).edges:
        assert (edge.kind == "weak") == _left_weak(edge, B), edge
        kinds[edge.kind] += 1
    assert kinds["weak"] > 100 and kinds["strong"] > 100


def test_strong_leq_antisymmetry_and_reflexivity():
    rng = random.Random(43)
    d = build_system("A2")
    B = full_positive_biclosed(d)
    for _ in range(20):
        w = random_element(d, rng, 6)
        assert strong_leq(w, w, B)
        v = random_element(d, rng, 6)
        if w != v and strong_leq(w, v, B):
            assert not strong_leq(v, w, B)


def test_downset_corank_matches_poincare_counts():
    """Frozen layer sizes of the alcove order, both parities."""
    d = build_system("A2")
    B = full_positive_biclosed(d)
    even = [len(downset_corank(identity(d), B, n)) for n in range(9)]
    odd = [len(downset_corank(from_word(d, (1,)), B, n)) for n in range(9)]
    assert even == [1, 2, 4, 5, 7, 8, 10, 11, 13]
    assert odd == [1, 3, 4, 6, 7, 9, 10, 12, 13]


def test_empty_twist_weak_order_is_inversion_containment():
    """u <='_{emptyset} v iff N(u) subseteq N(v) (right weak order)."""
    rng = random.Random(44)
    d = build_system("A2")
    B = empty_biclosed(d)
    for _ in range(60):
        u = random_element(d, rng, 6)
        v = random_element(d, rng, 6)
        assert weak_leq(u, v, B) == (
            inversion_set(u) <= inversion_set(v)
        )


def test_weak_implies_strong():
    rng = random.Random(45)
    d = build_system("A2")
    B = full_positive_biclosed(d)
    hits = 0
    for _ in range(80):
        u = random_element(d, rng, 5)
        v = random_element(d, rng, 5)
        if weak_leq(u.inverse(), v.inverse(), B):
            hits += 1
            assert strong_leq(u, v, B)
    assert hits > 5


def test_weak_chain_structure():
    rng = random.Random(46)
    d = build_system("A2")
    B = full_positive_biclosed(d)
    for _ in range(40):
        u = random_element(d, rng, 5)
        v = random_element(d, rng, 5)
        if not weak_leq(u, v, B):
            continue
        chain = weak_chain(u, v, B)
        assert chain[0] == u and chain[-1] == v
        for a, b in zip(chain, chain[1:]):
            assert twisted_length_right(b, B) == twisted_length_right(a, B) + 1


def _chain_differences(a_chains, b_chains):
    """Per-base intervals of N(a) \\ N(b); chains share their base_zero lo."""
    diffs = []
    for base, (lo, hi) in a_chains.items():
        other = b_chains.get(base)
        cut = other[1] if other is not None else lo - 1
        if hi > cut:
            diffs.append((base, max(lo, cut + 1), hi))
    return diffs


def _two_pass_weak_leq(u, v, B):
    """The former weak_leq: N(u) \\ N(v) and N(v) \\ N(u), one pass each."""
    a, b = u.inversion_chains(), v.inversion_chains()
    for base, lo, hi in _chain_differences(a, b):
        if B.count_in_chain(base, lo, hi) != hi - lo + 1:
            return False
    for base, lo, hi in _chain_differences(b, a):
        if B.count_in_chain(base, lo, hi) != 0:
            return False
    return True


def _greedy_weak_chain(u, v, B):
    """The former weak_chain: at each step the least simple letter s with
    l'_B(cur s) = l'_B(cur) + 1 and cur s <='_B v, by trial products."""
    if not _two_pass_weak_leq(u, v, B):
        raise NotComparable("u is not below v in the right twisted weak order")
    gens = simple_reflections(B.datum)
    chain = [u]
    cur = u
    while cur != v:
        lcur = twisted_length_right(cur, B)
        for s in gens:
            nxt = cur * s
            if (
                twisted_length_right(nxt, B) == lcur + 1
                and _two_pass_weak_leq(nxt, v, B)
            ):
                chain.append(nxt)
                cur = nxt
                break
        else:
            raise AssertionError("chain property violated")
    return chain


def _product_extremum_check(B, radius):
    """The former no_local_extremum_check: the twisted length of every
    product u s_i of a ball element."""
    gens = simple_reflections(B.datum)
    violations = []
    for u in length_ball(B.datum, radius):
        lu = twisted_length_right(u, B)
        deltas = {twisted_length_right(u * s, B) - lu for s in gens}
        if 1 not in deltas:
            violations.append((u, "no upper neighbor"))
        if -1 not in deltas:
            violations.append((u, "no lower neighbor"))
    return violations


def _weak_walk(u, B, steps, rng):
    """An element up to `steps` random right weak covers above u (fewer
    where a Cofinite order tops out)."""
    gens = simple_reflections(B.datum)
    for _ in range(steps):
        lu = twisted_length_right(u, B)
        ups = [u * s for s in gens if twisted_length_right(u * s, B) == lu + 1]
        if not ups:
            break
        u = rng.choice(ups)
    return u


def _chain_or_refusal(fn, u, v, B):
    try:
        return fn(u, v, B)
    except NotComparable:
        return NotComparable


def test_weak_order_matches_former_code():
    """weak_leq and weak_chain equal the two-pass comparison and the greedy
    chain, chains in order, and refuse the same pairs: every class of every
    type, on pairs joined by weak covers, their reverses and random pairs."""
    rng = random.Random(62)
    seen = Counter()
    for label in ("A2", "A3", "B2", "G2"):
        d = build_system(label)
        for B in _biclosed_of_each_class(label, rng):
            for _ in range(6):
                u = random_element(d, rng, 5)
                v = _weak_walk(u, B, rng.randrange(7), rng)
                assert weak_leq(u, v, B)
                for x, y in ((u, v), (v, u), (u, random_element(d, rng, 5))):
                    leq = weak_leq(x, y, B)
                    assert leq == _two_pass_weak_leq(x, y, B)
                    chain = _chain_or_refusal(weak_chain, x, y, B)
                    assert chain == _chain_or_refusal(_greedy_weak_chain, x, y, B)
                    assert (chain is NotComparable) != leq
                    seen[len(chain) if leq else "incomparable"] += 1
    assert seen["incomparable"] >= 50 and all(seen[n] for n in range(1, 8)), seen


def test_extremum_check_matches_products():
    """no_local_extremum_check equals the products u s_i, violations in
    order, on every class of every type; Finite and Cofinite sets have their
    extremum (at the twist) inside the ball."""
    rng = random.Random(63)
    extrema = Counter()
    for label in ("A2", "A3", "B2", "G2"):
        for _ in range(3):
            for B in _biclosed_of_each_class(label, rng):
                violations = no_local_extremum_check(B, 4)
                assert violations == _product_extremum_check(B, 4)
                extrema[B.classify()] += len(violations)
    assert extrema["Finite"] >= 12 and extrema["Cofinite"] >= 12, extrema
    infinite = ("InfiniteWordInversion", "InfiniteWordCoinversion", "Mixed")
    assert not any(extrema[c] for c in infinite), extrema


def test_negative_radius_is_refused():
    """A grown ball is never read from its end."""
    d = build_system("A2")
    B = full_positive_biclosed(d)
    assert len(length_ball(d, 5)) == 46
    for fn, args in (
        (length_ball, (d, -2)),
        (level_set_sample, (B, 0, -1)),
        (no_local_extremum_check, (B, -2)),
        (antichain_at_level, (B, 0, 1, -3)),
    ):
        with pytest.raises(ValueError, match="radius must be >= 0"):
            fn(*args)


def test_negative_size_target_is_refused():
    """A negative size is an error, not a slice from the end: the radius-6
    level set at 0 has 7 elements, and size -1 used to return 6 of them."""
    B = full_positive_biclosed(build_system("A2"))
    assert len(antichain_at_level(B, 0, 7, 6)) == 7
    assert antichain_at_level(B, 0, 0, 6) == []
    with pytest.raises(ValueError, match="size_target must be >= 0"):
        antichain_at_level(B, 0, -1, 6)


def test_level_sets_grow():
    d = build_system("A2")
    B = full_positive_biclosed(d)
    for k in (-1, 0, 1):
        sizes = [len(level_set_sample(B, k, r)) for r in (4, 8, 12)]
        assert sizes[0] < sizes[1] < sizes[2]


def test_antichain_elements_incomparable():
    rng = random.Random(47)
    B = random_biclosed("A3", rng, mixed=True, twist_len=1)
    chain = antichain_at_level(B, 0, 20, 14)
    assert len(chain) == 20
    assert {twisted_length_right(w, B) for w in chain} == {0}
    sample = rng.sample(chain, 6)
    for i, a in enumerate(sample):
        for b in sample[i + 1:]:
            assert not weak_leq(a, b, B)
            assert not weak_leq(b, a, B)


def _antichain_by_growing_balls(B, k, size_target, radius):
    """The former antichain_at_level: one level-set filter per radius."""
    sample = []
    for r in range(radius + 1):
        sample = level_set_sample(B, k, r)
        if len(sample) >= size_target:
            return sample[:size_target]
    raise TargetNotReached(sample)


def test_antichain_matches_growing_balls():
    """One filter of the full ball gives the elements, and the
    TargetNotReached payload, of the radius-by-radius scan."""
    rng = random.Random(48)
    for label in ("A2", "A3", "B2"):
        for _ in range(3):
            B = random_biclosed(label, rng)
            for k, size, radius in ((0, 5, 6), (1, 12, 7), (-1, 40, 5)):
                results = []
                for fn in (antichain_at_level, _antichain_by_growing_balls):
                    try:
                        results.append(fn(B, k, size, radius))
                    except TargetNotReached as exc:
                        results.append(("short", exc.found))
                assert results[0] == results[1]


def test_no_local_extrema_alcove():
    d = build_system("A2")
    B = full_positive_biclosed(d)
    assert no_local_extremum_check(B, 4) == []


def test_local_extrema_exist_for_finite_B():
    """A Finite twisting set has a global minimum, hence a local one."""
    d = build_system("A2")
    w = from_word(d, (1, 2, 3))
    B = from_inversion_set(w)
    violations = no_local_extremum_check(B, 3)
    assert (w, "no lower neighbor") in violations


def test_dot_action_order_isomorphism():
    rng = random.Random(48)
    d = build_system("A2")
    B = full_positive_biclosed(d)
    w = random_element(d, rng, 4)
    pairs = [
        (random_element(d, rng, 5), random_element(d, rng, 5))
        for _ in range(25)
    ]
    assert dot_iso_check(w, B, pairs) == []


def _ball_by_bfs(datum, radius):
    """The former `length_ball`, kept as the oracle of the growing ball: a
    fresh breadth-first search to the radius, sorted by (length, word)."""
    e = identity(datum)
    seen = {e: 0}
    frontier = [e]
    for dist in range(1, radius + 1):
        nxt = []
        for w in frontier:
            for s in simple_reflections(datum):
                ws = w * s
                if ws not in seen and ws.length() == dist:
                    seen[ws] = dist
                    nxt.append(ws)
        frontier = nxt
    return tuple(sorted(seen, key=lambda w: (seen[w], w.word())))


@pytest.mark.parametrize("label", ("A2", "A3", "B2", "G2"))
def test_length_ball_matches_bfs(label, monkeypatch):
    """One ball per type, grown on demand: each radius, asked in decreasing
    and then increasing order, is the prefix the oracle BFS returns."""
    monkeypatch.setattr(orders, "_BALL_CACHE", {})
    d = build_system(label)
    expected = {r: _ball_by_bfs(d, r) for r in range(7)}
    for r in list(range(6, -1, -1)) + list(range(7)):
        assert length_ball(d, r) == expected[r]
    assert list(orders._BALL_CACHE) == [label]
