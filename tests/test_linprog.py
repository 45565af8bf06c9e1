"""Exact cone membership: certificates checked independently of the solver."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_bruhat.linprog import cone_membership


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def fraction_simplex(generators, target):
    """The Phase-I simplex over Fraction, pivot for pivot as the library's
    integer tableau: (feasible, coefficients, functional)."""
    gens = [tuple(Fraction(x) for x in g) for g in generators]
    b = [Fraction(x) for x in target]
    m, n = len(b), len(gens)
    sign = [Fraction(-1) if bi < 0 else Fraction(1) for bi in b]
    cols = [[sign[i] * g[i] for i in range(m)] for g in gens]
    for j in range(m):
        cols.append([Fraction(int(i == j)) for i in range(m)])
    rhs = [sign[i] * b[i] for i in range(m)]
    basis = list(range(n, n + m))
    cost = [Fraction(0)] * n + [Fraction(1)] * m
    tableau = [list(col) for col in zip(*cols)]
    while True:
        cbar = [cost[basis[i]] for i in range(m)]
        entering = -1
        for j in range(n + m):
            if j in basis:
                continue
            rc = cost[j] - dot(cbar, [tableau[i][j] for i in range(m)])
            if rc < 0:
                entering = j
                break
        if entering < 0:
            break
        leaving = -1
        best = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                ratio = rhs[i] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        piv = tableau[leaving][entering]
        tableau[leaving] = [x / piv for x in tableau[leaving]]
        rhs[leaving] /= piv
        for i in range(m):
            if i != leaving and tableau[i][entering] != 0:
                f = tableau[i][entering]
                tableau[i] = [
                    x - f * p for x, p in zip(tableau[i], tableau[leaving])
                ]
                rhs[i] -= f * rhs[leaving]
        basis[leaving] = entering
    if sum(rhs[i] for i in range(m) if basis[i] >= n) == 0:
        coeffs = [Fraction(0)] * n
        for i in range(m):
            if basis[i] < n:
                coeffs[basis[i]] = rhs[i]
        return True, tuple(coeffs), ()
    cbar = [cost[basis[i]] for i in range(m)]
    y = tuple(
        sign[j] * dot(cbar, [tableau[i][n + j] for i in range(m)])
        for j in range(m)
    )
    return False, (), y


def _instance(rng):
    """Small generator sets with ties: zero targets, no generators,
    repeated and parallel generators, and fractional entries."""
    m = rng.randrange(1, 6)
    entry = lambda: (
        Fraction(rng.randrange(-6, 7), rng.choice((1, 1, 2, 3, 4)))
        if rng.random() < 0.3
        else rng.randrange(-3, 4)
    )
    gens = [tuple(entry() for _ in range(m)) for _ in range(rng.randrange(7))]
    for _ in range(rng.randrange(3) if gens else 0):
        g = rng.choice(gens)
        c = rng.choice((1, 2, 3, Fraction(1, 2)))
        gens.insert(rng.randrange(len(gens) + 1), tuple(c * x for x in g))
    if rng.random() < 0.1:
        target = (0,) * m
    elif gens and rng.random() < 0.4:
        target = tuple(
            sum(c * g[i] for c, g in zip(
                [rng.randrange(3) for _ in gens], gens)) for i in range(m)
        )
    else:
        target = tuple(entry() for _ in range(m))
    return gens, target


def test_integer_tableau_matches_fraction_simplex():
    rng = random.Random(72)
    kinds = {"feasible": 0, "infeasible": 0, "empty": 0, "zero": 0,
             "fraction": 0}
    for _ in range(2500):
        gens, target = _instance(rng)
        cert = cone_membership(gens, target)
        got = (cert.feasible, cert.coefficients, cert.functional)
        assert got == fraction_simplex(gens, target), (gens, target)
        assert all(type(c) is Fraction for c in got[1] + got[2])
        kinds["feasible" if cert.feasible else "infeasible"] += 1
        kinds["empty"] += not gens
        kinds["zero"] += not any(target)
        kinds["fraction"] += any(
            isinstance(x, Fraction) and x.denominator > 1
            for row in gens + [target] for x in row
        )
    assert min(kinds.values()) > 100, kinds


def test_generator_length_must_match_target():
    with pytest.raises(ValueError, match=r"\(1, 0, 5\)"):
        cone_membership([(1, 0, 5)], (1, 0))
    with pytest.raises(ValueError, match=r"\(1,\)"):
        cone_membership([(0, 1), (1,)], (1, 0))


def test_non_rational_entries_are_refused():
    """A float or a string has no denominator: it is refused by name, not
    left to escape as an AttributeError."""
    with pytest.raises(TypeError, match=r"entry 1\.0 "):
        cone_membership([(1.0, 0)], (1, 0))
    with pytest.raises(TypeError, match=r"entry 'x' "):
        cone_membership([(1, 0)], (0, "x"))


def test_unit_cone_contains_positive_orthant():
    gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    cert = cone_membership(gens, (2, 3, 5))
    assert cert.feasible
    assert list(cert.coefficients) == [2, 3, 5]


def test_unit_cone_excludes_negative_directions():
    gens = [(1, 0), (0, 1)]
    cert = cone_membership(gens, (-1, 2))
    assert not cert.feasible
    y = cert.functional
    assert dot(y, (-1, 2)) > 0
    assert all(dot(y, g) <= 0 for g in gens)


def test_zero_target_always_feasible():
    cert = cone_membership([(1, 2), (-3, 1)], (0, 0))
    assert cert.feasible
    assert all(c == 0 for c in cert.coefficients)


def test_dependent_generators():
    gens = [(1, 1), (2, 2), (-1, -1)]
    cert = cone_membership(gens, (3, 3))
    assert cert.feasible
    combo = [
        sum(c * g[i] for c, g in zip(cert.coefficients, gens)) for i in range(2)
    ]
    assert combo == [3, 3]


def test_random_certificates_verify():
    rng = random.Random(71)
    n_feasible = n_infeasible = 0
    for _ in range(300):
        m = rng.randrange(2, 5)
        n = rng.randrange(1, 7)
        gens = [
            tuple(Fraction(rng.randrange(-5, 6)) for _ in range(m))
            for _ in range(n)
        ]
        target = tuple(Fraction(rng.randrange(-5, 6)) for _ in range(m))
        cert = cone_membership(gens, target)
        if cert.feasible:
            n_feasible += 1
            assert all(c >= 0 for c in cert.coefficients)
            for i in range(m):
                assert (
                    sum(c * g[i] for c, g in zip(cert.coefficients, gens))
                    == target[i]
                )
        else:
            n_infeasible += 1
            y = cert.functional
            assert dot(y, target) > 0
            assert all(dot(y, g) <= 0 for g in gens)
    assert n_feasible > 20 and n_infeasible > 20


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    m=st.integers(2, 4),
    n=st.integers(1, 5),
)
def test_feasible_by_construction(data, m, n):
    """A target built as a nonneg combination is always certified feasible."""
    coeff_st = st.fractions(
        min_value=0, max_value=5, max_denominator=4
    )
    entry_st = st.integers(-4, 4)
    gens = [
        tuple(data.draw(entry_st) for _ in range(m)) for _ in range(n)
    ]
    coeffs = [data.draw(coeff_st) for _ in range(n)]
    target = tuple(
        sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(m)
    )
    cert = cone_membership(gens, target)
    assert cert.feasible
