"""Exact rational cone-membership via Phase-I simplex with Bland's rule.

Decides whether a target vector is a nonnegative combination of finitely
many generators.  One common positive factor L clears the denominators of
the inputs (L = 1 for integer inputs), and the simplex pivots an integer
tableau fraction-free (Bareiss, Math. Comp. 22, 1968): every entry is D
times the rational tableau entry, D the last pivot, and every division is
exact.  Fraction appears only in the returned certificate.  YES answers
carry the coefficients; NO answers carry a separating functional y with
y . g <= 0 for every generator g and y . target > 0 (Farkas certificate).
Both certificates are re-verified by integer substitution before being
returned; a certificate that fails its check raises CertificationFailed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple


class CertificationFailed(Exception):
    """A certificate failed its explicit check: cover drift, cone
    substitution, or interval consistency.  The CLI exits with code 3."""


class ConeCertificate(NamedTuple):
    feasible: bool
    coefficients: tuple  # per generator, when feasible
    functional: tuple  # separating y, when infeasible


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def cone_membership(generators, target) -> ConeCertificate:
    """Is target in cone(generators)?  Exact, with a verified certificate."""
    rows = [tuple(g) for g in generators] + [tuple(target)]
    for g in rows[:-1]:
        if len(g) != len(rows[-1]):
            raise ValueError(f"generator {g} and the target differ in length")
    # one positive L clears every denominator (L = 1 for int inputs)
    try:
        L = lcm(*(x.denominator for row in rows for x in row))
    except AttributeError:
        bad = next(x for row in rows for x in row if not hasattr(x, "denominator"))
        raise TypeError(f"entry {bad!r} is not an int or a Fraction") from None
    *gens, b = [tuple(x.numerator * (L // x.denominator) for x in r) for r in rows]
    m = len(b)
    n = len(gens)

    # Phase-I tableau: columns = generators then artificials, rows scaled so
    # the right-hand side is nonnegative; minimize the artificial sum.
    sign = [-1 if bi < 0 else 1 for bi in b]
    tableau = [
        [sign[i] * g[i] for g in gens] + [int(i == j) for j in range(m)]
        for i in range(m)
    ]
    rhs = [s * bi for s, bi in zip(sign, b)]
    basis = list(range(n, n + m))
    cost = [0] * n + [1] * m
    D = 1  # tableau and rhs hold D times their rational values

    while True:
        # price out: column j improves when cost_j D < sum_i cbar_i T_ij
        artificial = [tableau[i] for i in range(m) if basis[i] >= n]
        entering = -1
        for j in range(n + m):
            if j in basis:
                continue
            if cost[j] * D < sum(row[j] for row in artificial):
                entering = j  # Bland: first improving column
                break
        if entering < 0:
            break
        # ratio test rhs_i / a_i, Bland tie-break on least basis index
        leaving, a_l = -1, 0
        for i in range(m):
            a = tableau[i][entering]
            if a > 0 and (leaving < 0 or (rhs[i] * a_l, basis[i])
                          < (rhs[leaving] * a, basis[leaving])):
                leaving, a_l = i, a
        if leaving < 0:  # pragma: no cover - phase-I objective is bounded
            raise AssertionError("unbounded phase-I problem")
        p = tableau[leaving][entering]
        row_l, rhs_l = tableau[leaving], rhs[leaving]
        for i in range(m):
            if i != leaving:
                f = tableau[i][entering]
                tableau[i] = [
                    (p * x - f * y) // D for x, y in zip(tableau[i], row_l)
                ]
                rhs[i] = (p * rhs[i] - f * rhs_l) // D
        D = p
        basis[leaving] = entering

    if not any(rhs[i] for i in range(m) if basis[i] >= n):
        num = [0] * n
        for i in range(m):
            if basis[i] < n:
                num[basis[i]] = rhs[i]
        # verify by substitution: sum_j num_j g_j = D b
        for i in range(m):
            if sum(c * g[i] for c, g in zip(num, gens)) != D * b[i]:
                raise CertificationFailed(f"cone coefficients miss row {i}")
        if any(c < 0 for c in num):
            raise CertificationFailed("negative cone coefficient")
        return ConeCertificate(True, tuple(Fraction(c, D) for c in num), ())

    # infeasible: y = c_B B^{-1}; D B^{-1} sits under the artificial columns,
    # times the row signs that made rhs nonnegative
    y = [
        sign[j] * sum(tableau[i][n + j] for i in range(m) if basis[i] >= n)
        for j in range(m)
    ]
    if _dot(y, b) <= 0:
        raise CertificationFailed("Farkas functional does not separate the target")
    if any(_dot(y, g) > 0 for g in gens):
        raise CertificationFailed("Farkas functional is positive on a generator")
    return ConeCertificate(False, (), tuple(Fraction(c, D) for c in y))
