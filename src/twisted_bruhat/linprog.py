"""Exact rational cone-membership via Phase-I simplex with Bland's rule.

Decides whether a target vector is a nonnegative combination of finitely
many generators, entirely over Fraction.  YES answers carry the
coefficients; NO answers carry a separating functional y with
y . g <= 0 for every generator g and y . target > 0 (Farkas certificate).
Both certificates are re-verified by substitution before being returned;
a certificate that fails its check raises CertificationFailed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class CertificationFailed(Exception):
    """A certificate failed its explicit check: cover drift, cone
    substitution, or interval consistency.  The CLI exits with code 3."""


@dataclass(frozen=True)
class ConeCertificate:
    feasible: bool
    coefficients: tuple  # per generator, when feasible
    functional: tuple  # separating y, when infeasible


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def cone_membership(generators, target) -> ConeCertificate:
    """Is target in cone(generators)?  Exact, with a verified certificate."""
    gens = [tuple(Fraction(x) for x in g) for g in generators]
    b = [Fraction(x) for x in target]
    m = len(b)
    n = len(gens)

    # Phase-I tableau: columns = generators then artificials, rows scaled so
    # the right-hand side is nonnegative; minimize the artificial sum.
    sign = [Fraction(-1) if bi < 0 else Fraction(1) for bi in b]
    cols = [[sign[i] * g[i] for i in range(m)] for g in gens]
    for j in range(m):  # artificial j = unit column j
        cols.append([Fraction(int(i == j)) for i in range(m)])
    rhs = [sign[i] * b[i] for i in range(m)]
    basis = list(range(n, n + m))
    cost = [Fraction(0)] * n + [Fraction(1)] * m

    tableau = [list(col) for col in zip(*cols)]  # m rows, n+m columns

    while True:
        # price out: reduced cost of column j is c_j - sum_i cbar_i row_i[j]
        cbar = [cost[basis[i]] for i in range(m)]
        entering = -1
        for j in range(n + m):
            if j in basis:
                continue
            rc = cost[j] - _dot(cbar, [tableau[i][j] for i in range(m)])
            if rc < 0:
                entering = j  # Bland: first improving column
                break
        if entering < 0:
            break
        # ratio test, Bland tie-break on least basis index
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
        if leaving < 0:  # pragma: no cover - phase-I objective is bounded
            raise AssertionError("unbounded phase-I problem")
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

    objective = sum(
        rhs[i] for i in range(m) if basis[i] >= n
    )
    if objective == 0:
        coeffs = [Fraction(0)] * n
        for i in range(m):
            if basis[i] < n:
                coeffs[basis[i]] = rhs[i]
        # verify by substitution
        for i in range(m):
            if sum(coeffs[j] * gens[j][i] for j in range(n)) != b[i]:
                raise CertificationFailed(f"cone coefficients miss row {i}")
        if any(c < 0 for c in coeffs):
            raise CertificationFailed("negative cone coefficient")
        return ConeCertificate(True, tuple(coeffs), ())

    # infeasible: y = c_B B^{-1}; B^{-1} sits under the artificial columns
    cbar = [cost[basis[i]] for i in range(m)]
    y_scaled = [
        _dot(cbar, [tableau[i][n + jj] for i in range(m)]) for jj in range(m)
    ]
    # undo the row scaling applied to make rhs nonnegative
    y = tuple(y_scaled[i] * sign[i] for i in range(m))
    if _dot(y, b) <= 0:
        raise CertificationFailed("Farkas functional does not separate the target")
    if any(_dot(y, g) > 0 for g in gens):
        raise CertificationFailed("Farkas functional is positive on a generator")
    return ConeCertificate(False, (), y)
