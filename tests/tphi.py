"""The continuous Kostant function T_X by the Dahmen-Micchelli recursion, in exact Fractions.

T_X is the density of the push-forward of Lebesgue measure on the orthant
R^N_{>=0} under x -> sum_i x_i a_i, for a list X = (a_1, ..., a_N) of
vectors that spans R^d: a piecewise polynomial of degree N - d on the cone
of X.  For X a basis it is 1 / |det X| on the cone and 0 off it.  Above a
basis, T_X is homogeneous of degree N - d and its derivative along a_i is
T_{X \\ a_i}, so Euler's identity gives the recursion (Dahmen and Micchelli,
Trans. AMS 308, 1988; De Concini and Procesi, Topics in Hyperplane
Arrangements, Polytopes and Box-Splines, 2011, ch. 7)

    (N - d) T_X(v) = sum_i t_i T_{X \\ a_i}(v)   for any v = sum_i t_i a_i.

Here t is v's coordinates in the first basis of X, and every other t_i is 0.
That needs X \\ a_i to span for each a_i of that basis, which holds when no
two vectors of X are parallel in rank 2, as for every rank-2 root system;
a coloop raises ValueError.  On the walls, where T_X may jump, every value
is the limit of T_X(v + t u) as t -> 0+, u a direction parallel to no
facet of a basis cone: the products t_i T_{X \\ a_i} tend to the products
of the limits, and a point v + t u lies in a basis cone for small t iff
each of its coordinates c_i there is positive or is 0 with u's coordinate
e_i positive.  Where T_X is continuous (N > d and no coloop), the limit is
the value itself.

Weights are in simple-root coordinates, in which T_Phi, X the positive
roots, is the relative volume of the paper.  On B2 the orthonormal basis
(e1, e2) and the simple roots (e1 - e2, e2) span the same lattice, so the
two coordinates measure area alike.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction as Q
from functools import cache
from itertools import combinations


def inverse(columns) -> tuple[Q, tuple[tuple[Q, ...], ...] | None]:
    """(det B, B^-1) for the square matrix B with the given columns; (0, None) when B is singular."""
    d = len(columns)
    M = [[Q(col[i]) for col in columns] + [Q(int(i == j)) for j in range(d)] for i in range(d)]
    det = Q(1)
    for k in range(d):
        p = next((r for r in range(k, d) if M[r][k] != 0), None)
        if p is None:
            return Q(0), None
        if p != k:
            M[k], M[p] = M[p], M[k]
            det = -det
        det *= M[k][k]
        M[k] = [x / M[k][k] for x in M[k]]
        for r in range(d):
            if r != k and M[r][k] != 0:
                f = M[r][k]
                M[r] = [a - f * b for a, b in zip(M[r], M[k])]
    return det, tuple(tuple(row[d:]) for row in M)


def apply(inv, v) -> list[Q]:
    return [sum((a * b for a, b in zip(row, v)), Q(0)) for row in inv]


@cache
def first_basis(X: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], Q, tuple[tuple[Q, ...], ...]]:
    """(indices, det, inverse) of the first basis among the vectors X; ValueError when one of them is a coloop."""
    d = len(X[0])
    for idx in combinations(range(len(X)), d):
        det, inv = inverse([X[i] for i in idx])
        if det != 0:
            break
    else:
        raise ValueError(f"{X} does not span")
    for i in idx if len(X) > d else ():
        first_basis(X[:i] + X[i + 1:])
    return idx, det, inv


def t_phi(X: tuple[tuple[int, ...], ...], v, u) -> Q:
    """lim_{t -> 0+} T_X(v + t u), X a tuple of vectors that spans R^d, d = len(v)."""
    idx, det, inv = first_basis(X)
    t = apply(inv, v)
    if len(X) == len(v):
        return 1 / abs(det) if all(ti > 0 or ti == 0 and ei > 0 for ti, ei in zip(t, apply(inv, u))) else Q(0)
    total = sum((ti * t_phi(X[:i] + X[i + 1:], v, u) for i, ti in zip(idx, t) if ti), Q(0))
    return total / (len(X) - len(v))


#: the B2 positive roots e1 - e2, e2, e1, e1 + e2 in simple-root coordinates
B2_POSITIVE_ROOTS = ((1, 0), (0, 1), (1, 1), (1, 2))
#: a direction parallel to no B2 root, so to no facet of a cone of two of them
B2_DIRECTION = (3, 1)


def b2_weyl_group() -> list[tuple[int, int, int, int]]:
    """The eight signed permutations of two coordinates as (swap, s1, s2, det)."""
    return [(swap, s1, s2, (-1 if swap else 1) * s1 * s2) for swap in (0, 1) for s1 in (1, -1) for s2 in (1, -1)]


def b2_act(w, x) -> tuple:
    swap, s1, s2, _ = w
    a, b = (x[1], x[0]) if swap else (x[0], x[1])
    return (s1 * a, s2 * b)


def j_b2_by_t_phi(alpha, beta, gamma, u=B2_DIRECTION) -> Q:
    """sum_{w, w'} eps(w) eps(w') T_Phi(w alpha + w' beta - gamma), orthonormal alpha, beta and gamma.

    x = (x1, x2) orthonormal is x1 (e1 - e2) + (x1 + x2) e2 in simple roots.
    """
    group = b2_weyl_group()
    terms = Counter()
    for w in group:
        for w2 in group:
            x1, x2 = (Q(p) + Q(q) - Q(g) for p, q, g in zip(b2_act(w, alpha), b2_act(w2, beta), gamma))
            terms[x1, x1 + x2] += w[3] * w2[3]
    return sum((e * t_phi(B2_POSITIVE_ROOTS, x, u) for x, e in terms.items() if e), Q(0))
