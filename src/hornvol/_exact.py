"""Exact rational linear algebra and bivariate polynomial integrals.

Everything here works over `fractions.Fraction` or Python ints; no floating
point.  Matrices are tuples/lists of row sequences.  `det_adj_bareiss`, the
integer elimination, gives the determinant and adjugate of a Cartan matrix;
`det_bareiss` reads the determinant off it, for the Cartan matrices and the
rank-sized covolume Gram matrices.  `solve_square` and `solve_in_span` share
one Fraction Gauss-Jordan (`_gauss_jordan`); no package code calls them, the
tests use them as references independent of `det_adj_bareiss`, and the
benchmark's traced run (perfbench/layers.json) still wraps them.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import Sequence

Vec = tuple[Q, ...]


def qvec(xs: Sequence) -> Vec:
    return tuple(Q(x) for x in xs)


def dot(x: Sequence, y: Sequence) -> Q:
    return sum((a * b for a, b in zip(x, y)), Q(0))


def vadd(x: Sequence, y: Sequence) -> Vec:
    return tuple(a + b for a, b in zip(x, y))


def vscale(c, x: Sequence) -> Vec:
    return tuple(Q(c) * a for a in x)


class InvariantError(ArithmeticError):
    """An exact computation broke a property the theory guarantees, such as integrality."""


class SingularMatrixError(ValueError):
    pass


class InconsistentSystemError(ValueError):
    pass


def _gauss_jordan(M: list[list[Q]], m: int) -> tuple[list[list[Q]], list[int]]:
    """Reduced row echelon form of the augmented rows M over their first m columns, and its pivot columns."""
    pivots: list[int] = []
    for col in range(m):
        row = len(pivots)
        piv = next((r for r in range(row, len(M)) if M[r][col] != 0), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        inv = 1 / M[row][col]
        M[row] = [v * inv for v in M[row]]
        for r in range(len(M)):
            if r != row and M[r][col] != 0:
                f = M[r][col]
                M[r] = [vr - f * vc for vr, vc in zip(M[r], M[row])]
        pivots.append(col)
    return M, pivots


def solve_square(A: Sequence[Sequence], b: Sequence) -> list[Q]:
    """Solve A x = b exactly for square A; SingularMatrixError when A has fewer than n pivots."""
    n = len(A)
    if len(b) != n or any(len(row) != n for row in A):
        raise ValueError(f"A must be n x n and b of length n, got {[len(row) for row in A]} and {len(b)}")
    M, pivots = _gauss_jordan([[Q(v) for v in row] + [Q(c)] for row, c in zip(A, b)], n)
    if len(pivots) < n:
        raise SingularMatrixError("singular system")
    return [row[n] for row in M]


def solve_in_span(vectors: Sequence[Sequence], target: Sequence) -> list[Q]:
    """Coefficients c with sum c_i vectors[i] = target, or raise if outside the span.

    The system may be overdetermined (more coordinates than vectors); exact
    consistency of the leftover equations is enforced.
    """
    m = len(vectors)          # unknowns
    n = len(target)           # equations
    if any(len(v) != n for v in vectors):
        raise ValueError(f"every vector must have the target's {n} coordinates")
    M, pivots = _gauss_jordan([[Q(v[i]) for v in vectors] + [Q(target[i])] for i in range(n)], m)
    if any(M[r][m] != 0 for r in range(len(pivots), n)):
        raise InconsistentSystemError("target not in span")
    coeffs = [Q(0)] * m
    for r, col in enumerate(pivots):
        coeffs[col] = M[r][m]
    # free columns (if any) are left at zero; verify the reconstruction
    for i in range(n):
        if dot([v[i] for v in vectors], coeffs) != Q(target[i]):
            raise InconsistentSystemError("target not in span")
    return coeffs


def det_adj_bareiss(A: Sequence[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...] | None]:
    """(det A, adj A) of a square integer matrix; adj is None when det A = 0.

    One fraction-free Gauss-Jordan elimination of [A | I] (Bareiss, Math.
    Comp. 22, 1968): step k swaps a nonzero pivot p into row k and replaces
    every other row r by (p r - r[k] row_k) / p', p' the previous pivot, a
    division that is exact.  The row operations L make L A = d I, d the last
    pivot, so L, the right block, is d A^-1; with s the sign of the row
    swaps, d = s det A and L = s adj A.  A column without a pivot makes A
    singular.
    """
    n = len(A)
    M = [[int(v) for v in row] + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    sign = prev = 1
    for k in range(n):
        if M[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if M[r][k] != 0), None)
            if piv is None:
                return 0, None
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        pivot_row = M[k]
        p = pivot_row[k]
        for i, row in enumerate(M):
            if i != k:
                f = row[k]
                M[i] = [(p * v - f * w) // prev for v, w in zip(row, pivot_row)]
        prev = p
    return sign * prev, tuple(tuple(sign * v for v in row[n:]) for row in M)


def det_bareiss(A: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix, read off det_adj_bareiss; 0 when A is singular."""
    return det_adj_bareiss(A)[0]


# ---------------------------------------------------------------------------
# Bivariate polynomials with exact rational coefficients.
# Represented as {(i, j): coeff} for the monomial x^i y^j.

Poly2 = dict


def p2_integrate_polygon(p: Poly2, vertices: Sequence) -> Q:
    """Exact integral of p over a simple polygon given by its vertex cycle.

    Green's theorem gives every monomial moment as a sum over the edges
    (x_k, y_k) -> (x_{k+1}, y_{k+1}):

        int x^i y^j = sum_k c_k sum_{a<=i, b<=j} C(a+b, b) C(i+j-a-b, j-b)
                      x_k^a x_{k+1}^(i-a) y_k^b y_{k+1}^(j-b)
                      / ((i+j+2) (i+j+1) C(i+j, i))

    with c_k = x_k y_{k+1} - x_{k+1} y_k.  The vertices are scaled to
    integers by the lcm of their denominators, so each moment is one integer
    sum; the sign of the shoelace area fixes the orientation.
    """
    n = len(vertices)
    if n < 3 or not p:
        return Q(0)
    pts = [qvec(v) for v in vertices]
    scale = math.lcm(*(v.denominator for pt in pts for v in pt))
    X = [int(x * scale) for x, _ in pts]
    Y = [int(y * scale) for _, y in pts]
    cross = [X[k] * Y[(k + 1) % n] - X[(k + 1) % n] * Y[k] for k in range(n)]
    area2 = sum(cross)
    if area2 == 0:
        return Q(0)
    deg = max(max(i, j) for i, j in p)
    xs = [[v**e for e in range(deg + 1)] for v in X]
    ys = [[v**e for e in range(deg + 1)] for v in Y]
    edges = [(xs[k], xs[(k + 1) % n], ys[k], ys[(k + 1) % n]) for k in range(n)]
    total = Q(0)
    for (i, j), c in p.items():
        m = i + j
        weights = [(a, b, math.comb(a + b, b) * math.comb(m - a - b, j - b))
                   for a in range(i + 1) for b in range(j + 1)]
        s = 0
        for ck, (xa, xb, ya, yb) in zip(cross, edges):
            s += ck * sum(w * xa[a] * xb[i - a] * ya[b] * yb[j - b] for a, b, w in weights)
        total += c * Q(s, (m + 2) * (m + 1) * math.comb(m, i) * scale ** (m + 2))
    return total if area2 > 0 else -total
