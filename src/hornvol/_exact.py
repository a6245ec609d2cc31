"""Exact rational linear algebra and bivariate polynomial integrals.

Everything here works over `fractions.Fraction`; no floating point.  Matrices
are tuples/lists of row sequences.  Sizes stay small (rank <= 8 for solves,
up to 112x112 integer determinants for covolumes), so plain Gaussian
elimination and Bareiss are more than adequate.
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


def solve_square(A: Sequence[Sequence], b: Sequence) -> list[Q]:
    """Solve A x = b exactly for square A (partial pivoting on nonzero)."""
    n = len(A)
    M = [[Q(A[i][j]) for j in range(n)] + [Q(b[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError("singular system")
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [vr - f * vc for vr, vc in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def solve_in_span(vectors: Sequence[Sequence], target: Sequence) -> list[Q]:
    """Coefficients c with sum c_i vectors[i] = target, or raise if outside the span.

    The system may be overdetermined (more coordinates than vectors); exact
    consistency of the leftover equations is enforced.
    """
    m = len(vectors)          # unknowns
    n = len(target)           # equations
    M = [[Q(vectors[j][i]) for j in range(m)] + [Q(target[i])] for i in range(n)]
    pivots: list[int] = []
    row = 0
    for col in range(m):
        piv = next((r for r in range(row, n) if M[r][col] != 0), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        inv = 1 / M[row][col]
        M[row] = [v * inv for v in M[row]]
        for r in range(n):
            if r != row and M[r][col] != 0:
                f = M[r][col]
                M[r] = [vr - f * vc for vr, vc in zip(M[r], M[row])]
        pivots.append(col)
        row += 1
    for r in range(row, n):
        if M[r][m] != 0:
            raise InconsistentSystemError("target not in span")
    coeffs = [Q(0)] * m
    for r, col in enumerate(pivots):
        coeffs[col] = M[r][m]
    # free columns (if any) are left at zero; verify the reconstruction
    for i in range(n):
        if dot([vectors[j][i] for j in range(m)], coeffs) != Q(target[i]):
            raise InconsistentSystemError("target not in span")
    return coeffs


def det_bareiss(A: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    n = len(A)
    if n == 0:
        return 1
    M = [list(map(int, row)) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if M[r][k] != 0), None)
            if piv is None:
                return 0
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Bivariate polynomials with exact rational coefficients.
# Represented as {(i, j): coeff} for the monomial x^i y^j.

Poly2 = dict


def p2_eval(p: Poly2, x, y) -> Q:
    x, y = Q(x), Q(y)
    return sum((c * x**i * y**j for (i, j), c in p.items()), Q(0))


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
