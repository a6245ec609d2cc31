"""Exact rational linear algebra and small bivariate polynomials.

Everything here works over `fractions.Fraction`; no floating point.  Matrices
are tuples/lists of row sequences.  Sizes stay small (rank <= 8 for solves,
up to 112x112 integer determinants for covolumes), so plain Gaussian
elimination and Bareiss are more than adequate.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import factorial
from typing import Sequence

Vec = tuple[Q, ...]


def qvec(xs: Sequence) -> Vec:
    return tuple(Q(x) for x in xs)


def dot(x: Sequence, y: Sequence) -> Q:
    return sum((a * b for a, b in zip(x, y)), Q(0))


def vadd(x: Sequence, y: Sequence) -> Vec:
    return tuple(a + b for a, b in zip(x, y))


def vsub(x: Sequence, y: Sequence) -> Vec:
    return tuple(a - b for a, b in zip(x, y))


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


class UnderdeterminedSystemError(ValueError):
    pass


def solve_in_span(vectors: Sequence[Sequence], target: Sequence, require_unique: bool = False) -> list[Q]:
    """Coefficients c with sum c_i vectors[i] = target, or raise if outside the span.

    The system may be overdetermined (more coordinates than vectors); exact
    consistency of the leftover equations is enforced.  With require_unique,
    a rank-deficient system raises instead of zero-filling free coefficients.
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
    if require_unique and len(pivots) < m:
        raise UnderdeterminedSystemError(f"rank {len(pivots)} < {m} unknowns")
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


def det_fraction(A: Sequence[Sequence]) -> Q:
    """Exact determinant over the rationals (Gaussian elimination)."""
    n = len(A)
    M = [[Q(v) for v in row] for row in A]
    det = Q(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if M[r][k] != 0), None)
        if piv is None:
            return Q(0)
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            det = -det
        det *= M[k][k]
        inv = 1 / M[k][k]
        for r in range(k + 1, n):
            if M[r][k] != 0:
                f = M[r][k] * inv
                M[r] = [vr - f * vc for vr, vc in zip(M[r], M[k])]
    return det


# ---------------------------------------------------------------------------
# Bivariate polynomials with exact rational coefficients.
# Represented as {(i, j): coeff} for the monomial x^i y^j.

Poly2 = dict


def p2_const(c) -> Poly2:
    c = Q(c)
    return {(0, 0): c} if c else {}


def p2_add(p: Poly2, q: Poly2) -> Poly2:
    out = dict(p)
    for k, v in q.items():
        w = out.get(k, Q(0)) + v
        if w:
            out[k] = w
        elif k in out:
            del out[k]
    return out


def p2_sub(p: Poly2, q: Poly2) -> Poly2:
    return p2_add(p, p2_scale(-1, q))


def p2_scale(c, p: Poly2) -> Poly2:
    c = Q(c)
    if not c:
        return {}
    return {k: c * v for k, v in p.items()}


def p2_mul(p: Poly2, q: Poly2) -> Poly2:
    out: Poly2 = {}
    for (i, j), a in p.items():
        for (k, l), b in q.items():
            key = (i + k, j + l)
            w = out.get(key, Q(0)) + a * b
            if w:
                out[key] = w
            elif key in out:
                del out[key]
    return out


def p2_eval(p: Poly2, x, y) -> Q:
    x, y = Q(x), Q(y)
    return sum((c * x**i * y**j for (i, j), c in p.items()), Q(0))


def p2_linear(a, b, c) -> Poly2:
    """The polynomial a*x + b*y + c."""
    out: Poly2 = {}
    for key, v in (((1, 0), Q(a)), ((0, 1), Q(b)), ((0, 0), Q(c))):
        if v:
            out[key] = v
    return out


def p2_pow(p: Poly2, n: int) -> Poly2:
    out = p2_const(1)
    for _ in range(n):
        out = p2_mul(out, p)
    return out


def p2_subst(p: Poly2, px: Poly2, py: Poly2) -> Poly2:
    """Substitute x -> px(u, v), y -> py(u, v)."""
    deg_x = max((i for (i, _) in p), default=0)
    deg_y = max((j for (_, j) in p), default=0)
    xpows = [p2_const(1)]
    for _ in range(deg_x):
        xpows.append(p2_mul(xpows[-1], px))
    ypows = [p2_const(1)]
    for _ in range(deg_y):
        ypows.append(p2_mul(ypows[-1], py))
    out: Poly2 = {}
    for (i, j), c in p.items():
        out = p2_add(out, p2_scale(c, p2_mul(xpows[i], ypows[j])))
    return out


def p2_integrate_triangle(p: Poly2, v0, v1, v2) -> Q:
    """Exact integral of p over the triangle (v0, v1, v2).

    Maps the reference triangle {u, v >= 0, u+v <= 1} affinely onto the
    triangle and uses  \\int u^a v^b = a! b! / (a+b+2)!.
    """
    (x0, y0), (x1, y1), (x2, y2) = (qvec(v0), qvec(v1), qvec(v2))
    jac = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    if jac == 0:
        return Q(0)
    px = p2_add(p2_const(x0), p2_linear(x1 - x0, x2 - x0, 0))
    py = p2_add(p2_const(y0), p2_linear(y1 - y0, y2 - y0, 0))
    q = p2_subst(p, px, py)
    total = sum(
        (c * Q(factorial(a) * factorial(b), factorial(a + b + 2)) for (a, b), c in q.items()),
        Q(0),
    )
    return abs(jac) * total


def p2_integrate_polygon(p: Poly2, vertices: Sequence) -> Q:
    """Exact integral of p over a convex polygon given by its vertex cycle."""
    if len(vertices) < 3:
        return Q(0)
    v0 = vertices[0]
    return sum(
        (p2_integrate_triangle(p, v0, vertices[i], vertices[i + 1]) for i in range(1, len(vertices) - 1)),
        Q(0),
    )
