"""Reference statements of the B2 Horn polygon and of C1 across the cell walls.

The package reads the Horn polygon off one four-slab table (volume.horn_slabs).
The tests compare it with the fourteen inequalities stated one by one, as
(a, b, c, label) constraints a*g1 + b*g2 >= c, and with a float
membership test of each of them.  The finite-difference C1 check is
criterion 8's measure of smoothness across the internal walls.
"""

from fractions import Fraction as Q

import numpy as np

from hornvol.sampler import MEMBERSHIP_TOL
from hornvol.volume import _KINDS, Pair, PiecewiseQuadratic, Wall, _qpair, j_b2

_DASHED = "chamber"


def horn_constraints(alpha, beta) -> list[tuple]:
    """The B2 Horn inequalities plus the chamber walls g1 >= g2 >= 0, as (a, b, c, label)."""
    a1, a2 = _qpair(alpha)
    b1, b2 = _qpair(beta)
    return [
        (1, 0, abs(a1 - b1), "g1 >= |a1-b1|"),
        (1, 0, abs(a2 - b2), "g1 >= |a2-b2|"),
        (-1, 0, -(a1 + b1), "g1 <= a1+b1"),
        (0, 1, a2 - b1, "g2 >= a2-b1"),
        (0, 1, b2 - a1, "g2 >= b2-a1"),
        (0, -1, -(a1 + b2), "g2 <= a1+b2"),
        (0, -1, -(a2 + b1), "g2 <= a2+b1"),
        (1, 1, abs(a1 - b1) + abs(a2 - b2), "g1+g2 >= |a1-b1|+|a2-b2|"),
        (-1, -1, -(a1 + a2 + b1 + b2), "g1+g2 <= a1+a2+b1+b2"),
        (1, -1, a1 - a2 - b1 - b2, "g1-g2 >= a1-a2-b1-b2"),
        (1, -1, b1 - b2 - a1 - a2, "g1-g2 >= b1-b2-a1-a2"),
        (-1, 1, -(a1 + b1 - abs(a2 - b2)), "g1-g2 <= a1+b1-|a2-b2|"),
        (0, 1, 0, f"{_DASHED} g2 >= 0"),
        (1, -1, 0, f"{_DASHED} g1 >= g2"),
    ]


def horn_contains_reference(alpha, beta, g1, g2, tol=MEMBERSHIP_TOL):
    """Horn membership by one float test per constraint of horn_constraints.

    sampler._inside tests each form once against its tightest bound on
    each side; rounding (a g1 + b g2) - c is monotone in c, so the tightest
    constraint on a normal fails whenever another on it does, and the two
    tests agree bit for bit.
    """
    ok = np.ones_like(g1, dtype=bool)
    for a, b, c, *_ in horn_constraints(alpha, beta):
        ok &= float(a) * g1 + float(b) * g2 - float(c) >= -tol
    return ok


def point_in_cell(verts, p: Pair, strict: bool) -> bool:
    """p in the convex cell with counterclockwise vertices verts; strict excludes its boundary."""
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        cr = (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1)
        if cr < 0 or (strict and cr == 0):
            return False
    return True


def c1_wall_discrepancies(pw: PiecewiseQuadratic) -> list[tuple[Wall, Q]]:
    """One-sided finite-difference gradient mismatch across each internal wall.

    Uses exact rational steps h along a quasi-unit normal; J is C1, so the
    discrepancy should be of the order of h times the second-derivative jump.
    """
    h = Q(1, 10000)
    out = []
    root2_inv = Q(7071, 10000)  # rational approximation of 1/sqrt(2)
    for wall in pw.walls:
        if len(wall.cells) != 2:
            continue
        (p, q) = wall.segment
        a, b = _KINDS[wall.kind]
        n = (Q(a), Q(b)) if wall.kind in ("g1", "g2") else (Q(a) * root2_inv, Q(b) * root2_inv)
        for t in (Q(1, 2), Q(1, 3), Q(2, 3)):
            m = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            plus = (m[0] + h * n[0], m[1] + h * n[1])
            minus = (m[0] - h * n[0], m[1] - h * n[1])
            hi, lo = wall.cells
            if point_in_cell(pw.cells[hi].vertices, plus, True) and point_in_cell(
                pw.cells[lo].vertices, minus, True
            ):
                j0 = j_b2(pw.alpha, pw.beta, m)
                d_plus = (j_b2(pw.alpha, pw.beta, plus) - j0) / h
                d_minus = (j0 - j_b2(pw.alpha, pw.beta, minus)) / h
                out.append((wall, abs(d_plus - d_minus)))
                break
    return out
