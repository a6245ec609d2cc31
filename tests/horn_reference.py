"""Reference statements of the B2 Horn polygon and of C1 across the cell walls.

The package reads the Horn polygon off one four-slab table (volume.horn_slabs).
The tests compare it with the fourteen inequalities stated one by one, as
half-planes, and with a float membership test of each of them.  The
finite-difference C1 check is criterion 8's measure of smoothness across the
internal walls.
"""

from fractions import Fraction as Q

import numpy as np

from hornvol.bzpolytope import HalfPlane
from hornvol.sampler import MEMBERSHIP_TOL
from hornvol.volume import _KINDS, PiecewiseQuadratic, Wall, _point_in_cell, _qpair, j_b2

_DASHED = "chamber"


def horn_halfplanes(alpha, beta) -> list[HalfPlane]:
    """The B2 Horn inequalities plus the chamber walls g1 >= g2 >= 0."""
    a1, a2 = _qpair(alpha)
    b1, b2 = _qpair(beta)
    hp = HalfPlane
    return [
        hp(1, 0, abs(a1 - b1), label="g1 >= |a1-b1|"),
        hp(1, 0, abs(a2 - b2), label="g1 >= |a2-b2|"),
        hp(-1, 0, -(a1 + b1), label="g1 <= a1+b1"),
        hp(0, 1, a2 - b1, label="g2 >= a2-b1"),
        hp(0, 1, b2 - a1, label="g2 >= b2-a1"),
        hp(0, -1, -(a1 + b2), label="g2 <= a1+b2"),
        hp(0, -1, -(a2 + b1), label="g2 <= a2+b1"),
        hp(1, 1, abs(a1 - b1) + abs(a2 - b2), label="g1+g2 >= |a1-b1|+|a2-b2|"),
        hp(-1, -1, -(a1 + a2 + b1 + b2), label="g1+g2 <= a1+a2+b1+b2"),
        hp(1, -1, a1 - a2 - b1 - b2, label="g1-g2 >= a1-a2-b1-b2"),
        hp(1, -1, b1 - b2 - a1 - a2, label="g1-g2 >= b1-b2-a1-a2"),
        hp(-1, 1, -(a1 + b1 - abs(a2 - b2)), label="g1-g2 <= a1+b1-|a2-b2|"),
        hp(0, 1, 0, label=f"{_DASHED} g2 >= 0"),
        hp(1, -1, 0, label=f"{_DASHED} g1 >= g2"),
    ]


def horn_contains_reference(alpha, beta, g1, g2, tol=MEMBERSHIP_TOL):
    """Horn membership by one float test per half-plane of horn_halfplanes.

    horn_contains_float tests each form once against its tightest bound on
    each side; rounding (a g1 + b g2) - c is monotone in c, so the tightest
    half-plane on a normal fails whenever another on it does, and the two
    tests agree bit for bit.
    """
    ok = np.ones_like(g1, dtype=bool)
    for h in horn_halfplanes(alpha, beta):
        ok &= float(h.a) * g1 + float(h.b) * g2 - float(h.c) >= -tol
    return ok


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
            if _point_in_cell(pw.cells[hi].vertices, plus, True) and _point_in_cell(
                pw.cells[lo].vertices, minus, True
            ):
                j0 = j_b2(pw.alpha, pw.beta, m)
                d_plus = (j_b2(pw.alpha, pw.beta, plus) - j0) / h
                d_minus = (j0 - j_b2(pw.alpha, pw.beta, minus)) / h
                out.append((wall, abs(d_plus - d_minus)))
                break
    return out
