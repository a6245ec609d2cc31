"""Reference dilation and membership of a polygon, read off its constraints.

The package counts s P off P's own rows (RationalPolygon.lattice_count) and
never builds s P, nor asks whether a point lies in P.  The tests build s P
through the public constructor, each c and the elim pair times s, and read
membership off P.constraints.
"""

from fractions import Fraction as Q

from hornvol.bzpolytope import RationalPolygon


def fraction_dilation(constraints, elim, s):
    """The constraints and elim dilated by s in Fractions: each c times s, elim times s."""
    hps = [(a, b, c * Q(s), label) for a, b, c, label in constraints]
    return hps, None if elim is None else (elim[0] * s, elim[1] * s)


def dilate(P: RationalPolygon, s) -> RationalPolygon:
    """s P for s >= 0, through the constructor: P.constraints with each c times s, and elim times s."""
    return RationalPolygon(*fraction_dilation(P.constraints, P.elim, s))


def contains(P: RationalPolygon, p, strict: bool = False) -> bool:
    """Whether p meets every constraint of P (strictly, under strict: the interior of a full P)."""
    x, y = p
    return all(a * x + b * y > c if strict else a * x + b * y >= c for a, b, c, _ in P.constraints)
