"""Fraction algebra on bivariate polynomials {(i, j): coeff of x^i y^j}.

The tests build their references with it: a cell quadratic, Delta^2 of a
line or a density as a dict, against the integer lattice forms of
hornvol.volume.  hornvol._exact keeps p2_integrate_polygon.
"""

from fractions import Fraction as Q

from hornvol._exact import Poly2


def p2_eval(p: Poly2, x, y) -> Q:
    x, y = Q(x), Q(y)
    return sum((c * x**i * y**j for (i, j), c in p.items()), Q(0))


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


def p2_linear(a, b, c) -> Poly2:
    """The polynomial a*x + b*y + c."""
    out: Poly2 = {}
    for key, v in (((1, 0), Q(a)), ((0, 1), Q(b)), ((0, 0), Q(c))):
        if v:
            out[key] = v
    return out
