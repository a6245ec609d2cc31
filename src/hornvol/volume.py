"""The B2 volume function and everything attached to it.

* exact Weyl-sum evaluation of J on the gamma-plane,
* Horn polygon membership, one test of gamma against the slabs of
  horn_slabs (_in_slabs), and the candidate singular lines,
* piecewise-quadratic cell analysis, each cell's quadratic read off the
  Weyl sum, with wall-jump classification,
* the two J-LR relations and the c_kappa / c-hat_kappa coefficients,
* the Horn PDF with its exact normalization integral, one integer per cell,
* the SO(2) real-symmetric closed form.

Arguments named alpha/beta/gamma are pairs of rationals in the orthonormal
basis; lam/mu/nu are weights in Dynkin labels.  The B2 identification is
(a, b) Dynkin  <->  (a + b/2, b/2) orthonormal.  Every rational label is
read by _rational, which refuses NaN and +-inf with a ValueError of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cached_property, lru_cache

from ._exact import InvariantError
from .bzpolytope import RationalPolygon, bz_polygon_b2, clip_cell
from .ehrhart import (
    NoDefaultPeriodError,
    QuasiPolynomial,
    leading_coefficient,
    stretching_quasi_polynomial,
)
from .multiplicity import SizeGuardError, _check_dominant, tau_sum, tensor_decompose
from .rootsys import B2_SIGNED_PERMUTATIONS, RootSystem, build_root_system, is_compatible, kappa_constants

Pair = tuple[Q, Q]


class IncompatibleTripleError(ValueError):
    pass


class NotShiftableError(ValueError):
    pass


class PiecewiseFitError(ValueError):
    pass


class CellPairError(ValueError):
    """A cell analysis passed along with a pair it was not made for."""


def b2() -> RootSystem:
    return build_root_system("B", 2)


def b2_dynkin_to_ortho(w) -> Pair:
    a, b = w
    if type(a) is int and type(b) is int:  # integer labels, as every volume route has them
        return (Q(2 * a + b, 2), Q(b, 2))
    a, b = _qpair(w)
    return (a + b / 2, b / 2)


def _rational(x) -> Q:
    """x as a Fraction; NaN and +-inf, which have none, raise ValueError here rather than inside fractions."""
    try:
        return Q(x)
    except (ValueError, OverflowError):
        raise ValueError(f"{x} is not a finite rational") from None


def _qpair(x) -> Pair:
    a, b = x
    return (_rational(a), _rational(b))


# ---------------------------------------------------------------------------
# Direct evaluation of J

def j_b2(alpha, beta, gamma) -> Q:
    """Exact J(alpha, beta; gamma) for B2, orthonormal coordinates.

    Sums the merged Weyl terms of _weyl_terms in integers, with gamma scaled
    by the lcm of their scale and its own denominators.  One Weyl sum is
    fixed to the identity and the result multiplied by 8; sign(0) counts as
    0, which only affects a measure-zero set and keeps the function
    continuous.
    """
    scale, terms = _weyl_terms(_qpair(alpha), _qpair(beta))
    g1, g2 = _qpair(gamma)
    gscale = math.lcm(scale, g1.denominator, g2.denominator)
    m = gscale // scale
    ig1, ig2 = int(g1 * gscale), int(g2 * gscale)
    acc = 0
    for x0, y0, e in terms:
        x = x0 * m - ig1
        y = y0 * m - ig2
        d = x - y
        f = 4 * x * abs(x) - 4 * y * abs(y) - 2 * d * abs(d)
        if x + y > 0:
            acc += e * f
        elif x + y < 0:
            acc -= e * f
    return Q(acc, 32 * gscale * gscale)


# ---------------------------------------------------------------------------
# Horn polygon

#: line kinds and their gamma-plane normals
_KINDS = {"g1": (1, 0), "g2": (0, 1), "g1+g2": (1, 1), "g1-g2": (1, -1)}
#: the chamber walls g2 = 0 and g1 - g2 = 0 as (kind, level), level 0 at every scale
_CHAMBER_WALLS = {("g2", 0), ("g1-g2", 0)}
_HORN_LABELS = tuple(f"{kind} {side}" for kind in _KINDS for side in (">= lo", "<= hi"))


def _regular_pair(alpha, beta) -> tuple[Pair, Pair]:
    """alpha and beta as Fraction pairs (see _qpair), which must be regular ordered."""
    alpha, beta = _qpair(alpha), _qpair(beta)
    (a1, a2), (b1, b2) = alpha, beta
    if not (a1 > a2 > 0 and b1 > b2 > 0):
        raise ValueError("alpha and beta must be regular ordered: x1 > x2 > 0")
    return alpha, beta


def horn_slabs(alpha, beta) -> dict[str, tuple[Q, Q]]:
    """The Horn polygon as {kind: (lo, hi)}, the gamma with lo <= <normal, gamma> <= hi for every kind.

    Each Horn inequality and chamber wall bounds one of the four forms of _KINDS; lo and hi are the tightest.
    Every bound is attained at a vertex of horn_polygon, so (lo, hi) is the exact range of its form over
    the polygon: the g1 and g2 slabs are its bounding box, and a line <normal, gamma> = level crosses
    its interior iff lo < level < hi.
    """
    (a1, a2), (b1, b2) = _regular_pair(alpha, beta)
    d1, d2 = abs(a1 - b1), abs(a2 - b2)
    return {
        "g1": (max(d1, d2), a1 + b1),
        "g2": (max(a2 - b1, b2 - a1, Q(0)), min(a1 + b2, a2 + b1)),
        "g1+g2": (d1 + d2, a1 + a2 + b1 + b2),
        "g1-g2": (max(a1 - a2 - b1 - b2, b1 - b2 - a1 - a2, Q(0)), a1 + b1 - d2),
    }


def horn_polygon(alpha, beta) -> RationalPolygon:
    """The rows <normal, gamma> >= lo and <-normal, gamma> >= -hi of horn_slabs, in RationalPolygon's normal form."""
    slabs = horn_slabs(alpha, beta)
    bounds = [(s * a, s * b, s * c) for kind, (a, b) in _KINDS.items() for s, c in zip((1, -1), slabs[kind])]
    rows = tuple((a * c.denominator, b * c.denominator, c.numerator) for a, b, c in bounds)
    return RationalPolygon._from_rows(rows, tuple(c.denominator for *_, c in bounds), _HORN_LABELS, None)


def _in_slabs(slabs: dict[str, tuple[Q, Q]], gamma: Pair) -> bool:
    """Whether gamma lies in the closed polygon of the horn_slabs `slabs`."""
    g1, g2 = gamma
    return all(lo <= _KINDS[kind][0] * g1 + _KINDS[kind][1] * g2 <= hi for kind, (lo, hi) in slabs.items())


def horn_contains_b2(alpha, beta, gamma) -> bool:
    """Membership of gamma in the closed Horn polygon (chamber included)."""
    return _in_slabs(horn_slabs(alpha, beta), _qpair(gamma))


# ---------------------------------------------------------------------------
# Singular lines


@dataclass(frozen=True)
class SingularLine:
    """A candidate non-C2 line {<normal, gamma> = level} with its provenance."""

    kind: str
    level: Q
    source: str

    @property
    def normal(self) -> tuple[int, int]:
        return _KINDS[self.kind]

    def value(self, p: Pair) -> Q:
        a, b = self.normal
        return a * p[0] + b * p[1] - self.level


def singular_lines_b2(alpha, beta, within_horn: bool = False) -> list[SingularLine]:
    """All candidate lines (five per kind, duplicates merged).

    With within_horn=True, keeps only lines that cross the open interior of
    the Horn polygon.
    """
    (a1, a2), (b1, b2) = _regular_pair(alpha, beta)
    raw = {
        "g1": [
            (a1 + b2, "a1+b2"),
            (a2 + b1, "a2+b1"),
            (a2 + b2, "a2+b2"),
            (abs(a1 - b2), "|a1-b2|"),
            (abs(a2 - b1), "|a2-b1|"),
        ],
        "g2": [
            (a2 + b2, "a2+b2"),
            (abs(a1 - b2), "|a1-b2|"),
            (abs(a2 - b1), "|a2-b1|"),
            (abs(a2 - b2), "|a2-b2|"),
            (abs(a1 - b1), "|a1-b1|"),
        ],
        "g1+g2": [
            (a1 + a2 + b1 - b2, "a1+a2+b1-b2"),
            (abs(a1 + a2 - b1 + b2), "|a1+a2-b1+b2|"),
            (a1 - a2 + b1 + b2, "a1-a2+b1+b2"),
            (abs(-a1 + a2 + b1 + b2), "|-a1+a2+b1+b2|"),
            (a1 - a2 + b1 - b2, "a1-a2+b1-b2"),
        ],
        "g1-g2": [
            (abs(-a1 + a2 + b1 + b2), "|-a1+a2+b1+b2|"),
            (abs(a1 + a2 - b1 + b2), "|a1+a2-b1+b2|"),
            (a1 - a2 + b1 - b2, "a1-a2+b1-b2"),
            (abs(a1 - a2 - b1 + b2), "|a1-a2-b1+b2|"),
            (abs(a1 + a2 - b1 - b2), "|a1+a2-b1-b2|"),
        ],
    }
    merged: dict[tuple[str, Q], list[str]] = {}
    for kind, entries in raw.items():
        for level, src in entries:
            merged.setdefault((kind, level), []).append(src)
    lines = [SingularLine(kind, level, ",".join(srcs)) for (kind, level), srcs in merged.items()]
    if within_horn:
        slabs = horn_slabs(alpha, beta)
        lines = [ln for ln in lines if slabs[ln.kind][0] < ln.level < slabs[ln.kind][1]]
    return sorted(lines, key=lambda l: (l.kind, l.level))


# ---------------------------------------------------------------------------
# Piecewise-quadratic analysis

_QUAD_KEYS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


@dataclass(frozen=True)
class QuadCell:
    """One cell of the cut in lattice form: gamma = P / D puts its CCW vertices
    on the integer points `lattice`, and q = (q0, qx, qy, qxx, qxy, qyy) holds
    the integer coefficients of q(P) = 32 D^2 J(P / D) (128 s^2 J(P / D) at
    D = 2s).  The Fraction `vertices` and `coeffs` (of J in gamma, for 1, g1,
    g2, g1^2, g1 g2, g2^2) are derived from them for output and tests.
    """

    D: int
    lattice: tuple[tuple[int, int], ...]
    q: tuple[int, ...]

    def __post_init__(self):
        try:
            ints = (self.D, *self.q, *(v for x, y in self.lattice for v in (x, y)))
        except (TypeError, ValueError):
            ints = (None,)
        if any(type(v) is not int for v in ints) or self.D < 1 or len(self.q) != 6 or len(self.lattice) < 3:
            raise InvariantError("a cell needs a scale D >= 1, three or more integer points and six integer numerators")

    @cached_property
    def vertices(self) -> tuple[Pair, ...]:
        return tuple((Q(x, self.D), Q(y, self.D)) for x, y in self.lattice)

    @property
    def coeffs(self) -> tuple[Q, ...]:
        den = 32 * self.D * self.D
        return tuple(Q(c * self.D ** (i + j), den) for (i, j), c in zip(_QUAD_KEYS, self.q))


@dataclass(frozen=True)
class Wall:
    """One cell edge with its jump class.

    An internal wall is an edge that two cells share, with cells = (hi, lo)
    and hi on the side where <normal, gamma> > level; its segment is the
    sorted pair of endpoints.  A boundary wall is an edge of one cell, with
    the segment in that cell's counter-clockwise direction.

    classification is one of:
      'inactive'            zero jump across an internal wall
      'quadratic-ramp'      internal jump (m/2) Delta^2, 0 < |m| <= the weight
                            of the wall's line over 4 (see piecewise_analyze_b2)
      'boundary-quadratic'  outer Horn facet, cell quadratic equals (1/2) Delta^2
      'boundary-linear'     dashed chamber wall, quadratic vanishes on the line
      'violation'           anything else (must not occur)
    """

    kind: str
    level: Q
    segment: tuple[Pair, Pair]
    cells: tuple[int, ...]       # adjacent cell indices (1 for boundary walls)
    classification: str
    jump_sign: int = 0           # m of an (m/2) Delta^2 ramp or facet, 0 if none


@dataclass(frozen=True)
class PiecewiseQuadratic:
    alpha: Pair
    beta: Pair
    swapped: bool
    cells: tuple[QuadCell, ...]
    walls: tuple[Wall, ...]

    def violations(self) -> list[Wall]:
        return [w for w in self.walls if w.classification == "violation"]

    def to_json_dict(self) -> dict:
        """Cell diagram as JSON polygon lists (the CLI's SVG emitter draws these)."""
        return {
            "alpha": [str(v) for v in self.alpha],
            "beta": [str(v) for v in self.beta],
            "swapped": self.swapped,
            "cells": [
                {
                    "vertices": [[str(x), str(y)] for x, y in c.vertices],
                    "coeffs": [str(v) for v in c.coeffs],
                }
                for c in self.cells
            ],
            "walls": [
                {
                    "kind": w.kind,
                    "level": str(w.level),
                    "classification": w.classification,
                    "jump_sign": w.jump_sign,
                    "segment": [[str(v) for v in p] for p in w.segment],
                }
                for w in self.walls
            ],
        }


@lru_cache(maxsize=64)
def _weyl_terms(alpha: Pair, beta: Pair) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """The terms of the j_b2 Weyl sum as (scale, ((x0, y0, eps), ...)).

    Each term contributes eps * sign(x + y) * (4x|x| - 4y|y| - 2d|d|) / 32 with
    x = (x0 - scale*g1)/scale, y = (y0 - scale*g2)/scale and d = x - y.  Pairs
    of Weyl elements that give the same (x0, y0) are merged; terms whose
    signs cancel are dropped.  Memoized per (alpha, beta), so the many j_b2
    calls of one grid or wall check build the terms once.
    """
    scale = math.lcm(*(v.denominator for v in (*alpha, *beta)))
    ia1, ia2 = (int(v * scale) for v in alpha)
    ib1, ib2 = (int(v * scale) for v in beta)
    eps: dict[tuple[int, int], int] = {}
    for (swap, s1, s2), e1 in B2_SIGNED_PERMUTATIONS.items():
        wa1, wa2 = (ia2, ia1) if swap else (ia1, ia2)
        for (swap2, t1, t2), e2 in B2_SIGNED_PERMUTATIONS.items():
            wb1, wb2 = (ib2, ib1) if swap2 else (ib1, ib2)
            key = (s1 * wa1 + t1 * wb1, s2 * wa2 + t2 * wb2)
            eps[key] = eps.get(key, 0) + e1 * e2
    return scale, tuple((x0, y0, e) for (x0, y0), e in eps.items() if e)


def _cell_quadratics(terms: tuple[int, tuple], cells, vscale: int) -> list[tuple[int, ...]]:
    """The lattice forms q of J on convex cells, read off the Weyl sum in one array pass.

    The cells' vertices are integer points P = vscale gamma, vscale a
    multiple of the terms' scale, and q(P) = 32 vscale^2 J(P / vscale) (see
    QuadCell).  Each term is one quadratic wherever its linear forms x, y,
    x - y and x + y keep one sign; their range over a convex cell is spanned
    by its vertices, so one (cells, terms, 4) comparison of the levels where
    they vanish with each cell's ranges gives every sign, and a form that
    changes sign inside a cell raises PiecewiseFitError.  Otherwise J equals
    the summed quadratic on the whole closed cell (on x + y = 0 both the term
    and its quadratic vanish), and the six sums are integer reductions, in
    int64 when 10 top^2 sum|eps| (top the largest |level| or vertex form)
    bounds every entry below 2^63 and on Python ints (dtype object) if not.
    """
    import numpy as np

    scale, table = terms
    m = vscale // scale
    # the levels of g1, g2, g1 - g2 and g1 + g2 where each term's forms vanish,
    # and each cell's range of those forms
    levels = [(x0 * m, y0 * m, (x0 - y0) * m, (x0 + y0) * m) for x0, y0, _ in table]
    forms = [list(zip(*((u, v, u - v, u + v) for u, v in c))) for c in cells]
    lo, hi = ([tuple(map(f, r)) for r in forms] for f in (min, max))
    eps = [e for _, _, e in table]
    top = max(abs(v) for rows in (levels, lo, hi) for row in rows for v in row)
    dtype = np.int64 if 10 * top * top * sum(map(abs, eps)) < 2**63 else object
    L = np.array(levels, dtype=dtype)
    above, below = L >= np.array(hi, dtype=dtype)[:, None], L <= np.array(lo, dtype=dtype)[:, None]
    if not (above | below).all():
        raise PiecewiseFitError("a term of the Weyl sum changes sign inside a cell")
    s = np.where(above, 1, -1)
    # k sx, k sy and k sd per (cell, term), k = eps sign(x + y), against the
    # expansion of k (4 sx x^2 - 4 sy y^2 - 2 sd d^2) in (vscale g1, vscale g2)
    kx, ky, kd = (s[:, :, 3] * np.array(eps) * s[:, :, f] for f in range(3))
    lx, ly, ld, _ = L.T
    sx, sy, sd = kx.sum(1), ky.sum(1), kd.sum(1)
    q = np.stack([kx @ (4 * lx * lx) - ky @ (4 * ly * ly) - kd @ (2 * ld * ld), kd @ (4 * ld) - kx @ (8 * lx),
                  ky @ (8 * ly) - kd @ (4 * ld), 4 * sx - 2 * sd, 4 * sd, -4 * sy - 2 * sd], axis=1)
    return [tuple(c) for c in q.tolist()]


def _edge_line(p: Pair, q: Pair) -> tuple[str, Q]:
    """The (kind, level) of the candidate line that the cell edge p -> q lies on: its normal is orthogonal to q - p."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    if dx or dy:
        for kind, (a, b) in _KINDS.items():
            if a * dx + b * dy == 0:
                return kind, a * p[0] + b * p[1]
    raise InvariantError(f"cell edge {p} -> {q} runs along none of the four line directions")


def _on_lattice(v: Q, D: int) -> int:
    """v * D, which must be an integer."""
    n, r = divmod(v.numerator * D, v.denominator)
    if r:
        raise InvariantError(f"{v} is not on the lattice (1/{D}) Z")
    return n


def piecewise_analyze_b2(alpha, beta) -> PiecewiseQuadratic:
    """Partition the Horn polygon by the Weyl terms' lines and read J off each cell.

    Inputs are swapped if needed so that |beta1 - alpha2| >= |alpha1 - beta2|.
    Each term (x0, y0, eps) of _weyl_terms is smooth off g1 = x0, g2 = y0,
    g1 + g2 = x0 + y0 and g1 - g2 = x0 - y0, all over the lcm s of the
    denominators of alpha and beta; the cut runs over those lines that cross
    the Horn polygon's interior, in (kind, level) order.  gamma scaled by
    D = 2s puts every cell vertex on the integer lattice, so the cut
    (clip_cell on int points), the cell quadratics (QuadCell's lattice form,
    summed in one array pass by _cell_quadratics, whose PiecewiseFitError
    stays as a safety check) and the wall classes run in integers; only wall
    levels and segments become Fractions, for output.  Every line cuts the
    whole polygon, so two neighbouring cells share whole edges: an edge that
    another cell runs the other way is an internal wall, classified by the
    jump of the quadratics across it, and any other edge is a boundary wall
    (see Wall).  An internal wall's jump bound is its line's weight, the sum
    of |eps| over the terms on it, over 4: tests check that this counts the
    singular_lines_b2 candidates merged there.  Walls come line by line in
    (kind, level) order, and on a line by lower cell index.  A line that
    holds an edge of the convex Horn polygon supports it, so no line carries
    walls of both types.
    """
    alpha, beta = _regular_pair(alpha, beta)
    swapped = abs(beta[0] - alpha[1]) < abs(alpha[0] - beta[1])
    if swapped:
        alpha, beta = beta, alpha

    horn = horn_polygon(alpha, beta)
    if horn.dim != 2:
        raise ValueError("Horn polygon is degenerate; alpha or beta not regular?")
    terms = _weyl_terms(alpha, beta)
    D = 2 * terms[0]    # the lattice scale of the docstring
    cells: list[tuple[tuple[int, int], ...]] = [
        tuple((_on_lattice(x, D), _on_lattice(y, D)) for x, y in horn.vertices)]
    # each term's four lines at their lattice levels (D / s = 2), weighted by |eps|
    weight: dict[tuple[str, int], int] = {}
    for x0, y0, e in terms[1]:
        for kind, (a, b) in _KINDS.items():
            line = (kind, 2 * (a * x0 + b * y0))
            weight[line] = weight.get(line, 0) + abs(e)
    # each form's range over the polygon is its slab (see horn_slabs), here in lattice units
    ranges = {kind: (_on_lattice(lo, D), _on_lattice(hi, D)) for kind, (lo, hi) in horn_slabs(alpha, beta).items()}
    for kind, level in sorted(weight):
        if not ranges[kind][0] < level < ranges[kind][1]:
            continue    # the line misses the Horn polygon's interior, so it cuts no cell
        a, b = _KINDS[kind]
        new: list[tuple[tuple[int, int], ...]] = []
        for cell in cells:
            vals = [a * x + b * y for x, y in cell]
            if min(vals) < level < max(vals):
                new.extend((clip_cell(cell, a, b, level), clip_cell(cell, -a, -b, -level)))
            else:
                new.append(cell)
        cells = new
    fitted = tuple(QuadCell(D, c, q) for c, q in zip(cells, _cell_quadratics(terms, cells, D)))

    # every directed cell edge, and the edges on each line, all in lattice units
    owner: dict[tuple[tuple[int, int], tuple[int, int]], int] = {}
    line_edges: dict[tuple[str, int], list[tuple[int, tuple[int, int], tuple[int, int]]]] = {}
    for idx, cell in enumerate(cells):
        for p, q in zip(cell, cell[1:] + cell[:1]):
            owner[p, q] = idx
            line_edges.setdefault(_edge_line(p, q), []).append((idx, p, q))

    # walls use every distinct vertex (each starts a directed edge) and read
    # them as Fractions: one per distinct lattice coordinate
    vertices = {p for p, _ in owner}
    frac = {v: Q(v, D) for v in {v for p in vertices for v in p}}
    point = {p: (frac[p[0]], frac[p[1]]) for p in vertices}
    walls: list[Wall] = []
    for (kind, ilevel), edges in sorted(line_edges.items()):
        a, b = _KINDS[kind]
        level = Q(ilevel, D)
        unit = _half_delta_squared(a, b, ilevel)
        for ci, p, q in edges:
            cj = owner.get((q, p))
            if cj is None:
                cls, sign = _boundary_class(fitted[ci].q, unit, (kind, ilevel) in _CHAMBER_WALLS, p, q)
                walls.append(Wall(kind, level, (point[p], point[q]), (ci,), cls, sign))
            elif ci < cj:
                # the CCW cell ci lies left of p -> q
                hi, lo = (ci, cj) if a * (p[1] - q[1]) + b * (q[0] - p[0]) > 0 else (cj, ci)
                diff = tuple(u - v for u, v in zip(fitted[hi].q, fitted[lo].q))
                cls, sign = _jump_class(diff, unit, weight[kind, ilevel] // 4)
                walls.append(Wall(kind, level, tuple(point[v] for v in sorted((p, q))), (hi, lo), cls, sign))

    return PiecewiseQuadratic(alpha=alpha, beta=beta, swapped=swapped, cells=fitted, walls=tuple(walls))


def _cells_of(alpha: Pair, beta: Pair, pw: PiecewiseQuadratic | None) -> PiecewiseQuadratic:
    """pw, or the cell analysis of (alpha, beta) when pw is None; a pw of another pair raises CellPairError.

    The pairs are compared unordered, since piecewise_analyze_b2 may swap them.
    """
    if pw is None:
        return piecewise_analyze_b2(alpha, beta)
    if (pw.alpha, pw.beta) not in ((alpha, beta), (beta, alpha)):
        raise CellPairError(f"the cells of {(pw.alpha, pw.beta)} are not those of {(alpha, beta)}")
    return pw


def _half_delta_squared(a: int, b: int, level: int) -> tuple[int, ...]:
    """(1/2) Delta^2 of the line a Px + b Py = level in lattice form (see QuadCell), Delta the distance of P / D
    to it: k (a Px + b Py - level)^2, k = 16 on g1 and g2 lines and 8 on g1 +- g2 lines."""
    k = 8 if a and b else 16
    return (k * level * level, -2 * k * a * level, -2 * k * b * level, k * a * a, 2 * k * a * b, k * b * b)


def _q_at(q: tuple[int, ...], x: int, y: int, w: int = 1) -> int:
    """w^2 q(P / w) at P = (x, y), so a midpoint is evaluated at w = 2 in integers."""
    return (q[0] * w + q[1] * x + q[2] * y) * w + (q[3] * x + q[4] * y) * x + q[5] * y * y


def _boundary_class(q: tuple[int, ...], unit: tuple[int, ...], chamber: bool,
                    p: tuple[int, int], r: tuple[int, int]) -> tuple[str, int]:
    """Classify the lattice form q of a cell on its boundary edge p -> r.

    unit is (1/2) Delta^2 of the edge's line in lattice form.  On a chamber
    wall J vanishes: q must vanish at p, r and the midpoint, hence on the
    whole line.  On an outer Horn facet q must equal unit.
    """
    if chamber:
        if _q_at(q, *p) == 0 == _q_at(q, *r) and _q_at(q, p[0] + r[0], p[1] + r[1], 2) == 0:
            return "boundary-linear", 0
    elif q == unit:
        return "boundary-quadratic", 1
    return "violation", 0


def _jump_class(diff: tuple[int, ...], unit: tuple[int, ...], sources: int) -> tuple[str, int]:
    """Classify the jump diff = q_hi - q_lo of the lattice forms across a line.

    unit is (1/2) Delta^2 of the line in lattice form.  Each of the `sources`
    coincident candidate lines merged into the line jumps by +-unit or not at
    all, so a legal jump is m unit with m an integer and 0 < |m| <= sources.
    """
    if not any(diff):
        return "inactive", 0
    key = 3 if unit[3] else 5    # every unit has a pure square term
    m, r = divmod(diff[key], unit[key])
    if not r and 0 < abs(m) <= sources and diff == tuple(m * u for u in unit):
        return "quadratic-ramp", m
    return "violation", 0


# ---------------------------------------------------------------------------
# J-LR relations and the c_kappa coefficients


KAPPA_TABLES = {
    ("B", 2): (
        {(0, 0): Q(3, 8), (1, 0): Q(1, 8)},
        {(0, 1): Q(1, 4)},
    ),
    ("B", 3): (
        {
            (0, 0, 0): Q(7230, 92160),
            (1, 0, 0): Q(3995, 92160),
            (0, 1, 0): Q(1651, 92160),
            (2, 0, 0): Q(85, 92160),
            (0, 0, 2): Q(479, 92160),
            (1, 1, 0): Q(29, 92160),
            (1, 0, 2): Q(1, 92160),
        },
        {
            (0, 0, 1): Q(190, 2880),
            (1, 0, 1): Q(26, 2880),
            (0, 1, 1): Q(1, 2880),
        },
    ),
}


def kappa_coefficient_sets(rs: RootSystem) -> tuple[dict[tuple[int, ...], Q], dict[tuple[int, ...], Q]]:
    """Copies of (K with c_kappa, K-hat with c-hat_kappa), the KAPPA_TABLES entry of rs's (family, rank)."""
    if (rs.family, rs.rank) not in KAPPA_TABLES:
        raise ValueError(f"no c_kappa table for {rs.name}")
    return tuple(map(dict, KAPPA_TABLES[rs.family, rs.rank]))


def _lr_kappa_sum(rs: RootSystem | None, lam, mu, nu, shift: int) -> Q:
    """sum_kappa c_kappa C_{lam' mu' kappa}^{nu'}, w' = w - shift rho, over one tensor_decompose of (lam', mu').

    The c_kappa are K for shift 0 and K-hat for shift 1, read first; rs defaults to B2."""
    if rs is None:
        rs = b2()
    coefficients = kappa_coefficient_sets(rs)[shift]
    if not is_compatible(rs, lam, mu, nu):
        raise IncompatibleTripleError(f"{lam}, {mu}, {nu} is not a compatible triple")
    if shift:
        lam, mu, nu = (tuple(v - 1 for v in rs.labels(w)) for w in (lam, mu, nu))
        if min(lam + mu + nu) < 0:
            raise NotShiftableError("lam, mu, nu must all dominate rho")
    decomposition = tensor_decompose(rs, lam, mu)
    return sum((c * tau_sum(rs, decomposition, kap, nu) for kap, c in coefficients.items()), Q(0))


def j_lr_shifted(lam, mu, nu, rs: RootSystem | None = None) -> Q:
    """J(lam', mu'; nu') as  sum_{kappa in K} c_kappa C_{lam mu kappa}^{nu}.

    Defaults to B2; works for every algebra with a c_kappa table (B2, B3).
    """
    return _lr_kappa_sum(rs, lam, mu, nu, 0)


def j_lr_unshifted(lam, mu, nu, rs: RootSystem | None = None) -> Q:
    """J(lam, mu; nu) as  sum_{kappa in K-hat} c-hat_kappa C_{(lam-rho)(mu-rho) kappa}^{nu-rho}."""
    return _lr_kappa_sum(rs, lam, mu, nu, 1)


def kissinger_quasi_polynomial(rs: RootSystem, kappa) -> tuple[QuasiPolynomial, dict[int, int]]:
    """Stretching quasi-polynomial of (s rho, s rho, s (kappa + rho)), period 2 for rank 2 and 4 above."""
    kappa = rs.labels(kappa)
    rho = (1,) * rs.rank
    nu = tuple(k + 1 for k in kappa)
    return stretching_quasi_polynomial(rs, rho, rho, nu, period=2 if rs.rank == 2 else 4)


def c_kappa_via_kissinger(rs: RootSystem, kappa) -> Q:
    """c_kappa = J(rho, rho, kappa + rho), read off the stretched leading coefficient.

    Residue classes that vanish identically (the triple need not be
    compatible at every s) are skipped when extracting the leading
    coefficient.
    """
    K, Khat = kappa_coefficient_sets(rs)
    kap = rs.labels(kappa)
    if kap not in K and kap not in Khat:
        raise ValueError(f"{kap} is not in K or K-hat of {rs.name}")
    quasi, _ = kissinger_quasi_polynomial(rs, kap)
    return leading_coefficient(quasi)


# ---------------------------------------------------------------------------
# Horn PDF


def delta_b2(x) -> Q:
    """Delta(x) = x1 x2 (x1^2 - x2^2), the product over the B2 positive roots."""
    x1, x2 = _qpair(x)
    return x1 * x2 * (x1 * x1 - x2 * x2)


@lru_cache(maxsize=None)
def _inverse_kappa_b2() -> Q:
    """1 / the rational prefactor of B2's kappa_g (`kappa_constants`), evaluated once per process."""
    return 1 / kappa_constants(b2()).prefactor


def pdf_scale(alpha, beta) -> Q:
    """1 / (kappa_g Delta(alpha) Delta(beta)) on regular ordered pairs; the density is this times |Delta(gamma)| J."""
    alpha, beta = _regular_pair(alpha, beta)
    return _inverse_kappa_b2() / (delta_b2(alpha) * delta_b2(beta))


def pdf_b2(alpha, beta, gamma) -> Q:
    """Horn probability density |Delta(gamma)| J / (kappa_g Delta(alpha) Delta(beta))."""
    return pdf_scale(alpha, beta) * abs(delta_b2(gamma)) * j_b2(alpha, beta, gamma)


def pdf_normalization_integral(alpha, beta, pw: PiecewiseQuadratic | None = None) -> Q:
    """Exact integral of the PDF over the Horn polygon.

    In lattice form (see QuadCell) Delta(gamma) J(gamma) dgamma is
    Delta(P) q(P) dP / (32 D^8); each cell's integral is one integer over a
    fixed denominator (_delta_moment), and one Fraction is made at the end.
    A pw of another pair raises CellPairError.
    """
    alpha, beta = _regular_pair(alpha, beta)
    pw = _cells_of(alpha, beta, pw)
    total = sum(_delta_moment(c.lattice, c.q) for c in pw.cells)
    D = pw.cells[0].D
    return pdf_scale(alpha, beta) * Q(total, _MOMENT_DEN * 32 * D**8)


#: 7-point closed Newton-Cotes weights on [0, 1], over 840; exact to degree 7
_NC7 = (41, 216, 27, 272, 27, 216, 41)
#: lcm of the denominators (m + 2)(m + 1) C(m, i), m = i + j, of the lattice
#: polygon moments of x^i y^j in Delta q (i, j >= 1, m = 4, 5, 6)
_MOMENT_DEN = 3360


def _delta_moment(lattice, q: tuple[int, ...]) -> int:
    """_MOMENT_DEN times the integral of Delta(P) q(P) over a CCW lattice polygon.

    By Euler's identity the degree-m part f_m of Delta q has int_P f_m =
    sum_k c_k int_0^1 f_m(p_k + t e_k) dt / (m + 2) over the edges p_k -> p_k
    + e_k, c_k = p_k x e_k.  The 7-point Newton-Cotes rule is exact there, on
    integer nodes 6 p_k + j e_k where f_m is 6^m times its value; weighting
    f_m by 56 * 6^6 / ((m + 2) 6^m) makes the sum 840 * 56 * 6^6 int_P Delta q,
    one integer, which must be a multiple of 840 * 56 * 6^6 / _MOMENT_DEN;
    a remainder raises InvariantError.
    """
    # the degree weights 336, 48, 7 on the constant, linear and square parts of q
    k0, kx, ky, kxx, kxy, kyy = (k * c for k, c in zip((336, 48, 48, 7, 7, 7), q))
    total = 0
    for (x0, y0), (x1, y1) in zip(lattice, lattice[1:] + lattice[:1]):
        acc = 0
        for j, w in enumerate(_NC7):
            x, y = 6 * x0 + j * (x1 - x0), 6 * y0 + j * (y1 - y0)
            acc += w * x * y * (x * x - y * y) * (k0 + (kx + kxx * x + kxy * y) * x + (ky + kyy * y) * y)
        total += (x0 * y1 - x1 * y0) * acc
    den = 840 * 56 * 6**6 // _MOMENT_DEN
    moment, r = divmod(total, den)
    if r:
        raise InvariantError(f"the Newton-Cotes sum {total} is not a multiple of its fixed denominator {den}")
    return moment


# ---------------------------------------------------------------------------
# Four-route volume computation


@dataclass(frozen=True)
class VolumeRoutes:
    direct: Q | None = None
    lr: Q | None = None
    ehrhart: Q | None = None
    polytope: Q | None = None
    skipped: dict[str, str] = field(default_factory=dict)  # route -> reason
    bz_polygon: RationalPolygon | None = None  # the polygon the polytope route measured

    def values(self) -> dict[str, Q]:
        return {k: v for k in ROUTES if (v := getattr(self, k)) is not None}

    def agree(self) -> bool:
        vals = set(self.values().values())
        return len(vals) <= 1


ROUTES = ("direct", "lr", "ehrhart", "polytope")


def volume_routes(lam, mu, nu, routes=None, rs: RootSystem | None = None) -> VolumeRoutes:
    """The BZ-polytope volume of a compatible triple by up to four routes.

    routes is a nonempty choice from ROUTES, by default every route the
    algebra has: all four on B2 and lr and ehrhart elsewhere.  Any other
    choice, a weight that is not dominant and integral with rs.rank labels,
    and the direct or polytope route off B2 raise ValueError before any
    route runs.  A route that cannot run here (lr with no c_kappa table or
    on weights that do not dominate rho, a size guard, ehrhart with no
    default period) raises alone; beside others it is skipped, its reason
    kept in `skipped`, and if no route runs a ValueError names each reason.
    The polytope route's polygon is kept in `bz_polygon`.
    """
    if rs is None:
        rs = b2()
    is_b2 = (rs.family, rs.rank) == ("B", 2)
    routes = (ROUTES if is_b2 else ("lr", "ehrhart")) if routes is None else tuple(routes)
    if not routes or not set(routes) <= set(ROUTES):
        raise ValueError(f"routes {routes} must be a nonempty choice from {', '.join(ROUTES)}")
    lam, mu, nu = (_check_dominant(rs, w) for w in (lam, mu, nu))
    if "direct" in routes and not is_b2:
        raise ValueError("the direct J evaluation is B2-specific")
    if "polytope" in routes and not is_b2:
        raise ValueError("the BZ polygon construction is B2-specific")
    out, skipped = {}, {}
    for route in (r for r in ROUTES if r in routes):
        try:
            if route == "direct":
                out[route] = j_b2(*map(b2_dynkin_to_ortho, (lam, mu, nu)))
            elif route == "lr" and len(routes) > 1 and (rs.family, rs.rank) not in KAPPA_TABLES:
                skipped[route] = f"no c_kappa table for {rs.name}"
            elif route == "lr":
                out[route] = j_lr_unshifted(lam, mu, nu, rs)
            elif route == "ehrhart":
                out[route] = leading_coefficient(stretching_quasi_polynomial(rs, lam, mu, nu)[0])
            else:
                out["bz_polygon"] = P = bz_polygon_b2(lam, mu, nu)
                out[route] = P.area()
        except (NotShiftableError, SizeGuardError, NoDefaultPeriodError) as exc:
            if len(routes) == 1:
                raise
            skipped[route] = str(exc)
    if len(skipped) == len(set(routes)):
        raise ValueError(f"no route of {rs.name} runs: " + "; ".join(f"{r}: {why}" for r, why in skipped.items()))
    return VolumeRoutes(**out, skipped=skipped)


# ---------------------------------------------------------------------------
# SO(2) closed form (real symmetric 2x2 case)


def so2_support(alpha12, beta12) -> tuple[Q, Q]:
    """The support [|a - b|, a + b] of gamma12; a pair that is not finite and positive raises ValueError."""
    a, b = _rational(alpha12), _rational(beta12)
    if a <= 0 or b <= 0:
        raise ValueError("alpha12 and beta12 must be positive")
    return (abs(a - b), a + b)


def j_so2_symmetric(alpha12, beta12, gamma12) -> float:
    """(2/pi^2) sqrt(a b g / (((a+b)^2 - g^2)(g^2 - (a-b)^2))) on the support.

    Returns 0.0 outside the closed support interval and math.inf exactly at
    its endpoints, where the density has an integrable divergence.  With
    lo = |a - b| and hi = a + b, a b = (hi^2 - lo^2) / 4.
    """
    lo, hi = so2_support(alpha12, beta12)
    g = _rational(gamma12)
    if g < lo or g > hi:
        return 0.0
    if g == lo or g == hi:
        return math.inf
    num = (hi * hi - lo * lo) / 4 * g
    den = (hi * hi - g * g) * (g * g - lo * lo)
    return 2 / math.pi**2 * math.sqrt(num / den)
