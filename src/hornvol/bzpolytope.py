"""The B2 Berenstein-Zelevinsky polygon in the (t0(0), t1(1)) plane.

Four parameters t0(0), t-1(1), t0(1), t1(1) express sigma = lam + mu - nu
over the positive roots; the two equality constraints

    sigma = (t1(1) + t-1(1)) alpha1 + (t0(0) + t0(1)) alpha2

eliminate t-1(1) and t0(1), leaving a rational polygon in x = t0(0),
y = t1(1).  Its filtered integer points count C_{lam mu}^{nu}: a 2D lattice
point only counts when the two eliminated parameters are integers as well,
which for B2 is the statement that sigma lies in the root lattice.

All geometry is exact and runs in integers.  A half-plane stores one integer
row, its coefficients times the positive lcm of their denominators, and a
polygon keeps only those rows.  The B2 BZ polygon fills the 12 offsets of
one fixed template (normals, labels, strictness; always bounded) and hands
the rows to the polygon without building a HalfPlane; a polygon builds its
`halfplanes` from the rows only when something reads them.  Lattice scans
split the rows once per polygon and take their row bounds from integer
floor division, vertices come from Cramer's rule and an integer convex hull
on one common denominator, areas from the integer shoelace sum, and a
dilation scales the integer rows.  Coefficients, vertices and areas are
returned as Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cached_property
from math import gcd, inf, lcm
from typing import Iterable, Sequence


Point = tuple[Q, Q]
Row = tuple[int, int, int, bool]


class UnboundedPolygonError(ValueError):
    pass


class DegeneratePolygonError(ValueError):
    pass


@dataclass(frozen=True, init=False)
class HalfPlane:
    """The constraint a*x + b*y >= c (or > c when strict), for ints or Fractions a, b, c.

    Stored as one integer row (A, B, C) = den * (a, b, c), den > 0 the lcm of
    the denominators of a, b and c; a, b and c are read back off the row.
    """

    row: tuple[int, int, int]
    den: int
    strict: bool
    label: str

    def __init__(self, a, b, c, strict: bool = False, label: str = ""):
        den = lcm(a.denominator, b.denominator, c.denominator)
        row = (a.numerator * (den // a.denominator), b.numerator * (den // b.denominator),
               c.numerator * (den // c.denominator))
        if row[0] == 0 and row[1] == 0:
            raise ValueError("degenerate half-plane")
        self.__dict__.update(row=row, den=den, strict=strict, label=label)  # frozen: bypass __setattr__

    @property
    def a(self) -> Q:
        return Q(self.row[0], self.den)

    @property
    def b(self) -> Q:
        return Q(self.row[1], self.den)

    @property
    def c(self) -> Q:
        return Q(self.row[2], self.den)

    def value(self, p: Point) -> Q:
        A, B, C = self.row
        return Q(A * p[0] + B * p[1] - C, self.den)

    def holds(self, p: Point, closure: bool = False) -> bool:
        A, B, C = self.row
        v = A * p[0] + B * p[1] - C  # den * value(p), den > 0
        return v >= 0 if (closure or not self.strict) else v > 0


def _halfplane(row: tuple[int, int, int], den: int, strict: bool, label: str) -> HalfPlane:
    """The HalfPlane of an integer row already in the constructor's normal form."""
    h = object.__new__(HalfPlane)
    h.__dict__.update(row=row, den=den, strict=strict, label=label)
    return h


def _scaled_row(row: tuple[int, int, int], den: int, p: int, q: int) -> tuple[tuple[int, int, int], int]:
    """The row and den of a*x + b*y >= (p/q)*c, for q > 0.

    The row becomes (q*A, q*B, p*C) over q*den, divided by gcd(q*den, q*A,
    q*B, p*C): the row and den the HalfPlane constructor gives.
    """
    A, B, C = row
    A, B, C, den = q * A, q * B, p * C, q * den
    g = gcd(den, A, B, C)
    return (A // g, B // g, C // g), den // g


def _convex_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Andrew's monotone chain on exact points; returns a CCW cycle without repeats."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out: list[tuple[int, int]] = []
        for p in seq:
            while len(out) >= 2:
                (x1, y1), (x2, y2) = out[-2], out[-1]
                if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all collinear
        return [pts[0], pts[-1]]
    return hull


def _cramer_hull(points: list[tuple[int, int, int]]) -> tuple[int, list[tuple[int, int]]]:
    """(D, cycle): the convex hull of the points (xn/det, yn/det), det > 0, scaled by D.

    D > 0 is the lcm of the dets, so every point is an integer point over
    D, and the hull, its order and its cross products are those of the
    rational points.
    """
    D = lcm(*(det for _, _, det in points))
    return D, _convex_hull([(xn * (D // det), yn * (D // det)) for xn, yn, det in points])


def _normals_bounded(normals: list[tuple[int, int]]) -> bool:
    """Whether half-planes with these inward normals always cut out a bounded region.

    A nonzero recession direction, if any, lies along one of the boundary
    lines, so only the directions (-b, a) and (b, -a) need testing.  The
    answer ignores the normals' lengths, so a dilation keeps it.
    """
    if not normals:
        return False
    for a, b in normals:
        for dx, dy in ((-b, a), (b, -a)):
            if all(g * dx + h * dy >= 0 for g, h in normals):
                return False
    return True


def _split_rows(rows: Sequence[Row], strict_all: bool):
    """The rows as integer bounds for a lattice scan: (ylo, yhi, xlo, xhi, lower, upper).

    On integer points a strict A*x + B*y > C is A*x + B*y >= C + 1, so strict
    rows (every row under strict_all) enter with C + 1.  Rows with A = 0
    bound y alone and rows with B = 0 bound x alone: ylo, yhi, xlo and xhi
    are the tightest of those bounds, -inf or inf where there is none.
    lower and upper hold the other rows, with A > 0 and A < 0, as (A, B, C).
    """
    ylo = xlo = -inf
    yhi = xhi = inf
    lower, upper = [], []
    for A, B, C, strict in rows:
        if strict or strict_all:
            C += 1
        if A == 0:
            if B > 0:
                t = -(-C // B)
                if t > ylo:
                    ylo = t
            else:
                t = C // B
                if t < yhi:
                    yhi = t
        elif B == 0:
            if A > 0:
                t = -(-C // A)
                if t > xlo:
                    xlo = t
            else:
                t = C // A
                if t < xhi:
                    xhi = t
        else:
            (lower if A > 0 else upper).append((A, B, C))
    return ylo, yhi, xlo, xhi, lower, upper


class RationalPolygon:
    """Intersection of rational half-planes with a derived vertex cycle.

    `elim` carries the simple-root coordinates of sigma for BZ polygons, so
    lattice scans can demand integrality of the eliminated parameters.
    `dim` is 2 for a full polygon, 1 for a segment, 0 for a point and -1 for
    an empty intersection.
    """

    def __init__(self, halfplanes: Sequence[HalfPlane], elim: tuple[Q, Q] | None = None):
        """A polygon of arbitrary half-planes, kept for the tests' reference builders: the
        package builds its polygons from integer row templates (bz_polygon_b2, horn_polygon)."""
        self.halfplanes = tuple(halfplanes)
        self._set_rows(tuple((*h.row, h.strict) for h in self.halfplanes),
                       tuple(h.den for h in self.halfplanes), tuple(h.label for h in self.halfplanes),
                       None if elim is None else (Q(elim[0]), Q(elim[1])))

    @classmethod
    def _from_rows(cls, rows: tuple[Row, ...], dens: tuple[int, ...], labels: tuple[str, ...],
                   elim, bounded: bool) -> "RationalPolygon":
        """A polygon of integer rows in HalfPlane normal form, whose boundedness is known.

        `elim` is None or a pair of ints or Fractions.
        """
        P = object.__new__(cls)
        P._set_rows(rows, dens, labels, elim)
        P._bounded = bounded
        return P

    def _set_rows(self, rows: tuple[Row, ...], dens: tuple[int, ...], labels: tuple[str, ...], elim) -> None:
        self._rows, self._dens, self._labels, self._elim = rows, dens, labels, elim
        self._split = _split_rows(rows, False)  # the lattice scan's bounds, split once

    @cached_property
    def elim(self) -> tuple[Q, Q] | None:
        return None if self._elim is None else (Q(self._elim[0]), Q(self._elim[1]))

    @cached_property
    def halfplanes(self) -> tuple[HalfPlane, ...]:
        """The half-planes of a polygon made from rows, built on first read."""
        return tuple(_halfplane((A, B, C), den, strict, label)
                     for (A, B, C, strict), den, label in zip(self._rows, self._dens, self._labels))

    # -- geometry ----------------------------------------------------------
    @cached_property
    def _bounded(self) -> bool:
        return _normals_bounded([(A, B) for A, B, _, _ in self._rows])

    def is_bounded(self) -> bool:
        return self._bounded

    @cached_property
    def _vertex_cycle(self) -> tuple[int, list[tuple[int, int]]]:
        """(D, cycle): the vertices as a CCW cycle of integer points over one denominator D > 0.

        The candidates are pairwise line intersections by Cramer's rule, kept
        when in the closure.
        """
        rows = self._rows
        pts: list[tuple[int, int, int]] = []
        for i, (A1, B1, C1, _) in enumerate(rows):
            for A2, B2, C2, _ in rows[i + 1:]:
                det = A1 * B2 - A2 * B1
                if det == 0:
                    continue
                xn = C1 * B2 - C2 * B1
                yn = A1 * C2 - A2 * C1
                if det < 0:
                    det, xn, yn = -det, -xn, -yn
                # (xn/det, yn/det) lies in the closure iff A*xn + B*yn >= C*det
                for A, B, C, _ in rows:
                    if A * xn + B * yn < C * det:
                        break
                else:
                    pts.append((xn, yn, det))
        return _cramer_hull(pts)

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        D, cycle = self._vertex_cycle
        return tuple((Q(x, D), Q(y, D)) for x, y in cycle)

    @cached_property
    def dim(self) -> int:
        return min(len(self._vertex_cycle[1]), 3) - 1

    def contains(self, p: Point, strict: bool = False) -> bool:
        if strict:
            return all(h.value(p) > 0 for h in self.halfplanes)
        return all(h.holds(p) for h in self.halfplanes)

    def area(self) -> Q:
        D, v = self._vertex_cycle
        if len(v) < 3:
            return Q(0)
        s = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(v, v[1:] + v[:1]))
        return Q(abs(s), 2 * D * D)

    def dilate(self, s) -> "RationalPolygon":
        """The polygon scaled by s, row by row: each c becomes s*c."""
        s = Q(s)
        p, q = s.numerator, s.denominator
        rows, dens = [], []
        for (A, B, C, strict), den in zip(self._rows, self._dens):
            row, den = _scaled_row((A, B, C), den, p, q)
            rows.append((*row, strict))
            dens.append(den)
        elim = None if self._elim is None else (self._elim[0] * s, self._elim[1] * s)
        return RationalPolygon._from_rows(tuple(rows), tuple(dens), self._labels, elim, self._bounded)

    # -- lattice scans -------------------------------------------------------
    def _passes_filter(self) -> bool:
        """Integer (x, y) makes the eliminated parameters integral iff sigma is integral."""
        if self._elim is None:
            return True
        return self._elim[0].denominator == 1 and self._elim[1].denominator == 1

    def _row_counts(self, strict_all: bool) -> Iterable[tuple[int, int, int]]:
        """Yield (y, xlo, xhi) for integer rows; honors per-constraint strictness.

        Without rows bounding y alone on both sides the vertices bound y too.
        Boundedness guarantees rows with A > 0 and rows with A < 0, so every
        scanned y gets both an x lower and an x upper bound.
        """
        if not self.is_bounded():
            raise UnboundedPolygonError("lattice scan of an unbounded region")
        ylo, yhi, xlo, xhi, lower, upper = _split_rows(self._rows, True) if strict_all else self._split
        if ylo == -inf or yhi == inf:
            D, cycle = self._vertex_cycle
            if not cycle:
                return
            ylo = max(ylo, -(-min(y for _, y in cycle) // D))
            yhi = min(yhi, max(y for _, y in cycle) // D)
        for y in range(ylo, yhi + 1):
            lo = xlo
            for A, B, C in lower:
                t = -((B * y - C) // A)  # least x with A*x >= C - B*y
                if t > lo:
                    lo = t
            hi = xhi
            for A, B, C in upper:
                t = (C - B * y) // A  # greatest x with A*x >= C - B*y, A < 0
                if t < hi:
                    hi = t
            if lo <= hi:
                yield (y, lo, hi)

    def lattice_count(self, integrality_filter: bool = True, strict_all: bool = False) -> int:
        if integrality_filter and not self._passes_filter():
            return 0
        return sum(hi - lo + 1 for _, lo, hi in self._row_counts(strict_all))

    # -- serialization -------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "halfplanes": [
                {"a": str(h.a), "b": str(h.b), "c": str(h.c), "strict": h.strict, "label": h.label}
                for h in self.halfplanes
            ],
            "vertices": [[str(x), str(y)] for x, y in self.vertices],
            "dim": self.dim,
        }


def clip_cell(vertices: Sequence[Point], a, b, c) -> tuple[Point, ...]:
    """Clip a convex CCW vertex cycle against a*x + b*y >= c (Sutherland-Hodgman).

    Exact arguments give exact vertices: each new coordinate is one exact
    division, an int when it divides (so a cut of integer points stays on
    the integer lattice wherever the crossing is a lattice point) and a
    Fraction otherwise.
    """
    out: list[Point] = []
    n = len(vertices)
    for i in range(n):
        p = vertices[i]
        q = vertices[(i + 1) % n]
        vp = a * p[0] + b * p[1] - c
        vq = a * q[0] + b * q[1] - c
        if vp >= 0:
            out.append(p)
        if (vp > 0 and vq < 0) or (vp < 0 and vq > 0):
            # p + vp/d (q - p) = (vp q - vq p)/d
            d = vp - vq
            out.append((_exact_div(vp * q[0] - vq * p[0], d), _exact_div(vp * q[1] - vq * p[1], d)))
    dedup: list[Point] = []
    for p in out:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return tuple(dedup)


def _exact_div(num, d):
    """num / d for ints or Fractions: an int when d divides num, else a Fraction."""
    quo, rem = divmod(num, d)
    return quo if rem == 0 else Q(num, d)


# ---------------------------------------------------------------------------
# BZ polygon construction for B2


# The 12 constraints a*x + b*y >= c of the B2 BZ polygon as (a, b, strict, label),
# in the order bz_polygon_b2 gives their offsets c.
_BZ_B2_TEMPLATE = (
    (1, 0, False, "t0(0) >= 0"),
    (0, 1, False, "t1(1) >= 0"),
    (-1, -2, False, "t0(1) >= 2 t1(1)"),
    (1, -2, False, "2 t-1(1) >= t0(1)"),
    (0, -1, False, "lam1 >= t1(1)"),
    (1, -1, False, "lam1 >= t0(1) - t-1(1)"),
    (1, 1, False, "lam1 >= t-1(1) - t0(0)"),
    (-1, 0, False, "lam2 >= t0(0)"),
    (-1, -1, False, "mu1 >= t-1(1) + 2 t1(1) - t0(1)"),
    (0, -1, False, "mu1 >= t1(1)"),
    (1, 0, False, "mu2 >= t0(0) + 2(t0(1) - t-1(1) - t1(1))"),
    (1, 2, False, "mu2 >= t0(1) - 2 t1(1)"),
)
_BZ_B2_LABELS = tuple(label for *_, label in _BZ_B2_TEMPLATE)


def bz_polygon_b2(lam, mu, nu) -> RationalPolygon:
    """Half-plane system of the B2 BZ polygon for a dominant rational triple.

    The labels are Dynkin labels, ints or Fractions.  An empty intersection
    is a legal result (dim metadata -1).  The rows are those HalfPlane
    would store for the 12 constraints of _BZ_B2_TEMPLATE.
    """
    (l1, l2), (m1, m2), (n1, n2) = lam, mu, nu
    if min(l1, l2, m1, m2, n1, n2) < 0:
        raise ValueError("bz_polygon_b2 requires dominant weights")
    s1d, s2d = l1 + m1 - n1, l2 + m2 - n2
    # sigma = sq1 alpha1 + sq2 alpha2 in simple-root coordinates; with
    # d1 = 2 sq1 only three offsets leave the labels' own arithmetic
    d1 = 2 * s1d + s2d
    sq2 = s1d + s2d
    twice = (0, 0, -2 * sq2, 2 * (sq2 - d1), -2 * l1, 2 * (sq2 - l1) - d1, d1 - 2 * l1, -2 * l2,
             d1 - 2 * (sq2 + m1), -2 * m1, 2 * (2 * sq2 - d1 - m2), 2 * (sq2 - m2))  # 2c per row
    rows, dens = [], []
    for (a, b, strict, _), k in zip(_BZ_B2_TEMPLATE, twice):
        # c = n / (2 d) with n / d = k in lowest terms: den is 2 d when n is odd, else d
        n, d = k.numerator, k.denominator
        if n & 1:
            d *= 2
        else:
            n >>= 1
        rows.append((a * d, b * d, n, strict))
        dens.append(d)
    return RationalPolygon._from_rows(tuple(rows), tuple(dens), _BZ_B2_LABELS, (_exact_div(d1, 2), sq2), True)


def lattice_point_count(P: RationalPolygon, integrality_filter: bool = True) -> int:
    """Integer points of P whose back-substituted BZ parameters are integral.

    With integrality_filter=False this is the raw 2D lattice count
    (diagnostic mode).
    """
    return P.lattice_count(integrality_filter=integrality_filter)


def polygon_area(P: RationalPolygon) -> Q:
    """Exact shoelace area: the relative volume in BZ coordinates."""
    if P.dim < 2:
        raise DegeneratePolygonError(f"polygon has dim {P.dim}; see degeneracy_info")
    return P.area()


def _segment_relative_length(v0: Point, v1: Point) -> Q:
    """Length of the segment in units of the primitive lattice vector along it."""
    dx, dy = v1[0] - v0[0], v1[1] - v0[1]
    den = dx.denominator * dy.denominator // gcd(dx.denominator, dy.denominator)
    ix, iy = int(dx * den), int(dy * den)
    return Q(gcd(abs(ix), abs(iy)), den)


def boundary_interior_counts(P: RationalPolygon, integrality_filter: bool = True) -> tuple[int, int]:
    """(boundary, interior) lattice point counts; relative interior for dim < 2."""
    if integrality_filter and not P._passes_filter():
        return (0, 0)
    total = P.lattice_count(integrality_filter)
    if P.dim == 2:
        interior = P.lattice_count(integrality_filter, strict_all=True)
        return (total - interior, interior)
    if P.dim == 1:
        ends = sum(
            1
            for v in P.vertices
            if v[0].denominator == 1 and v[1].denominator == 1
        )
        return (ends, total - ends)
    if P.dim == 0:
        # the relative interior of a point is the point itself
        return (0, total)
    return (0, 0)


@dataclass(frozen=True)
class Degeneracy:
    kind: str                        # Empty | Point | Segment | Full
    relative_length: Q | None = None

    def __str__(self):
        if self.kind == "Segment":
            return f"Segment(relative length {self.relative_length})"
        return self.kind


def degeneracy_info(P: RationalPolygon) -> Degeneracy:
    d = P.dim
    if d == -1:
        return Degeneracy("Empty")
    if d == 0:
        return Degeneracy("Point")
    if d == 1:
        v0, v1 = P.vertices
        return Degeneracy("Segment", _segment_relative_length(v0, v1))
    return Degeneracy("Full")


@dataclass(frozen=True)
class PickReport:
    p: Q | None
    holds: bool
    count: int
    area: Q
    boundary: int
    interior: int
    L: Q | None
    notes: tuple[str, ...] = field(default_factory=tuple)


def pick_relation_check(P: RationalPolygon) -> PickReport:
    """Check 2C - 2V - L = 2(2p - 1), L = b, and Pick's theorem when p = 1.

    C, b, i come from lattice scans of P; V is the exact area; L is twice the
    sub-leading coefficient of the stretching quasi-polynomial fitted from
    the dilations of P.  Violated assumptions (a non-constant sub-leading
    coefficient) are reported in `notes`, never raised.
    """
    from .ehrhart import fit_quasi_polynomial  # local import, no cycle at module load

    if P.dim != 2:
        raise DegeneratePolygonError("pick_relation_check needs a dim-2 polygon")
    C = lattice_point_count(P)
    V = P.area()
    b, i = boundary_interior_counts(P)
    samples = {0: 1}
    for s in range(1, 7):
        samples[s] = lattice_point_count(P.dilate(s))
    quasi = fit_quasi_polynomial(samples, degree=2, period=2)
    notes: list[str] = []
    sub = {r: quasi.coeffs[r][1] for r in range(2)}
    if sub[0] != sub[1]:
        notes.append(f"sub-leading coefficient not constant: {sub[0]} vs {sub[1]}")
        return PickReport(None, False, C, V, b, i, None, tuple(notes))
    L = 2 * sub[0]
    p = Q(2 * C - 2 * V - L + 2, 4)
    holds = True
    if L != b:
        holds = False
        notes.append(f"L = {L} differs from boundary count b = {b}")
    if p == 1 and V != i + Q(b, 2) - 1:
        holds = False
        notes.append("Pick's theorem V = i + b/2 - 1 fails")
    odd_const = quasi.coeffs[1][0]
    if odd_const != 2 * p - 1:
        notes.append(f"odd-class constant {odd_const} differs from 2p-1 = {2 * p - 1}")
    return PickReport(p, holds, C, V, b, i, L, tuple(notes))
