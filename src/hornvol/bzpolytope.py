"""Closed, bounded polygons as integer rows, and the B2 Berenstein-Zelevinsky polygon.

Four parameters t0(0), t-1(1), t0(1), t1(1) express sigma = lam + mu - nu
over the positive roots; the two equality constraints

    sigma = (t1(1) + t-1(1)) alpha1 + (t0(0) + t0(1)) alpha2

eliminate t-1(1) and t0(1), leaving a rational polygon in x = t0(0),
y = t1(1).  Its filtered integer points count C_{lam mu}^{nu}: a 2D lattice
point only counts when the two eliminated parameters are integers as well,
which for B2 is the statement that sigma lies in the root lattice.

All geometry is exact and runs in integers.  A polygon keeps each of its
constraints a*x + b*y >= c as one integer row, the coefficients times den,
the positive lcm of their denominators, and reads a, b and c back off the
rows (`RationalPolygon.constraints`).  Every polygon is closed and bounded:
the constructor refuses constraints whose normals leave a recession
direction (UnboundedPolygonError).  The B2 BZ polygon fills the 12 offsets
of one fixed template (normals and labels; always bounded) and hands the
rows to the polygon.  A lattice scan splits the rows it reads and takes
their row bounds from integer floor division; a scan of s P, s an int,
reads P's own rows with each c times s, so the Pick check counts its
dilations without building them.  Vertices come from Cramer's rule and an
integer convex hull on one common denominator, and areas from the integer
shoelace sum.  Coefficients, vertices and areas are returned as Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cached_property
from math import gcd, inf, lcm
from typing import Iterable, Sequence

from .ehrhart import InconsistentSamplesError, QuasiPolynomial, fit_quasi_polynomial


Point = tuple[Q, Q]
Row = tuple[int, int, int]


class UnboundedPolygonError(ValueError):
    pass


class DegeneratePolygonError(ValueError):
    pass


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


def _normals_bounded(rows: Sequence[Row]) -> bool:
    """Whether the rows' half-planes cut out a bounded region, whatever their offsets.

    A nonzero recession direction, if any, lies along one of the boundary
    lines, so only the directions (-B, A) and (B, -A) need testing.  The
    answer ignores the normals' lengths, so a dilation keeps it.
    """
    if not rows:
        return False
    for A, B, _ in rows:
        for dx, dy in ((-B, A), (B, -A)):
            if all(g * dx + h * dy >= 0 for g, h, _ in rows):
                return False
    return True


def _split_rows(rows: Sequence[Row], strict_all: bool, s: int = 1):
    """The rows of s P, s >= 1 an int, as integer bounds for a lattice scan: (ylo, yhi, xlo, xhi, lower, upper).

    s P has the rows (A, B, s*C).  On integer points a strict A*x + B*y > C
    is A*x + B*y >= C + 1, so under strict_all (the interior) every row
    enters with s*C + 1.  Rows with A = 0 bound y alone and rows with B = 0
    bound x alone: ylo, yhi, xlo and xhi are the tightest of those bounds,
    -inf or inf where there is none.  lower and upper hold the other rows,
    with A > 0 and A < 0, as (A, B, C).
    """
    if s != 1 or strict_all:
        rows = [(A, B, s * C + strict_all) for A, B, C in rows]
    ylo = xlo = -inf
    yhi = xhi = inf
    lower, upper = [], []
    for A, B, C in rows:
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
    """A closed, bounded intersection of rational constraints, with a derived vertex cycle.

    `elim` carries the simple-root coordinates of sigma for BZ polygons, so
    lattice scans can demand integrality of the eliminated parameters.
    `dim` is 2 for a full polygon, 1 for a segment, 0 for a point and -1 for
    an empty intersection.
    """

    def __init__(self, constraints: Iterable[tuple], elim: tuple[Q, Q] | None = None):
        """The polygon of the constraints (a, b, c, label): a*x + b*y >= c.

        a, b and c are ints or Fractions, and a = b = 0 raises ValueError.
        Constraints that leave an unbounded region, whatever their offsets,
        raise UnboundedPolygonError.  Each constraint is stored as the
        integer row den * (a, b, c), den > 0 the lcm of the denominators of
        a, b and c.
        """
        rows, dens, labels = [], [], []
        for a, b, c, label in constraints:
            den = lcm(a.denominator, b.denominator, c.denominator)
            A, B, C = (v.numerator * (den // v.denominator) for v in (a, b, c))
            if A == 0 and B == 0:
                raise ValueError(f"degenerate constraint {label!r}: a = b = 0")
            rows.append((A, B, C))
            dens.append(den)
            labels.append(label)
        if not _normals_bounded(rows):
            raise UnboundedPolygonError(f"the constraints {labels} leave an unbounded region")
        self._rows, self._dens, self._labels = tuple(rows), tuple(dens), tuple(labels)
        self._elim = None if elim is None else (Q(elim[0]), Q(elim[1]))

    @classmethod
    def _from_rows(cls, rows: tuple[Row, ...], dens: tuple[int, ...], labels: tuple[str, ...], elim) -> "RationalPolygon":
        """A polygon of bounded integer rows in the constructor's normal form.

        `elim` is None or a pair of ints or Fractions.
        """
        P = object.__new__(cls)
        P._rows, P._dens, P._labels, P._elim = rows, dens, labels, elim
        return P

    @cached_property
    def elim(self) -> tuple[Q, Q] | None:
        return None if self._elim is None else (Q(self._elim[0]), Q(self._elim[1]))

    @property
    def constraints(self) -> tuple[tuple[Q, Q, Q, str], ...]:
        """The constraints (a, b, c, label) read off the rows; the constructor rebuilds P from them."""
        return tuple((Q(A, den), Q(B, den), Q(C, den), label)
                     for (A, B, C), den, label in zip(self._rows, self._dens, self._labels))

    # -- geometry ----------------------------------------------------------
    @cached_property
    def _vertex_cycle(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(D, cycle): the vertices as a CCW cycle of integer points over one denominator D > 0.

        The candidates are pairwise line intersections by Cramer's rule, kept
        when in the polygon.
        """
        rows = self._rows
        pts: list[tuple[int, int, int]] = []
        for i, (A1, B1, C1) in enumerate(rows):
            for A2, B2, C2 in rows[i + 1:]:
                det = A1 * B2 - A2 * B1
                if det == 0:
                    continue
                xn = C1 * B2 - C2 * B1
                yn = A1 * C2 - A2 * C1
                if det < 0:
                    det, xn, yn = -det, -xn, -yn
                # (xn/det, yn/det) lies in the polygon iff A*xn + B*yn >= C*det
                for A, B, C in rows:
                    if A * xn + B * yn < C * det:
                        break
                else:
                    pts.append((xn, yn, det))
        D, cycle = _cramer_hull(pts)
        return D, tuple(cycle)

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        D, cycle = self._vertex_cycle
        return tuple((Q(x, D), Q(y, D)) for x, y in cycle)

    @cached_property
    def dim(self) -> int:
        return min(len(self._vertex_cycle[1]), 3) - 1

    def area(self) -> Q:
        """Exact shoelace area, 0 below dim 2: the relative volume in BZ coordinates."""
        D, v = self._vertex_cycle
        if len(v) < 3:
            return Q(0)
        s = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(v, v[1:] + v[:1]))
        return Q(abs(s), 2 * D * D)

    # -- lattice scans -------------------------------------------------------
    def _passes_filter(self, s: int = 1) -> bool:
        """Integer (x, y) of s P makes the eliminated parameters integral iff s sigma is, s >= 1 an int.

        An elim coordinate n/d in lowest terms times s is integral iff d divides s.
        """
        if self._elim is None:
            return True
        e1, e2 = self._elim
        return s % e1.denominator == 0 and s % e2.denominator == 0

    def lattice_count(self, strict_all: bool = False, s: int = 1) -> int:
        """Integer points of s P (of its interior, under strict_all), s >= 1 an int; 0 when s * elim is not integral.

        One scan of P's own rows: those of s P are (A, B, s*C) (see
        _split_rows) and its elim is s * elim (_passes_filter), so no dilated
        polygon is built.  Per integer y the scan adds the integer x between
        the tightest lower and upper bounds.  The vertices, times s, bound y
        where no rows bound y alone on both sides, and wherever P holds its
        vertex cycle already: that skips the empty rows of a loose y box,
        while a fresh P keeps the box.  Boundedness guarantees rows with
        A > 0 and rows with A < 0, so every scanned y gets both an x lower
        and an x upper bound.  Any other s raises ValueError.
        """
        if type(s) is not int or s < 1:
            raise ValueError(f"lattice_count scans s P for an int s >= 1, not {s!r}")
        if not self._passes_filter(s):
            return 0
        ylo, yhi, xlo, xhi, lower, upper = _split_rows(self._rows, strict_all, s)
        if "_vertex_cycle" in self.__dict__ or ylo == -inf or yhi == inf:
            D, cycle = self._vertex_cycle
            if not cycle:
                return 0
            ylo = max(ylo, -(-s * min(y for _, y in cycle) // D))
            yhi = min(yhi, s * max(y for _, y in cycle) // D)
        count = 0
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
                count += hi - lo + 1
        return count

    # -- serialization -------------------------------------------------------
    def to_json_dict(self) -> dict:
        """a, b and c from each integer row over its den, the vertices from the cycle over D."""
        D, cycle = self._vertex_cycle
        return {
            "halfplanes": [
                {"a": _ratio(A, den), "b": _ratio(B, den), "c": _ratio(C, den), "strict": False, "label": label}
                for (A, B, C), den, label in zip(self._rows, self._dens, self._labels)
            ],
            "vertices": [[_ratio(x, D), _ratio(y, D)] for x, y in cycle],
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


def _ratio(n: int, d: int) -> str:
    """str(Fraction(n, d)) for ints n and d > 0, with one gcd."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _exact_div(num, d):
    """num / d for ints or Fractions: an int when d divides num, else a Fraction."""
    quo, rem = divmod(num, d)
    return quo if rem == 0 else Q(num, d)


# ---------------------------------------------------------------------------
# BZ polygon construction for B2


# The 12 constraints a*x + b*y >= c of the B2 BZ polygon as (a, b, label),
# in the order bz_polygon_b2 gives their offsets c.
_BZ_B2_TEMPLATE = (
    (1, 0, "t0(0) >= 0"),
    (0, 1, "t1(1) >= 0"),
    (-1, -2, "t0(1) >= 2 t1(1)"),
    (1, -2, "2 t-1(1) >= t0(1)"),
    (0, -1, "lam1 >= t1(1)"),
    (1, -1, "lam1 >= t0(1) - t-1(1)"),
    (1, 1, "lam1 >= t-1(1) - t0(0)"),
    (-1, 0, "lam2 >= t0(0)"),
    (-1, -1, "mu1 >= t-1(1) + 2 t1(1) - t0(1)"),
    (0, -1, "mu1 >= t1(1)"),
    (1, 0, "mu2 >= t0(0) + 2(t0(1) - t-1(1) - t1(1))"),
    (1, 2, "mu2 >= t0(1) - 2 t1(1)"),
)
_BZ_B2_LABELS = tuple(label for *_, label in _BZ_B2_TEMPLATE)


def bz_polygon_b2(lam, mu, nu) -> RationalPolygon:
    """The B2 BZ polygon of a dominant rational triple.

    The labels are Dynkin labels, two per weight, ints or Fractions;
    anything else raises ValueError.  An empty intersection
    is a legal result (dim metadata -1).  The rows are those the
    RationalPolygon constructor would store for the 12 constraints of
    _BZ_B2_TEMPLATE.
    """
    try:
        (l1, l2), (m1, m2), (n1, n2) = lam, mu, nu
    except (TypeError, ValueError):
        raise ValueError(f"bz_polygon_b2 needs two Dynkin labels per weight, got {lam}, {mu}, {nu}") from None
    # one float label makes the sum a float
    if not isinstance(l1 + l2 + m1 + m2 + n1 + n2, (int, Q)):
        raise ValueError(f"bz_polygon_b2 needs int or Fraction labels, got {lam}, {mu}, {nu}")
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
    for (a, b, _), k in zip(_BZ_B2_TEMPLATE, twice):
        # c = n / (2 d) with n / d = k in lowest terms: den is 2 d when n is odd, else d
        n, d = k.numerator, k.denominator
        if n & 1:
            d *= 2
        else:
            n >>= 1
        rows.append((a * d, b * d, n))
        dens.append(d)
    return RationalPolygon._from_rows(tuple(rows), tuple(dens), _BZ_B2_LABELS, (_exact_div(d1, 2), sq2))


def lattice_point_count(P: RationalPolygon) -> int:
    """Integer points of P whose back-substituted BZ parameters are integral.

    A polygon without elim has no eliminated parameters, so this is its raw
    2D lattice count.
    """
    return P.lattice_count()


def boundary_interior_counts(P: RationalPolygon) -> tuple[int, int]:
    """(boundary, interior) lattice point counts; relative interior for dim < 2.

    Both are 0 when P has an elim that is not integral, as lattice_count.  A
    segment's boundary points are its lattice ends, the vertices (x/D, y/D)
    of the integer vertex cycle with D dividing x and y.
    """
    if not P._passes_filter():
        return (0, 0)
    dim = P.dim  # computes the vertex cycle, so the scans take y from it
    total = P.lattice_count()
    if dim == 2:
        interior = P.lattice_count(strict_all=True)
        return (total - interior, interior)
    if dim == 1:
        D, cycle = P._vertex_cycle
        ends = sum(x % D == y % D == 0 for x, y in cycle)
        return (ends, total - ends)
    if dim == 0:
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
    """The kind of P: Empty, Point, Segment (with its relative length) or Full.

    A segment from (x0/D, y0/D) to (x1/D, y1/D) on the integer vertex cycle
    is gcd(x1 - x0, y1 - y0) / D primitive lattice vectors long.
    """
    d = P.dim
    if d == -1:
        return Degeneracy("Empty")
    if d == 0:
        return Degeneracy("Point")
    if d == 1:
        D, ((x0, y0), (x1, y1)) = P._vertex_cycle
        return Degeneracy("Segment", Q(gcd(x1 - x0, y1 - y0), D))
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

    b and i come from lattice scans of P, C = b + i; V is the exact area; L is
    twice the sub-leading coefficient of the stretching quasi-polynomial
    fitted from the counts of the dilations s P, s = 2..6, each a scan of
    P's own rows (A, B, s*C) with no dilated polygon built.  Violated
    assumptions (a non-constant sub-leading coefficient, or no period-2 fit
    at all, as for vertices off the half-integral lattice) are reported in
    `notes`, never raised.
    """
    if P.dim != 2:
        raise DegeneratePolygonError("pick_relation_check needs a dim-2 polygon")
    V = P.area()
    b, i = boundary_interior_counts(P)
    C = b + i
    samples = {0: 1, 1: C}
    for s in range(2, 7):
        samples[s] = P.lattice_count(s=s)
    try:
        quasi = fit_quasi_polynomial(samples, degree=2, period=2)
    except InconsistentSamplesError as exc:
        return PickReport(None, False, C, V, b, i, None, (f"no period-2 fit: {exc}",))
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


def reciprocity_check(quasi: QuasiPolynomial, P: RationalPolygon) -> bool:
    """Ehrhart-Macdonald: Q(-1) = (-1)^dim * (interior count)."""
    val = quasi.evaluate(-1)
    _, interior = boundary_interior_counts(P)
    return val == Q(-1) ** max(P.dim, 0) * interior
