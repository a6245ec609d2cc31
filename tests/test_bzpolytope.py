import itertools
from fractions import Fraction as Q
from math import ceil, floor, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornvol.bzpolytope import (
    DegeneratePolygonError,
    HalfPlane,
    RationalPolygon,
    UnboundedPolygonError,
    _cramer_hull,
    boundary_interior_counts,
    bz_polygon_b2,
    clip_cell,
    degeneracy_info,
    lattice_point_count,
    pick_relation_check,
    polygon_area,
)
from hornvol.multiplicity import lr_klimyk, lr_steinberg
from hornvol.rootsys import build_root_system, is_compatible

B2 = build_root_system("B", 2)


def reduced_system_563456() -> RationalPolygon:
    """The symbolically reduced half-plane system for (5,6), (3,4), (5,6), strictness included."""
    return RationalPolygon(
        [
            HalfPlane(1, 0, 0),                      # 0 <= x
            HalfPlane(-1, 0, -6, strict=True),       # x < 6
            HalfPlane(0, 1, 0),                      # 0 <= y
            HalfPlane(0, -1, -3),                    # y <= 3
            HalfPlane(1, -2, -3),                    # x + 3 >= 2y
            HalfPlane(1, 2, 3),                      # 3 <= x + 2y
            HalfPlane(-1, -2, -7),                   # x + 2y <= 7
            HalfPlane(-1, -1, -5),                   # x + y <= 5
        ],
        elim=(Q(5), Q(7)),
    )


def test_system_matches_reduced_form():
    P = bz_polygon_b2((5, 6), (3, 4), (5, 6))
    reduced = reduced_system_563456()
    assert set(P.vertices) == set(reduced.vertices)
    assert lattice_point_count(P) == lattice_point_count(reduced) == 10
    assert P.area() == reduced.area() == 6


def test_first_example_polygon():
    P = bz_polygon_b2((5, 6), (3, 4), (5, 6))
    assert P.dim == 2
    assert lattice_point_count(P) == 10
    assert polygon_area(P) == 6
    # corners are not integral
    assert any(v[0].denominator > 1 or v[1].denominator > 1 for v in P.vertices)
    b, i = boundary_interior_counts(P)
    assert (b, i) == (7, 3)


def test_second_example_polygon():
    P = bz_polygon_b2((5, 6), (3, 4), (6, 4))
    assert lattice_point_count(P) == 10
    assert polygon_area(P) == Q(11, 2)


def test_third_example_polygon():
    P = bz_polygon_b2((5, 6), (3, 4), (2, 10))
    assert lattice_point_count(P) == 8
    assert polygon_area(P) == Q(7, 2)
    assert boundary_interior_counts(P)[1] == 1


def test_fig8_polygon():
    P = bz_polygon_b2((4, 7), (5, 3), (2, 4))
    assert lattice_point_count(P) == 5
    assert polygon_area(P) == Q(7, 4)
    assert any(v[0].denominator > 1 or v[1].denominator > 1 for v in P.vertices)


def test_empty_polygon():
    # sigma has a negative simple-root coordinate: Part(sigma) is empty
    P = bz_polygon_b2((0, 0), (0, 0), (2, 0))
    assert P.dim == -1
    assert lattice_point_count(P) == 0
    assert boundary_interior_counts(P) == (0, 0)
    assert degeneracy_info(P).kind == "Empty"


def test_rational_triples_allowed():
    P = bz_polygon_b2((Q(9, 2), Q(7)), (Q(5), Q(3)), (Q(5, 2), Q(4)))
    assert P.dim == 2


def test_dominance_required():
    with pytest.raises(ValueError):
        bz_polygon_b2((-1, 0), (1, 0), (0, 0))


def test_integrality_filter():
    # compatible triple: counting is plain 2-D counting
    P = bz_polygon_b2((5, 6), (3, 4), (5, 6))
    assert lattice_point_count(RationalPolygon(P.halfplanes)) == lattice_point_count(P) == 10
    # non-compatible triple: the filter kills every point; the same rows without elim do not
    P2 = bz_polygon_b2((1, 1), (1, 1), (1, 1))
    assert lattice_point_count(P2) == 0 and boundary_interior_counts(P2) == (0, 0)
    assert lattice_point_count(RationalPolygon(P2.halfplanes)) > 0


def test_count_matches_klimyk_and_zero_when_incompatible():
    for lam in itertools.product(range(3), range(3)):
        for mu in itertools.product(range(3), range(3)):
            for nu in itertools.product(range(4), range(4)):
                c = lattice_point_count(bz_polygon_b2(lam, mu, nu))
                if is_compatible(B2, lam, mu, nu):
                    assert c == lr_klimyk(B2, lam, mu, nu)
                else:
                    assert c == 0


def test_area_swap_invariance():
    for lam, mu, nu in [((5, 6), (3, 4), (5, 6)), ((4, 7), (5, 3), (2, 4)), ((2, 2), (3, 1), (1, 3))]:
        P1 = bz_polygon_b2(lam, mu, nu)
        P2 = bz_polygon_b2(mu, lam, nu)
        a1 = P1.area() if P1.dim == 2 else Q(0)
        assert a1 == (P2.area() if P2.dim == 2 else Q(0))


def test_dilation_scales_vertices():
    P = bz_polygon_b2((5, 6), (3, 4), (5, 6))
    for s in (2, 3, 5):
        Q1 = P.dilate(s)
        Q2 = bz_polygon_b2((5 * s, 6 * s), (3 * s, 4 * s), (5 * s, 6 * s))
        assert set(Q1.vertices) == {(s * x, s * y) for x, y in P.vertices}
        assert set(Q1.vertices) == set(Q2.vertices)


def test_pick_relation_worked_examples():
    rep = pick_relation_check(bz_polygon_b2((5, 6), (3, 4), (5, 6)))
    assert rep.p == Q(3, 4)
    assert rep.holds
    assert rep.L == rep.boundary == 7
    rep3 = pick_relation_check(bz_polygon_b2((5, 6), (3, 4), (2, 10)))
    assert rep3.p == 1
    assert rep3.holds


def test_pick_relation_integral_square():
    square = RationalPolygon([
        HalfPlane(1, 0, 0), HalfPlane(-1, 0, -1),
        HalfPlane(0, 1, 0), HalfPlane(0, -1, -1),
    ])
    rep = pick_relation_check(square)
    assert rep.p == 1
    assert rep.holds
    assert rep.count == 4 and rep.area == 1 and rep.boundary == 4 and rep.interior == 0


def test_degeneracy_classification():
    seg = bz_polygon_b2((5, 6), (3, 4), (0, 10))
    info = degeneracy_info(seg)
    assert info.kind == "Segment"
    assert info.relative_length == 2
    assert lattice_point_count(seg) == 3
    # whenever C = 1 the polygon is a point
    pt = bz_polygon_b2((1, 0), (1, 0), (2, 0))
    assert lr_klimyk(B2, (1, 0), (1, 0), (2, 0)) == 1
    assert degeneracy_info(pt).kind == "Point"
    assert degeneracy_info(bz_polygon_b2((5, 6), (3, 4), (5, 6))).kind == "Full"


def test_polygon_area_raises_on_degenerate():
    with pytest.raises(DegeneratePolygonError):
        polygon_area(bz_polygon_b2((5, 6), (3, 4), (0, 10)))
    with pytest.raises(DegeneratePolygonError):
        pick_relation_check(bz_polygon_b2((5, 6), (3, 4), (0, 10)))


def test_unbounded_region_rejected():
    P = RationalPolygon([HalfPlane(1, 0, 0), HalfPlane(0, 1, 0)])
    assert not P.is_bounded()
    with pytest.raises(UnboundedPolygonError):
        P.lattice_count()


def test_vertices_satisfy_two_halfplanes_with_equality():
    P = bz_polygon_b2((5, 6), (3, 4), (5, 6))
    for v in P.vertices:
        tight = sum(1 for h in P.halfplanes if h.value(v) == 0)
        assert tight >= 2
        assert all(h.value(v) >= 0 for h in P.halfplanes)


def test_clip_cell_keeps_exact_and_float_arithmetic():
    tri = ((0, 0), (3, 0), (0, 3))
    exact = clip_cell(tri, 1, 0, 1)
    assert exact == ((1, 0), (3, 0), (1, 2))
    assert all(isinstance(v, (int, Q)) for p in exact for v in p)
    # int-only crossings: t = 1/3 must not become a float
    assert clip_cell(((0, 0), (1, 0), (0, 3)), 0, 1, 1) == ((Q(2, 3), 1), (0, 3), (0, 1))
    assert clip_cell(tri, 1, 0, Q(1, 2))[0] == (Q(1, 2), 0)


def reference_clip(vertices, a, b, c):
    """Sutherland-Hodgman with the crossing p + t (q - p), t = vp / (vp - vq)."""
    a, b, c = Q(a), Q(b), Q(c)
    out = []
    for p, q in zip(vertices, vertices[1:] + vertices[:1]):
        vp = a * p[0] + b * p[1] - c
        vq = a * q[0] + b * q[1] - c
        if vp >= 0:
            out.append(p)
        if (vp > 0 and vq < 0) or (vp < 0 and vq > 0):
            t = vp / (vp - vq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    dedup = []
    for p in out:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return tuple(dedup)


def fraction_hull(points):
    """Andrew's monotone chain on Fraction (or int) points: the CCW hull cycle without repeats."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
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


coordinates = st.one_of(st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=6))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(coordinates, coordinates), min_size=3, max_size=7),
       st.integers(-2, 2), st.integers(-2, 2), coordinates)
def test_clip_cell_matches_the_reference_on_exact_and_float_input(points, a, b, c):
    poly = fraction_hull(points)
    exact = clip_cell(poly, a, b, c)
    assert exact == reference_clip(poly, a, b, c)
    assert all(type(v) in (int, Q) for p in exact for v in p)


def test_clip_cell_returns_ints_where_the_crossing_is_a_lattice_point():
    square = ((0, 0), (4, 0), (4, 4), (0, 4))
    assert clip_cell(square, 1, 1, 4) == ((4, 0), (4, 4), (0, 4))
    cut = clip_cell(square, 1, 1, 3)
    assert cut == ((3, 0), (4, 0), (4, 4), (0, 4), (0, 3))
    assert all(type(v) is int for p in cut for v in p)
    assert clip_cell(square, 2, 1, 3)[0] == (Q(3, 2), 0)


def test_json_serialization():
    P = bz_polygon_b2((5, 6), (3, 4), (5, 6))
    d = P.to_json_dict()
    assert d["dim"] == 2
    assert len(d["halfplanes"]) == 12
    assert ["3", "2"] in d["vertices"]


# ---------------------------------------------------------------------------
# properties: the integer row scan and vertex enumeration against Fractions


def rationals(lo: int, hi: int):
    """Rationals p/q with q <= 6 and lo <= p/q <= hi."""
    return st.integers(1, 6).flatmap(lambda q: st.builds(Q, st.integers(lo * q, hi * q), st.just(q)))


coefficient = st.one_of(st.just(Q(0)), rationals(-4, 4))


@st.composite
def cuts(draw):
    a, b = draw(coefficient), draw(coefficient)
    if a == 0 and b == 0:
        b = Q(1)
    return HalfPlane(a, b, draw(rationals(-20, 20)), strict=draw(st.booleans()))


@st.composite
def boxed_systems(draw):
    """A box written as four scaled half-planes plus up to five random cuts, shuffled."""
    x0, y0 = draw(rationals(-6, 6)), draw(rationals(-6, 6))
    x1, y1 = x0 + draw(rationals(0, 8)), y0 + draw(rationals(0, 8))
    k = draw(rationals(1, 3))
    box = [
        HalfPlane(k, 0, k * x0, strict=draw(st.booleans())),
        HalfPlane(-k, 0, -k * x1, strict=draw(st.booleans())),
        HalfPlane(0, k, k * y0, strict=draw(st.booleans())),
        HalfPlane(0, -k, -k * y1, strict=draw(st.booleans())),
    ]
    hps = draw(st.permutations(box + draw(st.lists(cuts(), max_size=5))))
    elim = draw(st.sampled_from([None, (Q(3), Q(-2)), (Q(1, 2), Q(4))]))
    return RationalPolygon(hps, elim), (x0, x1, y0, y1)


def brute_force_count(P: RationalPolygon, box, strict_all: bool) -> int:
    if P.elim is not None and any(v.denominator != 1 for v in P.elim):
        return 0
    x0, x1, y0, y1 = box
    points = [(Q(x), Q(y)) for x in range(floor(x0), ceil(x1) + 1) for y in range(floor(y0), ceil(y1) + 1)]
    if strict_all:
        return sum(all(h.value(p) > 0 for h in P.halfplanes) for p in points)
    return sum(all(h.holds(p) for h in P.halfplanes) for p in points)


@settings(max_examples=300, deadline=None)
@given(boxed_systems())
def test_lattice_count_matches_brute_force(system):
    P, box = system
    assert P.is_bounded()
    assert P.lattice_count() == brute_force_count(P, box, strict_all=False)
    assert P.lattice_count(strict_all=True) == brute_force_count(P, box, strict_all=True)


@st.composite
def hull_systems(draw):
    """The edges of the hull of random rational points as half-planes (no axis rows needed), and the box."""
    point = st.tuples(rationals(-6, 6), rationals(-6, 6))
    hull = fraction_hull(draw(st.lists(point, min_size=3, max_size=7)))
    if len(hull) < 3:
        hull = [(Q(0), Q(0)), (Q(5, 2), Q(1, 3)), (Q(1), Q(7, 2))]
    hps = []
    for p, q in zip(hull, hull[1:] + hull[:1]):
        a, b = p[1] - q[1], q[0] - p[0]  # inward normal of the CCW edge p -> q
        hps.append(HalfPlane(a, b, a * p[0] + b * p[1], strict=draw(st.booleans())))
    xs, ys = [x for x, _ in hull], [y for _, y in hull]
    return RationalPolygon(hps), (min(xs), max(xs), min(ys), max(ys))


@settings(max_examples=200, deadline=None)
@given(hull_systems())
def test_lattice_count_of_hull_systems_matches_brute_force(system):
    # y ranges from the vertices wherever rows with A = 0 do not bound y on both sides
    P, box = system
    assert P.lattice_count() == brute_force_count(P, box, strict_all=False)
    assert P.lattice_count(strict_all=True) == brute_force_count(P, box, strict_all=True)


@settings(max_examples=300, deadline=None)
@given(boxed_systems())
def test_vertices_are_the_extreme_line_intersections(system):
    P, _ = system
    hs = P.halfplanes
    corners = []
    for g, h in itertools.combinations(hs, 2):
        det = g.a * h.b - h.a * g.b
        if det:
            p = ((g.c * h.b - h.c * g.b) / det, (g.a * h.c - h.a * g.c) / det)
            if all(k.holds(p, closure=True) for k in hs):
                corners.append(p)
    assert P.vertices == tuple(fraction_hull(corners))
    for v in P.vertices:
        assert sum(1 for h in hs if h.value(v) == 0) >= 2
        assert all(h.value(v) >= 0 for h in hs)


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(*[st.integers(0, 12)] * 6),
    st.integers(1, 6),
)
def test_bz_count_matches_steinberg_under_dilation(labels, s):
    lam, mu, nu = labels[0:2], labels[2:4], labels[4:6]
    stretched = [tuple(s * v for v in w) for w in (lam, mu, nu)]
    expected = lr_steinberg(B2, *stretched)
    assert lattice_point_count(bz_polygon_b2(*stretched)) == expected
    assert lattice_point_count(bz_polygon_b2(lam, mu, nu).dilate(s)) == expected


@st.composite
def unbounded_systems(draw):
    """Half-planes whose inward normals all make a non-negative product with one direction d."""
    dx, dy = draw(st.sampled_from([(1, 0), (0, -1), (1, 1), (-2, 1), (3, -2)]))
    hps = []
    for h in draw(st.lists(cuts(), min_size=1, max_size=6)):
        if h.a * dx + h.b * dy < 0:
            h = HalfPlane(-h.a, -h.b, h.c, h.strict)
        hps.append(h)
    return RationalPolygon(hps)


@settings(max_examples=100, deadline=None)
@given(unbounded_systems(), st.booleans())
def test_unbounded_systems_raise(P, strict_all):
    assert not P.is_bounded()
    with pytest.raises(UnboundedPolygonError):
        P.lattice_count(strict_all=strict_all)
    with pytest.raises(UnboundedPolygonError):
        P.dilate(2).lattice_count(strict_all=strict_all)


# ---------------------------------------------------------------------------
# properties: the integer half-plane row and the integer BZ construction


def int_if_integral(v: Q):
    return int(v) if v.denominator == 1 else v


@settings(max_examples=300, deadline=None)
@given(coefficient, coefficient, rationals(-20, 20), st.booleans(), st.booleans(),
       st.tuples(rationals(-10, 10), rationals(-10, 10)))
def test_halfplane_row_round_trips(a, b, c, strict, as_ints, p):
    if a == 0 and b == 0:
        b = Q(1)
    args = [int_if_integral(v) for v in (a, b, c)] if as_ints else [a, b, c]
    h = HalfPlane(*args, strict=strict)
    A, B, C = h.row
    assert all(type(v) is int for v in (A, B, C, h.den)) and h.den > 0
    assert (A, B, C) == (h.den * a, h.den * b, h.den * c)
    assert (h.a, h.b, h.c) == (a, b, c)
    assert h == HalfPlane(a, b, c, strict=strict)
    v = a * p[0] + b * p[1] - c
    assert h.value(p) == v
    assert h.holds(p) == (v > 0 if strict else v >= 0)
    assert h.holds(p, closure=True) == (v >= 0)


def reference_bz_b2(lam, mu, nu):
    """The 12 B2 BZ constraints (a, b, c) and sigma, built in Fractions from the labels."""
    (l1, l2), (m1, m2), (n1, n2) = (tuple(Q(v) for v in w) for w in (lam, mu, nu))
    s1d, s2d = l1 + m1 - n1, l2 + m2 - n2
    sq1, sq2 = s1d + s2d / 2, s1d + s2d
    rows = [
        (1, 0, 0), (0, 1, 0), (-1, -2, -sq2), (1, -2, sq2 - 2 * sq1),
        (0, -1, -l1), (1, -1, sq2 - sq1 - l1), (1, 1, sq1 - l1), (-1, 0, -l2),
        (-1, -1, sq1 - sq2 - m1), (0, -1, -m1), (1, 0, 2 * sq2 - 2 * sq1 - m2), (1, 2, sq2 - m2),
    ]
    return [tuple(Q(v) for v in r) for r in rows], (sq1, sq2)


def abc(P: RationalPolygon):
    assert not any(h.strict for h in P.halfplanes)
    return [(h.a, h.b, h.c) for h in P.halfplanes]


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals(0, 12), min_size=6, max_size=6), rationals(1, 4), st.booleans())
def test_bz_polygon_matches_a_fraction_reference(labels, s, as_ints):
    labels = [int_if_integral(v) for v in labels] if as_ints else labels
    lam, mu, nu = labels[0:2], labels[2:4], labels[4:6]
    rows, sigma = reference_bz_b2(lam, mu, nu)
    P = bz_polygon_b2(lam, mu, nu)
    assert abc(P) == rows and P.elim == sigma
    stretched = [tuple(s * v for v in w) for w in (lam, mu, nu)]
    rows_s, sigma_s = reference_bz_b2(*stretched)
    assert [(a, b, c * s) for a, b, c in rows] == rows_s
    for D in (P.dilate(s), bz_polygon_b2(*stretched)):
        assert abc(D) == rows_s and D.elim == sigma_s


# ---------------------------------------------------------------------------
# properties: integer dilation against the Fraction constructor


def fraction_dilation(P: RationalPolygon, s):
    """P.dilate(s) as the Fraction constructor builds it: each c times s, elim times s."""
    hps = [HalfPlane(h.a, h.b, h.c * Q(s), h.strict, h.label) for h in P.halfplanes]
    elim = None if P.elim is None else (P.elim[0] * s, P.elim[1] * s)
    return hps, elim


def stored(hps):
    return [(h.row, h.den, h.strict, h.label) for h in hps]


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals(0, 12), min_size=6, max_size=6), st.booleans())
def test_integer_dilation_matches_the_fraction_constructor(labels, as_ints):
    labels = [int_if_integral(v) for v in labels] if as_ints else labels
    P = bz_polygon_b2(labels[0:2], labels[2:4], labels[4:6])
    for s in range(1, 7):
        D = P.dilate(s)
        hps, elim = fraction_dilation(P, s)
        assert stored(D.halfplanes) == stored(hps)
        assert D.elim == elim
        assert D.lattice_count() == RationalPolygon(hps, elim).lattice_count()


@settings(max_examples=100, deadline=None)
@given(st.lists(rationals(0, 12), min_size=6, max_size=6), rationals(-6, 6))
def test_rational_dilation_matches_the_fraction_constructor(labels, s):
    P = bz_polygon_b2(labels[0:2], labels[2:4], labels[4:6])
    D = P.dilate(s)
    hps, elim = fraction_dilation(P, s)
    assert stored(D.halfplanes) == stored(hps)
    assert D.elim == elim


# ---------------------------------------------------------------------------
# properties: the template BZ polygon and the integer hull against the
# 12-HalfPlane builder and the Fraction hull


def halfplane_bz_b2(lam, mu, nu) -> RationalPolygon:
    """The B2 BZ polygon built from 12 HalfPlanes, as bz_polygon_b2 built it before the template."""
    (l1, l2), (m1, m2), (n1, n2) = lam, mu, nu
    s1d, s2d = l1 + m1 - n1, l2 + m2 - n2
    d1 = 2 * s1d + s2d
    sq2 = s1d + s2d
    hps = [
        HalfPlane(1, 0, 0, label="t0(0) >= 0"),
        HalfPlane(0, 1, 0, label="t1(1) >= 0"),
        HalfPlane(-1, -2, -sq2, label="t0(1) >= 2 t1(1)"),
        HalfPlane(1, -2, sq2 - d1, label="2 t-1(1) >= t0(1)"),
        HalfPlane(0, -1, -l1, label="lam1 >= t1(1)"),
        HalfPlane(1, -1, Q(2 * (sq2 - l1) - d1, 2), label="lam1 >= t0(1) - t-1(1)"),
        HalfPlane(1, 1, Q(d1 - 2 * l1, 2), label="lam1 >= t-1(1) - t0(0)"),
        HalfPlane(-1, 0, -l2, label="lam2 >= t0(0)"),
        HalfPlane(-1, -1, Q(d1 - 2 * (sq2 + m1), 2), label="mu1 >= t-1(1) + 2 t1(1) - t0(1)"),
        HalfPlane(0, -1, -m1, label="mu1 >= t1(1)"),
        HalfPlane(1, 0, 2 * sq2 - d1 - m2, label="mu2 >= t0(0) + 2(t0(1) - t-1(1) - t1(1))"),
        HalfPlane(1, 2, sq2 - m2, label="mu2 >= t0(1) - 2 t1(1)"),
    ]
    return RationalPolygon(hps, elim=(Q(d1, 2), sq2))


def fraction_vertices(hps) -> tuple:
    """Vertices as Fraction line intersections in the closure, through the Fraction hull."""
    pts = []
    for g, h in itertools.combinations(hps, 2):
        A1, B1, C1 = g.row
        A2, B2, C2 = h.row
        det = A1 * B2 - A2 * B1
        if det:
            p = (Q(C1 * B2 - C2 * B1, det), Q(A1 * C2 - A2 * C1, det))
            if all(k.holds(p, closure=True) for k in hps):
                pts.append(p)
    return tuple(fraction_hull(pts))


def fraction_area(vertices) -> Q:
    if len(vertices) < 3:
        return Q(0)
    s = sum((x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(vertices, vertices[1:] + vertices[:1])), Q(0))
    return abs(s) / 2


def every_field(hps):
    return [(h.a, h.b, h.c, h.row, h.den, h.strict, h.label) for h in hps]


def box_count(hps, elim, xmax, ymax, filtered: bool, strict_all: bool) -> int:
    """Integer points of [0, xmax] x [0, ymax] in every half-plane (strictly, with strict_all)."""
    if filtered and any(v.denominator != 1 for v in elim):
        return 0
    points = [(x, y) for x in range(floor(xmax) + 1) for y in range(floor(ymax) + 1)]
    if strict_all:
        return sum(all(h.value(p) > 0 for h in hps) for p in points)
    return sum(all(h.holds(p) for h in hps) for p in points)


halves = st.integers(0, 24).map(lambda k: Q(k, 2))
label_sets = st.one_of(st.lists(st.integers(0, 12), min_size=6, max_size=6),
                       st.lists(halves, min_size=6, max_size=6))


@settings(max_examples=200, deadline=None)
@given(label_sets)
def test_template_polygon_matches_the_halfplane_builder(labels):
    lam, mu, nu = labels[0:2], labels[2:4], labels[4:6]
    P = bz_polygon_b2(lam, mu, nu)
    R = halfplane_bz_b2(lam, mu, nu)
    assert every_field(P.halfplanes) == every_field(R.halfplanes)
    assert P.elim == R.elim and all(type(v) is Q for v in P.elim)
    assert P.is_bounded()
    vertices = fraction_vertices(R.halfplanes)
    assert P.vertices == vertices and all(type(v) is Q for p in P.vertices for v in p)
    assert P.dim == min(len(vertices), 3) - 1
    assert P.area() == fraction_area(vertices) and type(P.area()) is Q
    # x = t0(0) <= lam2 and y = t1(1) <= lam1 bound the polygon; the same rows
    # without elim count with no integrality filter
    raw = RationalPolygon(P.halfplanes)
    assert raw.elim is None
    expected = {}
    for filtered, strict_all in ((True, False), (False, False), (True, True), (False, True)):
        expected[filtered, strict_all] = box_count(R.halfplanes, R.elim, lam[1], lam[0], filtered, strict_all)
        assert (P if filtered else raw).lattice_count(strict_all) == expected[filtered, strict_all]
    assert lattice_point_count(raw) == expected[False, False]
    assert boundary_interior_counts(P) == boundary_interior_counts(R)
    if raw.dim == 2:
        interior = expected[False, True]
        assert boundary_interior_counts(raw) == (expected[False, False] - interior, interior)
    for s in range(7):
        D = P.dilate(s)
        hps, elim = fraction_dilation(R, s)
        assert every_field(D.halfplanes) == every_field(hps)
        assert D.elim == elim
        assert D.vertices == fraction_vertices(hps)
        assert D.lattice_count() == box_count(hps, elim, s * lam[1], s * lam[0], True, False)


def test_counting_a_bz_polygon_builds_no_halfplane(monkeypatch):
    import hornvol.bzpolytope as bz

    def refuse(*args, **kwargs):
        raise AssertionError("a HalfPlane was built")

    triples = [((5, 6), (3, 4), (5, 6)), ((4, 7), (5, 3), (2, 4)), ((1, 1), (1, 1), (1, 1))]
    expected = [(lattice_point_count(R), R.area(), lattice_point_count(R.dilate(2)))
                for R in (halfplane_bz_b2(*t) for t in triples)]
    monkeypatch.setattr(bz, "_halfplane", refuse)
    monkeypatch.setattr(bz.HalfPlane, "__init__", refuse)
    for t, (count, area, count2) in zip(triples, expected):
        P = bz_polygon_b2(*t)
        assert (lattice_point_count(P), P.area(), lattice_point_count(P.dilate(2))) == (count, area, count2)
    monkeypatch.undo()
    assert len(P.halfplanes) == 12


@st.composite
def rational_point_sets(draw):
    """Point sets with duplicates, collinear runs and sets of at most two points among them."""
    point = st.tuples(rationals(-6, 6), rationals(-6, 6))
    kind = draw(st.sampled_from(["any", "collinear", "few"]))
    if kind == "collinear":
        (x0, y0), (dx, dy) = draw(point), draw(point)
        pts = [(x0 + t * dx, y0 + t * dy) for t in draw(st.lists(rationals(-3, 3), min_size=1, max_size=8))]
    else:
        pts = draw(st.lists(point, max_size=2 if kind == "few" else 9))
    if pts:
        pts += draw(st.lists(st.sampled_from(pts), max_size=4))
    return draw(st.permutations(pts))


@settings(max_examples=300, deadline=None)
@given(rational_point_sets(), st.data())
def test_integer_hull_matches_the_fraction_hull(points, data):
    # each point as a Cramer triple (x det, y det, det) with det any positive multiple of its denominators
    triples = []
    for x, y in points:
        det = lcm(x.denominator, y.denominator) * data.draw(st.integers(1, 4))
        triples.append((int(x * det), int(y * det), det))
    D, cycle = _cramer_hull(triples)
    assert D > 0 and all(type(v) is int for p in cycle for v in p)
    assert [(Q(x, D), Q(y, D)) for x, y in cycle] == fraction_hull(points)


@settings(max_examples=150, deadline=None)
@given(boxed_systems(), st.integers(-3, 6) | rationals(-6, 6))
def test_dilating_a_system_matches_the_fraction_constructor(system, s):
    # strict rows, labels and elim survive the row-by-row scaling
    P, _ = system
    D = P.dilate(s)
    hps, elim = fraction_dilation(P, s)
    assert stored(D.halfplanes) == stored(hps)
    assert D.elim == elim
    assert D.lattice_count(strict_all=False) == RationalPolygon(hps, elim).lattice_count()
