import itertools
from fractions import Fraction as Q
from math import ceil, floor, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornvol.bzpolytope import (
    DegeneratePolygonError,
    PickReport,
    RationalPolygon,
    UnboundedPolygonError,
    _cramer_hull,
    boundary_interior_counts,
    bz_polygon_b2,
    clip_cell,
    degeneracy_info,
    lattice_point_count,
    pick_relation_check,
)
from hornvol.ehrhart import InconsistentSamplesError, fit_quasi_polynomial
from hornvol.multiplicity import lr_klimyk, lr_steinberg
from hornvol.rootsys import build_root_system, is_compatible
from hornvol.volume import horn_polygon
from polygon_reference import contains, dilate, fraction_dilation
from refusal import answer_or_refuse

B2 = build_root_system("B", 2)


def value(h, p):
    """a*x + b*y - c at p for the constraint h = (a, b, c) or (a, b, c, label)."""
    a, b, c, *_ = h
    return a * p[0] + b * p[1] - c


def positively_spanning(normals) -> bool:
    """Whether the normals (a, b) span the plane with nonnegative weights: 0 inside their hull, off its edges.

    Exactly then no direction d != 0 has a*d >= 0 for every normal, so the
    half-planes with these inward normals are bounded whatever their offsets.
    """
    hull = fraction_hull([(Q(a), Q(b)) for a, b in normals])
    return len(hull) >= 3 and all(
        x1 * y2 - x2 * y1 > 0 for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]))


def reduced_system_563456() -> RationalPolygon:
    """The symbolically reduced constraint system for (5,6), (3,4), (5,6)."""
    return RationalPolygon(
        [
            (1, 0, 0, ""),                    # 0 <= x
            (-1, 0, -6, ""),                  # x <= 6
            (0, 1, 0, ""),                    # 0 <= y
            (0, -1, -3, ""),                  # y <= 3
            (1, -2, -3, ""),                  # x + 3 >= 2y
            (1, 2, 3, ""),                    # 3 <= x + 2y
            (-1, -2, -7, ""),                 # x + 2y <= 7
            (-1, -1, -5, ""),                 # x + y <= 5
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
    assert P.area() == 6
    # corners are not integral
    assert any(v[0].denominator > 1 or v[1].denominator > 1 for v in P.vertices)
    b, i = boundary_interior_counts(P)
    assert (b, i) == (7, 3)


def test_second_example_polygon():
    P = bz_polygon_b2((5, 6), (3, 4), (6, 4))
    assert lattice_point_count(P) == 10
    assert P.area() == Q(11, 2)


def test_third_example_polygon():
    P = bz_polygon_b2((5, 6), (3, 4), (2, 10))
    assert lattice_point_count(P) == 8
    assert P.area() == Q(7, 2)
    assert boundary_interior_counts(P)[1] == 1


def test_fig8_polygon():
    P = bz_polygon_b2((4, 7), (5, 3), (2, 4))
    assert lattice_point_count(P) == 5
    assert P.area() == Q(7, 4)
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
    assert lattice_point_count(RationalPolygon(P.constraints)) == lattice_point_count(P) == 10
    # non-compatible triple: the filter kills every point; the same rows without elim do not
    P2 = bz_polygon_b2((1, 1), (1, 1), (1, 1))
    assert lattice_point_count(P2) == 0 and boundary_interior_counts(P2) == (0, 0)
    assert lattice_point_count(RationalPolygon(P2.constraints)) > 0


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
        Q1 = dilate(P, s)
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
    square = RationalPolygon([(1, 0, 0, ""), (-1, 0, -1, ""), (0, 1, 0, ""), (0, -1, -1, "")])
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


def test_pick_relation_check_raises_on_degenerate():
    with pytest.raises(DegeneratePolygonError):
        pick_relation_check(bz_polygon_b2((5, 6), (3, 4), (0, 10)))


def test_unbounded_region_rejected():
    # a quadrant, no constraint at all, and an empty strip: each leaves a recession direction
    for constraints in ([(1, 0, 0, ""), (0, 1, 0, "")], [],
                        [(1, 0, 1, ""), (-1, 0, 0, ""), (0, 1, 0, "")]):
        with pytest.raises(UnboundedPolygonError):
            RationalPolygon(constraints)


def test_vertices_satisfy_two_halfplanes_with_equality():
    P = bz_polygon_b2((5, 6), (3, 4), (5, 6))
    constraints, _ = reference_bz_b2((5, 6), (3, 4), (5, 6))
    for v in P.vertices:
        tight = sum(1 for h in constraints if value(h, v) == 0)
        assert tight >= 2
        assert all(value(h, v) >= 0 for h in constraints)


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
    return (a, b, draw(rationals(-20, 20)), "")


@st.composite
def boxed_systems(draw):
    """(polygon, constraints, box): a box as four scaled constraints plus up to five random cuts, shuffled."""
    x0, y0 = draw(rationals(-6, 6)), draw(rationals(-6, 6))
    x1, y1 = x0 + draw(rationals(0, 8)), y0 + draw(rationals(0, 8))
    k = draw(rationals(1, 3))
    box = [
        (k, 0, k * x0, "x >= x0"),
        (-k, 0, -k * x1, "x <= x1"),
        (0, k, k * y0, "y >= y0"),
        (0, -k, -k * y1, "y <= y1"),
    ]
    hps = draw(st.permutations(box + draw(st.lists(cuts(), max_size=5))))
    elim = draw(st.sampled_from([None, (Q(3), Q(-2)), (Q(1, 2), Q(4))]))
    return RationalPolygon(hps, elim), hps, (x0, x1, y0, y1)


def brute_force_count(P: RationalPolygon, constraints, box, strict_all: bool) -> int:
    """Integer points of the box meeting every drawn constraint (strictly, with strict_all); 0 off the filter."""
    if P.elim is not None and any(v.denominator != 1 for v in P.elim):
        return 0
    x0, x1, y0, y1 = box
    points = [(Q(x), Q(y)) for x in range(floor(x0), ceil(x1) + 1) for y in range(floor(y0), ceil(y1) + 1)]
    if strict_all:
        return sum(all(value(h, p) > 0 for h in constraints) for p in points)
    return sum(all(value(h, p) >= 0 for h in constraints) for p in points)


@settings(max_examples=300, deadline=None)
@given(boxed_systems())
def test_lattice_count_matches_brute_force(system):
    P, hps, box = system
    assert P.lattice_count() == brute_force_count(P, hps, box, strict_all=False)
    assert P.lattice_count(strict_all=True) == brute_force_count(P, hps, box, strict_all=True)


@st.composite
def hull_systems(draw):
    """The edges of the hull of random rational points as constraints (no axis rows needed), and the box."""
    point = st.tuples(rationals(-6, 6), rationals(-6, 6))
    hull = fraction_hull(draw(st.lists(point, min_size=3, max_size=7)))
    if len(hull) < 3:
        hull = [(Q(0), Q(0)), (Q(5, 2), Q(1, 3)), (Q(1), Q(7, 2))]
    hps = []
    for p, q in zip(hull, hull[1:] + hull[:1]):
        a, b = p[1] - q[1], q[0] - p[0]  # inward normal of the CCW edge p -> q
        hps.append((a, b, a * p[0] + b * p[1], ""))
    xs, ys = [x for x, _ in hull], [y for _, y in hull]
    return RationalPolygon(hps), hps, (min(xs), max(xs), min(ys), max(ys))


@settings(max_examples=200, deadline=None)
@given(hull_systems())
def test_lattice_count_of_hull_systems_matches_brute_force(system):
    # y ranges from the vertices wherever rows with A = 0 do not bound y on both sides
    P, hps, box = system
    assert P.lattice_count() == brute_force_count(P, hps, box, strict_all=False)
    assert P.lattice_count(strict_all=True) == brute_force_count(P, hps, box, strict_all=True)


@settings(max_examples=300, deadline=None)
@given(boxed_systems())
def test_vertices_are_the_extreme_line_intersections(system):
    P, hps, _ = system
    assert P.vertices == fraction_vertices(hps)
    for v in P.vertices:
        assert sum(1 for h in hps if value(h, v) == 0) >= 2
        assert all(value(h, v) >= 0 for h in hps)


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
    assert bz_polygon_b2(lam, mu, nu).lattice_count(s=s) == expected


@st.composite
def unbounded_systems(draw):
    """Constraints whose inward normals all make a non-negative product with one direction d."""
    dx, dy = draw(st.sampled_from([(1, 0), (0, -1), (1, 1), (-2, 1), (3, -2)]))
    hps = []
    for a, b, c, label in draw(st.lists(cuts(), min_size=1, max_size=6)):
        if a * dx + b * dy < 0:
            a, b = -a, -b
        hps.append((a, b, c, label))
    return hps


@settings(max_examples=100, deadline=None)
@given(unbounded_systems())
def test_unbounded_systems_raise(hps):
    assert not positively_spanning([h[:2] for h in hps])
    with pytest.raises(UnboundedPolygonError):
        RationalPolygon(hps)


# ---------------------------------------------------------------------------
# properties: the integer constraint row and the integer BZ construction


def int_if_integral(v: Q):
    return int(v) if v.denominator == 1 else v


@settings(max_examples=300, deadline=None)
@given(coefficient, coefficient, rationals(-20, 20), st.booleans(),
       st.tuples(rationals(-10, 10), rationals(-10, 10)))
def test_halfplane_row_round_trips(a, b, c, as_ints, p):
    # one half-plane plus a box through the constructor and back through constraints
    if a == 0 and b == 0:
        b = Q(1)
    args = [int_if_integral(v) for v in (a, b, c)] if as_ints else [a, b, c]
    box = [(1, 0, -11, "x >= -11"), (-1, 0, -11, "x <= 11"), (0, 1, -11, "y >= -11"), (0, -1, -11, "y <= 11")]
    P = RationalPolygon([(*args, "h"), *box])
    (A, B, C), den = P._rows[0], P._dens[0]
    assert all(type(v) is int for v in (A, B, C, den))
    assert den == lcm(a.denominator, b.denominator, c.denominator)
    assert (A, B, C) == (den * a, den * b, den * c)
    assert P.constraints == ((a, b, c, "h"), *((Q(g), Q(h), Q(k), label) for g, h, k, label in box))
    assert stored(RationalPolygon(P.constraints)) == stored(RationalPolygon([(a, b, c, "h"), *box])) == stored(P)
    # p lies strictly inside the box, so the half-plane alone decides
    v = a * p[0] + b * p[1] - c
    assert contains(P, p) == (v >= 0)
    assert contains(P, p, strict=True) == (v > 0)
    assert (A * p[0] + B * p[1] >= C) == (v >= 0)


def test_a_constraint_without_a_normal_raises():
    for a, b in ((0, 0), (Q(0), Q(0, 3))):
        with pytest.raises(ValueError, match="degenerate constraint 'zero'"):
            RationalPolygon([(1, 0, 0, "x >= 0"), (a, b, 1, "zero")])


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
    return [(a, b, c) for a, b, c, _ in P.constraints]


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
    for D in (dilate(P, s), bz_polygon_b2(*stretched)):
        assert abc(D) == rows_s and D.elim == sigma_s


# ---------------------------------------------------------------------------
# properties: the row scan of s P against s P built by the constructor


def stored(P: RationalPolygon):
    """What P stores per constraint: the integer row, its den and its label."""
    return list(zip(P._rows, P._dens, P._labels))


def dilate_pick_reference(P: RationalPolygon) -> PickReport:
    """pick_relation_check with every dilation s P, s = 2..6, built through the constructor and counted."""
    V = P.area()
    b, i = boundary_interior_counts(P)
    C = b + i
    samples = {0: 1, 1: C, **{s: lattice_point_count(dilate(P, s)) for s in range(2, 7)}}
    try:
        quasi = fit_quasi_polynomial(samples, degree=2, period=2)
    except InconsistentSamplesError as exc:
        return PickReport(None, False, C, V, b, i, None, (f"no period-2 fit: {exc}",))
    sub = {r: quasi.coeffs[r][1] for r in range(2)}
    if sub[0] != sub[1]:
        note = f"sub-leading coefficient not constant: {sub[0]} vs {sub[1]}"
        return PickReport(None, False, C, V, b, i, None, (note,))
    L = 2 * sub[0]
    p = Q(2 * C - 2 * V - L + 2, 4)
    notes = []
    if L != b:
        notes.append(f"L = {L} differs from boundary count b = {b}")
    if p == 1 and V != i + Q(b, 2) - 1:
        notes.append("Pick's theorem V = i + b/2 - 1 fails")
    holds = not notes
    if quasi.coeffs[1][0] != 2 * p - 1:
        notes.append(f"odd-class constant {quasi.coeffs[1][0]} differs from 2p-1 = {2 * p - 1}")
    return PickReport(p, holds, C, V, b, i, L, tuple(notes))


def assert_counts_match_dilate(make, s: int) -> None:
    """A fresh polygon make() and one whose vertices were read count what dilate(P, s) counts, with and without the interior.

    A fresh polygon takes y from the rows that bound y alone, where they bound
    it on both sides; one that holds its vertex cycle takes y from the vertices.
    """
    read = make()
    read.vertices
    D = dilate(read, s)
    for strict_all in (False, True):
        want = D.lattice_count(strict_all=strict_all)
        assert make().lattice_count(strict_all, s) == want
        assert read.lattice_count(strict_all, s) == want


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals(0, 12), min_size=6, max_size=6), st.booleans())
def test_dilation_counts_off_the_rows_match_dilate(labels, as_ints):
    """The row scan of s P (rows (A, B, s*C), elim filter at s) counts what dilate(P, s) counts, and Pick agrees.

    lattice_count(strict_all) is the scan at s = 1, so s = 1 checks the interior count too.
    """
    labels = [int_if_integral(v) for v in labels] if as_ints else labels
    make = lambda: bz_polygon_b2(labels[0:2], labels[2:4], labels[4:6])
    for s in range(1, 9):
        assert_counts_match_dilate(make, s)
    P = make()
    lattice_point_count(P)
    assert "_vertex_cycle" not in P.__dict__  # the template's axis rows bound y: a fresh count computes no cycle
    if P.dim == 2:
        assert pick_relation_check(P) == dilate_pick_reference(P)


@settings(max_examples=100, deadline=None)
@given(hull_systems(), st.integers(1, 5))
def test_dilation_counts_of_hull_systems_match_dilate(system, s):
    # no rows bound y alone here, so even a fresh polygon takes y from the vertices times s
    _, hps, _ = system
    assert_counts_match_dilate(lambda: RationalPolygon(hps), s)


# ---------------------------------------------------------------------------
# properties: the template BZ polygon and the integer hull against the
# 12-constraint builder and the Fraction hull


def halfplane_bz_b2(lam, mu, nu):
    """The 12 constraints of the B2 BZ polygon and its elim, as bz_polygon_b2 built them before the template."""
    (l1, l2), (m1, m2), (n1, n2) = lam, mu, nu
    s1d, s2d = l1 + m1 - n1, l2 + m2 - n2
    d1 = 2 * s1d + s2d
    sq2 = s1d + s2d
    hps = [
        (1, 0, 0, "t0(0) >= 0"),
        (0, 1, 0, "t1(1) >= 0"),
        (-1, -2, -sq2, "t0(1) >= 2 t1(1)"),
        (1, -2, sq2 - d1, "2 t-1(1) >= t0(1)"),
        (0, -1, -l1, "lam1 >= t1(1)"),
        (1, -1, Q(2 * (sq2 - l1) - d1, 2), "lam1 >= t0(1) - t-1(1)"),
        (1, 1, Q(d1 - 2 * l1, 2), "lam1 >= t-1(1) - t0(0)"),
        (-1, 0, -l2, "lam2 >= t0(0)"),
        (-1, -1, Q(d1 - 2 * (sq2 + m1), 2), "mu1 >= t-1(1) + 2 t1(1) - t0(1)"),
        (0, -1, -m1, "mu1 >= t1(1)"),
        (1, 0, 2 * sq2 - d1 - m2, "mu2 >= t0(0) + 2(t0(1) - t-1(1) - t1(1))"),
        (1, 2, sq2 - m2, "mu2 >= t0(1) - 2 t1(1)"),
    ]
    return hps, (Q(d1, 2), sq2)


def fraction_vertices(constraints) -> tuple:
    """Vertices as Fraction line intersections in the polygon, through the Fraction hull."""
    pts = []
    for (a1, b1, c1, _), (a2, b2, c2, _) in itertools.combinations(constraints, 2):
        det = Q(a1 * b2 - a2 * b1)
        if det:
            p = ((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det)
            if all(value(h, p) >= 0 for h in constraints):
                pts.append(p)
    return tuple(fraction_hull(pts))


def fraction_area(vertices) -> Q:
    if len(vertices) < 3:
        return Q(0)
    s = sum((x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(vertices, vertices[1:] + vertices[:1])), Q(0))
    return abs(s) / 2


def box_count(hps, elim, xmax, ymax, filtered: bool, strict_all: bool) -> int:
    """Integer points of [0, xmax] x [0, ymax] meeting every constraint (strictly, with strict_all)."""
    if filtered and any(v.denominator != 1 for v in elim):
        return 0
    points = [(x, y) for x in range(floor(xmax) + 1) for y in range(floor(ymax) + 1)]
    if strict_all:
        return sum(all(value(h, p) > 0 for h in hps) for p in points)
    return sum(all(value(h, p) >= 0 for h in hps) for p in points)


halves = st.integers(0, 24).map(lambda k: Q(k, 2))
label_sets = st.one_of(st.lists(st.integers(0, 12), min_size=6, max_size=6),
                       st.lists(halves, min_size=6, max_size=6))


@settings(max_examples=200, deadline=None)
@given(label_sets)
def test_template_polygon_matches_the_halfplane_builder(labels):
    lam, mu, nu = labels[0:2], labels[2:4], labels[4:6]
    P = bz_polygon_b2(lam, mu, nu)
    hps, elim = halfplane_bz_b2(lam, mu, nu)
    R = RationalPolygon(hps, elim)
    assert stored(P) == stored(R)
    assert P.constraints == tuple((Q(a), Q(b), Q(c), label) for a, b, c, label in hps)
    assert P.elim == R.elim == elim and all(type(v) is Q for v in P.elim)
    vertices = fraction_vertices(hps)
    assert P.vertices == vertices and all(type(v) is Q for p in P.vertices for v in p)
    assert P.dim == min(len(vertices), 3) - 1
    assert P.area() == fraction_area(vertices) and type(P.area()) is Q
    # x = t0(0) <= lam2 and y = t1(1) <= lam1 bound the polygon; the same rows
    # without elim count with no integrality filter
    raw = RationalPolygon(P.constraints)
    assert raw.elim is None
    expected = {}
    for filtered, strict_all in ((True, False), (False, False), (True, True), (False, True)):
        expected[filtered, strict_all] = box_count(hps, elim, lam[1], lam[0], filtered, strict_all)
        assert (P if filtered else raw).lattice_count(strict_all) == expected[filtered, strict_all]
    assert lattice_point_count(raw) == expected[False, False]
    assert boundary_interior_counts(P) == boundary_interior_counts(R)
    if raw.dim == 2:
        interior = expected[False, True]
        assert boundary_interior_counts(raw) == (expected[False, False] - interior, interior)
    for s in range(7):
        hps_s, elim_s = fraction_dilation(hps, elim, s)
        assert dilate(P, s).vertices == fraction_vertices(hps_s)
        if s:
            assert P.lattice_count(s=s) == box_count(hps_s, elim_s, s * lam[1], s * lam[0], True, False)


@st.composite
def horn_pairs(draw):
    """Regular ordered pairs alpha, beta (x1 > x2 > 0) in sixths."""
    positive = st.integers(1, 36).map(lambda k: Q(k, 6))
    a2, b2 = draw(positive), draw(positive)
    return (a2 + draw(positive), a2), (b2 + draw(positive), b2)


@settings(max_examples=100, deadline=None)
@given(label_sets, horn_pairs(), st.integers(0, 6) | rationals(0, 6))
def test_constraints_rebuild_the_polygon(labels, pair, s):
    # int and half-integer BZ labels, a Horn polygon, and the dilations of both
    bz = bz_polygon_b2(labels[0:2], labels[2:4], labels[4:6])
    horn = horn_polygon(*pair)
    for P in (bz, dilate(bz, s), horn, dilate(horn, s)):
        R = RationalPolygon(P.constraints, P.elim)
        assert stored(R) == stored(P) and R.elim == P.elim
        assert R.vertices == P.vertices and R.dim == P.dim
        assert R.lattice_count() == P.lattice_count()
        assert R.lattice_count(strict_all=True) == P.lattice_count(strict_all=True)


def test_counting_a_bz_polygon_builds_no_halfplane(monkeypatch):
    # the BZ polygon and the scan of its dilation read integer rows throughout: no Fraction constraint is built or read
    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction constraint was built")

    triples = [((5, 6), (3, 4), (5, 6)), ((4, 7), (5, 3), (2, 4)), ((1, 1), (1, 1), (1, 1))]
    expected = [(lattice_point_count(R), R.area(), lattice_point_count(dilate(R, 2)))
                for R in (RationalPolygon(*halfplane_bz_b2(*t)) for t in triples)]
    monkeypatch.setattr(RationalPolygon, "__init__", refuse)
    monkeypatch.setattr(RationalPolygon, "constraints", property(refuse))
    for t, (count, area, count2) in zip(triples, expected):
        P = bz_polygon_b2(*t)
        assert (lattice_point_count(P), P.area(), P.lattice_count(s=2)) == (count, area, count2)
    monkeypatch.undo()
    assert len(P.constraints) == 12


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


def segment_relative_length(v0, v1) -> Q:
    """The length of the segment v0 v1 in primitive lattice vectors along it, in Fractions: the reference."""
    dx, dy = v1[0] - v0[0], v1[1] - v0[1]
    den = dx.denominator * dy.denominator // gcd(dx.denominator, dy.denominator)
    ix, iy = int(dx * den), int(dy * den)
    return Q(gcd(abs(ix), abs(iy)), den)


def integers_or_rationals(lo: int, hi: int):
    """Rationals in [lo, hi], integers two times in three, so that lattice ends and integral directions occur."""
    return st.one_of(st.integers(lo, hi).map(Q), st.integers(lo, hi).map(Q), rationals(lo, hi))


@st.composite
def segment_systems(draw):
    """(P, constraints, ends): a segment polygon, its four constraints (shuffled) and its two ends.

    Two opposite rows, each scaled by a factor of its own, pin the line through a point p with normal
    (a, b).  Two cuts, with normals along the line's direction d = (-b, a) and against it, cut it at
    the ends p + t0 d and p + t1 d, t0 < t1.
    """
    a, b = draw(integers_or_rationals(-3, 3)), draw(integers_or_rationals(-3, 3))
    if a == b == 0:
        a = Q(1)
    p = (draw(integers_or_rationals(-6, 6)), draw(integers_or_rationals(-6, 6)))
    t0, t1 = sorted(draw(st.lists(integers_or_rationals(-3, 3), min_size=2, max_size=2, unique=True)))
    d = (-b, a)
    ends = tuple((p[0] + t * d[0], p[1] + t * d[1]) for t in (t0, t1))
    c = a * p[0] + b * p[1]
    k1, k2 = draw(rationals(1, 3)), draw(rationals(1, 3))
    hps = [(k1 * a, k1 * b, k1 * c, "on the line"), (-k2 * a, -k2 * b, -k2 * c, "on the line")]
    for end, forward in zip(ends, (True, False)):
        n = (draw(integers_or_rationals(-3, 3)), draw(integers_or_rationals(-3, 3)))
        along = n[0] * d[0] + n[1] * d[1]
        if along == 0:
            n, along = d, 1
        if (along > 0) != forward:
            n = (-n[0], -n[1])
        hps.append((n[0], n[1], n[0] * end[0] + n[1] * end[1], "an end"))
    hps = draw(st.permutations(hps))
    elim = draw(st.sampled_from([None, (Q(3), Q(-2)), (Q(1, 2), Q(4))]))
    return RationalPolygon(hps, elim), hps, ends


@settings(max_examples=200, deadline=None)
@given(segment_systems())
def test_segment_reports_match_the_fraction_reference_and_a_brute_force_count(system):
    """degeneracy_info's relative length and boundary_interior_counts' lattice ends, read off the integer
    vertex cycle, against the Fraction formula and the lattice points of the segment's box."""
    P, hps, (e0, e1) = system
    assert P.dim == 1 and set(P.vertices) == {e0, e1}
    assert degeneracy_info(P).relative_length == segment_relative_length(e0, e1)
    filtered = P.elim is None or all(v.denominator == 1 for v in P.elim)
    (x0, x1), (y0, y1) = sorted((e0[0], e1[0])), sorted((e0[1], e1[1]))
    points = [(x, y) for x in range(floor(x0), ceil(x1) + 1) for y in range(floor(y0), ceil(y1) + 1)
              if filtered and all(value(h, (x, y)) >= 0 for h in hps)]
    ends = sum(q in (e0, e1) for q in points)
    assert boundary_interior_counts(P) == (ends, len(points) - ends)


# ---------------------------------------------------------------------------
# the public entry points answer or refuse

#: labels: ints and Fractions from -1 up, and now and then a float
bz_labels = st.one_of(st.integers(-1, 6), st.integers(-1, 6), st.fractions(-1, 6, max_denominator=2), st.floats(0, 6))
#: weights of two labels, one or three a third of the time
bz_weights = st.sampled_from([2, 2, 2, 2, 1, 3]).flatmap(lambda n: st.tuples(*[bz_labels] * n))


@st.composite
def drawn_polygons(draw):
    """(P, constraints, box): a boxed system or a B2 BZ polygon, with a box that holds it.

    The BZ polygons, with half-integral vertices, are the ones Pick's relation holds on.
    """
    if draw(st.booleans()):
        return draw(boxed_systems())
    l1, l2, *labels = draw(st.lists(st.integers(0, 6), min_size=6, max_size=6))
    P = bz_polygon_b2((l1, l2), labels[:2], labels[2:])
    # x = t0(0) <= lam2 and y = t1(1) <= lam1
    return P, list(P.constraints), (0, l2, 0, l1)


def check_bz_polygon_b2(data):
    weights = [data.draw(bz_weights) for _ in range(3)]
    refused = not all(len(w) == 2 and all(type(v) in (int, Q) and v >= 0 for v in w) for w in weights)
    P = answer_or_refuse(lambda: bz_polygon_b2(*weights), refused)
    if P is not None:
        rows, sigma = reference_bz_b2(*weights)
        assert abc(P) == rows and P.elim == sigma
        if all(Q(v).denominator == 1 for w in weights for v in w):
            assert lattice_point_count(P) == lr_steinberg(B2, *(tuple(int(v) for v in w) for w in weights))


def check_rational_polygon(data):
    hps = data.draw(st.lists(st.tuples(coefficient, coefficient, rationals(-20, 20), st.just("h")), max_size=5))
    elim = data.draw(st.sampled_from([None, (Q(3), Q(-2)), (1, Q(1, 2))]))
    normals = [(a, b) for a, b, _, _ in hps]
    refused = any(a == b == 0 for a, b in normals) or not positively_spanning(normals)
    P = answer_or_refuse(lambda: RationalPolygon(hps, elim), refused)
    if P is not None:
        assert P.constraints == tuple(hps)
        assert P.elim == (None if elim is None else tuple(map(Q, elim)))


def check_area(data):
    P, hps, _ = data.draw(drawn_polygons())
    assert answer_or_refuse(P.area, False) == fraction_area(fraction_vertices(hps))


def check_lattice_point_count(data):
    P, hps, box = data.draw(drawn_polygons())
    count = answer_or_refuse(lambda: lattice_point_count(P), False)
    assert count == brute_force_count(P, hps, box, strict_all=False)


def check_lattice_count(data):
    P, hps, (x0, x1, y0, y1) = data.draw(drawn_polygons())
    strict_all = data.draw(st.booleans())
    s = data.draw(st.integers(-1, 4) | st.sampled_from([Q(2), 2.0, True]))
    count = answer_or_refuse(lambda: P.lattice_count(strict_all, s), type(s) is not int or s < 1)
    if count is not None:
        dilated = [(a, b, s * c, label) for a, b, c, label in hps]
        assert count == brute_force_count(dilate(P, s), dilated, (s * x0, s * x1, s * y0, s * y1), strict_all)


def check_boundary_interior_counts(data):
    P, hps, box = data.draw(drawn_polygons())
    b, i = answer_or_refuse(lambda: boundary_interior_counts(P), False)
    assert b >= 0 and i >= 0 and b + i == brute_force_count(P, hps, box, strict_all=False)
    if len(fraction_vertices(hps)) >= 3:
        assert i == brute_force_count(P, hps, box, strict_all=True)


def check_degeneracy_info(data):
    P, hps, _ = data.draw(drawn_polygons())
    info = answer_or_refuse(lambda: degeneracy_info(P), False)
    # every vertex lies in P, so the kind the vertices span is that of the set
    assert all(contains(P, v) for v in P.vertices)
    assert info.kind == ("Empty", "Point", "Segment", "Full")[min(len(fraction_vertices(hps)), 3)]


def check_pick_relation_check(data):
    P, hps, box = data.draw(drawn_polygons())
    vertices = fraction_vertices(hps)
    rep = answer_or_refuse(lambda: pick_relation_check(P), len(vertices) < 3)
    if rep is not None:
        assert rep.count == rep.boundary + rep.interior == brute_force_count(P, hps, box, strict_all=False)
        assert rep.area == fraction_area(vertices)
        # Pick's theorem, where the relation finds p = 1, holds on every lattice polygon
        if rep.p == 1 and all(v.denominator == 1 for p in vertices for v in p):
            assert rep.holds


BZPOLYTOPE_ENTRY_POINTS = {check.__name__.removeprefix("check_"): check for check in (
    check_bz_polygon_b2, check_rational_polygon, check_area, check_lattice_point_count,
    check_lattice_count, check_boundary_interior_counts, check_degeneracy_info, check_pick_relation_check)}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(BZPOLYTOPE_ENTRY_POINTS)), st.data())
def test_bzpolytope_entry_points_answer_or_refuse(entry, data):
    """Each entry point answers rightly or refuses with a ValueError (or an InvariantError).

    Refused: weights that are not two dominant int or Fraction labels, a
    constraint without a normal, constraints that leave an unbounded
    region, a lattice count of s P for an s that is not an int >= 1, and
    Pick's check of a polygon that is not full.
    Nothing else escapes.
    """
    BZPOLYTOPE_ENTRY_POINTS[entry](data)
