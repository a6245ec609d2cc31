import contextlib
import csv
import itertools
import random
from collections import Counter
from fractions import Fraction as Q
from pathlib import Path
from unittest import mock

import math
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hornvol import volume
from hornvol._exact import InvariantError, p2_integrate_polygon
from hornvol.bzpolytope import RationalPolygon, _convex_hull, bz_polygon_b2, clip_cell, reciprocity_check
from hornvol.ehrhart import leading_coefficient, stretching_quasi_polynomial
from hornvol.multiplicity import SizeGuardError, freudenthal_weights, lr_steinberg
from hornvol.rootsys import B2_SIGNED_PERMUTATIONS, apply_weyl, build_root_system, is_compatible, weyl_group
from hornvol.volume import (
    _CHAMBER_WALLS,
    _QUAD_KEYS,
    CellPairError,
    IncompatibleTripleError,
    NotShiftableError,
    PiecewiseFitError,
    QuadCell,
    SingularLine,
    _boundary_class,
    _cell_quadratics,
    _delta_moment,
    _edge_line,
    _half_delta_squared,
    _jump_class,
    _weyl_terms,
    b2_dynkin_to_ortho,
    c_kappa_via_kissinger,
    delta_b2,
    horn_contains_b2,
    horn_polygon,
    horn_slabs,
    j_b2,
    j_lr_shifted,
    j_lr_unshifted,
    j_so2_symmetric,
    kappa_coefficient_sets,
    kissinger_quasi_polynomial,
    pdf_b2,
    pdf_normalization_integral,
    pdf_scale,
    piecewise_analyze_b2,
    singular_lines_b2,
    so2_support,
    volume_routes,
)
from horn_reference import c1_wall_discrepancies, horn_constraints, point_in_cell
from poly2 import p2_add, p2_delta_squared, p2_eval, p2_linear, p2_mul, p2_scale, p2_sub
from polygon_reference import contains
from refusal import answer_or_refuse
import tphi

B2 = build_root_system("B", 2)
GOLDEN = Path(__file__).parent / "golden"
RHO = (Q(3, 2), Q(1, 2))


@st.composite
def regular_half_pairs(draw):
    """(alpha, beta), each k/2-valued with 10 >= x1 > x2 > 0."""

    def point():
        hi = draw(st.integers(2, 20))
        return (Q(hi, 2), Q(draw(st.integers(1, hi - 1)), 2))

    return point(), point()


@st.composite
def regular_rational_pairs(draw):
    """(alpha, beta), each with one denominator up to 6 and 8 >= x1 > x2 > 0."""

    def point():
        d = draw(st.integers(1, 6))
        hi = draw(st.integers(2, 8 * d))
        return (Q(hi, d), Q(draw(st.integers(1, hi - 1)), d))

    return point(), point()


rationals = st.fractions(min_value=-12, max_value=12, max_denominator=6)
rational_points = st.tuples(rationals, rationals)


# -- direct evaluation ---------------------------------------------------------


def test_j_fig8_value():
    assert j_b2((Q(15, 2), Q(7, 2)), (Q(13, 2), Q(3, 2)), (4, 2)) == Q(7, 4)


def test_j_outside_horn_polygon_is_zero():
    assert j_b2((17, 4), (15, 9), (40, 1)) == 0
    assert j_b2((17, 4), (15, 9), (1, 0)) == 0


def test_j_homogeneity():
    base = j_b2((Q(15, 2), Q(7, 2)), (Q(13, 2), Q(3, 2)), (4, 2))
    assert j_b2((Q(45, 2), Q(21, 2)), (Q(39, 2), Q(9, 2)), (12, 6)) == 9 * base == Q(63, 4)
    s = Q(2, 3)
    scaled = j_b2(
        (Q(15, 2) * s, Q(7, 2) * s), (Q(13, 2) * s, Q(3, 2) * s), (4 * s, 2 * s)
    )
    assert scaled == s**2 * base


@settings(max_examples=100, deadline=None)
@given(rational_points, rational_points, rational_points)
def test_j_weyl_skew_invariance(alpha, beta, gamma):
    base = j_b2(alpha, beta, gamma)
    for w in weyl_group(B2):
        assert j_b2(apply_weyl(B2, w, alpha), beta, gamma) == w.sign * base
        assert j_b2(alpha, beta, apply_weyl(B2, w, gamma)) == w.sign * base


def test_weyl_closure_acts_as_the_signed_permutation_table_of_j_b2():
    assert volume.B2_SIGNED_PERMUTATIONS is B2_SIGNED_PERMUTATIONS
    # each element of the Cartan closure is one signed permutation, with its sign
    x1, x2 = Q(3), Q(7)
    found = {}
    for w in weyl_group(B2):
        y1, y2 = apply_weyl(B2, w, (x1, x2))
        swap = abs(y1) == x2
        key = (swap, y1 / (x2 if swap else x1), y2 / (x1 if swap else x2))
        assert B2_SIGNED_PERMUTATIONS[key] == w.sign
        found[key] = w.sign
    assert found == B2_SIGNED_PERMUTATIONS


def test_j_symmetric_in_alpha_beta():
    rng = random.Random(29)
    for _ in range(6):
        a = (Q(rng.randint(5, 20)), Q(rng.randint(1, 4)))
        b = (Q(rng.randint(5, 20)), Q(rng.randint(1, 4)))
        g = (Q(rng.randint(0, 25)), Q(rng.randint(0, 8)))
        assert j_b2(a, b, g) == j_b2(b, a, g)


#: the B2 roots in orthonormal coordinates, up to sign: the directions of the Weyl terms' lines
B2_ROOT_DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -1))


@st.composite
def pairs_and_gammas(draw):
    """A regular ordered pair of half-integer labels up to 8 and a rational gamma: free, on the line through
    a Weyl corner w alpha + w' beta along a root (a wall of its term), or at the corner itself."""
    def point():
        hi = draw(st.integers(2, 16))
        return (Q(hi, 2), Q(draw(st.integers(1, hi - 1)), 2))

    alpha, beta = point(), point()
    where = draw(st.sampled_from(["free", "wall", "corner"]))
    if where == "free":
        return alpha, beta, draw(st.tuples(*[st.fractions(-2, 17, max_denominator=6)] * 2))
    w, w2 = draw(st.sampled_from(tphi.b2_weyl_group())), draw(st.sampled_from(tphi.b2_weyl_group()))
    corner = [p + q for p, q in zip(tphi.b2_act(w, alpha), tphi.b2_act(w2, beta))]
    s = draw(st.fractions(-9, 9, max_denominator=6)) if where == "wall" else 0
    r = draw(st.sampled_from(B2_ROOT_DIRECTIONS))
    return alpha, beta, (corner[0] + s * r[0], corner[1] + s * r[1])


@settings(max_examples=120, deadline=None)
@given(pairs_and_gammas())
def test_j_b2_is_the_weyl_sum_of_the_continuous_kostant_function(case):
    """J(alpha, beta; gamma) = sum_{w, w'} eps(w) eps(w') T_Phi(w alpha + w' beta - gamma), T_Phi the
    continuous Kostant function of the B2 positive roots by the Dahmen-Micchelli recursion (tests/tphi.py),
    exactly, walls included: this derives j_b2's hand-written kernel."""
    alpha, beta, gamma = case
    assert j_b2(alpha, beta, gamma) == tphi.j_b2_by_t_phi(alpha, beta, gamma)


def test_j_positive_inside_support():
    alpha, beta = (Q(17), Q(4)), (Q(15), Q(9))
    poly = horn_polygon(alpha, beta)
    rng = random.Random(31)
    xs = [v[0] for v in poly.vertices]
    ys = [v[1] for v in poly.vertices]
    found = 0
    while found < 60:
        p = (
            Q(rng.randint(int(min(xs) * 8), int(max(xs) * 8)), 8),
            Q(rng.randint(int(min(ys) * 8), int(max(ys) * 8)), 8),
        )
        if contains(poly, p, strict=True):
            assert j_b2(alpha, beta, p) > 0
            found += 1


# -- Horn polygon ---------------------------------------------------------------


def test_horn_contains_examples():
    assert horn_contains_b2((17, 4), (15, 9), (32, 13))   # top corner gamma = alpha + beta
    assert not horn_contains_b2((17, 4), (15, 9), (40, 0))
    with pytest.raises(ValueError):
        horn_contains_b2((4, 17), (15, 9), (10, 5))


def test_horn_polygon_is_support_of_j():
    # support containment holds on the dominant chamber g1 >= g2 >= 0
    # (outside the chamber J continues by Weyl skew-symmetry)
    alpha, beta = (Q(17), Q(4)), (Q(15), Q(9))
    poly = horn_polygon(alpha, beta)
    rng = random.Random(37)
    checked = 0
    while checked < 120:
        p = (Q(rng.randint(0, 400), 8), Q(rng.randint(0, 250), 8))
        if p[0] < p[1] or p[1] < 0:
            continue
        checked += 1
        if not contains(poly, p):
            assert j_b2(alpha, beta, p) == 0


@settings(max_examples=200, deadline=None)
@given(regular_rational_pairs(), st.lists(rational_points, max_size=8))
def test_slab_polygon_equals_the_fourteen_inequalities(pair, points):
    constraints = horn_constraints(*pair)
    reference = RationalPolygon(constraints)
    poly = horn_polygon(*pair)
    assert poly.vertices == reference.vertices
    assert poly.dim == reference.dim == 2
    # each slab bound is the tightest constraint on its side
    slabs = horn_slabs(*pair)
    for kind, (a, b) in volume._KINDS.items():
        lo, hi = slabs[kind]
        assert lo == max(c for a_, b_, c, *_ in constraints if (a_, b_) == (a, b))
        assert hi == min(-c for a_, b_, c, *_ in constraints if (a_, b_) == (-a, -b))
    for p in (*points, *reference.vertices):
        assert horn_contains_b2(*pair, p) == contains(reference, p)


@settings(max_examples=300, deadline=None)
@given(regular_rational_pairs())
def test_every_slab_bound_is_attained_at_a_horn_vertex(pair):
    # so each (lo, hi) is the exact range of its form over the polygon: its box and its interior test
    vertices, slabs = horn_polygon(*pair).vertices, horn_slabs(*pair)
    for kind, (a, b) in volume._KINDS.items():
        values = [a * x + b * y for x, y in vertices]
        assert slabs[kind] == (min(values), max(values))


def test_horn_paths_build_no_halfplane(monkeypatch, tmp_path):
    import hornvol.bzpolytope as bz
    from hornvol.cli import main
    from hornvol.sampler import sample_b2_spectrum

    alpha, beta = (17, 4), (15, 9)
    reference = RationalPolygon(horn_constraints(alpha, beta))
    points = [(Q(x, 4), Q(y, 4)) for x in range(0, 140, 7) for y in range(-4, 60, 5)]
    pw = piecewise_analyze_b2(alpha, beta).to_json_dict()
    hist = sample_b2_spectrum(alpha, beta, 600, seed=5)
    inside = [contains(reference, p) for p in points]
    # the grid of the parent's point loop: J wherever the 14-constraint polygon contains gamma
    res = 6
    xs, ys = ([v[k] for v in reference.vertices] for k in (0, 1))
    rows = [["gamma1", "gamma2", "J", "pdf"]]
    for i in range(res + 1):
        for j in range(res + 1):
            g = (min(xs) + (max(xs) - min(xs)) * Q(i, res), min(ys) + (max(ys) - min(ys)) * Q(j, res))
            jval = j_b2(alpha, beta, g) if contains(reference, g) else Q(0)
            rows.append([str(v) for v in (*g, jval, pdf_b2(alpha, beta, g) if jval else Q(0))])

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction constraint was built")

    # every Horn path reads the integer rows of horn_polygon: none builds or reads Fraction constraints
    monkeypatch.setattr(bz.RationalPolygon, "__init__", refuse)
    monkeypatch.setattr(bz.RationalPolygon, "constraints", property(refuse))
    assert horn_polygon(alpha, beta).vertices == reference.vertices
    assert [horn_contains_b2(alpha, beta, p) for p in points] == inside
    assert piecewise_analyze_b2(alpha, beta).to_json_dict() == pw
    again = sample_b2_spectrum(alpha, beta, 600, seed=5)
    assert np.array_equal(again.counts, hist.counts) and again.samples_outside_support == 0
    assert all(np.array_equal(e, f) for e, f in zip(again.edges, hist.edges))
    out = {name: tmp_path / name for name in ("grid.csv", "grid.svg", "cells.json")}
    assert main(["grid", "17,4", "15,9", "--res", str(res), "--csv", str(out["grid.csv"]),
                 "--svg", str(out["grid.svg"]), "--cells", str(out["cells.json"])]) == 0
    with open(out["grid.csv"], newline="") as fh:
        assert list(csv.reader(fh)) == rows
    assert out["grid.svg"].read_bytes() == (GOLDEN / "grid_174_159.svg").read_bytes()
    assert out["cells.json"].read_bytes() == (GOLDEN / "grid_cells_174_159.json").read_bytes()


# -- singular lines --------------------------------------------------------------


def test_singular_line_levels():
    lines = singular_lines_b2((17, 4), (15, 9))
    levels = {k: sorted(l.level for l in lines if l.kind == k) for k in ("g1", "g2", "g1+g2", "g1-g2")}
    assert levels["g1"] == [8, 11, 13, 19, 26]
    assert levels["g2"] == [2, 5, 8, 11, 13]
    assert levels["g1+g2"] == [11, 15, 19, 27, 37]
    assert levels["g1-g2"] == [3, 7, 11, 15, 19]


def four_prong_vertices(alpha, beta) -> dict:
    """The four 4-fold intersection points I, J, K, L of the candidate lines."""
    a1, a2 = map(Q, alpha)
    b1, b2 = map(Q, beta)
    return {
        "I": (a1 + b2, abs(a2 - b1)),
        "J": (a2 + b1, abs(a1 - b2)),
        "K": (abs(b1 - a2), abs(a1 - b2)),
        "L": (a2 + b2, abs(a1 - b1)),
    }


def test_four_prong_vertices_lie_on_four_lines():
    lines = singular_lines_b2((17, 4), (15, 9))
    for name, p in four_prong_vertices((17, 4), (15, 9)).items():
        assert sum(1 for l in lines if l.value(p) == 0) == 4, name


def test_equal_arguments_merge_lines():
    lines = singular_lines_b2((10, 3), (10, 3))
    # |a1-b1| = |a2-b2| = 0 merge into a single gamma2 = 0 candidate
    zero_lines = [l for l in lines if l.kind == "g2" and l.level == 0]
    assert len(zero_lines) == 1
    assert "," in zero_lines[0].source


def delta_squared(line):
    """Delta^2 of a SingularLine as a Fraction polynomial in gamma."""
    return p2_delta_squared(*line.normal, line.level)


def test_four_prong_identity():
    # x^2 + y^2 = ((x+y)/sqrt2)^2 + ((x-y)/sqrt2)^2 as exact polynomials
    for c1, c2 in [(Q(26), Q(11)), (Q(19), Q(8))]:
        g1 = delta_squared(SingularLine("g1", c1, ""))
        g2 = delta_squared(SingularLine("g2", c2, ""))
        gp = delta_squared(SingularLine("g1+g2", c1 + c2, ""))
        gm = delta_squared(SingularLine("g1-g2", c1 - c2, ""))
        assert p2_add(g1, g2) == p2_add(gp, gm)



def test_delta_squared_is_the_squared_normalized_distance():
    for kind in ("g1", "g2", "g1+g2", "g1-g2"):
        for level in (Q(0), Q(7, 3), Q(-5)):
            line = SingularLine(kind, level, "")
            a, b = line.normal
            lin = p2_linear(a, b, -level)
            assert delta_squared(line) == p2_scale(Q(1, a * a + b * b), p2_mul(lin, lin))
            # the squared distance to the foot of the perpendicular, which lies on the line
            for p in ((Q(3), Q(-1, 2)), (Q(-7, 3), Q(5)), (level, level)):
                t = line.value(p) / (a * a + b * b)
                foot = (p[0] - t * a, p[1] - t * b)
                assert line.value(foot) == 0
                assert p2_eval(delta_squared(line), *p) == (p[0] - foot[0]) ** 2 + (p[1] - foot[1]) ** 2


# -- piecewise analysis -----------------------------------------------------------


def poly(cell):
    """A cell's quadratic as a Poly2 dict, read off its Fraction coeffs."""
    return {k: c for k, c in zip(_QUAD_KEYS, cell.coeffs) if c}


def centroid(cell):
    verts = cell.vertices
    return tuple(sum((v[c] for v in verts), Q(0)) / len(verts) for c in (0, 1))


@pytest.fixture(scope="module")
def pw_left():
    return piecewise_analyze_b2((17, 4), (15, 9))


@pytest.fixture(scope="module")
def pw_right():
    return piecewise_analyze_b2((15, 3), (17, 8))


def test_piecewise_no_violations(pw_left, pw_right):
    assert pw_left.violations() == []
    assert pw_right.violations() == []


def test_piecewise_swap_normalization():
    pw = piecewise_analyze_b2((15, 9), (17, 4))
    assert pw.swapped
    assert pw.alpha == (Q(17), Q(4))


def cell_at(pw, p):
    """The index of the first cell of pw whose closure holds p, or None."""
    return next((i for i, c in enumerate(pw.cells) if point_in_cell(c.vertices, p, strict=False)), None)


def test_piecewise_cells_reproduce_j(pw_left):
    rng = random.Random(41)
    for _ in range(200):
        p = (Q(rng.randint(40, 260), 8), Q(rng.randint(0, 152), 8))
        i = cell_at(pw_left, p)
        if i is not None:
            assert p2_eval(poly(pw_left.cells[i]), *p) == j_b2(pw_left.alpha, pw_left.beta, p)


@settings(max_examples=30, deadline=None)
@given(regular_half_pairs(), st.randoms(use_true_random=False))
def test_cell_quadratics_equal_j_on_closed_cells(pair, rng):
    alpha, beta = pair
    pw = piecewise_analyze_b2(alpha, beta)
    for cell in pw.cells:
        verts = cell.vertices
        points = [centroid(cell)]
        for _ in range(2):
            # a random convex combination; zero weights land on edges and vertices
            w = [rng.randint(0, 3) for _ in verts]
            if sum(w):
                points.append(tuple(sum(wk * v[c] for wk, v in zip(w, verts)) / sum(w) for c in (0, 1)))
            k = rng.randrange(len(verts))
            p, q = verts[k], verts[(k + 1) % len(verts)]
            t = Q(rng.randint(0, 8), 8)
            points.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        for g in points:
            assert p2_eval(poly(cell), *g) == j_b2(pw.alpha, pw.beta, g)


@settings(max_examples=30, deadline=None)
@given(regular_half_pairs())
def test_pdf_normalization_on_random_pairs(pair):
    assert pdf_normalization_integral(*pair) == 1


# The J-side sum rules (Schur orthogonality on the adjoint representation of
# so(5), dim 10): with |A|^2 = |alpha|^2 and B' a Haar conjugate of B,
# E<A, B'> = 0 and E<A, B'>^2 = |alpha|^2 |beta|^2 / 10, so the Horn density p
# has int p = 1, int |gamma|^2 p = |alpha|^2 + |beta|^2 and
# int |gamma|^4 p = (|alpha|^2 + |beta|^2)^2 + (2/5) |alpha|^2 |beta|^2.
DELTA_B2 = {(3, 1): Q(1), (1, 3): Q(-1)}  # g1^3 g2 - g1 g2^3
NORM2 = {(2, 0): Q(1), (0, 2): Q(1)}


def horn_moments(alpha, beta) -> list:
    """int |gamma|^(2k) p over the Horn polygon for k = 0, 1, 2, each cell's Delta J integrated exactly."""
    totals = [Q(0)] * 3
    for cell in piecewise_analyze_b2(alpha, beta).cells:
        density = p2_mul(DELTA_B2, poly(cell))
        for k in range(3):
            totals[k] += p2_integrate_polygon(density, cell.vertices)
            density = p2_mul(density, NORM2)
    return [pdf_scale(alpha, beta) * t for t in totals]


def moment_rules(alpha, beta) -> list:
    na, nb = (Q(x) ** 2 + Q(y) ** 2 for x, y in (alpha, beta))
    return [1, na + nb, (na + nb) ** 2 + Q(2, 5) * na * nb]


@pytest.mark.parametrize("alpha,beta", [
    ((17, 4), (15, 9)),
    ((5, 2), (3, 1)),
    ((Q(11, 2), Q(3, 2)), (5, 2)),
    ((7, 6), (9, 1)),
])
def test_j_side_moment_rules(alpha, beta):
    assert horn_moments(alpha, beta) == moment_rules(alpha, beta)


@settings(max_examples=10, deadline=None)
@given(regular_half_pairs())
def test_j_side_moment_rules_on_random_pairs(pair):
    assert horn_moments(*pair) == moment_rules(*pair)


_DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (-1, 0), (0, -1), (-1, -1), (-1, 1)]


@st.composite
def lattice_polygons(draw):
    """CCW convex integer polygons: boxes clipped by lines of the four cell
    directions, triangles, and boxes with extra vertices on their edges."""
    shape = draw(st.sampled_from(["clipped box", "triangle", "collinear"]))
    x0, y0, w, h = (draw(st.integers(lo, 8)) for lo in (-8, -8, 1, 1))
    if shape == "triangle":
        pts = [(draw(st.integers(-8, 8)), draw(st.integers(-8, 8))) for _ in range(3)]
        (ax, ay), (bx, by), (cx, cy) = pts
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        assume(cross)
        return tuple(pts if cross > 0 else pts[::-1])
    if shape == "collinear":
        box = ((x0, y0), (x0 + 2 * w, y0), (x0 + 2 * w, y0 + 2 * h), (x0, y0 + 2 * h))
        out = []
        for p, q in zip(box, box[1:] + box[:1]):
            out.append(p)
            if draw(st.booleans()):
                out.append(((p[0] + q[0]) // 2, (p[1] + q[1]) // 2))
        return tuple(out)
    poly = ((x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h))
    for a, b in draw(st.lists(st.sampled_from(_DIRECTIONS), max_size=3)):
        vals = [a * x + b * y for x, y in poly]
        clipped = clip_cell(poly, a, b, draw(st.integers(min(vals), max(vals))))
        if len(clipped) >= 3 and all(type(v) is int for p in clipped for v in p):
            poly = clipped
    return poly


@settings(max_examples=300, deadline=None)
@given(lattice_polygons(), st.lists(st.integers(-60, 60), min_size=6, max_size=6))
def test_delta_moment_equals_the_polygon_moments(lattice, q):
    delta_q = p2_mul({(3, 1): Q(1), (1, 3): Q(-1)}, {k: Q(c) for k, c in zip(_QUAD_KEYS, q) if c})
    assert Q(_delta_moment(lattice, tuple(q)), 3360) == p2_integrate_polygon(delta_q, lattice)


def test_a_newton_cotes_sum_off_its_denominator_raises():
    lattice, q = ((1, 1), (3, 1), (1, 2)), (1, 2, 3, 4, 5, 6)
    _delta_moment(lattice, q)
    with mock.patch.object(volume, "_NC7", (41, 216, 27, 273, 27, 216, 41)):
        with pytest.raises(InvariantError):
            _delta_moment(lattice, q)


def test_a_cell_without_lattice_data_raises():
    tri = ((0, 0), (2, 0), (0, 2))
    cell = QuadCell(2, tri, (128, 0, 0, 0, 0, 0))
    assert cell.vertices == ((0, 0), (1, 0), (0, 1)) and cell.coeffs == (1, 0, 0, 0, 0, 0)
    zero = (0,) * 6
    for D, lattice, q in [
        (2, (), zero),
        (2, tri[:2], zero),
        (2, ((Q(0), Q(0)), (2, 0), (0, 2)), zero),
        (2, ((0, 0, 0), (2, 0), (0, 2)), zero),
        (2, None, zero),
        (2, tri, (Q(1, 2), 0, 0, 0, 0, 0)),
        (2, tri, zero[:5]),
        (0, tri, zero),
        (Q(2), tri, zero),
    ]:
        with pytest.raises(InvariantError):
            QuadCell(D, lattice, q)


@settings(max_examples=30, deadline=None)
@given(regular_half_pairs())
def test_unsplit_horn_polygon_is_not_one_cell(pair):
    alpha, beta = pair
    terms = _weyl_terms(alpha, beta)
    D = 2 * terms[0]
    verts = [(int(x * D), int(y * D)) for x, y in horn_polygon(alpha, beta).vertices]
    with pytest.raises(PiecewiseFitError):
        cell_quadratic_reference(terms, verts, D)
    with pytest.raises(PiecewiseFitError):
        _cell_quadratics(terms, [verts], D)


def fraction_cut(alpha, beta):
    """The Horn polygon cut by every candidate line, on Fraction vertices."""
    cells = [horn_polygon(alpha, beta).vertices]
    for ln in singular_lines_b2(alpha, beta):
        a, b = ln.normal
        new = []
        for cell in cells:
            vals = [a * p[0] + b * p[1] for p in cell]
            if min(vals) < ln.level < max(vals):
                new.extend((clip_cell(cell, a, b, ln.level), clip_cell(cell, -a, -b, -ln.level)))
            else:
                new.append(cell)
        cells = new
    return cells


@settings(max_examples=40, deadline=None)
@given(regular_rational_pairs())
def test_lattice_cut_equals_the_fraction_cut(pair):
    pieces = []

    def recording_clip(*args):
        pieces.append(clip_cell(*args))
        return pieces[-1]

    with mock.patch.object(volume, "clip_cell", recording_clip):
        pw = piecewise_analyze_b2(*pair)
    # the cut runs on integer points and never leaves the lattice
    assert all(type(v) is int for cell in pieces for p in cell for v in p)
    assert [c.vertices for c in pw.cells] == fraction_cut(pw.alpha, pw.beta)
    assert all(type(v) is Q for c in pw.cells for p in c.vertices for v in p)
    assert all(type(v) is Q for w in pw.walls for p in w.segment for v in (*p, w.level))


@settings(max_examples=30, deadline=None)
@given(regular_half_pairs())
def test_walls_tile_the_cell_edges(pair):
    pw = piecewise_analyze_b2(*pair)
    edges = Counter(
        (i, frozenset(e))
        for i, c in enumerate(pw.cells)
        for e in zip(c.vertices, c.vertices[1:] + c.vertices[:1])
    )
    # every cell edge lies in exactly one wall, and a wall is an edge of each of its cells
    assert Counter((i, frozenset(w.segment)) for w in pw.walls for i in w.cells) == edges
    assert set(edges.values()) == {1}
    horn = horn_constraints(pw.alpha, pw.beta)
    for w in pw.walls:
        line = SingularLine(w.kind, w.level, "")
        assert all(line.value(p) == 0 for p in w.segment)
        if len(w.cells) == 2:
            hi, lo = (centroid(pw.cells[i]) for i in w.cells)
            assert line.value(hi) > 0 > line.value(lo)
        else:
            # a boundary wall lies on a Horn inequality or a chamber wall
            assert any(all(a * p[0] + b * p[1] == c for p in w.segment) for a, b, c, *_ in horn)


@settings(max_examples=60, deadline=None)
@given(regular_rational_pairs())
def test_quadratic_ramps_are_c1_at_both_lattice_endpoints(pair):
    # a ramp's jump q_hi - q_lo is a quadratic; with its gradient vanishing at
    # both ends of the wall it vanishes to first order on the whole line
    pw = piecewise_analyze_b2(*pair)
    ramps = [w for w in pw.walls if w.classification == "quadratic-ramp"]
    assert ramps
    for w in ramps:
        hi, lo = (pw.cells[i] for i in w.cells)
        c, cx, cy, cxx, cxy, cyy = (u - v for u, v in zip(hi.q, lo.q))
        for p in w.segment:
            x, y = (v * hi.D for v in p)
            assert x.denominator == y.denominator == 1
            x, y = int(x), int(y)
            assert c + (cx + cxx * x + cxy * y) * x + (cy + cyy * y) * y == 0
            assert cx + 2 * cxx * x + cxy * y == 0
            assert cy + cxy * x + 2 * cyy * y == 0


def test_an_edge_off_the_four_line_directions_raises():
    p = (Q(1), Q(0))
    assert _edge_line(p, (Q(1), Q(2))) == ("g1", 1)
    assert _edge_line(p, (Q(0), Q(1))) == ("g1+g2", 1)
    for q in ((Q(3), Q(1)), p):
        with pytest.raises(InvariantError):
            _edge_line(p, q)


@pytest.mark.parametrize(
    "alpha,beta",
    [((Q(11, 2), Q(3, 2)), (5, 2)), ((9, 4), (7, 2)), ((12, 5), (10, 3))],
)
def test_coincident_lines_jump_by_their_multiplicity(alpha, beta):
    pw = piecewise_analyze_b2(alpha, beta)
    assert pw.violations() == []
    sources = {(l.kind, l.level): l.source.count(",") + 1 for l in singular_lines_b2(pw.alpha, pw.beta)}
    merged = [w for w in pw.walls if abs(w.jump_sign) > 1]
    assert merged
    for w in merged:
        assert w.classification == "quadratic-ramp"
        assert abs(w.jump_sign) <= sources[(w.kind, w.level)]


def lattice_form(p, D):
    """The lattice form 32 D^2 p(P / D) of a Fraction quadratic (see QuadCell)."""
    out = tuple(p.get(key, Q(0)) * 32 * D ** (2 - sum(key)) for key in _QUAD_KEYS)
    assert all(v.denominator == 1 for v in out)
    return tuple(int(v) for v in out)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(volume._KINDS)), st.integers(-40, 40), st.integers(1, 12))
def test_half_delta_squared_is_16_d2_delta_squared(kind, level, D):
    # the lattice form of (1/2) Delta^2 is 32 D^2 (1/2) Delta^2(P / D), its line at gamma level / D
    a, b = volume._KINDS[kind]
    sq = p2_delta_squared(a, b, Q(level, D))
    expected = tuple(16 * D * D * sq.get(key, 0) / D ** sum(key) for key in _QUAD_KEYS)
    assert _half_delta_squared(a, b, level) == expected


# The Fraction classifiers the lattice-form ones replaced, kept as references.
def fraction_boundary_class(p, sq, chamber, a, b):
    if chamber:
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        if all(p2_eval(p, *v) == 0 for v in (a, mid, b)):
            return "boundary-linear", 0
    elif p == p2_scale(Q(1, 2), sq):
        return "boundary-quadratic", 1
    return "violation", 0


def fraction_jump_class(diff, sq, sources):
    if not diff:
        return "inactive", 0
    key = (2, 0) if (2, 0) in sq else (0, 2)
    m = 2 * diff.get(key, 0) / sq[key]
    if m.denominator == 1 and 0 < abs(m) <= sources and diff == p2_scale(m / 2, sq):
        return "quadratic-ramp", int(m)
    return "violation", 0


def assert_jump_class(diff, line, sources, D, expected):
    unit = _half_delta_squared(*line.normal, int(line.level * D))
    assert _jump_class(lattice_form(diff, D), unit, sources) == expected
    assert fraction_jump_class(diff, delta_squared(line), sources) == expected


def test_tampered_jumps_are_violations():
    pw = piecewise_analyze_b2((Q(11, 2), Q(3, 2)), (5, 2))
    D = pw.cells[0].D
    line = next(l for l in singular_lines_b2(pw.alpha, pw.beta) if l.source.count(",") == 2)
    sq = delta_squared(line)
    assert_jump_class(p2_scale(Q(3, 2), sq), line, 3, D, ("quadratic-ramp", 3))
    assert_jump_class(p2_scale(Q(-2, 2), sq), line, 3, D, ("quadratic-ramp", -2))
    # beyond the number of merged sources
    assert_jump_class(p2_scale(Q(4, 2), sq), line, 3, D, ("violation", 0))
    assert_jump_class(p2_scale(Q(2, 2), sq), line, 1, D, ("violation", 0))
    # not an integer multiple of Delta^2 / 2
    assert_jump_class(p2_scale(Q(3, 4), sq), line, 3, D, ("violation", 0))
    # not a multiple of Delta^2 at all
    assert_jump_class(p2_add(p2_scale(Q(1, 2), sq), {(1, 0): Q(1)}), line, 3, D, ("violation", 0))
    assert_jump_class({(0, 2): Q(1, 2)}, SingularLine("g1", Q(3), ""), 3, D, ("violation", 0))


def test_tampered_boundaries_are_violations():
    line = SingularLine("g2", Q(0), "")
    sq = delta_squared(line)
    p, q = (Q(1), Q(0)), (Q(3), Q(0))
    D = 2
    unit = _half_delta_squared(0, 1, 0)
    ends = [(int(v[0] * D), int(v[1] * D)) for v in (p, q)]
    for f, chamber, expected in [
        ({(0, 1): Q(2)}, True, ("boundary-linear", 0)),
        # (g1 - 1)(g1 - 3) vanishes at both ends of the chamber edge but not between them
        ({(2, 0): Q(1), (1, 0): Q(-4), (0, 0): Q(3)}, True, ("violation", 0)),
        (p2_scale(Q(1, 2), sq), False, ("boundary-quadratic", 1)),
        (sq, False, ("violation", 0)),
    ]:
        assert _boundary_class(lattice_form(f, D), unit, chamber, *ends) == expected
        assert fraction_boundary_class(f, sq, chamber, p, q) == expected


@st.composite
def regular_third_pairs(draw):
    """(alpha, beta), each with one denominator 1-3 and numerators up to 20."""

    def point():
        d = draw(st.integers(1, 3))
        hi = draw(st.integers(2, 20))
        return (Q(hi, d), Q(draw(st.integers(1, hi - 1)), d))

    return point(), point()


def term_line_weights(alpha, beta):
    """{(kind, level): sum of |eps|} over the four lines each Weyl term is smooth off."""
    scale, table = _weyl_terms(alpha, beta)
    weight = Counter()
    for x0, y0, e in table:
        for kind, level in (("g1", x0), ("g2", y0), ("g1+g2", x0 + y0), ("g1-g2", x0 - y0)):
            weight[kind, Q(level, scale)] += abs(e)
    return weight


@settings(max_examples=100, deadline=None)
@given(regular_third_pairs())
def test_the_hand_list_is_the_term_lines_across_the_horn_interior(pair):
    alpha, beta = pair
    horn = horn_polygon(alpha, beta).vertices

    def crosses(kind, level):
        vals = [SingularLine(kind, level, "").value(p) for p in horn]
        return min(vals) < 0 < max(vals)

    crossing = {key: w for key, w in term_line_weights(alpha, beta).items() if crosses(*key)}
    hand = singular_lines_b2(alpha, beta, within_horn=True)
    # the same lines, each carrying four terms' |eps| per candidate merged into it
    assert crossing == {(l.kind, l.level): 4 * (l.source.count(",") + 1) for l in hand}


def test_the_cut_reads_no_hand_list(monkeypatch):
    pairs = [((17, 4), (15, 9)), ((15, 3), (17, 8)), ((Q(11, 2), Q(3, 2)), (5, 2)), ((10, 3), (10, 3))]

    def refuse(*args, **kwargs):
        raise AssertionError("the hand list was read")

    monkeypatch.setattr(volume, "singular_lines_b2", refuse)
    analyses = [piecewise_analyze_b2(*pair) for pair in pairs]
    monkeypatch.undo()
    for pw in analyses:
        assert pw.violations() == []
        assert [c.vertices for c in pw.cells] == fraction_cut(pw.alpha, pw.beta)


def assert_walls_match_the_fraction_classifier(pw):
    sources = {(l.kind, l.level): l.source.count(",") + 1 for l in singular_lines_b2(pw.alpha, pw.beta)}
    for w in pw.walls:
        sq = delta_squared(SingularLine(w.kind, w.level, ""))
        if len(w.cells) == 2:
            hi, lo = w.cells
            diff = p2_sub(poly(pw.cells[hi]), poly(pw.cells[lo]))
            expected = fraction_jump_class(diff, sq, sources.get((w.kind, w.level), 1))
        else:
            chamber = (w.kind, w.level) in _CHAMBER_WALLS
            expected = fraction_boundary_class(poly(pw.cells[w.cells[0]]), sq, chamber, *w.segment)
        assert (w.classification, w.jump_sign) == expected


@settings(max_examples=60, deadline=None)
@given(regular_third_pairs())
def test_lattice_wall_classes_match_the_fraction_classifier(pair):
    assert_walls_match_the_fraction_classifier(piecewise_analyze_b2(*pair))


def test_tampered_cells_classify_like_the_fraction_classifier():
    alpha, beta = (17, 4), (15, 9)
    pw = piecewise_analyze_b2(alpha, beta)
    D = pw.cells[0].D
    original = volume._cell_quadratics
    chamber = [w for w in pw.walls if w.classification == "boundary-linear"]
    assert chamber
    for w in chamber:
        target = pw.cells[w.cells[0]].lattice
        (px, py), _ = ((int(x * D), int(y * D)) for x, y in w.segment)
        # Px + Py - (px + py) vanishes at the wall's first end and nowhere else on it
        bump = (-(px + py), 1, 1, 0, 0, 0)

        def tampered(terms, cells, vscale):
            qs = original(terms, cells, vscale)
            return [tuple(a + b for a, b in zip(q, bump)) if tuple(c) == target else q for c, q in zip(cells, qs)]

        with mock.patch.object(volume, "_cell_quadratics", tampered):
            bad = piecewise_analyze_b2(alpha, beta)
        assert next(v for v in bad.walls if v.segment == w.segment).classification == "violation"
        assert_walls_match_the_fraction_classifier(bad)


def sign_over(level: int, lo: int, hi: int) -> int:
    """The sign of level - t for t in [lo, hi] (lo < hi), or raise if it changes."""
    if level >= hi:
        return 1
    if level <= lo:
        return -1
    raise PiecewiseFitError("a term of the Weyl sum changes sign inside a cell")


def cell_quadratic_reference(terms, verts, vscale):
    """The lattice form q of J on one convex cell, one Weyl term at a time in Python ints.

    The per-cell loop _cell_quadratics replaces: each term's four linear
    forms must keep one sign over the cell's vertices, and the term's
    quadratic k (4 sx x^2 - 4 sy y^2 - 2 sd d^2) is expanded in (scale g1,
    scale g2) and summed.
    """
    scale, table = terms
    m = vscale // scale
    forms = list(zip(*((u, v, u - v, u + v) for u, v in verts)))
    lx, ly, ld, lt = map(min, forms)
    hx, hy, hd, ht = map(max, forms)
    c0 = cx = cy = cxx = cxy = cyy = 0
    for x0, y0, e in table:
        d0 = x0 - y0
        sx = sign_over(x0 * m, lx, hx)
        sy = sign_over(y0 * m, ly, hy)
        sd = sign_over(d0 * m, ld, hd)
        k = e * sign_over((x0 + y0) * m, lt, ht)
        c0 += k * (4 * sx * x0 * x0 - 4 * sy * y0 * y0 - 2 * sd * d0 * d0)
        cx += k * (4 * sd * d0 - 8 * sx * x0)
        cy += k * (8 * sy * y0 - 4 * sd * d0)
        cxx += k * (4 * sx - 2 * sd)
        cxy += k * 4 * sd
        cyy += k * (-4 * sy - 2 * sd)
    return (c0 * m * m, cx * m, cy * m, cxx, cxy, cyy)


def assert_cell_forms_match_the_reference(alpha, beta):
    pw = piecewise_analyze_b2(alpha, beta)
    terms = _weyl_terms(pw.alpha, pw.beta)
    lattices = [c.lattice for c in pw.cells]
    kernel = _cell_quadratics(terms, lattices, pw.cells[0].D)
    assert kernel == [c.q for c in pw.cells]
    assert kernel == [cell_quadratic_reference(terms, v, pw.cells[0].D) for v in lattices]
    assert all(type(v) is int for q in kernel for v in q)
    return terms


@settings(max_examples=60, deadline=None)
@given(regular_third_pairs())
def test_cell_kernel_equals_the_per_cell_reference(pair):
    assert_cell_forms_match_the_reference(*pair)


def test_cell_kernel_past_the_int64_bound_runs_on_python_ints():
    # scale ~ 4e9: every level (term entry times D / scale = 2) fits in int64,
    # but the squared levels in the constant coefficient do not, so int64
    # sums would wrap
    alpha = (Q(7 * 65521 + 3, 65521), Q(2 * 65521 + 5, 65521))
    beta = (Q(5 * 65519 + 7, 65519), Q(3 * 65519 + 1, 65519))
    _, table = assert_cell_forms_match_the_reference(alpha, beta)
    top = 2 * max(abs(v) for x0, y0, _ in table for v in (x0 + y0, x0 - y0, x0, y0))
    assert top < 2**63 <= 4 * top * top


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["g1", "g2", "g1+g2", "g1-g2"]),
    st.integers(-6, 6),
    st.integers(1, 3),
    st.integers(-3, 3),
    st.lists(st.integers(-2, 2), min_size=6, max_size=6),
    st.integers(1, 3),
    st.integers(-4, 4),
    st.integers(1, 4),
)
def test_lattice_classifiers_match_the_fraction_ones_on_tampered_forms(kind, level, D, m, noise, sources, t0, dt):
    """A multiple of the unit, the same plus noise, and a form vanishing on the line."""
    a, b = SingularLine(kind, Q(0), "").normal
    unit = _half_delta_squared(a, b, level)
    u0, ux, uy = noise[:3]
    vanishing = (-level * u0, a * u0 - level * ux, b * u0 - level * uy, a * ux, a * uy + b * ux, b * uy)
    sq = delta_squared(SingularLine(kind, Q(level, D), ""))
    # two lattice points on the line a x + b y = level
    start = (level, t0) if b == 0 else (t0, level) if a == 0 else (t0, (level - t0) * b)
    ends = [(start[0] + s * b, start[1] - s * a) for s in (0, dt)]
    pts = [(Q(x, D), Q(y, D)) for x, y in ends]
    for f in (tuple(m * u for u in unit), tuple(m * u + e for u, e in zip(unit, noise)), vanishing):
        p = {key: Q(c, 32 * D ** (2 - sum(key))) for key, c in zip(_QUAD_KEYS, f) if c}
        assert _jump_class(f, unit, sources) == fraction_jump_class(p, sq, sources)
        for chamber in (True, False):
            assert _boundary_class(f, unit, chamber, *ends) == fraction_boundary_class(p, sq, chamber, *pts)


def test_piecewise_wall_classes(pw_left):
    kinds = {w.classification for w in pw_left.walls}
    assert "quadratic-ramp" in kinds
    assert "boundary-linear" in kinds
    assert "violation" not in kinds
    for w in pw_left.walls:
        if w.classification == "quadratic-ramp":
            hi, lo = w.cells
            diff = p2_sub(poly(pw_left.cells[hi]), poly(pw_left.cells[lo]))
            expected = p2_scale(Q(w.jump_sign, 2), delta_squared(SingularLine(w.kind, w.level, "")))
            assert diff == expected


def test_piecewise_jumps_telescope_around_loops(pw_left):
    # single-valuedness: summing the oriented jumps along any closed chain of
    # cells telescopes to zero
    cells = pw_left.cells
    walls = [w for w in pw_left.walls if len(w.cells) == 2]
    chain = [walls[0].cells[0]]
    acc = {}
    seen = set()
    cur = chain[0]
    for _ in range(6):
        nxt = next((w for w in walls if cur in w.cells and tuple(sorted(w.cells)) not in seen), None)
        if nxt is None:
            break
        other = nxt.cells[0] if nxt.cells[1] == cur else nxt.cells[1]
        seen.add(tuple(sorted(nxt.cells)))
        acc = p2_add(acc, p2_sub(poly(cells[other]), poly(cells[cur])))
        cur = other
    acc = p2_add(acc, p2_sub(poly(cells[chain[0]]), poly(cells[cur])))
    assert acc == {}


def test_piecewise_c1(pw_left):
    h = Q(1, 10000)
    disc = c1_wall_discrepancies(pw_left)
    assert disc
    assert all(d <= 10 * h for _, d in disc)


def test_dashed_walls_vanish_linearly(pw_left):
    dashed = [w for w in pw_left.walls if w.classification == "boundary-linear"]
    assert dashed
    for w in dashed:
        assert (w.kind, w.level) in {("g2", Q(0)), ("g1-g2", Q(0))}
        cell = pw_left.cells[w.cells[0]]
        (p, q) = w.segment
        mid = ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
        assert p2_eval(poly(cell), *mid) == 0
        # normal derivative generically nonzero: the vanishing is linear, not quadratic
        assert poly(cell) != {}


def test_detected_nonanalyticities_lie_on_candidate_lines(pw_left):
    candidates = {(l.kind, l.level) for l in singular_lines_b2(pw_left.alpha, pw_left.beta)}
    for w in pw_left.walls:
        if w.classification == "quadratic-ramp" and w.jump_sign != 0:
            assert (w.kind, w.level) in candidates


def _fan_integral(p, verts):
    """Reference integral: fan triangulation, each triangle mapped onto the
    reference triangle, where int u^a v^b = a! b! / (a+b+2)!."""
    total = Q(0)
    x0, y0 = verts[0]
    for (x1, y1), (x2, y2) in zip(verts[1:], verts[2:]):
        jac = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        px = p2_linear(x1 - x0, x2 - x0, x0)
        py = p2_linear(y1 - y0, y2 - y0, y0)
        for (i, j), c in p.items():
            q = {(0, 0): Q(1)}
            for factor in [px] * i + [py] * j:
                q = p2_mul(q, factor)
            ref = sum(d * Q(math.factorial(a) * math.factorial(b), math.factorial(a + b + 2))
                      for (a, b), d in q.items())
            total += abs(jac) * c * ref
    return total


@settings(max_examples=200, deadline=None)
@given(
    st.lists(rational_points, min_size=3, max_size=8),
    st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda k: sum(k) <= 6),
        rationals,
        max_size=8,
    ),
    st.booleans(),
)
def test_polygon_moments_match_fan_triangulation(points, poly, clockwise):
    hull = _convex_hull(points)
    if clockwise:
        hull = hull[::-1]
    expected = _fan_integral(poly, hull) if len(hull) >= 3 else Q(0)
    assert p2_integrate_polygon(poly, hull) == expected


@settings(max_examples=100, deadline=None)
@given(rational_points, rational_points, rational_points, st.fractions(min_value=Q(1, 6), max_value=6, max_denominator=6))
def test_j_symmetric_and_homogeneous(alpha, beta, gamma, s):
    base = j_b2(alpha, beta, gamma)
    assert j_b2(beta, alpha, gamma) == base
    scaled = [(s * x, s * y) for x, y in (alpha, beta, gamma)]
    assert j_b2(*scaled) == s * s * base


dominant_labels = st.tuples(st.integers(0, 8), st.integers(0, 8))
rational_labels = st.tuples(*[st.fractions(min_value=0, max_value=16, max_denominator=6)] * 2)


@settings(max_examples=300, deadline=None)
@given(dominant_labels, dominant_labels, rational_labels)
def test_direct_equals_polytope_area_on_the_continuum(lam, mu, nu):
    # J is the relative area of the BZ polygon at every rational nu, not only
    # at the lattice triples of criterion 4
    P = bz_polygon_b2(lam, mu, nu)
    area = P.area() if P.dim == 2 else 0
    assert j_b2(*(b2_dynkin_to_ortho(w) for w in (lam, mu, nu))) == area


# -- J-LR relations -----------------------------------------------------------


def test_kappa_sum_rules():
    from hornvol.rootsys import weyl_dimension

    K, Khat = kappa_coefficient_sets(B2)
    assert K == {(0, 0): Q(3, 8), (1, 0): Q(1, 8)}
    assert Khat == {(0, 1): Q(1, 4)}
    assert sum(c * weyl_dimension(B2, k) for k, c in K.items()) == 1
    assert sum(c * weyl_dimension(B2, k) for k, c in Khat.items()) == 1


def test_kappa_coefficient_sets_hands_out_copies():
    for rs in (B2, build_root_system("B", 3)):
        K, Khat = kappa_coefficient_sets(rs)
        before = (dict(K), dict(Khat))
        K[next(iter(K))] *= 2
        K[(9,) * rs.rank] = Q(1)
        Khat.clear()
        assert kappa_coefficient_sets(rs) == before
        assert volume.KAPPA_TABLES[rs.family, rs.rank] == before
    with pytest.raises(ValueError, match="^no c_kappa table for G2$"):
        kappa_coefficient_sets(build_root_system("G2"))


def test_j_lr_shifted_examples():
    assert j_lr_shifted((0, 0), (0, 0), (0, 0)) == Q(3, 8)
    assert j_b2(RHO, RHO, RHO) == Q(3, 8)
    with pytest.raises(IncompatibleTripleError):
        j_lr_shifted((0, 1), (0, 1), (0, 1))


def test_j_lr_shifted_equals_direct_on_sweep():
    rng = random.Random(47)
    count = 0
    while count < 25:
        lam = (rng.randint(0, 4), rng.randint(0, 4))
        mu = (rng.randint(0, 4), rng.randint(0, 4))
        nu = (rng.randint(0, 5), rng.randint(0, 5))
        if (lam[1] + mu[1] - nu[1]) % 2:
            continue
        count += 1
        shifted = [b2_dynkin_to_ortho(tuple(v + 1 for v in w)) for w in (lam, mu, nu)]
        assert j_lr_shifted(lam, mu, nu) == j_b2(*shifted)


def test_j_lr_unshifted_examples():
    assert j_lr_unshifted((4, 7), (5, 3), (2, 4)) == Q(7, 4)
    with pytest.raises(NotShiftableError):
        j_lr_unshifted((0, 2), (1, 1), (1, 1))
    with pytest.raises(IncompatibleTripleError):
        j_lr_unshifted((1, 1), (1, 1), (1, 1))


def test_deep_nu_formula():
    # J(lam, mu; nu) = 1/4 sum_k C_{(lam-rho)(mu-rho)}^{nu-k}, k in the spinor shifts
    from hornvol.multiplicity import lr_klimyk

    lam, mu, nu = (4, 7), (5, 3), (2, 4)
    ks = [(2, 0), (1, 2), (1, 0), (0, 2)]
    total = Q(0)
    for k in ks:
        target = (nu[0] - k[0], nu[1] - k[1])
        if all(v >= 0 for v in target):
            total += lr_klimyk(B2, (3, 6), (4, 2), target)
    assert Q(1, 4) * total == Q(7, 4)


def test_j_lr_unshifted_equals_direct_on_sweep():
    rng = random.Random(53)
    count = 0
    while count < 25:
        lam = (rng.randint(1, 5), rng.randint(1, 5))
        mu = (rng.randint(1, 5), rng.randint(1, 5))
        nu = (rng.randint(1, 6), rng.randint(1, 6))
        if (lam[1] + mu[1] - nu[1]) % 2:
            continue
        count += 1
        direct = j_b2(b2_dynkin_to_ortho(lam), b2_dynkin_to_ortho(mu), b2_dynkin_to_ortho(nu))
        assert j_lr_unshifted(lam, mu, nu) == direct


def criterion_4_triples():
    """The two pinned triples and the 200 random ones of acceptance criterion 4."""
    out = [((4, 7), (5, 3), (2, 4)), ((5, 6), (3, 4), (5, 6))]
    rng = random.Random(2024)
    while len(out) < 202:
        lam = (rng.randint(1, 6), rng.randint(1, 6))
        mu = (rng.randint(1, 6), rng.randint(1, 6))
        nu = (rng.randint(1, 6), rng.randint(1, 6))
        if (lam[1] + mu[1] - nu[1]) % 2 == 0:
            out.append((lam, mu, nu))
    return out


def test_each_lr_relation_decomposes_once(monkeypatch):
    """Each relation decomposes (lam', mu') exactly once; every other
    decomposition is (nu', kappa*), one for each kappa of K or K-hat, which
    tau_sum pairs with the first.  w0 = -1 in type B, so there kappa* = kappa."""
    from hornvol import multiplicity
    from hornvol.multiplicity import lr_triple

    decompose = multiplicity.tensor_decompose
    calls = []

    def counting(rs, lam, mu):
        calls.append((tuple(lam), tuple(mu)))
        return decompose(rs, lam, mu)

    B3 = build_root_system("B", 3)
    cases = [(B2, t) for t in criterion_4_triples()] + [(B3, ((2, 2, 2),) * 3)]
    for rs, (lam, mu, nu) in cases:
        K, Khat = kappa_coefficient_sets(rs)
        sl, sm, sn = (tuple(v - 1 for v in w) for w in (lam, mu, nu))
        values = {}
        for relation, kappas, (l, m, n) in ((j_lr_shifted, K, (lam, mu, nu)), (j_lr_unshifted, Khat, (sl, sm, sn))):
            with monkeypatch.context() as patch:
                patch.setattr(volume, "tensor_decompose", counting)
                patch.setattr(multiplicity, "tensor_decompose", counting)
                calls.clear()
                values[relation] = relation(lam, mu, nu, rs)
            assert sorted(calls) == sorted([(l, m)] + [(n, k) for k in kappas])
        # the sums of one lr_triple per kappa
        assert values[j_lr_shifted] == sum((c * lr_triple(rs, lam, mu, k, nu) for k, c in K.items()), Q(0))
        assert values[j_lr_unshifted] == sum((c * lr_triple(rs, sl, sm, k, sn) for k, c in Khat.items()), Q(0))


# -- c_kappa ---------------------------------------------------------------------


def test_c_kappa_b2():
    assert c_kappa_via_kissinger(B2, (0, 0)) == Q(3, 8)
    assert c_kappa_via_kissinger(B2, (1, 0)) == Q(1, 8)
    assert c_kappa_via_kissinger(B2, (0, 1)) == Q(1, 4)
    with pytest.raises(ValueError):
        c_kappa_via_kissinger(B2, (2, 2))


def test_c_kappa_b2_quasi_polynomial_shape():
    quasi, samples = kissinger_quasi_polynomial(B2, (0, 0))
    assert quasi.coeffs[0] == (Q(1), Q(3, 4), Q(3, 8))
    assert quasi.coeffs[1] == (Q(0), Q(0), Q(0))
    assert [samples[s] for s in (0, 2, 4)] == [1, 4, 10]
    assert all(samples[s] == 0 for s in (1, 3, 5))


def test_c_kappa_matches_direct_j():
    for kappa in ((0, 0), (1, 0), (0, 1)):
        shifted = b2_dynkin_to_ortho((kappa[0] + 1, kappa[1] + 1))
        assert c_kappa_via_kissinger(B2, kappa) == j_b2(RHO, RHO, shifted)


# -- four routes ----------------------------------------------------------------


def test_four_route_agreement_pinned():
    vr = volume_routes((4, 7), (5, 3), (2, 4))
    assert set(vr.values().values()) == {Q(7, 4)}
    vr = volume_routes((5, 6), (3, 4), (5, 6))
    assert set(vr.values().values()) == {Q(6)}


def test_four_route_agreement_degenerate():
    vr = volume_routes((5, 6), (3, 4), (0, 10))
    assert vr.agree()
    assert set(vr.values().values()) == {Q(0)}


def test_shifted_identity_of_methods():
    # J(lam', mu'; nu') = K-sum = Ehrhart leading coefficient = polygon area,
    # everything evaluated on the rho-shifted (non-compatible) triple
    rng = random.Random(61)
    checked = 0
    while checked < 6:
        lam = (rng.randint(0, 3), rng.randint(0, 3))
        mu = (rng.randint(0, 3), rng.randint(0, 3))
        nu = (rng.randint(0, 4), rng.randint(0, 4))
        if (lam[1] + mu[1] - nu[1]) % 2:
            continue
        checked += 1
        shifted_dyn = [tuple(v + 1 for v in w) for w in (lam, mu, nu)]
        direct = j_b2(*(b2_dynkin_to_ortho(w) for w in shifted_dyn))
        assert direct == j_lr_shifted(lam, mu, nu)
        P = bz_polygon_b2(*shifted_dyn)
        assert direct == (P.area() if P.dim == 2 else Q(0))
        quasi, _ = stretching_quasi_polynomial(B2, *shifted_dyn)
        assert direct == leading_coefficient(quasi)


def test_b3_lr_and_ehrhart_routes_agree():
    b3 = build_root_system("B", 3)
    for triple in [((1, 1, 2), (1, 1, 2), (1, 1, 2)), ((1, 1, 1), (1, 1, 1), (1, 1, 2))]:
        vr = volume_routes(*triple, routes=("lr", "ehrhart"), rs=b3)
        assert vr.agree() and len(vr.values()) == 2
    with pytest.raises(ValueError):
        volume_routes((1, 1, 1), (1, 1, 1), (1, 1, 1), routes=("direct",), rs=b3)


def test_default_routes_are_those_of_the_algebra():
    vr = volume_routes((2, 2, 2), (2, 2, 2), (2, 2, 2), rs=build_root_system("B", 3))
    assert vr.values() == {"lr": Q(241, 48), "ehrhart": Q(241, 48)}
    assert vr.bz_polygon is None and vr.skipped == {}
    vr = volume_routes((4, 7), (5, 3), (2, 4))
    assert list(vr.values()) == list(volume.ROUTES)


def test_the_polytope_route_keeps_its_polygon():
    vr = volume_routes((4, 7), (5, 3), (2, 4), routes=("polytope",))
    assert vr.values() == {"polytope": vr.bz_polygon.area()} == {"polytope": Q(7, 4)}
    assert vr.bz_polygon.to_json_dict() == bz_polygon_b2((4, 7), (5, 3), (2, 4)).to_json_dict()
    assert volume_routes((4, 7), (5, 3), (2, 4), routes=("direct", "lr", "ehrhart")).bz_polygon is None


def test_volume_routes_refuse_an_empty_or_unknown_route_list():
    # both used to return an empty VolumeRoutes whose agree() is True
    for routes in ((), ("bogus",), ("direct", "bogus")):
        with pytest.raises(ValueError, match="must be a nonempty choice from direct, lr, ehrhart, polytope"):
            volume_routes((5, 6), (3, 4), (5, 6), routes=routes)


#: what a route calls first; a weight refused at entry reaches none of them
ROUTE_ENTRIES = ("b2_dynkin_to_ortho", "j_b2", "j_lr_unshifted", "stretching_quasi_polynomial", "bz_polygon_b2")


#: NaN and the infinities, which no label may be
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def b2_weights():
    """One, two or three entries: ints in [-1, 3], or Fractions in [-2, 3] of denominator up to 3; or two
    entries, ints in [0, 3] and non-finite floats."""
    entries = st.sampled_from([st.integers(-1, 3), st.fractions(-2, 3, max_denominator=3)])
    sized = st.tuples(entries, st.integers(1, 3)).flatmap(lambda es: st.lists(es[0], min_size=es[1], max_size=es[1]))
    return st.one_of(sized, st.lists(st.one_of(st.integers(0, 3), NON_FINITE), min_size=2, max_size=2))


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(*[st.tuples(st.integers(0, 4), st.integers(0, 4))] * 3), st.tuples(*[b2_weights()] * 3)),
       st.lists(st.sampled_from(volume.ROUTES), min_size=1, max_size=4, unique=True).map(tuple))
def test_volume_routes_answer_or_refuse(weights, routes):
    """A malformed weight is refused with a ValueError before any route runs; a
    well-formed triple is answered, or refused by the lr route alone.

    About half the draws are triples of dominant labels 0..4.  Malformed
    means a wrong label count, a negative label, a non-integral one, NaN or
    an infinity.  The
    lr route refuses an incompatible triple, and, asked for alone, one that
    does not dominate rho.  On a compatible triple with every label at least
    1, the routes that answer agree.
    """
    sized = all(len(w) == 2 for w in weights)
    well_formed = sized and all(math.isfinite(v) and v >= 0 and Q(v).denominator == 1 for w in weights for v in w)
    with contextlib.ExitStack() as stack:
        spies = [stack.enter_context(mock.patch.object(volume, name, wraps=getattr(volume, name)))
                 for name in ROUTE_ENTRIES]
        try:
            vr = volume_routes(*weights, routes=routes)
        except IncompatibleTripleError:
            assert well_formed and "lr" in routes and not is_compatible(volume.b2(), *weights), (weights, routes)
            return
        except NotShiftableError:
            assert well_formed and routes == ("lr",), (weights, routes)
            return
        except ValueError as exc:
            assert not well_formed, (weights, routes, exc)
            assert not any(spy.called for spy in spies), (weights, routes)
            return
    assert well_formed, (weights, routes, vr)
    assert set(vr.values()) | set(vr.skipped) == set(routes)
    if is_compatible(volume.b2(), *weights) and min(v for w in weights for v in w) >= 1:
        assert vr.agree(), (weights, vr)


#: the algebras off B2 of the property below: three without a c_kappa table, and B3 with one
OFF_B2 = [build_root_system(*a) for a in (("A", 2), ("C", 2), ("G2",), ("B", 3))]


@st.composite
def off_b2_triples(draw):
    """An algebra of OFF_B2 and a compatible triple of it, labels 0..3 (0..2 on B3)."""
    rs = draw(st.sampled_from(OFF_B2))
    top = 2 if rs.rank == 3 else 3
    triple = draw(st.tuples(*[st.tuples(*[st.integers(0, top)] * rs.rank)] * 3))
    assume(is_compatible(rs, *triple))
    return rs, triple


@settings(max_examples=80, deadline=None)
@given(off_b2_triples(), st.one_of(st.none(), st.lists(st.sampled_from(volume.ROUTES), min_size=1, max_size=4,
                                                      unique=True).map(tuple)))
def test_volume_routes_off_b2_answer_or_refuse(case, routes):
    """Off B2 the direct and polytope routes are refused before any route runs; a route that cannot run is
    refused alone and skipped beside others, only for want of a c_kappa table, a triple that does not dominate
    rho or a default period; a run where no route runs is refused, naming each reason; the answers agree.

    The oracle below was fixed before the first run.
    """
    rs, triple = case
    asked = [r for r in volume.ROUTES if r in (routes or ("lr", "ehrhart"))]
    why = {}
    if (rs.family, rs.rank) not in volume.KAPPA_TABLES:
        why["lr"] = f"no c_kappa table for {rs.name}"
    elif min(v for w in triple for v in w) < 1:
        why["lr"] = "lam, mu, nu must all dominate rho"
    if rs.family == "G2":
        why["ehrhart"] = "no default period for G2"
    if "direct" in asked:
        refusal = "the direct J evaluation is B2-specific"
    elif "polytope" in asked:
        refusal = "the BZ polygon construction is B2-specific"
    elif len(asked) == 1 and asked[0] in why:
        refusal = why[asked[0]]
    elif set(asked) <= set(why):
        refusal = f"no route of {rs.name} runs: " + "; ".join(f"{r}: {why[r]}" for r in asked)
    else:
        refusal = None
    with contextlib.ExitStack() as stack:
        spies = [stack.enter_context(mock.patch.object(volume, name, wraps=getattr(volume, name)))
                 for name in ROUTE_ENTRIES]
        if refusal is not None:
            with pytest.raises(ValueError) as info:
                volume_routes(*triple, routes=routes, rs=rs)
            assert str(info.value) == refusal, (rs.name, triple, routes)
            assert not refusal.endswith("B2-specific") or not any(spy.called for spy in spies)
            return
        vr = volume_routes(*triple, routes=routes, rs=rs)
    assert vr.skipped == {r: why[r] for r in asked if r in why}, (rs.name, triple, routes)
    assert set(vr.values()) == set(asked) - set(why)
    assert vr.agree(), (rs.name, triple, vr)


def pair_labels():
    """B2 pairs: regular ordered halves up to 6 about half of the time, else two labels that may be non-finite."""
    label = st.one_of(st.integers(-1, 6), st.fractions(-1, 6, max_denominator=3), NON_FINITE)
    regular = st.integers(2, 12).flatmap(
        lambda hi: st.tuples(st.just(Q(hi, 2)), st.fractions(Q(1, 2), Q(hi - 1, 2), max_denominator=2)))
    return st.one_of(regular, st.tuples(label, label))


def gamma_labels():
    """gamma in the chamber g1 >= g2 >= 0, where the density is not negative, about half of the time, else two
    labels that may be non-finite."""
    label = st.one_of(st.fractions(-1, 12, max_denominator=3), NON_FINITE)
    chamber = st.tuples(*[st.fractions(0, 12, max_denominator=3)] * 2).map(lambda g: tuple(sorted(g, reverse=True)))
    return st.one_of(chamber, st.tuples(label, label))


def finite(*pairs) -> bool:
    return all(math.isfinite(v) for pair in pairs for v in pair)


@settings(max_examples=150, deadline=None)
@given(pair_labels(), pair_labels(), gamma_labels(),
       st.sampled_from(["horn_slabs", "singular_lines_b2", "pdf_b2", "pdf_normalization_integral", "j_b2",
                        "horn_contains_b2", "delta_b2"]))
@example((math.inf, 1), (2, 1), (1, 1), "j_b2")
@example((math.nan, 1), (2, 1), (1, 1), "horn_contains_b2")
@example((2, 1), (2, 1), (1, math.nan), "horn_contains_b2")
@example((2, 1), (2, 1), (math.nan, 1), "delta_b2")
@example((1, Q(1, 2)), (1, Q(1, 2)), (1, Q(-1, 2)), "horn_contains_b2")
def test_pair_entry_points_answer_or_refuse(alpha, beta, gamma, entry):
    """The entry points that read a pair (alpha, beta) answer on a finite regular ordered pair and refuse
    any other with hornvol's own ValueError; j_b2 answers on every finite pair.  NaN and the infinities are
    refused by hornvol's own reader, in gamma too, and delta_b2 reads gamma alone."""
    regular = all(math.inf > x1 > x2 > 0 for x1, x2 in (alpha, beta))
    refused = {"j_b2": not finite(alpha, beta, gamma), "delta_b2": not finite(gamma)}.get(
        entry, not regular or entry in ("pdf_b2", "horn_contains_b2") and not finite(gamma))
    call = {"horn_slabs": lambda: horn_slabs(alpha, beta), "singular_lines_b2": lambda: singular_lines_b2(alpha, beta),
            "pdf_b2": lambda: pdf_b2(alpha, beta, gamma),
            "pdf_normalization_integral": lambda: pdf_normalization_integral(alpha, beta),
            "j_b2": lambda: j_b2(alpha, beta, gamma), "horn_contains_b2": lambda: horn_contains_b2(alpha, beta, gamma),
            "delta_b2": lambda: delta_b2(gamma)}[entry]
    value = answer_or_refuse(call, refused)
    if value is None:
        return
    in_chamber = gamma[0] >= gamma[1] >= 0
    if entry == "horn_slabs":
        assert all(lo <= hi for lo, hi in value.values())
    elif entry == "singular_lines_b2":
        assert value
    elif entry in ("pdf_b2", "delta_b2"):
        assert value >= 0 or not in_chamber
    elif entry == "j_b2":
        # J vanishes on the chamber outside the Horn polygon
        assert not (regular and in_chamber) or value >= 0 and (value == 0 or horn_contains_b2(alpha, beta, gamma))
    elif entry == "horn_contains_b2":
        # the polygon lies in the chamber; off it J is the alternating extension and need not vanish
        assert value in (True, False) and (in_chamber or not value)
        assert value or not in_chamber or j_b2(alpha, beta, gamma) == 0
    else:
        assert value == 1


def test_route_identities_on_random_sweep():
    rng = random.Random(59)
    checked = 0
    while checked < 10:
        lam = (rng.randint(1, 4), rng.randint(1, 4))
        mu = (rng.randint(1, 4), rng.randint(1, 4))
        nu = (rng.randint(1, 5), rng.randint(1, 5))
        if (lam[1] + mu[1] - nu[1]) % 2:
            continue
        checked += 1
        assert volume_routes(lam, mu, nu).agree()


@st.composite
def compatible_b2_triples(draw):
    """(lam, mu, nu) with labels 1..8 and lam + mu - nu in the root lattice."""
    labels = st.integers(1, 8)
    lam, mu = (draw(labels), draw(labels)), (draw(labels), draw(labels))
    parity = (lam[1] + mu[1]) % 2
    return lam, mu, (draw(labels), draw(st.sampled_from([v for v in range(1, 9) if v % 2 == parity])))


@settings(max_examples=60, deadline=None)
@given(compatible_b2_triples())
def test_four_routes_agree_on_random_compatible_triples(triple):
    vr = volume_routes(*triple)
    assert not vr.skipped and len(vr.values()) == 4
    assert vr.agree()


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(0, 8)] * 4), st.data())
def test_reciprocity_on_random_full_dimensional_triples(labels, data):
    lam, mu = labels[0:2], labels[2:4]
    full = [nu for nu in itertools.product(range(9), repeat=2) if bz_polygon_b2(lam, mu, nu).dim == 2]
    assume(full)
    nu = data.draw(st.sampled_from(full))
    quasi, _ = stretching_quasi_polynomial(B2, lam, mu, nu)
    assert reciprocity_check(quasi, bz_polygon_b2(lam, mu, nu))


# -- PDF ------------------------------------------------------------------------


def test_pdf_zero_outside_and_on_wall():
    assert pdf_b2((17, 4), (15, 9), (40, 0)) == 0
    assert pdf_b2((17, 4), (15, 9), (20, 0)) == 0  # Delta vanishes on the wall
    assert delta_b2((20, 0)) == 0


def test_pdf_refuses_an_unordered_pair():
    # J flips sign under the Weyl swap of alpha, so this read -35/5508
    assert pdf_b2((17, 4), (15, 9), (20, 6)) == Q(35, 5508)
    with pytest.raises(ValueError, match="regular ordered"):
        pdf_b2((4, 17), (15, 9), (20, 6))


@pytest.mark.parametrize("alpha", [(1, 1), (1, 0)])
def test_pdf_refuses_a_non_regular_pair(alpha):
    # these read 0 for every gamma, and pdf_scale((1, 1), (2, 1)) divided by 0
    with pytest.raises(ValueError, match="regular ordered"):
        pdf_b2(alpha, (2, 1), (2, 1))
    with pytest.raises(ValueError, match="regular ordered"):
        pdf_scale(alpha, (2, 1))


def test_pdf_normalization_exact():
    assert pdf_normalization_integral((17, 4), (15, 9)) == 1
    assert pdf_normalization_integral((Q(11, 2), Q(3, 2)), (5, 2)) == 1


def test_pdf_normalization_refuses_the_cells_of_another_pair():
    # these cells used to give 91/75 for a pair they were not made for
    pw = piecewise_analyze_b2((17, 4), (15, 9))
    with pytest.raises(CellPairError):
        pdf_normalization_integral((15, 3), (17, 8), pw)


def test_pdf_normalization_takes_its_cells_in_either_order():
    pw = piecewise_analyze_b2((15, 9), (17, 4))
    assert pw.swapped and (pw.alpha, pw.beta) == ((17, 4), (15, 9))
    for alpha, beta in (((15, 9), (17, 4)), ((17, 4), (15, 9))):
        assert pdf_normalization_integral(alpha, beta, pw) == 1


def test_multiplicity_one_fails_to_scale_only_on_segments():
    # C = 1 need not give C_s = 1: (2,2), (2,2), (1,0) has C = 1 on a segment
    # of relative length 1/2, whose doubled dilation holds two lattice points.
    # Over labels <= 3 and s <= 4 every such case is a segment P, and C_s is
    # the lattice count of sP.  C and C_s come from Steinberg, not the BZ count.
    weights = list(itertools.product(range(4), repeat=2))
    cases = 0
    for lam, mu, nu in itertools.product(weights, repeat=3):
        if (lam[1] + mu[1] - nu[1]) % 2 or lr_steinberg(B2, lam, mu, nu) != 1:
            continue
        for s in range(2, 5):
            cs = lr_steinberg(B2, *(tuple(s * v for v in w) for w in (lam, mu, nu)))
            if cs != 1:
                cases += 1
                P = bz_polygon_b2(lam, mu, nu)
                assert P.dim == 1, (lam, mu, nu, s, cs)
                assert cs == P.lattice_count(s=s), (lam, mu, nu, s, cs)
    assert cases == 477


def test_empty_multiplicity_on_nonempty_bz_polygon_is_a_saturated_point():
    # A non-empty BZ polygon P with C = 0 holds no lattice point.  Over labels
    # <= 5 every such P is a single point, and doubling the triple gives
    # C_{2 lam, 2 mu}^{2 nu} > 0 (a factor-2 saturation), so P is non-empty
    # exactly when C + C_2 > 0.  C and C_2 come from Steinberg, not the BZ count.
    weights = list(itertools.product(range(6), repeat=2))
    nonempty = empty_c = 0
    for lam, mu, nu in itertools.product(weights, repeat=3):
        if (lam[1] + mu[1] - nu[1]) % 2:
            continue
        P = bz_polygon_b2(lam, mu, nu)
        if P.dim < 0:
            continue
        nonempty += 1
        if lr_steinberg(B2, lam, mu, nu) == 0:
            empty_c += 1
            c2 = lr_steinberg(B2, *(tuple(2 * v for v in w) for w in (lam, mu, nu)))
            assert P.dim == 0, (lam, mu, nu, P.dim)
            assert c2 > 0, (lam, mu, nu, c2)
    assert (nonempty, empty_c) == (14148, 165)


def dominant_nus(lam, mu):
    """The dominant nu in lam + (weights of V_mu).

    A non-empty BZ polygon puts nu in lam + conv(W mu), whose points in the
    root-lattice coset of lam + mu are lam plus the weights of V_mu, so every
    compatible nu with a non-empty P is among these.
    """
    for tau in freudenthal_weights(B2, mu):
        nu = (lam[0] + tau[0], lam[1] + tau[1])
        if min(nu) >= 0:
            yield nu


#: labels of lam and mu beyond the exhaustive ranges above; fixed in advance
SATURATION_LABELS = st.tuples(st.integers(0, 12), st.integers(0, 12))


@settings(max_examples=40, deadline=None)
@given(SATURATION_LABELS, SATURATION_LABELS)
def test_multiplicity_one_fails_to_scale_only_on_segments_beyond_labels_three(lam, mu):
    # the statement of the exhaustive test above, on every nu of a drawn
    # (lam, mu) with labels <= 12; C and C_s come from Steinberg
    for nu in dominant_nus(lam, mu):
        if lr_steinberg(B2, lam, mu, nu) != 1:
            continue
        for s in range(2, 5):
            cs = lr_steinberg(B2, *(tuple(s * v for v in w) for w in (lam, mu, nu)))
            if cs != 1:
                P = bz_polygon_b2(lam, mu, nu)
                assert P.dim == 1, (lam, mu, nu, s, cs)
                assert cs == P.lattice_count(s=s), (lam, mu, nu, s, cs)


@settings(max_examples=40, deadline=None)
@given(SATURATION_LABELS, SATURATION_LABELS)
def test_empty_multiplicity_on_nonempty_bz_polygon_is_a_saturated_point_beyond_labels_five(lam, mu):
    # the statement of the exhaustive test above, on every nu of a drawn
    # (lam, mu) with labels <= 12; C and C_2 come from Steinberg
    for nu in dominant_nus(lam, mu):
        P = bz_polygon_b2(lam, mu, nu)
        if P.dim >= 0 and lr_steinberg(B2, lam, mu, nu) == 0:
            c2 = lr_steinberg(B2, *(tuple(2 * v for v in w) for w in (lam, mu, nu)))
            assert P.dim == 0, (lam, mu, nu, P.dim)
            assert c2 > 0, (lam, mu, nu, c2)


# -- SO(2) ----------------------------------------------------------------------


def test_so2_support_and_divergence():
    assert so2_support(1, 2) == (1, 3)
    assert j_so2_symmetric(1, 2, Q(1, 2)) == 0.0
    assert j_so2_symmetric(1, 2, 4) == 0.0
    assert j_so2_symmetric(1, 2, 1) == math.inf
    assert j_so2_symmetric(1, 2, 3) == math.inf
    assert j_so2_symmetric(1, 2, 2) > 0
    with pytest.raises(ValueError):
        j_so2_symmetric(0, 2, 1)


def test_so2_closed_form_value():
    # at gamma^2 = (A+B)/2 the arcsin argument is 0: the density there is
    # 2 gamma / (pi sqrt((A - g^2)(g^2 - B))) with A=9, B=1 for (1,2)
    g = math.sqrt(5.0)
    val = j_so2_symmetric(1, 2, Q(2236067977499790, 10**15))
    expect = 2 / math.pi**2 * math.sqrt((1 * 2 * math.sqrt(5)) / ((9 - 5) * (5 - 1)))
    assert abs(val - expect) < 1e-6


def test_non_integral_labels_are_refused():
    # a compatible triple whose labels int() used to truncate to (2, 3), (1, 3), (3, 2)
    lam, mu, nu = (Q(5, 2), 3), (Q(3, 2), 3), (3, 2)
    assert is_compatible(B2, lam, mu, nu)
    with pytest.raises(ValueError, match="not an integral weight"):
        j_lr_unshifted(lam, mu, nu)
    with pytest.raises(ValueError, match="not an integral weight"):
        kissinger_quasi_polynomial(B2, (Q(1, 2), 0))
    with pytest.raises(ValueError, match="not an integral weight"):
        c_kappa_via_kissinger(B2, (Q(1, 2), 0))


def test_lr_route_beyond_the_size_guard_is_skipped_next_to_others():
    big = (40, 40)
    vr = volume_routes(big, big, big, routes=("direct", "lr", "polytope"))
    assert vr.values() == {"direct": 600, "polytope": 600}
    assert "exceeds the cap" in vr.skipped["lr"]
    for routes in (("lr",), ["lr"]):  # a list of one route used to skip it and return nothing
        with pytest.raises(SizeGuardError):
            volume_routes(big, big, big, routes=routes)
    assert volume_routes((4, 7), (5, 3), (2, 4)).skipped == {}
