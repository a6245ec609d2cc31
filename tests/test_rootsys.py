import random
from fractions import Fraction as Q
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornvol import rootsys
from hornvol._exact import InconsistentSystemError, InvariantError, dot, solve_in_span, solve_square
from hornvol.rootsys import (
    UnsupportedAlgebraError,
    WeylElement,
    _identity_matrix,
    _matmul,
    apply_weyl,
    build_root_system,
    delta_g,
    is_compatible,
    kappa_constants,
    positive_root_count,
    polytope_degree,
    reflect_to_dominant,
    simple_reflection,
    weyl_dimension,
    weyl_group,
    NonDominantWeightError,
)

ALL_ALGEBRAS = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(2, 9)]
    + [("D", r) for r in range(3, 9)]
    + [("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8)]
)


@pytest.mark.parametrize("family,rank", ALL_ALGEBRAS + [("B", 30), ("D", 30)])
def test_positive_root_counts_match_table(family, rank):
    rs = build_root_system(family, rank)
    assert rs.n_positive == positive_root_count(family, rank)
    assert rs.n_positive - rank == polytope_degree(family, rank)


def test_closure_count_mismatch_raises_invariant_error(monkeypatch):
    monkeypatch.setattr(rootsys, "positive_root_count", lambda family, rank: 5)
    with pytest.raises(InvariantError, match="closure found 4 roots, expected 5"):
        build_root_system.__wrapped__("B", 2)


def closure_reference(cartan):
    """The positive roots, each simple-coroot pairing summed afresh from the Cartan columns."""
    rank = len(cartan)
    simple = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    seen = set(simple)
    frontier = simple
    while frontier:
        new = []
        for k in frontier:
            for i in range(rank):
                p = sum(kj * row[i] for kj, row in zip(k, cartan))
                if p and k != simple[i]:
                    image = k[:i] + (k[i] - p,) + k[i + 1:]
                    if image not in seen:
                        seen.add(image)
                        new.append(image)
        frontier = new
    return sorted(seen, key=lambda k: (sum(k), k))


@pytest.mark.parametrize("family,rank", (
    [(fam, r) for fam, lo in rootsys.CLASSICAL_MIN_RANK.items() for r in range(lo, 13)]
    + list(rootsys.EXCEPTIONAL_RANK.items())
))
def test_closure_with_stored_pairings_equals_the_reference(family, rank):
    cartan = build_root_system(family, rank).cartan_matrix
    assert rootsys._positive_closure(cartan) == closure_reference(cartan)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G2", 2), ("F4", 4), ("E8", 8)])
def test_positive_roots_are_the_orthonormal_images_of_the_keys(family, rank):
    rs = build_root_system(family, rank)
    assert len(set(rs.positive_roots)) == rs.n_positive
    for key, root in zip(rs.positive_roots_rb, rs.positive_roots):
        assert rs.ortho_to_root(root) == key
        # s_alpha maps the simple roots to roots: <alpha_i, alpha^vee> is an integer
        assert all((2 * dot(a, root) / dot(root, root)).denominator == 1 for a in rs.simple_roots)
    assert rs.long_norm2() == max(dot(a, a) for a in rs.positive_roots)


def test_b2_positive_roots_and_rho():
    rs = build_root_system("B", 2)
    roots = set(rs.positive_roots)
    e1, e2 = (Q(1), Q(0)), (Q(0), Q(1))
    assert roots == {(Q(1), Q(-1)), e2, e1, (Q(1), Q(1))}
    # rho = (3 alpha1 + 4 alpha2) / 2
    assert rs.dynkin_to_root((1, 1)) == (Q(3, 2), Q(2))
    assert rs.root_to_ortho(rs.dynkin_to_root((1, 1))) == rs.rho_ortho == (Q(3, 2), Q(1, 2))


def test_a1_smallest_case():
    rs = build_root_system("A", 1)
    assert rs.n_positive == 1


def test_b3_counts():
    rs = build_root_system("B", 3)
    assert rs.n_positive == 9
    assert polytope_degree("B", 3) == 6


def test_rho_has_unit_dynkin_labels():
    for family, rank in [("A", 3), ("B", 2), ("C", 4), ("D", 4), ("G2", 2), ("F4", 4), ("E6", 6)]:
        rs = build_root_system(family, rank)
        assert rs.ortho_to_dynkin(rs.rho_ortho) == (Q(1),) * rank


def test_cartan_matrix_definition():
    for family, rank in [("B", 2), ("G2", 2), ("F4", 4), ("C", 3)]:
        rs = build_root_system(family, rank)
        for i, a in enumerate(rs.simple_roots):
            for j, b in enumerate(rs.simple_roots):
                assert rs.cartan_matrix[i][j] == 2 * dot(a, b) / dot(b, b)


def test_unsupported_pairs_raise():
    for family, rank in [("B", 1), ("C", 1), ("D", 2), ("E6", 7), ("X", 2)]:
        with pytest.raises(UnsupportedAlgebraError):
            build_root_system(family, rank)


def test_exponents_sum_to_positive_count():
    for family, rank in ALL_ALGEBRAS:
        rs = build_root_system(family, rank)
        assert sum(rs.exponents) == rs.n_positive


# -- Weyl action -----------------------------------------------------------


def weyl_element_from_word(rs, word) -> WeylElement:
    """The product s_{word[0]} s_{word[1]} ... as one integer matrix."""
    w = WeylElement(_identity_matrix(rs.rank), 1)
    for i in word:
        s = simple_reflection(rs, i)
        w = WeylElement(_matmul(w.matrix, s.matrix), w.sign * s.sign)
    return w


def test_apply_weyl_identity():
    rs = build_root_system("B", 2)
    w = next(w for w in weyl_group(rs) if w.matrix == _identity_matrix(2))
    assert w.sign == 1
    assert apply_weyl(rs, w, (Q(17), Q(4))) == (Q(17), Q(4))


def test_apply_weyl_swap_and_flip():
    rs = build_root_system("B", 2)
    swap = simple_reflection(rs, 0)  # the reflection in alpha1 = e1 - e2
    assert swap.sign == -1
    assert apply_weyl(rs, swap, (Q(3), Q(7))) == (Q(7), Q(3))
    flip2 = simple_reflection(rs, 1)  # the reflection in alpha2 = e2
    assert apply_weyl(rs, flip2, (Q(3), Q(7))) == (Q(3), Q(-7))
    flip1 = weyl_element_from_word(rs, (0, 1, 0))
    assert flip1.sign == -1
    assert apply_weyl(rs, flip1, (Q(3), Q(7))) == (Q(-3), Q(7))


def test_b2_weyl_group_has_eight_elements_and_multiplicative_sign():
    rs = build_root_system("B", 2)
    table = weyl_group(rs)
    assert len({w.matrix for w in table}) == 8
    # on orthonormal pairs the eight elements are the eight signed permutations
    images = {apply_weyl(rs, w, (3, 7)) for w in table}
    assert images == {(s1 * y1, s2 * y2) for y1, y2 in ((3, 7), (7, 3)) for s1 in (1, -1) for s2 in (1, -1)}
    # sign is a homomorphism: eps(w w') = eps(w) eps(w')
    e1, e2 = (Q(1), Q(0)), (Q(0), Q(1))
    for w in table:
        for w2 in table:
            f1 = apply_weyl(rs, w2, apply_weyl(rs, w, e1))
            f2 = apply_weyl(rs, w2, apply_weyl(rs, w, e2))
            prod = next(u for u in table if apply_weyl(rs, u, e1) == f1 and apply_weyl(rs, u, e2) == f2)
            assert prod.sign == w.sign * w2.sign
        assert w.sign**2 == 1


def test_weyl_element_from_word():
    rs = build_root_system("B", 2)
    w = weyl_element_from_word(rs, (0, 1))  # s1 then s2
    assert w.sign == 1
    x = (Q(5), Q(2))
    via_word = apply_weyl(rs, w, x)
    s1 = weyl_element_from_word(rs, (0,))
    s2 = weyl_element_from_word(rs, (1,))
    composed = apply_weyl(rs, s1, apply_weyl(rs, s2, x))
    assert via_word == composed
    assert weyl_element_from_word(rs, ()).matrix == _identity_matrix(2)


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G2", 2)])
def test_weyl_matrices_are_integer(family, rank):
    rs = build_root_system(family, rank)
    elements = list(weyl_group(rs)) + [simple_reflection(rs, i) for i in range(rank)]
    elements.append(weyl_element_from_word(rs, range(rank)))
    assert all(type(x) is int for w in elements for row in w.matrix for x in row)


def test_weyl_group_sizes():
    assert len(weyl_group(build_root_system("B", 3))) == 48
    assert len(weyl_group(build_root_system("A", 3))) == 24
    assert len(weyl_group(build_root_system("G2"))) == 12


# -- dimensions and Delta ----------------------------------------------------


def test_weyl_dimension_known_values():
    b2 = build_root_system("B", 2)
    assert weyl_dimension(b2, (0, 0)) == 1
    assert weyl_dimension(b2, (1, 0)) == 5
    b3 = build_root_system("B", 3)
    assert weyl_dimension(b3, (0, 1, 0)) == 21
    dims = [weyl_dimension(b3, w) for w in
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 0, 0), (0, 0, 2), (1, 1, 0), (1, 0, 2)]]
    assert dims == [1, 7, 21, 27, 35, 105, 189]


def test_weyl_dimension_positive_and_one_only_at_zero():
    b2 = build_root_system("B", 2)
    for a in range(4):
        for b in range(4):
            d = weyl_dimension(b2, (a, b))
            assert d >= 1
            assert (d == 1) == (a == b == 0)


def test_weyl_dimension_rejects_non_dominant():
    b2 = build_root_system("B", 2)
    with pytest.raises(NonDominantWeightError):
        weyl_dimension(b2, (-1, 0))
    with pytest.raises(NonDominantWeightError):
        weyl_dimension(b2, (Q(1, 2), Q(0)))


def test_delta_vanishes_on_wall():
    b2 = build_root_system("B", 2)
    assert delta_g(b2, (Q(3), Q(3))) == 0


def test_delta_reproduces_weyl_dimension():
    b2 = build_root_system("B", 2)
    rho = b2.rho_ortho
    lam_rho = (Q(5, 2), Q(1, 2))  # (1,0) + rho
    assert delta_g(b2, lam_rho) / delta_g(b2, rho) == weyl_dimension(b2, (1, 0)) == 5


def test_delta_a2_rho():
    a2 = build_root_system("A", 2)
    assert delta_g(a2, a2.rho_ortho) == 2


def test_delta_skew_invariance():
    rs = build_root_system("B", 2)
    rng = random.Random(11)
    for _ in range(10):
        x = (Q(rng.randint(-20, 20), rng.randint(1, 7)), Q(rng.randint(-20, 20), rng.randint(1, 7)))
        base = delta_g(rs, x)
        for w in weyl_group(rs):
            assert delta_g(rs, apply_weyl(rs, w, x)) == w.sign * base


# -- normalization constants -------------------------------------------------


def test_kappa_g_K_factors():
    assert kappa_constants(build_root_system("B", 2)).K == 4
    assert kappa_constants(build_root_system("B", 3)).K == 8
    assert kappa_constants(build_root_system("B", 4)).K == 16
    for fam, r in [("A", 3), ("D", 4), ("E6", 6)]:
        assert kappa_constants(build_root_system(fam, r)).K == 1
    assert kappa_constants(build_root_system("G2")).K == 27
    assert kappa_constants(build_root_system("C", 3)).K == 2**6
    assert kappa_constants(build_root_system("F4")).K == 2**12


def test_kappa_g_prefactor_formula():
    # kappa_g = (2 pi)^{N_r} K / prod exponents!
    for fam, r in [("A", 2), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G2", 2), ("F4", 4)]:
        rs = build_root_system(fam, r)
        k = kappa_constants(rs)
        prod = 1
        for e in rs.exponents:
            prod *= factorial(e)
        assert k.prefactor == Q(k.K, prod)
        assert k.two_pi_exponent == rs.n_positive


def test_kappa_g_of_su_n_and_b2():
    # kappa_{su(n)} = (2 pi)^{n(n-1)/2} / prod_{j<n} j!
    for n in range(2, 7):
        kg = kappa_constants(build_root_system("A", n - 1))
        prod = 1
        for j in range(1, n):
            prod *= factorial(j)
        assert kg.prefactor == Q(1, prod)
        assert kg.two_pi_exponent == n * (n - 1) // 2
    # the reciprocal of the B2 prefactor is the 3/2 of the Horn density
    assert kappa_constants(build_root_system("B", 2)).prefactor == Q(2, 3)


# -- compatibility and coordinate conversions ----------------------------------


def test_compatibility_examples():
    b2 = build_root_system("B", 2)
    assert not is_compatible(b2, (0, 1), (0, 1), (0, 1))
    assert is_compatible(b2, (1, 0), (1, 0), (1, 0))
    assert is_compatible(b2, (3, 5), (2, 1), (5, 6))


def test_compatibility_sigma_zero():
    for fam, r in [("B", 2), ("A", 3), ("G2", 2)]:
        rs = build_root_system(fam, r)
        lam = tuple(range(1, r + 1))
        mu = tuple(1 for _ in range(r))
        assert is_compatible(rs, lam, mu, tuple(a + b for a, b in zip(lam, mu)))


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G2", 2), ("F4", 4), ("E6", 6)])
def test_basis_round_trips(family, rank):
    rs = build_root_system(family, rank)
    rng = random.Random(rank * 101 + ord(family[0]))
    for _ in range(5):
        coords = tuple(Q(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(rank))
        # coords as Dynkin labels
        c = rs.dynkin_to_root(coords)
        assert rs.root_to_dynkin(c) == coords
        assert rs.ortho_to_dynkin(rs.root_to_ortho(c)) == coords
        # coords as simple-root coordinates
        x = rs.root_to_ortho(coords)
        assert rs.ortho_to_root(x) == coords
        assert rs.dynkin_to_root(rs.ortho_to_dynkin(x)) == coords
        assert rs.dynkin_to_root(rs.root_to_dynkin(coords)) == coords


def test_vectors_off_the_root_span_raise():
    a3 = build_root_system("A", 3)
    off = (1, 1, 1, 1)
    with pytest.raises(InconsistentSystemError):
        a3.ortho_to_root(off)
    with pytest.raises(InconsistentSystemError):
        apply_weyl(a3, weyl_group(a3)[0], off)
    assert a3.ortho_to_root((1, 0, 0, -1)) == (1, 1, 1)


LENGTH_CHECKED = {
    "dynkin_to_root": (lambda rs, v: rs.dynkin_to_root(v), "rank", "Dynkin labels"),
    "root_to_dynkin": (lambda rs, v: rs.root_to_dynkin(v), "rank", "simple-root coordinates"),
    "root_to_ortho": (lambda rs, v: rs.root_to_ortho(v), "rank", "simple-root coordinates"),
    "ortho_to_root": (lambda rs, v: rs.ortho_to_root(v), "ambient_dim", "orthonormal coordinates"),
    "ortho_to_dynkin": (lambda rs, v: rs.ortho_to_dynkin(v), "ambient_dim", "orthonormal coordinates"),
    "delta_g": (delta_g, "ambient_dim", "orthonormal coordinates"),
    "apply_weyl": (lambda rs, v: apply_weyl(rs, weyl_group(rs)[-1], v), "ambient_dim", "orthonormal coordinates"),
    "act_root": (lambda rs, v: weyl_group(rs)[1].act_root(v), "rank", "simple-root coordinates"),
}


@pytest.mark.parametrize("algebra", [("B", 2), ("A", 2)])
@pytest.mark.parametrize("name", sorted(LENGTH_CHECKED))
@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_conversions_refuse_a_wrong_length(name, algebra, extra):
    rs = build_root_system(*algebra)
    convert, size, what = LENGTH_CHECKED[name]
    n = getattr(rs, size)
    with pytest.raises(ValueError, match=f"needs {n} {what}"):
        convert(rs, tuple(range(1, n + extra + 1)))


# -- labels and the integer Dynkin-to-root map ---------------------------------


def test_label_reader():
    b2 = build_root_system("B", 2)
    assert b2.labels((Q(5), 6)) == (5, 6)
    assert all(type(v) is int for v in b2.labels((Q(5), Q(6))))
    assert b2.labels(b2.ortho_to_dynkin((Q(3, 2), Q(1, 2)))) == (1, 1)  # rho
    assert b2.labels((-1, 2)) == (-1, 2)
    with pytest.raises(ValueError, match="needs 2 Dynkin labels"):
        b2.labels((1, 0, 7))
    with pytest.raises(NonDominantWeightError, match="not an integral weight"):
        b2.labels((Q(3, 2), 2))


def test_label_count_is_checked():
    b2 = build_root_system("B", 2)
    with pytest.raises(ValueError, match="needs 2 Dynkin labels"):
        is_compatible(b2, (5, 6, 0), (3, 4), (6, 4))
    with pytest.raises(ValueError, match="needs 2 Dynkin labels"):
        is_compatible(b2, (5, 6), (3, 4), (6,))
    with pytest.raises(ValueError, match="needs 2 Dynkin labels"):
        weyl_dimension(b2, (1, 0, 7))
    with pytest.raises(ValueError, match="needs 2 Dynkin labels"):
        b2.dynkin_to_root((1,))
    for bad in ((1, 2, 3), (-1,), ()):
        with pytest.raises(ValueError, match="needs 2 Dynkin labels"):
            reflect_to_dominant(b2, bad)


def reference_dynkin_to_root(rs, a):
    """Solve a_j = sum_i c_i C[i][j] for the simple-root coordinates c."""
    n = rs.rank
    At = [[Q(rs.cartan_matrix[i][j]) for i in range(n)] for j in range(n)]
    return tuple(solve_square(At, [Q(v) for v in a]))


@pytest.mark.parametrize("family,rank", ALL_ALGEBRAS)
def test_dynkin_to_root_matches_a_solve_square_reference_on_unit_labels(family, rank):
    rs = build_root_system(family, rank)
    for i in range(rank):
        unit = tuple(int(j == i) for j in range(rank))
        assert rs.dynkin_to_root(unit) == reference_dynkin_to_root(rs, unit)
    d, scaled = rs.root_scale
    # d is the least scale that makes C^-T integral
    assert all(type(v) is int for row in scaled for v in row)
    assert gcd(d, *(v for row in scaled for v in row)) == 1


def test_a_singular_cartan_matrix_raises():
    # the affine A1 Cartan matrix has determinant 0, so C^-T does not exist
    with pytest.raises(InvariantError, match="singular"):
        rootsys._scaled_inverse_transpose(((2, -2), (-2, 2)))


def rational_labels(rank: int):
    label = st.integers(1, 3).flatmap(lambda q: st.builds(Q, st.integers(-9 * q, 9 * q), st.just(q)))
    return st.lists(label, min_size=rank, max_size=rank).map(lambda a: tuple(int(v) if v.denominator == 1 else v for v in a))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([("A", 2), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G2", None), ("F4", None), ("E6", None)]),
       st.data())
def test_is_compatible_matches_a_solve_square_reference(algebra, data):
    rs = build_root_system(*algebra)
    lam, mu, nu = (data.draw(rational_labels(rs.rank)) for _ in range(3))
    sigma = tuple(Q(x) + y - z for x, y, z in zip(lam, mu, nu))
    expected = reference_dynkin_to_root(rs, sigma)
    assert rs.dynkin_to_root(sigma) == expected
    assert is_compatible(rs, lam, mu, nu) == all(v.denominator == 1 for v in expected)
    # sigma = 0 and sigma = a root are always compatible
    assert is_compatible(rs, lam, (0,) * rs.rank, lam)
    root = data.draw(st.sampled_from(rs.positive_roots_rb))
    alpha = tuple(sum(c * rs.cartan_matrix[i][j] for i, c in enumerate(root)) for j in range(rs.rank))
    assert is_compatible(rs, lam, alpha, lam)


def is_compatible_through_fractions(rs, lam, mu, nu) -> bool:
    """is_compatible with every weight read as Fraction labels."""
    a, b, c = (rs.scaled_root(tuple(map(Q, w))) for w in (lam, mu, nu))
    return all((x + y - z) % rs.root_scale[0] == 0 for x, y, z in zip(a, b, c))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([("A", 2), ("B", 2), ("B", 3), ("G2", None)]), st.data())
def test_integer_labels_agree_with_the_fraction_path(algebra, data):
    rs = build_root_system(*algebra)
    integer = st.tuples(*[st.integers(-12, 12)] * rs.rank)
    label = st.one_of(integer, rational_labels(rs.rank), integer.map(lambda a: tuple(map(Q, a))))
    lam, mu, nu = (data.draw(label) for _ in range(3))
    assert is_compatible(rs, lam, mu, nu) == is_compatible_through_fractions(rs, lam, mu, nu)


def weyl_images_reference(rs, a):
    """(eps(w), Dynkin labels of w a) for every w of weyl_group(rs), through simple-root coordinates."""
    d, cart, n = rs.root_scale[0], rs.cartan_matrix, rs.rank
    c = rs.scaled_root(a)
    out = []
    for w in weyl_group(rs):
        wc = [sum(m * x for m, x in zip(row, c)) for row in w.matrix]
        scaled = [sum(wc[i] * cart[i][j] for i in range(n)) for j in range(n)]
        assert all(v % d == 0 for v in scaled)
        out.append((w.sign, tuple(v // d for v in scaled)))
    return out


DOMINANCE_ALGEBRAS = [("A", 2), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G2", None), ("F4", None)]


@st.composite
def labels_in_some_chamber(draw):
    """(algebra, labels in [-12, 12]); half of them a wall point moved by simple reflections."""
    rs = build_root_system(*draw(st.sampled_from(DOMINANCE_ALGEBRAS)))
    a = list(draw(st.tuples(*[st.integers(-12, 12)] * rs.rank)))
    if draw(st.booleans()):
        a[draw(st.integers(0, rs.rank - 1))] = 0
        for i in draw(st.lists(st.integers(0, rs.rank - 1), max_size=6)):
            a = [x - a[i] * c for x, c in zip(a, rs.cartan_matrix[i])]
        a = [max(-12, min(12, x)) for x in a]
    return rs, tuple(a)


@settings(max_examples=300, deadline=None)
@given(labels_in_some_chamber())
def test_reflect_to_dominant_matches_a_weyl_group_search(case):
    rs, a = case
    dominant = [(sign, b) for sign, b in weyl_images_reference(rs, a) if min(b) >= 0]
    image = dominant[0][1]
    assert all(b == image for _, b in dominant)  # one dominant image
    if min(image) > 0:  # regular: one element maps a into the open chamber
        assert len(dominant) == 1
        expected = (image, dominant[0][0])
    else:
        expected = (image, 0)
    assert reflect_to_dominant(rs, a) == expected
    assert reflect_to_dominant(rs, list(a)) == expected


# -- every entry point answers or refuses ---------------------------------------


@st.composite
def algebra_requests(draw):
    """(family, rank) as a caller may pass them: valid, below the minimum rank,
    an exceptional algebra with a wrong rank, or an unknown family."""
    family = draw(st.sampled_from(rootsys.FAMILIES + ("b", "g2", "X", "E9", "H3", "")))
    return family, draw(st.one_of(st.none(), st.integers(-2, 8)))


def expected_rank(family, rank):
    """The rank build_root_system must give, or None where it must refuse."""
    family = family.upper()
    if family in rootsys.EXCEPTIONAL_RANK:
        fixed = rootsys.EXCEPTIONAL_RANK[family]
        return fixed if rank in (None, fixed) else None
    if family in rootsys.CLASSICAL_MIN_RANK and rank is not None and rank >= rootsys.CLASSICAL_MIN_RANK[family]:
        return rank
    return None


def coordinates(n: int):
    """n - 1, n or n + 1 entries, all ints in [-1, 4], all ints in [-4, 4] or
    Fractions of denominator up to 3 (integral ones among them)."""
    entries = st.sampled_from([st.integers(-1, 4), st.integers(-4, 4), st.fractions(-4, 4, max_denominator=3)])
    sizes = st.integers(max(0, n - 1), n + 1)
    return st.tuples(entries, sizes).flatmap(lambda es: st.lists(es[0], min_size=es[1], max_size=es[1]).map(tuple))


def refuses(call, error=ValueError) -> bool:
    """True when call raises error; any other exception propagates."""
    try:
        call()
    except error:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(algebra_requests(), st.data())
def test_entry_points_answer_or_refuse(request, data):
    family, rank = request
    want = expected_rank(family, rank)
    if want is None:
        assert refuses(lambda: build_root_system(family, rank), UnsupportedAlgebraError)
        return
    rs = build_root_system(family, rank)
    assert (rs.rank, rs.n_positive) == (want, positive_root_count(rs.family, want))
    n, dim = rs.rank, rs.ambient_dim
    lam, mu, nu = (data.draw(coordinates(n)) for _ in range(3))
    x = data.draw(coordinates(dim))
    sized = len(lam) == n
    integral = all(Q(v).denominator == 1 for v in lam)

    # labels: the count, then integrality
    if not sized:
        assert refuses(lambda: rs.labels(lam))
    elif not integral:
        assert refuses(lambda: rs.labels(lam), NonDominantWeightError)
    else:
        assert rs.labels(lam) == lam and all(type(v) is int for v in rs.labels(lam))

    # the conversions on Dynkin labels and simple-root coordinates
    for convert in (rs.scaled_root, rs.dynkin_to_root, rs.root_to_dynkin, rs.root_to_ortho):
        assert refuses(lambda: convert(lam)) == (not sized)
    if sized:
        c = reference_dynkin_to_root(rs, lam)
        assert rs.dynkin_to_root(lam) == c
        assert rs.scaled_root(lam) == tuple(rs.root_scale[0] * v for v in c)
        assert rs.root_to_dynkin(c) == lam
        ortho = rs.root_to_ortho(c)
        assert tuple(solve_in_span(rs.simple_roots, ortho)) == c
        assert rs.ortho_to_dynkin(ortho) == lam
        assert rs.ortho_to_root(ortho) == c

    # the conversions on orthonormal coordinates: the length, then the root span
    if len(x) != dim:
        for convert in (rs.ortho_to_dynkin, rs.ortho_to_root, lambda v: delta_g(rs, v)):
            assert refuses(lambda: convert(x))
    else:
        assert rs.ortho_to_dynkin(x) == tuple(2 * dot(x, a) / dot(a, a) for a in rs.simple_roots)
        in_span = not refuses(lambda: solve_in_span(rs.simple_roots, x), InconsistentSystemError)
        if in_span:
            assert rs.ortho_to_root(x) == tuple(solve_in_span(rs.simple_roots, x))
        else:
            assert refuses(lambda: rs.ortho_to_root(x), InconsistentSystemError)
        # <alpha, x> = sum_i c_i <alpha_i, x> for alpha = sum_i c_i alpha_i
        pairings = [dot(a, x) for a in rs.simple_roots]
        expected = Q(1)
        for key in rs.positive_roots_rb:
            expected *= dot(key, pairings)
        assert delta_g(rs, x) == expected

    # the Weyl dimension: the count, integrality, then dominance
    if not (sized and integral and min(lam, default=0) >= 0):
        assert refuses(lambda: weyl_dimension(rs, lam))
    else:
        shifted = rs.root_to_ortho(rs.dynkin_to_root([v + 1 for v in lam]))
        assert weyl_dimension(rs, lam) == delta_g(rs, shifted) / delta_g(rs, rs.rho_ortho)

    # the dominant image: dominant, above lam, same length, and Delta(lam) = sign Delta(image)
    if not sized:
        assert refuses(lambda: reflect_to_dominant(rs, lam))
    else:
        image, sign = reflect_to_dominant(rs, lam)
        assert min(image) >= 0 and (sign == 0) == (min(image) == 0) and sign in (-1, 0, 1)
        below = rs.dynkin_to_root([p - q for p, q in zip(image, lam)])
        assert min(below) >= 0
        here, there = (rs.root_to_ortho(rs.dynkin_to_root(w)) for w in (lam, image))
        assert dot(here, here) == dot(there, there)
        assert delta_g(rs, here) == sign * delta_g(rs, there)

    # compatibility: every count, then the root lattice
    if len(lam) != n or len(mu) != n or len(nu) != n:
        assert refuses(lambda: is_compatible(rs, lam, mu, nu))
    else:
        sigma = reference_dynkin_to_root(rs, [Q(p) + q - r for p, q, r in zip(lam, mu, nu)])
        assert is_compatible(rs, lam, mu, nu) == all(v.denominator == 1 for v in sigma)

    # kappa_g: K / prod_i (exponent_i!) times (2 pi)^N
    kg = kappa_constants(rs)
    prod = 1
    for e in rs.exponents:
        prod *= factorial(e)
    assert kg.K > 0 and kg.prefactor == Q(kg.K, prod) and kg.two_pi_exponent == rs.n_positive
