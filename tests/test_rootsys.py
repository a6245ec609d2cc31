import random
from fractions import Fraction as Q
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornvol import rootsys
from hornvol._exact import InconsistentSystemError, InvariantError, dot, solve_square
from hornvol.rootsys import (
    UnsupportedAlgebraError,
    Weight,
    WeylElement,
    _identity_matrix,
    _matmul,
    apply_weyl,
    b2_weyl_element,
    b2_weyl_table,
    build_root_system,
    delta_g,
    is_compatible,
    kappa_constants,
    kappa_theta,
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
    assert rs.ortho(rs.weyl_vector) == (Q(3, 2), Q(1, 2))


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


def test_apply_weyl_identity():
    rs = build_root_system("B", 2)
    w = b2_weyl_element(False, 1, 1)
    assert w.sign == 1
    x = Weight((Q(17), Q(4)), "ortho")
    assert apply_weyl(rs, w, x).coords == (Q(17), Q(4))


def test_apply_weyl_swap_and_flip():
    rs = build_root_system("B", 2)
    swap = b2_weyl_element(True, 1, 1)
    assert swap.sign == -1
    assert apply_weyl(rs, swap, Weight((Q(3), Q(7)), "ortho")).coords == (Q(7), Q(3))
    flip1 = b2_weyl_element(False, -1, 1)
    assert flip1.sign == -1
    assert apply_weyl(rs, flip1, Weight((Q(3), Q(7)), "ortho")).coords == (Q(-3), Q(7))


def test_b2_weyl_group_has_eight_elements_and_multiplicative_sign():
    rs = build_root_system("B", 2)
    table = b2_weyl_table()
    assert len({w.matrix for w in table}) == 8
    assert {w.matrix for w in table} == {w.matrix for w in weyl_group(rs)}
    # sign is a homomorphism: eps(w w') = eps(w) eps(w')
    by_matrix = {w.matrix: w.sign for w in table}
    for w in table:
        e1 = apply_weyl(rs, w, Weight((Q(1), Q(0)), "ortho")).coords
        e2 = apply_weyl(rs, w, Weight((Q(0), Q(1)), "ortho")).coords
        for w2 in table:
            f1 = apply_weyl(rs, w2, Weight(e1, "ortho")).coords
            f2 = apply_weyl(rs, w2, Weight(e2, "ortho")).coords
            prod = next(
                u for u in table
                if apply_weyl(rs, u, Weight((Q(1), Q(0)), "ortho")).coords == f1
                and apply_weyl(rs, u, Weight((Q(0), Q(1)), "ortho")).coords == f2
            )
            assert prod.sign == w.sign * w2.sign
        assert w.sign**2 == 1


def weyl_element_from_word(rs, word) -> WeylElement:
    """The product s_{word[0]} s_{word[1]} ... as one integer matrix."""
    w = WeylElement(_identity_matrix(rs.rank), 1, "e")
    for i in word:
        s = simple_reflection(rs, i)
        w = WeylElement(
            _matmul(w.matrix, s.matrix),
            w.sign * s.sign,
            (w.label + "." if w.label != "e" else "") + s.label,
        )
    return w


def test_weyl_element_from_word():
    rs = build_root_system("B", 2)
    w = weyl_element_from_word(rs, (0, 1))  # s1 then s2
    assert w.sign == 1
    x = Weight((Q(5), Q(2)), "ortho")
    via_word = apply_weyl(rs, w, x).coords
    s1 = weyl_element_from_word(rs, (0,))
    s2 = weyl_element_from_word(rs, (1,))
    composed = apply_weyl(rs, s1, apply_weyl(rs, s2, x)).coords
    assert via_word == composed
    assert weyl_element_from_word(rs, ()).matrix == b2_weyl_element(False, 1, 1).matrix


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G2", 2)])
def test_weyl_matrices_are_integer(family, rank):
    rs = build_root_system(family, rank)
    elements = list(weyl_group(rs)) + [simple_reflection(rs, i) for i in range(rank)]
    elements.append(weyl_element_from_word(rs, range(rank)))
    if (family, rank) == ("B", 2):
        elements.extend(b2_weyl_table())
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
        weyl_dimension(b2, Weight((Q(1, 2), Q(0)), "dynkin"))


def test_delta_vanishes_on_wall():
    b2 = build_root_system("B", 2)
    assert delta_g(b2, Weight((Q(3), Q(3)), "ortho")) == 0


def test_delta_reproduces_weyl_dimension():
    b2 = build_root_system("B", 2)
    rho = Weight(b2.rho_ortho, "ortho")
    lam_rho = Weight((Q(5, 2), Q(1, 2)), "ortho")  # (1,0) + rho
    assert delta_g(b2, lam_rho) / delta_g(b2, rho) == weyl_dimension(b2, (1, 0)) == 5


def test_delta_a2_rho():
    a2 = build_root_system("A", 2)
    assert delta_g(a2, Weight(a2.rho_ortho, "ortho")) == 2


def test_delta_skew_invariance():
    rs = build_root_system("B", 2)
    rng = random.Random(11)
    for _ in range(10):
        x = Weight((Q(rng.randint(-20, 20), rng.randint(1, 7)),
                    Q(rng.randint(-20, 20), rng.randint(1, 7))), "ortho")
        base = delta_g(rs, x)
        for w in b2_weyl_table():
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


def test_kappa_theta_values():
    k = kappa_theta(1, 2)
    assert (k.rational, k.sqrt_pi_exponent, k.two_pi_exponent) == (1, 0, 1)  # 2 pi
    k = kappa_theta(2, 2)
    assert (k.rational, k.sqrt_pi_exponent, k.two_pi_exponent) == (Q(1, 6), 0, 2)
    with pytest.raises(ValueError):
        kappa_theta(Q(1, 3), 2)
    with pytest.raises(ValueError):
        kappa_theta(1, 1)


def test_kappa_theta_matches_su_n():
    # kappa_{su(n)} = kappa_1 for every n
    for n in range(2, 7):
        rs = build_root_system("A", n - 1)
        kg = kappa_constants(rs)
        kt = kappa_theta(1, n)
        assert kt.sqrt_pi_exponent == 0
        assert kt.two_pi_exponent == kg.two_pi_exponent == Q(n * (n - 1), 2)
        assert kt.rational == kg.prefactor


# -- compatibility and bases -------------------------------------------------


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
        for basis in ("dynkin", "root"):
            w = Weight(coords, basis)
            for via in ("ortho", "root", "dynkin"):
                back = rs.to_basis(rs.to_basis(w, via), basis)
                assert back.coords == coords


def test_vectors_off_the_root_span_raise():
    a3 = build_root_system("A", 3)
    off = (1, 1, 1, 1)
    with pytest.raises(InconsistentSystemError):
        a3.ortho_to_root(off)
    with pytest.raises(InconsistentSystemError):
        a3.to_basis(Weight(off, "ortho"), "root")
    with pytest.raises(InconsistentSystemError):
        a3.to_basis(Weight(off, "ortho"), "dynkin")
    assert a3.ortho_to_root((1, 0, 0, -1)) == (1, 1, 1)


def test_basis_aliases():
    w = Weight((1, 2), "SimpleRoot")
    assert w.basis == "root"
    assert Weight((1, 2), "Orthonormal").basis == "ortho"


# -- labels and the integer Dynkin-to-root map ---------------------------------


def test_label_reader():
    b2 = build_root_system("B", 2)
    assert b2.labels((Q(5), 6)) == (5, 6)
    assert all(type(v) is int for v in b2.labels((Q(5), Q(6))))
    assert b2.labels(Weight((3, 4))) == (3, 4)
    assert b2.labels(Weight((Q(3, 2), Q(1, 2)), "ortho")) == (1, 1)  # rho
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
    """is_compatible with every weight read as Fraction labels by rs.dynkin."""
    a, b, c = (rs.scaled_root(rs.dynkin(w)) for w in (lam, mu, nu))
    return all((x + y - z) % rs.root_scale[0] == 0 for x, y, z in zip(a, b, c))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([("A", 2), ("B", 2), ("B", 3), ("G2", None)]), st.data())
def test_integer_labels_agree_with_the_fraction_path(algebra, data):
    rs = build_root_system(*algebra)
    integer = st.tuples(*[st.integers(-12, 12)] * rs.rank)
    label = st.one_of(integer, rational_labels(rs.rank), integer.map(Weight),
                      integer.map(lambda a: tuple(map(Q, a))))
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
