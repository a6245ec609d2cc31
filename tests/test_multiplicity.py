import dataclasses
import itertools
import random
from fractions import Fraction as Q
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hornvol import multiplicity, rootsys
from hornvol._exact import InvariantError
from hornvol.multiplicity import (
    SizeGuardError,
    freudenthal_weights,
    kostant_partition,
    kostant_values,
    lr_klimyk,
    lr_steinberg,
    lr_steinberg_table,
    lr_triple,
    tensor_decompose,
)
from hornvol.rootsys import (
    UnsupportedAlgebraError,
    build_root_system,
    is_compatible,
    reflect_to_dominant,
    weyl_dimension,
    weyl_elements,
    weyl_group,
)

B2 = build_root_system("B", 2)
B3 = build_root_system("B", 3)


# -- independent oracles -----------------------------------------------------


def kostant_multiplicity_oracle(rs, lam, kappa):
    """mult_lam(kappa) = sum_w eps(w) P(w(lam+rho) - kappa - rho)."""
    lam_rb = rs.dynkin_to_root(tuple(v + 1 for v in lam))
    kap_rb = rs.dynkin_to_root(tuple(v + 1 for v in kappa))
    total = 0
    for w in weyl_group(rs):
        sigma = tuple(a - b for a, b in zip(w.act_root(lam_rb), kap_rb))
        total += w.sign * kostant_partition(rs, sigma)
    return total


def weyl_image(rs, w, a):
    """The Dynkin labels of w a, through simple-root coordinates."""
    return tuple(int(v) for v in rs.root_to_dynkin(w.act_root(rs.dynkin_to_root(a))))


def brute_force_kostant_b2(m, n):
    """Exhaustive enumeration over the four positive roots a1, a2, a1+a2, a1+2a2."""
    count = 0
    for t3 in range(m + 1):
        for t4 in range(m - t3 + 1):
            t1 = m - t3 - t4
            t2 = n - t3 - 2 * t4
            if t1 >= 0 and t2 >= 0:
                count += 1
    return count


# -- Freudenthal -------------------------------------------------------------


def test_spinor_weight_system():
    weights = freudenthal_weights(B2, (0, 1))
    # brute-force oracle: the Weyl orbit of omega2 has 4 elements, all mult 1
    orbit = {weyl_image(B2, w, (0, 1)) for w in weyl_group(B2)}
    assert len(orbit) == 4
    assert weights == dict.fromkeys(orbit, 1)
    assert sum(weights.values()) == weyl_dimension(B2, (0, 1)) == 4


def test_adjoint_zero_weight_multiplicity():
    weights = freudenthal_weights(B2, (0, 2))
    assert weights[(0, 0)] == 2
    assert weights[(0, 0)] == kostant_multiplicity_oracle(B2, (0, 2), (0, 0))


def test_trivial_rep():
    assert freudenthal_weights(B2, (0, 0)) == {(0, 0): 1}


@pytest.mark.parametrize("lam", [(1, 0), (2, 1), (0, 3), (3, 2)])
def test_freudenthal_against_kostant_formula(lam):
    weights = freudenthal_weights(B2, lam)
    assert sum(weights.values()) == weyl_dimension(B2, lam)
    for kappa, mult in weights.items():
        if all(v >= 0 for v in kappa):
            assert mult == kostant_multiplicity_oracle(B2, lam, kappa)


def test_weight_system_closed_under_weyl():
    weights = freudenthal_weights(B2, (2, 2))
    for kappa, mult in weights.items():
        for w in weyl_group(B2):
            assert weights.get(weyl_image(B2, w, kappa)) == mult


def test_size_guard_and_family_guard():
    with pytest.raises(SizeGuardError):
        freudenthal_weights(B2, (31, 31))  # dim 1,048,576 > DEFAULT_DIM_CAP
    with pytest.raises(UnsupportedAlgebraError):
        freudenthal_weights(build_root_system("E7"), (1, 0, 0, 0, 0, 0, 0))


def _reflect_first_negative(cart, a):
    """Dominant image of Dynkin labels a, always reflecting in the first negative label."""
    a = list(a)
    while (i := next((k for k, v in enumerate(a) if v < 0), None)) is not None:
        ai = a[i]
        a = [x - ai * c for x, c in zip(a, cart[i])]
    return tuple(a)


def freudenthal_reference(rs, lam):
    """{Dynkin labels: multiplicity} of V_lam by Freudenthal, reflecting each lookup.

    The same candidate set, level order and integer inner products as the
    library, but m(mu + k alpha) is read at the dominant image of mu + k alpha
    in a table of dominant weights, for every k while mu + k alpha <= lam,
    and the orbits are expanded only at the end.
    """
    h, cart, n = rs.half_norms, rs.cartan_matrix, rs.rank
    zero = (0,) * n
    cand = {zero: (tuple(lam), 0)}
    frontier = [zero]
    while frontier:
        new = []
        for off in frontier:
            dyn, t = cand[off]
            for i in range(n):
                off2 = tuple(off[j] + (j == i) for j in range(n))
                t2 = t + 2 * h[i] * (dyn[i] - 1)
                if off2 not in cand and t2 >= 0:
                    cand[off2] = (tuple(dyn[j] - cart[i][j] for j in range(n)), t2)
                    new.append(off2)
        frontier = new
    dominants = sorted((off for off, (dyn, _) in cand.items() if min(dyn) >= 0), key=sum)
    mult = {tuple(lam): 1}
    for off in dominants[1:]:
        dyn, t = cand[off]
        num = 0
        for rb in rs.positive_roots_rb:
            hc = [r * hi for r, hi in zip(rb, h)]
            alpha = [sum(r * cart[i][j] for i, r in enumerate(rb)) for j in range(n)]
            k = 1
            while min(o - k * r for o, r in zip(off, rb)) >= 0:
                off_k = tuple(o - k * r for o, r in zip(off, rb))
                if off_k in cand:
                    m = mult.get(_reflect_first_negative(cart, cand[off_k][0]), 0)
                    num += m * sum(c * (d + k * a) for c, d, a in zip(hc, dyn, alpha))
                k += 1
        if num:
            den = t + 2 * sum(o * hi for o, hi in zip(off, h))
            assert 2 * num % den == 0
            mult[dyn] = 2 * num // den
    entries = {}
    for dyn, m in mult.items():
        orbit, frontier = {dyn}, [dyn]
        while frontier:
            frontier = {tuple(a[j] - a[i] * cart[i][j] for j in range(n)) for a in frontier for i in range(n)} - orbit
            orbit |= frontier
        entries.update(dict.fromkeys(orbit, m))
    return entries


def all_label_orbit(cart, start):
    """The Weyl orbit of `start` as the closure under s_i a = a - a_i C[i] for every label i."""
    n = len(start)
    orbit, frontier = {start}, {start}
    while frontier:
        frontier = {tuple(a[j] - a[i] * cart[i][j] for j in range(n)) for a in frontier for i in range(n)} - orbit
        orbit |= frontier
    return orbit


@pytest.mark.parametrize("algebra, top", [
    (("A", 4), 2), (("B", 4), 2), (("C", 3), 2), (("D", 4), 2), (("G2", None), 2), (("F4", None), 2),
    # which labels of an orbit point are positive depends only on which labels
    # of its dominant start are nonzero, so labels <= 1 meet every case that
    # labels <= 2 do; E6 at labels <= 2 holds 11.8 million orbit points
    (("E6", None), 1),
])
def test_positive_label_orbits_equal_the_all_label_closure(algebra, top):
    rs = build_root_system(*algebra)
    for lam in itertools.product(range(top + 1), repeat=rs.rank):
        assert multiplicity._weyl_orbit_dynkin(rs, lam) == all_label_orbit(rs.cartan_matrix, lam)


TABLE_ALGEBRAS = {2: [build_root_system("B", 2), build_root_system("G2")],
                  3: [build_root_system(*name) for name in (("A", 3), ("B", 3), ("C", 3))]}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(TABLE_ALGEBRAS)), st.data())
def test_the_weyl_tables_equal_their_uncached_functions(rank, data):
    """The orbit of dominant labels 0..3 and the dominant image of labels -6..6 in every algebra of one rank
    (B2 and G2; A3, B3 and C3), each read twice, the second time from the table: the same labels in
    another algebra must not read the first one's entry.  Each table stays within its finite maxsize."""
    start = data.draw(st.tuples(*[st.integers(0, 3)] * rank))
    a = data.draw(st.tuples(*[st.integers(-6, 6)] * rank))
    for rs in TABLE_ALGEBRAS[rank] * 2:
        assert multiplicity._weyl_orbit(rs.family, rs.rank, start) == multiplicity._weyl_orbit_dynkin(rs, start)
        assert multiplicity._dominant_image(rs.family, rs.rank, a) == reflect_to_dominant(rs, a)
    for table in (multiplicity._weyl_orbit, multiplicity._dominant_image):
        info = table.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize


REFERENCE_ALGEBRAS = {name: build_root_system(*name) for name in (("A", 2), ("B", 2), ("B", 3), ("C", 3), ("G2", None))}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(REFERENCE_ALGEBRAS, key=str)), st.data())
def test_freudenthal_equals_the_per_lookup_reference(name, data):
    rs = REFERENCE_ALGEBRAS[name]
    lam = data.draw(st.tuples(*[st.integers(0, 9 if rs.rank == 2 else 3)] * rs.rank))
    assert freudenthal_weights(rs, lam) == freudenthal_reference(rs, lam)


@pytest.mark.parametrize("algebra, lam", [
    (("D", 4), (1, 1, 0, 1)),
    (("D", 4), (1, 1, 1, 1)),
    (("F4", None), (1, 0, 0, 1)),
    (("F4", None), (1, 1, 0, 0)),
    (("B", 2), (20, 20)),
    (("B", 3), (4, 4, 4)),
    (("E6", None), (1, 0, 0, 0, 0, 1)),
])
def test_freudenthal_equals_the_reference_on_larger_modules(algebra, lam, monkeypatch):
    rs = build_root_system(*algebra)
    # B3 (4,4,4) has dimension 1,953,125, above the size guard: lift the guard
    # for one uncached call, so no table beyond it stays in the cache
    monkeypatch.setattr(multiplicity, "DEFAULT_DIM_CAP", max(multiplicity.DEFAULT_DIM_CAP, weyl_dimension(rs, lam)))
    weights = multiplicity._freudenthal_cached.__wrapped__(rs.family, rs.rank, lam)
    assert weights == freudenthal_reference(rs, lam)
    assert sum(weights.values()) == weyl_dimension(rs, lam)


# -- Kostant partition function ----------------------------------------------


def test_kostant_partition_examples():
    assert kostant_partition(B2, (0, 0)) == 1
    assert kostant_partition(B2, (1, 1)) == 2
    assert kostant_partition(B2, B2.dynkin_to_root((0, 1))) == 0  # omega2 not in the root lattice


def test_kostant_partition_refuses_a_wrong_length():
    # B3 (1, 1, 1, 5) read as (1, 1, 1); the short inputs failed inside the recursion and the B2 closed form
    for rs, sigma in ((B3, (1, 1, 1, 5)), (B3, (1, 1)), (B2, (1,))):
        with pytest.raises(ValueError, match=f"needs {rs.rank} simple-root coordinates"):
            kostant_partition(rs, sigma)
    assert kostant_partition(B3, (1, 1, 1)) == 4


@pytest.mark.parametrize("m,n", [(0, 0), (1, 2), (3, 3), (4, 7), (6, 2), (5, 10)])
def test_kostant_partition_matches_enumeration(m, n):
    assert kostant_partition(B2, (m, n)) == brute_force_kostant_b2(m, n)


def kostant_table(rs, box):
    """The whole-box table: Kostant values on [0, box] as one int64 array, the slabs of one sweep stacked.

    Overflow is checked on every slab, as in kostant_values.
    """
    return np.stack(list(multiplicity._kostant_slabs(rs.positive_roots_rb, tuple(box))))


def test_kostant_table_matches_pointwise():
    box = (3, 5, 6)
    table = kostant_table(B3, box)
    for c in itertools.product(range(4), range(6), range(7)):
        assert int(table[c]) == kostant_partition(B3, c) == kostant_partition(B3, tuple(map(Q, c)))
    assert kostant_partition(B3, (1, -1, 0)) == 0
    assert kostant_partition(B3, (Q(1, 2), 0, 0)) == 0


@pytest.mark.parametrize("box", [(2, 0, 2, 0), (2, 3, 2, 1), (3, 3, 2, 2)])
def test_f4_table_on_a_box_narrower_than_a_root(box):
    # F4 has roots with coordinates 3 and 4, wider than these boxes
    f4 = build_root_system("F4")
    table = kostant_table(f4, box)
    for c in itertools.product(*(range(b + 1) for b in box)):
        assert int(table[c]) == kostant_partition(f4, c)


def kostant_table_reference(rs, box):
    """The Kostant values on [0, box] by coin change over the whole box, one root at a time.

    For each positive root, cnt[c] += cnt[c - root] runs sequentially along
    the root's first nonzero coordinate, so repeated use of a root is counted.
    """
    shape = tuple(b + 1 for b in box)
    cnt = np.zeros(shape, dtype=np.int64)
    cnt[(0,) * rs.rank] = 1
    for root in rs.positive_roots_rb:
        j = next(k for k, v in enumerate(root) if v > 0)
        dst_rest = tuple(slice(root[k], None) for k in range(rs.rank) if k != j)
        src_rest = tuple(slice(0, max(shape[k] - root[k], 0)) for k in range(rs.rank) if k != j)
        for c in range(root[j], shape[j]):
            dst = tuple(c if k == j else dst_rest[k - (k > j)] for k in range(rs.rank))
            src = tuple(c - root[j] if k == j else src_rest[k - (k > j)] for k in range(rs.rank))
            cnt[dst] += cnt[src]
    return cnt


KERNEL_ALGEBRAS = {name: build_root_system(*name) for name in (("A", 1), ("A", 2), ("B", 3), ("C", 3), ("G2", None))}


@st.composite
def algebra_and_box(draw):
    rs = KERNEL_ALGEBRAS[draw(st.sampled_from(sorted(KERNEL_ALGEBRAS, key=str)))]
    return rs, tuple(draw(st.lists(st.integers(0, 7), min_size=rs.rank, max_size=rs.rank)))


@settings(max_examples=150, deadline=None)
@given(algebra_and_box())
@example((KERNEL_ALGEBRAS["G2", None], (0, 0)))
@example((KERNEL_ALGEBRAS["G2", None], (7, 0)))
@example((KERNEL_ALGEBRAS["G2", None], (0, 7)))
@example((KERNEL_ALGEBRAS["B", 3], (0, 6, 0)))
@example((KERNEL_ALGEBRAS["A", 1], (0,)))
def test_slab_sweep_equals_the_per_root_reference(case):
    rs, box = case
    got = kostant_table(rs, box)
    assert got.dtype == np.int64
    assert np.array_equal(got, kostant_table_reference(rs, box))


@settings(max_examples=100, deadline=None)
@given(algebra_and_box(), st.data())
def test_kostant_values_equal_table_lookups(case, data):
    rs, box = case
    table = kostant_table(rs, box)
    point = st.tuples(*(st.integers(0, b) for b in box))
    points = data.draw(st.lists(point, max_size=12))
    got = kostant_values(rs, iter(points))
    assert got == {p: int(table[p]) for p in points}
    assert all(type(v) is int for v in got.values())


def test_kostant_values_of_no_points_is_empty_and_bad_points_raise():
    assert kostant_values(B3, []) == {}
    assert kostant_values(B3, set()) == {}
    with pytest.raises(ValueError, match="nonnegative cone"):
        kostant_values(B3, [(1, 2)])
    with pytest.raises(ValueError, match="nonnegative cone"):
        kostant_values(B3, [(1, 2, 3), (0, -1, 0)])


def test_a_lowered_bound_makes_the_sweep_raise(monkeypatch):
    box = (4, 6, 8)
    top = int(kostant_table(B3, box).max())
    monkeypatch.setattr(multiplicity, "KOSTANT_BOUND", top)
    with pytest.raises(OverflowError, match="safety bound"):
        kostant_table(B3, box)
    with pytest.raises(OverflowError, match="safety bound"):
        kostant_values(B3, [box])
    monkeypatch.setattr(multiplicity, "KOSTANT_BOUND", top + 1)
    assert kostant_values(B3, [box])[box] == int(kostant_table_reference(B3, box)[box])


# -- LR coefficients ----------------------------------------------------------


def test_klimyk_known_values():
    assert lr_klimyk(B2, (5, 6), (3, 4), (5, 6)) == 10
    assert lr_klimyk(B2, (4, 7), (5, 3), (2, 4)) == 5
    assert lr_klimyk(B2, (1, 0), (1, 0), (1, 0)) == 0


def test_steinberg_known_values():
    assert lr_steinberg(B2, (5, 6), (3, 4), (6, 4)) == 10
    assert lr_steinberg(B2, (5, 6), (3, 4), (0, 10)) == 3
    assert lr_steinberg(B2, (0, 0), (3, 4), (3, 4)) == 1


def test_steinberg_label_checks():
    assert lr_steinberg(B2, (Q(5), Q(6)), (3, 4), [6, 4]) == 10
    with pytest.raises(ValueError):
        lr_steinberg(B2, (5, 6, 0), (3, 4), (6, 4))
    with pytest.raises(ValueError):
        lr_steinberg_table(B2, (5, -1), (3, 4), (6, 4))
    with pytest.raises(ValueError):
        lr_steinberg(B2, (Q(1, 2), Q(0)), (3, 4), (6, 4))


def test_saturation_failure_witness():
    assert lr_klimyk(B2, (1, 0), (1, 0), (1, 0)) == 0
    assert lr_klimyk(B2, (2, 0), (2, 0), (2, 0)) == 1


def test_symmetry_and_unit():
    rng = random.Random(5)
    for _ in range(8):
        lam = (rng.randint(0, 5), rng.randint(0, 5))
        mu = (rng.randint(0, 5), rng.randint(0, 5))
        nu = (rng.randint(0, 6), rng.randint(0, 6))
        assert lr_klimyk(B2, lam, mu, nu) == lr_klimyk(B2, mu, lam, nu)
        assert lr_klimyk(B2, lam, (0, 0), nu) == (1 if lam == nu else 0)


def test_algorithms_agree_small_sweep():
    for lam in itertools.product(range(3), range(3)):
        for mu in itertools.product(range(3), range(3)):
            td = tensor_decompose(B2, lam, mu)
            for nu in itertools.product(range(5), range(5)):
                if (lam[1] + mu[1] - nu[1]) % 2:
                    continue
                assert td.get(nu, 0) == lr_steinberg(B2, lam, mu, nu)


def test_algorithms_agree_exhaustive_to_ten():
    # three-way agreement over every compatible triple with labels <= 10
    # (labels <= 8 run unconditionally in the acceptance suite)
    from hornvol.bzpolytope import bz_polygon_b2, lattice_point_count

    labels = range(11)
    for lam in itertools.product(labels, labels):
        for mu in itertools.product(labels, labels):
            td = tensor_decompose(B2, lam, mu)
            parity = (lam[1] + mu[1]) % 2
            for nu in itertools.product(labels, labels):
                if nu[1] % 2 != parity:
                    continue
                c = td.get(nu, 0)
                assert c == lr_steinberg(B2, lam, mu, nu), (lam, mu, nu)
                assert c == lattice_point_count(bz_polygon_b2(lam, mu, nu)), (lam, mu, nu)


def test_tensor_decompose_examples():
    assert tensor_decompose(B2, (1, 0), (1, 0)) == {(0, 0): 1, (0, 2): 1, (2, 0): 1}
    assert sum(weyl_dimension(B2, nu) for nu in ((0, 0), (0, 2), (2, 0))) == 25
    assert tensor_decompose(B2, (3, 6), (4, 2))[(1, 4)] == 3
    assert tensor_decompose(B2, (0, 0), (2, 3)) == {(2, 3): 1}


def test_tensor_dimension_sum_rule():
    rng = random.Random(9)
    for _ in range(5):
        lam = (rng.randint(0, 4), rng.randint(0, 4))
        mu = (rng.randint(0, 4), rng.randint(0, 4))
        td = tensor_decompose(B2, lam, mu)
        total = sum(c * weyl_dimension(B2, nu) for nu, c in td.items())
        assert total == weyl_dimension(B2, lam) * weyl_dimension(B2, mu)


def test_lr_triple():
    assert lr_triple(B2, (2, 3), (1, 1), (0, 0), (3, 4)) == lr_klimyk(B2, (2, 3), (1, 1), (3, 4))
    assert lr_triple(B2, (3, 6), (4, 2), (0, 1), (1, 3)) == 7
    # lam + mu + kappa - nu not in Q: every tau-term vanishes
    assert lr_triple(B2, (1, 0), (1, 0), (0, 1), (1, 0)) == 0


def test_steinberg_table_agrees_with_direct():
    rng = random.Random(13)
    for _ in range(6):
        lam = tuple(rng.randint(0, 3) for _ in range(3))
        mu = tuple(rng.randint(0, 3) for _ in range(3))
        nu = tuple(rng.randint(0, 4) for _ in range(3))
        assert lr_steinberg_table(B3, lam, mu, nu) == lr_steinberg(B3, lam, mu, nu)


def test_b3_klimyk_matches_steinberg():
    rng = random.Random(17)
    for _ in range(4):
        lam = tuple(rng.randint(0, 2) for _ in range(3))
        mu = tuple(rng.randint(0, 2) for _ in range(3))
        nu = tuple(rng.randint(0, 3) for _ in range(3))
        assert lr_klimyk(B3, lam, mu, nu) == lr_steinberg(B3, lam, mu, nu)


def test_a2_adjoint_square():
    a2 = build_root_system("A", 2)
    # (1,1) is the su(3) adjoint: 8 x 8 = 1 + 8 + 8 + 10 + 10bar + 27
    td = tensor_decompose(a2, (1, 1), (1, 1))
    assert td == {(0, 0): 1, (1, 1): 2, (3, 0): 1, (0, 3): 1, (2, 2): 1}
    assert lr_steinberg(a2, (1, 1), (1, 1), (1, 1)) == 2
    assert lr_steinberg_table(a2, (1, 1), (1, 1), (1, 1)) == 2


def test_g2_and_c3_agreement():
    g2 = build_root_system("G2")
    # the 7-dimensional fundamental rep of g2: 7 x 7 = 1 + 7 + 14 + 27
    td = tensor_decompose(g2, (1, 0), (1, 0))
    assert sum(c * weyl_dimension(g2, nu) for nu, c in td.items()) == 49
    for nu, c in td.items():
        assert lr_steinberg(g2, (1, 0), (1, 0), nu) == c
    c3 = build_root_system("C", 3)
    rng = random.Random(19)
    for _ in range(3):
        lam = tuple(rng.randint(0, 1) for _ in range(3))
        mu = tuple(rng.randint(0, 1) for _ in range(3))
        nu = tuple(rng.randint(0, 2) for _ in range(3))
        assert lr_klimyk(c3, lam, mu, nu) == lr_steinberg_table(c3, lam, mu, nu)


SMALL_ALGEBRAS = {
    "A2": build_root_system("A", 2),
    "B2": B2,
    "B3": B3,
    "C3": build_root_system("C", 3),
    "G2": build_root_system("G2"),
}


@st.composite
def small_triples(draw):
    """(algebra, lam, mu, nu): labels <= 2 (<= 1 in rank 3); B2 dilated by s <= 6."""
    name = draw(st.sampled_from(sorted(SMALL_ALGEBRAS)))
    rs = SMALL_ALGEBRAS[name]
    labels = st.tuples(*[st.integers(0, 2 if rs.rank == 2 else 1)] * rs.rank)
    s = draw(st.integers(1, 6)) if name == "B2" else 1
    lam, mu, nu = (tuple(s * v for v in draw(labels)) for _ in range(3))
    return name, lam, mu, nu


@settings(max_examples=120, deadline=None)
@given(small_triples())
@example(("B2", (0, 1), (0, 1), (0, 1)))
@example(("B3", (0, 0, 1), (0, 0, 0), (0, 0, 0)))
@example(("A2", (1, 0), (0, 0), (0, 1)))
@example(("B2", (12, 12), (12, 12), (12, 12)))
def test_steinberg_sum_matches_klimyk_and_table(triple):
    name, lam, mu, nu = triple
    rs = SMALL_ALGEBRAS[name]
    c = lr_steinberg(rs, lam, mu, nu)
    assert c == lr_klimyk(rs, lam, mu, nu) == lr_steinberg_table(rs, lam, mu, nu)
    if not is_compatible(rs, lam, mu, nu):
        assert c == 0


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SMALL_ALGEBRAS)), st.data())
def test_freudenthal_sums_to_weyl_dimension_and_is_weyl_invariant(name, data):
    rs = SMALL_ALGEBRAS[name]
    lam = data.draw(st.tuples(*[st.integers(0, 4 if rs.rank == 2 else 2)] * rs.rank))
    weights = freudenthal_weights(rs, lam)
    assert weights[lam] == 1
    assert sum(weights.values()) == weyl_dimension(rs, lam)
    for w, m in weights.items():
        for i in range(rs.rank):
            reflected = tuple(w[j] - w[i] * rs.cartan_matrix[i][j] for j in range(rs.rank))
            assert weights.get(reflected) == m


# -- Steinberg's Weyl shift tables ----------------------------------------------


def scaled_root_weyl_shifts(family: str, rank: int, lam: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(eps(w), w(lam + rho) - (lam + rho)) for every Weyl element w.

    The shifts lie in the root lattice and, lam + rho being dominant, have
    nonpositive simple-root coordinates.  They are computed on coordinates
    scaled by d, where the integer Weyl matrices act exactly, and divided
    back; they are sorted by their first coordinate, largest first.
    """
    rs = build_root_system(family, rank)
    d = rs.root_scale[0]
    x = rs.scaled_root([v + 1 for v in lam])
    out = []
    for w in weyl_elements((family, rank)):
        shift = [sum(map(mul, row, x)) - xi for row, xi in zip(w.matrix, x)]
        if any(v % d for v in shift):
            raise InvariantError(f"Weyl shift {shift}/{d} of {lam} is not in the root lattice")
        out.append((w.sign, tuple(v // d for v in shift)))
    return tuple(sorted(out, key=lambda t: -t[1][0]))


def unpruned_steinberg_terms(rs, lam, mu, nu):
    """Steinberg's (plus, minus) over every (w, w') pair with no early exit, from the reference shifts."""
    plus, minus = [], []
    d = rs.root_scale[0]
    top = rs.scaled_root([a + b - c for a, b, c in zip(lam, mu, nu)])
    if any(v % d for v in top):
        return plus, minus
    top = [v // d for v in top]
    right = scaled_root_weyl_shifts(rs.family, rs.rank, mu)
    for s1, a in scaled_root_weyl_shifts(rs.family, rs.rank, lam):
        for s2, b in right:
            sigma = tuple(map(sum, zip(top, a, b)))
            if min(sigma) >= 0:
                (plus if s1 * s2 > 0 else minus).append(sigma)
    return plus, minus


SHIFT_ALGEBRAS = {
    **SMALL_ALGEBRAS,
    "A3": build_root_system("A", 3),
    "D4": build_root_system("D", 4),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SHIFT_ALGEBRAS)), st.data())
def test_weyl_shifts_equal_the_scaled_root_computation(name, data):
    """The integer shift maps give the scaled-root shifts exactly, in the same order."""
    rs = SHIFT_ALGEBRAS[name]
    lam = data.draw(st.tuples(*[st.integers(0, 60)] * rs.rank))
    assert multiplicity._weyl_shifts(rs.family, rs.rank, lam) == scaled_root_weyl_shifts(rs.family, rs.rank, lam)


@st.composite
def dilated_triples(draw):
    """(algebra, lam, mu, nu): labels <= 3 dilated by s <= 14, so B3 reaches the Ehrhart fit's largest triples."""
    name = draw(st.sampled_from(sorted(SHIFT_ALGEBRAS)))
    rank = SHIFT_ALGEBRAS[name].rank
    s = draw(st.integers(1, 14))
    return (name, *(tuple(s * v for v in draw(st.tuples(*[st.integers(0, 3)] * rank))) for _ in range(3)))


@settings(max_examples=150, deadline=None)
@given(dilated_triples())
@example(("B3", (28, 28, 28), (28, 28, 14), (14, 14, 14)))
@example(("B3", (14, 14, 14), (14, 14, 14), (28, 28, 28)))
def test_steinberg_terms_equal_the_unpruned_double_loop(case):
    name, lam, mu, nu = case
    rs = SHIFT_ALGEBRAS[name]
    assert multiplicity._steinberg_terms(rs, lam, mu, nu) == unpruned_steinberg_terms(rs, lam, mu, nu)


def test_a_shift_map_off_the_root_lattice_raises(monkeypatch):
    # a root_scale whose d is doubled claims half the true coordinates
    d, scaled = B2.root_scale
    monkeypatch.setattr(multiplicity, "build_root_system", lambda *a: dataclasses.replace(B2, root_scale=(2 * d, scaled)))
    multiplicity._weyl_shift_maps.cache_clear()
    try:
        with pytest.raises(InvariantError, match="not in the root lattice"):
            multiplicity._weyl_shift_maps("B", 2)
    finally:
        multiplicity._weyl_shift_maps.cache_clear()


@pytest.mark.parametrize("algebra", [("D", 6), ("A", 10), ("E7", None), ("E8", None)])
def test_steinberg_refuses_a_weyl_group_above_the_cap_before_building_it(algebra, monkeypatch):
    """|W| is 23,040 for D6, 39,916,800 for A10, 2,903,040 for E7 and 696,729,600 for E8."""
    def unbuilt(*args):
        raise AssertionError("a Weyl group above the cap was built")

    monkeypatch.setattr(rootsys, "_matmul", unbuilt)
    rs = build_root_system(*algebra)
    zero = (0,) * rs.rank
    for steinberg in (lr_steinberg, lr_steinberg_table):
        with pytest.raises(SizeGuardError, match=f"Weyl group of {rs.name} has .* above the cap 10000"):
            steinberg(rs, zero, zero, zero)


def test_the_weyl_order_cap_admits_a_group_of_its_size(monkeypatch):
    # weyl_elements is memoized, so its unwrapped builder is the one that reads the cap on every call
    monkeypatch.setattr(rootsys, "WEYL_ORDER_CAP", 11)
    with pytest.raises(SizeGuardError, match="G2 has 12 elements"):
        weyl_elements.__wrapped__(("G2", 2))
    monkeypatch.setattr(rootsys, "WEYL_ORDER_CAP", 12)
    assert len(weyl_elements.__wrapped__(("G2", 2))) == 12


# -- a caller's Kostant table and the tau range of lr_triple -------------------


def test_a_table_that_does_not_cover_the_box_raises():
    lam, mu, nu = (1, 2, 1), (2, 1, 1), (1, 1, 2)
    box = tuple(int(v) for v in B3.dynkin_to_root([a + b - c for a, b, c in zip(lam, mu, nu)]))
    expected = lr_steinberg(B3, lam, mu, nu)

    def values_on(top):
        return kostant_values(B3, itertools.product(*(range(b + 1) for b in top)))

    assert lr_steinberg_table(B3, lam, mu, nu, table=values_on(box)) == expected
    assert lr_steinberg_table(B3, lam, mu, nu, table=values_on(tuple(v + 2 for v in box))) == expected
    for small in ((box[0] - 1, box[1], box[2]), (box[0], box[1], box[2] - 1)):
        with pytest.raises(ValueError, match="do not cover"):
            lr_steinberg_table(B3, lam, mu, nu, table=values_on(small))
    # off the root lattice no Kostant value is read, so no point is looked up
    assert lr_steinberg_table(B3, (1, 0, 1), (0, 0, 0), (1, 0, 0), table={}) == 0
    # a kostant_values mapping must hold every point the sum reads
    points = values_on(box)
    del points[box]
    with pytest.raises(ValueError, match="do not cover"):
        lr_steinberg_table(B3, lam, mu, nu, table=points)


def test_a_table_that_is_not_a_mapping_raises():
    lam, mu, nu = (1, 2, 1), (2, 1, 1), (1, 1, 2)
    box = tuple(int(v) for v in B3.dynkin_to_root([a + b - c for a, b, c in zip(lam, mu, nu)]))
    full = kostant_table(B3, box)
    for table in (full, full.tolist(), list(kostant_values(B3, [box]).items())):
        with pytest.raises(ValueError, match="mapping of kostant_values"):
            lr_steinberg_table(B3, lam, mu, nu, table=table)
        # refused before any Kostant value is read
        with pytest.raises(ValueError, match="mapping of kostant_values"):
            lr_steinberg_table(B3, (1, 0, 1), (0, 0, 0), (1, 0, 0), table=table)


def test_the_cached_weight_system_is_shared_and_left_unchanged():
    weights = freudenthal_weights(B2, (1, 2))
    assert freudenthal_weights(B2, (1, 2)) is weights
    before = dict(weights)
    decomposition = tensor_decompose(B2, (2, 1), (1, 2))
    lr_klimyk(B2, (2, 1), (1, 2), (3, 3))
    multiplicity.tau_sum(B2, decomposition, (1, 2), (3, 3))
    lr_triple(B2, (1, 2), (1, 2), (1, 2), (2, 2))
    assert freudenthal_weights(B2, (1, 2)) is weights
    assert list(weights.items()) == list(before.items())


def full_tau_sum(rs, lam, mu, kappa, nu) -> int:
    """sum_tau C_{lam mu}^{tau} C_{tau kappa}^{nu} over every tau of the decomposition."""
    return sum(c * lr_klimyk(rs, tau, kappa, nu) for tau, c in tensor_decompose(rs, lam, mu).items())


@st.composite
def tau_sum_cases(draw):
    """(algebra, lam, mu, kappa, nu): labels <= 3 (<= 2 on G2, <= 1 in rank 3)."""
    name = draw(st.sampled_from(sorted(SMALL_ALGEBRAS)))
    rs = SMALL_ALGEBRAS[name]
    labels = st.tuples(*[st.integers(0, {"A2": 3, "B2": 3, "G2": 2}.get(name, 1))] * rs.rank)
    lam, mu, kappa = (draw(labels) for _ in range(3))
    if draw(st.booleans()):
        nu = draw(labels)
    else:  # nu from V_tau x V_kappa for some tau in V_lam x V_mu, so the sum is rarely 0
        tau = draw(st.sampled_from(sorted(tensor_decompose(rs, lam, mu))))
        nu = draw(st.sampled_from(sorted(tensor_decompose(rs, tau, kappa))))
    return name, lam, mu, kappa, nu


@settings(max_examples=100, deadline=None)
@given(tau_sum_cases())
# A2, where kappa* = -w0 kappa differs from kappa: (1, 0)* = (0, 1), (2, 1)* = (1, 2)
@example(("A2", (1, 1), (1, 0), (1, 0), (1, 2)))
@example(("A2", (1, 1), (1, 1), (2, 1), (2, 1)))
def test_lr_triple_equals_the_full_tau_sum(case):
    name, lam, mu, kappa, nu = case
    rs = SMALL_ALGEBRAS[name]
    assert lr_triple(rs, lam, mu, kappa, nu) == full_tau_sum(rs, lam, mu, kappa, nu)


# -- Casimir trace sum rules (Schur orthogonality) ----------------------------
#
# With C2(w) = <w, w + 2 rho> and d_w = dim V_w, the traces of 1, C2 and C2^2
# on V_lam x V_mu give, for every algebra,
#   sum_nu N^nu d_nu C2(nu)^k = d_lam d_mu * [1, C2(lam) + C2(mu),
#                               (C2(lam) + C2(mu))^2 + 4 C2(lam) C2(mu) / dim g].
# No multiplicity algorithm reads them, so each algorithm is checked on its own.


def casimir(rs, w):
    """C2(w) = <w, w + 2 rho>, from <x, alpha_i> = h_i x_i on Dynkin labels (half-norm units)."""
    return sum(c * h * v for c, h, v in zip(rs.dynkin_to_root([v + 2 for v in w]), rs.half_norms, w))


def casimir_traces(rs, multiplicities):
    """sum_nu N^nu dim V_nu C2(nu)^k for k = 0, 1, 2."""
    return [sum(n * weyl_dimension(rs, nu) * casimir(rs, nu) ** k for nu, n in multiplicities.items())
            for k in range(3)]


def casimir_trace_rules(rs, lam, mu):
    """The traces of 1, C2 and C2^2 on V_lam x V_mu."""
    d = weyl_dimension(rs, lam) * weyl_dimension(rs, mu)
    a, b = casimir(rs, lam), casimir(rs, mu)
    dim_g = rs.rank + 2 * rs.n_positive
    return [d, d * (a + b), d * ((a + b) ** 2 + Q(4, dim_g) * a * b)]


def weights_below(rs, top):
    """Every dominant nu with top - nu a nonnegative integer sum of simple roots."""
    bound = [int(v) for v in rs.dynkin_to_root(top)]
    out = []
    for c in itertools.product(*(range(b + 1) for b in bound)):
        nu = tuple(t - sum(ci * row[j] for ci, row in zip(c, rs.cartan_matrix)) for j, t in enumerate(top))
        if min(nu) >= 0:
            out.append(nu)
    return out


@st.composite
def trace_pairs(draw):
    """(algebra, lam, mu): labels <= 3 in rank 2 (<= 2 on G2), <= 2 in rank 3."""
    name = draw(st.sampled_from(sorted(SMALL_ALGEBRAS)))
    rs = SMALL_ALGEBRAS[name]
    labels = st.tuples(*[st.integers(0, 2 if name == "G2" or rs.rank == 3 else 3)] * rs.rank)
    return name, draw(labels), draw(labels)


@settings(max_examples=100, deadline=None)
@given(trace_pairs())
def test_tensor_decompose_meets_the_casimir_trace_rules(pair):
    name, lam, mu = pair
    rs = SMALL_ALGEBRAS[name]
    assert casimir_traces(rs, tensor_decompose(rs, lam, mu)) == casimir_trace_rules(rs, lam, mu)


@pytest.mark.parametrize("method", ["steinberg", "bz"])
@settings(max_examples=40, deadline=None)
@given(lam=st.tuples(st.integers(0, 5), st.integers(0, 5)), mu=st.tuples(st.integers(0, 5), st.integers(0, 5)))
def test_b2_steinberg_and_bz_each_meet_the_casimir_trace_rules(method, lam, mu):
    from hornvol.bzpolytope import bz_polygon_b2, lattice_point_count

    count = {
        "steinberg": lambda nu: lr_steinberg(B2, lam, mu, nu),
        "bz": lambda nu: lattice_point_count(bz_polygon_b2(lam, mu, nu)),
    }[method]
    top = tuple(a + b for a, b in zip(lam, mu))
    multiplicities = {nu: count(nu) for nu in weights_below(B2, top)}
    assert casimir_traces(B2, multiplicities) == casimir_trace_rules(B2, lam, mu)


# -- the public entry points answer or refuse ---------------------------------


def malformed_labels(rank: int):
    """rank - 1, rank or rank + 1 entries: ints in [-1, 3], or Fractions in [-2, 3] of
    denominator up to 3 (integral ones among them)."""
    entries = st.sampled_from([st.integers(-1, 3), st.fractions(-2, 3, max_denominator=3)])
    sizes = st.integers(rank - 1, rank + 1)
    return st.tuples(entries, sizes).flatmap(lambda es: st.lists(es[0], min_size=es[1], max_size=es[1]).map(tuple))


ENTRY_POINTS = {
    "tensor_decompose": (2, lambda rs, w: tensor_decompose(rs, *w)),
    "lr_klimyk": (3, lambda rs, w: lr_klimyk(rs, *w)),
    "tau_sum": (2, lambda rs, w: multiplicity.tau_sum(rs, tensor_decompose(rs, (1,) * rs.rank, (1,) * rs.rank), *w)),
    "lr_triple": (4, lambda rs, w: lr_triple(rs, *w)),
    "lr_steinberg": (3, lambda rs, w: lr_steinberg(rs, *w)),
    "freudenthal_weights": (1, lambda rs, w: freudenthal_weights(rs, *w)),
    "kostant_partition": (1, lambda rs, w: kostant_partition(rs, *w)),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SMALL_ALGEBRAS)), st.sampled_from(sorted(ENTRY_POINTS)), st.data())
def test_multiplicity_entry_points_answer_or_refuse(name, entry, data):
    """A malformed weight is refused with a ValueError (or an InvariantError); nothing
    else escapes, and a well-formed one is answered.

    The Dynkin-label entry points refuse a wrong label count, a negative
    label and a non-integral one; kostant_partition refuses only a wrong
    count and reads 0 off the nonnegative root lattice.
    """
    rs = SMALL_ALGEBRAS[name]
    arity, call = ENTRY_POINTS[entry]
    weights = [data.draw(malformed_labels(rs.rank)) for _ in range(arity)]
    sized = all(len(w) == rs.rank for w in weights)
    well_formed = sized and all(v >= 0 and Q(v).denominator == 1 for w in weights for v in w)
    try:
        value = call(rs, weights)
    except (ValueError, InvariantError):
        assert not (well_formed if entry != "kostant_partition" else sized), weights
        return
    if entry == "kostant_partition":
        assert sized and value >= 0 and (value == 0 or well_formed), (weights, value)
    else:
        assert well_formed, (weights, value)
