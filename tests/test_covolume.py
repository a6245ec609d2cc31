import random
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from hornvol._exact import det_adj_bareiss, det_bareiss
from hornvol.covolume import (
    covolume_report,
    covolume_table,
    covolume_markdown,
    formula_delta,
    gram_delta,
    _nonsimple_in_simple_basis,
)
from hornvol.rootsys import CLASSICAL_MIN_RANK, build_root_system


def gram_by_roots(rows, rank):
    """The reference det(I_m + A A^T): one Gram row per non-simple positive root."""
    m = len(rows)
    return det_bareiss([[(1 if a == b else 0) + sum(rows[a][i] * rows[b][i] for i in range(rank)) for b in range(m)]
                        for a in range(m)])


def test_gram_examples():
    assert gram_delta(build_root_system("A", 2)) == 3
    assert gram_delta(build_root_system("B", 2)) == 9
    assert gram_delta(build_root_system("G2")) == 48


def test_formula_examples():
    for r in range(1, 9):
        assert formula_delta(build_root_system("A", r)) == (r + 1) ** (r - 1)
    assert formula_delta(build_root_system("C", 3)) == 128
    assert formula_delta(build_root_system("F4")) == 2**2 * 3**8


def test_gram_equals_formula_equals_table():
    for rep in covolume_table(max_rank=8):
        assert rep.agree, rep


def test_b_column_closed_form():
    for r in range(2, 9):
        assert gram_delta(build_root_system("B", r)) == (2 * r - 1) ** r


def test_gram_independent_of_root_order():
    rs = build_root_system("B", 3)
    rows = _nonsimple_in_simple_basis(rs)
    rng = random.Random(3)
    for _ in range(3):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert gram_by_roots(shuffled, rs.rank) == gram_delta(rs)


def test_rank_sized_gram_equals_the_root_by_root_determinant():
    # Sylvester: det(I_m + A A^T) = det(I_r + A^T A)
    systems = [build_root_system(fam, r) for fam, lo in CLASSICAL_MIN_RANK.items() for r in range(lo, 9)]
    systems += [build_root_system(name) for name in ("G2", "F4", "E6", "E7", "E8")]
    for rs in systems:
        assert gram_by_roots(_nonsimple_in_simple_basis(rs), rs.rank) == gram_delta(rs), rs.name


def test_markdown_table():
    md = covolume_markdown([covolume_report("G2")])
    assert "| G2 | 6 | 4 | 48 | 48 | 48 | yes |" in md


def test_e7_e8_slow():
    e7 = covolume_report("E7")
    assert e7.delta_gram == 2**6 * 3**14 and e7.agree
    e8 = covolume_report("E8")
    assert e8.delta_gram == 2**8 * 3**8 * 5**8 and e8.agree


def test_rank_thirty_gram_equals_formula_equals_table():
    for family in ("B", "D"):
        rep = covolume_report(family, 30)
        assert rep.agree, rep


def det_reference(A) -> Q:
    """det A by Fraction Gaussian elimination with row swaps."""
    n = len(A)
    M = [[Q(v) for v in row] for row in A]
    det = Q(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if M[r][k]), None)
        if piv is None:
            return Q(0)
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            det = -det
        det *= M[k][k]
        for i in range(k + 1, n):
            f = M[i][k] / M[k][k]
            M[i] = [x - f * y for x, y in zip(M[i], M[k])]
    return det


@st.composite
def integer_matrices(draw):
    """Square integer matrices of sizes 0-6, many with zero leading entries and some singular."""
    n = draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    A = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    kind = draw(st.sampled_from(["any", "zero leading entries", "singular"]))
    if n and kind == "zero leading entries":
        for i in range(draw(st.integers(1, n))):
            A[i][0] = 0
    elif n and kind == "singular":
        # the last row an integer combination of the others (the zero row when n = 1)
        coeffs = [draw(st.integers(-3, 3)) for _ in range(n - 1)]
        A[-1] = [sum(c * row[j] for c, row in zip(coeffs, A)) for j in range(n)]
    return A


@settings(max_examples=400, deadline=None)
@given(integer_matrices())
def test_one_bareiss_pass_gives_the_determinant_and_the_adjugate(A):
    det, adj = det_adj_bareiss(A)
    assert det_bareiss(A) == det == det_reference(A)
    n = len(A)
    if det == 0:
        assert adj is None
        return
    # A adj A = adj A A = det A I, which fixes adj A = det A A^-1
    eye = [[det * (i == j) for j in range(n)] for i in range(n)]
    assert [[sum(A[i][k] * adj[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == eye
    assert [[sum(adj[i][k] * A[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == eye
