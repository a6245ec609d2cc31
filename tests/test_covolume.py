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
    table1_delta,
    _nonsimple_in_simple_basis,
)
from hornvol.rootsys import CLASSICAL_MIN_RANK, build_root_system
from refusal import answer_or_refuse


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


# ---------------------------------------------------------------------------
# the public entry points answer or refuse

#: the exceptional algebras and their ranks
FIXED_RANK = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}
families = st.sampled_from(["A", "B", "C", "D", "a", "d", "G2", "g2", "F4", "E6", "E7", "E8", "E", "X", ""])
ranks = st.one_of(st.none(), st.integers(-1, 7))


def named_algebra(family: str, rank):
    """(FAMILY, rank) of the algebra that family, in any case, and rank name, or None."""
    f = family.upper()
    if f in FIXED_RANK:
        return (f, FIXED_RANK[f]) if rank in (None, FIXED_RANK[f]) else None
    if f in CLASSICAL_MIN_RANK and rank is not None and rank >= CLASSICAL_MIN_RANK[f]:
        return (f, rank)
    return None


def check_covolume_report(data):
    family, rank = data.draw(families), data.draw(ranks)
    algebra = named_algebra(family, rank)
    rep = answer_or_refuse(lambda: covolume_report(family, rank), algebra is None)
    if rep is not None:
        assert (rep.family, rep.rank) == algebra and rep.agree and rep.delta_gram == rep.table1_value


def check_table1_delta(data):
    family, rank = data.draw(families), data.draw(ranks)
    algebra = named_algebra(family, rank)
    value = answer_or_refuse(lambda: table1_delta(family, rank), algebra is None)
    if value is not None:
        assert type(value) is int and value == gram_delta(build_root_system(*algebra))


def check_covolume_table(data):
    max_rank = data.draw(st.integers(-2, 6))
    reports = answer_or_refuse(lambda: covolume_table(max_rank), max_rank < 1)
    if reports is not None:
        expected = [(f, r) for f, lo in CLASSICAL_MIN_RANK.items() for r in range(lo, max_rank + 1)]
        assert [(rep.family, rep.rank) for rep in reports] == expected + [("G2", 2), ("F4", 4), ("E6", 6)]
        assert all(rep.agree for rep in reports)


COVOLUME_ENTRY_POINTS = {check.__name__.removeprefix("check_"): check for check in (
    check_covolume_report, check_table1_delta, check_covolume_table)}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(COVOLUME_ENTRY_POINTS)), st.data())
def test_covolume_entry_points_answer_or_refuse(entry, data):
    """Each entry point answers rightly or refuses with a ValueError (or an InvariantError).

    Refused: a family and rank that name no algebra, and a table with no
    classical row (max_rank < 1).  Nothing else escapes.
    """
    COVOLUME_ENTRY_POINTS[entry](data)
