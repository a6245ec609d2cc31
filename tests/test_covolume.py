import random

from hornvol._exact import det_bareiss
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
