"""Planted faults: each cross-check is shown able to fail.

Each test plants one fault with monkeypatch, which undoes it when the test
ends, and runs a CLI command whose exit code is the cross-check.  The CLI
exits 0 only when every method or route agrees, so a fault that leaves it
at 0 would be one that no check can see.
"""

import pytest

from hornvol import bzpolytope, cli, multiplicity, volume
from hornvol.bzpolytope import RationalPolygon
from hornvol.cli import main
from hornvol.rootsys import build_root_system

B3_ROOTS = build_root_system("B", 3).positive_roots_rb


@pytest.mark.parametrize("which", [0, -1])
def test_steinberg_missing_one_plus_term_makes_lr_exit_1(which, monkeypatch, capsys):
    terms = multiplicity._steinberg_terms

    def faulty(*args):
        plus, minus = terms(*args)
        del plus[which]
        return plus, minus

    monkeypatch.setattr(multiplicity, "_steinberg_terms", faulty)
    assert main(["lr", "B2", "5,6", "3,4", "6,4", "--method", "all"]) == 1
    assert "agree: yes" not in capsys.readouterr().out


@pytest.fixture
def fresh_shift_tables():
    """Empty the Weyl shift caches before and after the test, so no faulted table outlives it."""
    for cached in (multiplicity._weyl_shift_maps, multiplicity._weyl_shifts):
        cached.cache_clear()
    yield
    for cached in (multiplicity._weyl_shift_maps, multiplicity._weyl_shifts):
        cached.cache_clear()


def plant_shift_maps(monkeypatch, fault):
    """Serve the B2 shift maps through fault(list of maps) -> maps."""
    maps = multiplicity._weyl_shift_maps

    def faulty(family, rank):
        out = maps(family, rank)
        return tuple(fault(list(out))) if (family, rank) == ("B", 2) else out

    monkeypatch.setattr(multiplicity, "_weyl_shift_maps", faulty)


# The Steinberg sum of this triple reads the terms of the identity and the two
# simple reflections, the first three Weyl elements; every other element puts
# an argument below 0 (the property tests of test_multiplicity cover them).
@pytest.mark.parametrize("dropped", [0, 1, 2])
def test_a_missing_weyl_shift_map_makes_lr_exit_1(dropped, fresh_shift_tables, monkeypatch, capsys):
    plant_shift_maps(monkeypatch, lambda maps: maps[:dropped] + maps[dropped + 1:])
    assert main(["lr", "B2", "5,6", "3,4", "6,4", "--method", "all"]) == 1
    assert "agree: yes" not in capsys.readouterr().out


@pytest.mark.parametrize("element,row,col", [(0, 0, 1), (1, 0, 0), (2, 1, 1)])
def test_a_shift_map_entry_off_by_one_makes_lr_exit_1(element, row, col, fresh_shift_tables, monkeypatch, capsys):
    def off_by_one(maps):
        sign, k = maps[element]
        k = [list(r) for r in k]
        k[row][col] += 1
        maps[element] = (sign, tuple(map(tuple, k)))
        return maps

    plant_shift_maps(monkeypatch, off_by_one)
    assert main(["lr", "B2", "5,6", "3,4", "6,4", "--method", "all"]) == 1
    assert "agree: yes" not in capsys.readouterr().out


@pytest.mark.parametrize("dropped", B3_ROOTS)
def test_a_kostant_sweep_missing_one_root_makes_b3_volume_exit_1(dropped, monkeypatch, capsys):
    """The lr route gives 241/48 on (2,2,2)^3 without Kostant's function; the Ehrhart
    fit reads it from kostant_values, whose sweep here lacks one positive root."""
    slabs = multiplicity._kostant_slabs

    def faulty(roots, box):
        if tuple(roots) == B3_ROOTS:
            roots = [r for r in roots if r != dropped]
        return slabs(roots, box)

    monkeypatch.setattr(multiplicity, "_kostant_slabs", faulty)
    assert main(["volume", "B3", "2,2,2", "2,2,2", "2,2,2"]) == 1
    assert "agree: yes" not in capsys.readouterr().out


@pytest.fixture
def fresh_weyl_terms():
    """Empty the cache of the j_b2 Weyl terms before and after the test, so no faulted term list outlives it."""
    volume._weyl_terms.cache_clear()
    yield
    volume._weyl_terms.cache_clear()


@pytest.mark.parametrize("dropped", [0, 32, -1])
def test_a_missing_weyl_term_makes_b2_volume_exit_1(dropped, fresh_weyl_terms, monkeypatch, capsys):
    """Only the direct route reads the merged Weyl terms (64 on this triple); the other three stay right."""
    terms = volume._weyl_terms

    def faulty(alpha, beta):
        scale, out = terms(alpha, beta)
        return scale, tuple(t for i, t in enumerate(out) if i != dropped % len(out))

    monkeypatch.setattr(volume, "_weyl_terms", faulty)
    assert main(["volume", "B2", "5,6", "3,4", "5,6"]) == 1
    assert "agree: yes" not in capsys.readouterr().out


# For each BZ template row and each direction, a triple on which the shifted
# row changes the BZ count; no one triple catches all 24 faults.
BZ_ROW_SHIFTS = {
    (0, 1): ("1,1", "1,1", "1,2"), (0, -1): ("1,1", "2,1", "2,4"),
    (1, 1): ("1,1", "1,1", "1,2"), (1, -1): ("1,1", "1,2", "4,3"),
    (2, 1): ("1,1", "1,1", "1,2"), (2, -1): ("1,1", "1,5", "2,6"),
    (3, 1): ("1,1", "1,2", "2,1"), (3, -1): ("1,1", "1,3", "3,2"),
    (4, 1): ("1,1", "2,2", "1,1"), (4, -1): ("1,2", "4,6", "1,6"),
    (5, 1): ("1,1", "1,2", "2,1"), (5, -1): ("1,1", "1,6", "1,3"),
    (6, 1): ("1,1", "1,1", "1,2"), (6, -1): ("1,1", "1,6", "1,3"),
    (7, 1): ("1,1", "1,1", "1,2"), (7, -1): ("1,1", "1,2", "2,1"),
    (8, 1): ("1,1", "1,1", "1,2"), (8, -1): ("1,3", "1,4", "1,3"),
    (9, 1): ("1,2", "1,5", "1,3"), (9, -1): ("3,3", "1,6", "1,3"),
    (10, 1): ("1,1", "1,2", "2,1"), (10, -1): ("1,4", "1,1", "4,1"),
    (11, 1): ("1,1", "1,1", "1,2"), (11, -1): ("1,2", "2,1", "1,1"),
}


@pytest.mark.parametrize("row,shift", sorted(BZ_ROW_SHIFTS))
def test_a_bz_row_offset_off_by_one_makes_lr_exit_1(row, shift, monkeypatch, capsys):
    """The offset c of one row a*x + b*y >= c of the B2 BZ polygon moves by shift, in the lr command's polygons."""
    build = bzpolytope.bz_polygon_b2

    def faulty(lam, mu, nu):
        P = build(lam, mu, nu)
        rows = list(P._rows)
        A, B, C = rows[row]
        rows[row] = (A, B, C + shift * P._dens[row])
        return RationalPolygon._from_rows(tuple(rows), P._dens, P._labels, P._elim)

    monkeypatch.setattr(cli, "bz_polygon_b2", faulty)
    assert main(["lr", "B2", *BZ_ROW_SHIFTS[row, shift], "--method", "all"]) == 1
    assert "agree: yes" not in capsys.readouterr().out
