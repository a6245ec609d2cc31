"""Planted faults: each cross-check is shown able to fail.

Each test plants one fault with monkeypatch, which undoes it when the test
ends, and runs a CLI command whose exit code is the cross-check.  The CLI
exits 0 only when every method or route agrees, so a fault that leaves it
at 0 would be one that no check can see.  The c_kappa of K are the one
exception: no CLI route reads them, so a fault in one is shown by the
shifted J-LR relation against a route that reads no c_kappa.
"""

import dataclasses

import pytest

from hornvol import bzpolytope, cli, multiplicity, volume
from hornvol.bzpolytope import RationalPolygon
from hornvol.cli import main
from hornvol.rootsys import build_root_system

B2_ROOTS = build_root_system("B", 2).positive_roots_rb
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


@pytest.fixture
def fresh_weyl_tables():
    """Empty the Freudenthal cache and the Weyl orbit and dominant image tables before and after the test."""
    tables = (multiplicity._freudenthal_cached, multiplicity._weyl_orbit, multiplicity._dominant_image)
    for cached in tables:
        cached.cache_clear()
    yield
    for cached in tables:
        cached.cache_clear()


# Klimyk reads the weight system of (3,4), the smaller factor, built cold here.
@pytest.mark.parametrize("dropped", B2_ROOTS)
def test_freudenthal_skipping_one_root_string_makes_lr_exit_1(dropped, fresh_weyl_tables, monkeypatch, capsys):
    """The recursion's B2 root table lacks one positive root, so its string is skipped (and its descent step)."""
    build = multiplicity.build_root_system

    def faulty(family, rank=None):
        rs = build(family, rank)
        if (rs.family, rs.rank) != ("B", 2):
            return rs
        return dataclasses.replace(rs, positive_roots_rb=tuple(r for r in rs.positive_roots_rb if r != dropped))

    monkeypatch.setattr(multiplicity, "build_root_system", faulty)
    assert main(["lr", "B2", "5,6", "3,4", "6,4", "--method", "all"]) == 1
    assert "agree: yes" not in capsys.readouterr().out


# (5,6) x (3,4): lam + rho + tau for each weight tau of V_(3,4) below is off the
# open chamber, and its dominant image minus rho is nu; flipping the sign of
# that one Klimyk term moves C^nu by twice the weight's multiplicity.
@pytest.mark.parametrize("shifted,nu", [((-1, 11), "0,8"), ((10, -3), "6,2"), ((13, -1), "11,0")])
def test_a_dominant_image_with_its_sign_flipped_makes_lr_exit_1(shifted, nu, fresh_weyl_tables, monkeypatch, capsys):
    reflect = multiplicity.reflect_to_dominant

    def faulty(rs, a):
        dom, sign = reflect(rs, a)
        return (dom, -sign) if (rs.rank, tuple(a)) == (2, shifted) else (dom, sign)

    monkeypatch.setattr(multiplicity, "reflect_to_dominant", faulty)
    assert main(["lr", "B2", "5,6", "3,4", nu, "--method", "all"]) == 1
    assert "agree: yes" not in capsys.readouterr().out


# (5,6) x (3,4): the orbit of the dominant weight d of V_(3,4) lacks one weight.
# Without -d, the Klimyk term of nu = (5,6) - d is lost; without d, the
# recursion's strings through d break off too, and nu = (5,6) + d reads them.
@pytest.mark.parametrize("start,dropped,nu", [
    ((3, 4), (-3, -4), "2,2"), ((2, 2), (-2, -2), "3,4"), ((2, 2), (2, 2), "7,8"), ((0, 0), (0, 0), "5,6")])
def test_a_weyl_orbit_missing_one_weight_makes_lr_exit_1(start, dropped, nu, fresh_weyl_tables, monkeypatch, capsys):
    orbit = multiplicity._weyl_orbit_dynkin

    def faulty(rs, a):
        out = orbit(rs, a)
        return out - {dropped} if (rs.rank, a) == (2, start) else out

    monkeypatch.setattr(multiplicity, "_weyl_orbit_dynkin", faulty)
    assert main(["lr", "B2", "5,6", "3,4", nu, "--method", "all"]) == 1
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


def double_one_c_kappa(monkeypatch, key, which, kappa):
    """Plant the c_kappa of kappa, in K (which 0) or K-hat (which 1) of KAPPA_TABLES[key], doubled."""
    tables = [dict(t) for t in volume.KAPPA_TABLES[key]]
    tables[which][kappa] *= 2
    monkeypatch.setitem(volume.KAPPA_TABLES, key, tuple(tables))


def c_kappa_entries(which):
    """(key, kappa) for every entry of K (which 0) or K-hat (which 1), with ids such as B3-1,0,2."""
    return [pytest.param(key, kappa, id="".join(map(str, key)) + "-" + ",".join(map(str, kappa)))
            for key, tables in volume.KAPPA_TABLES.items() for kappa in tables[which]]


#: the volume command per algebra; its lr route reads K-hat, and no other route reads a c_kappa
VOLUME_ARGV = {("B", 2): ["volume", "B2", "5,6", "3,4", "5,6"], ("B", 3): ["volume", "B3", *["2,2,2"] * 3]}


@pytest.mark.parametrize("key,kappa", c_kappa_entries(1))
def test_a_doubled_c_hat_kappa_makes_volume_exit_1(key, kappa, monkeypatch, capsys):
    double_one_c_kappa(monkeypatch, key, 1, kappa)
    assert main(VOLUME_ARGV[key]) == 1
    assert "agree: NO" in capsys.readouterr().out


#: one triple per algebra for the shifted J-LR relation, j_lr_shifted(t) = J(t + rho), where J is
#: read by a route that reads no c_kappa: direct on B2 (criterion 4's first triple), ehrhart on B3
SHIFTED_RELATION = {("B", 2): ("direct", ((4, 7), (5, 3), (2, 4))), ("B", 3): ("ehrhart", ((1, 1, 2),) * 3)}


@pytest.mark.parametrize("key,kappa", c_kappa_entries(0))
def test_a_doubled_c_kappa_breaks_the_shifted_relation(key, kappa, monkeypatch):
    """No CLI route reads K, so a fault in it is shown by the relation that does."""
    rs = build_root_system(*key)
    route, triple = SHIFTED_RELATION[key]
    shifted = [tuple(v + 1 for v in w) for w in triple]
    J = volume.volume_routes(*shifted, routes=(route,), rs=rs).values()[route]
    assert volume.j_lr_shifted(*triple, rs) == J
    double_one_c_kappa(monkeypatch, key, 0, kappa)
    assert volume.j_lr_shifted(*triple, rs) != J
