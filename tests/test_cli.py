import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornvol.cli import SCHEMA_VERSION, _emit_json, main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_lr_all_agrees(capsys):
    rc, out = run(capsys, "lr", "B2", "5,6", "3,4", "6,4", "--method", "all")
    assert rc == 0
    assert out.splitlines() == ["klimyk: 10", "steinberg: 10", "bz: 10", "agree: yes"]


def test_lr_non_compatible_triple(capsys):
    rc, out = run(capsys, "lr", "B2", "0,1", "0,1", "0,1")
    assert rc == 0
    assert "klimyk: 0" in out and "steinberg: 0" in out and "bz: 0" in out


def test_lr_all_uses_the_methods_of_the_algebra(capsys):
    rc, out = run(capsys, "lr", "B3", "1,1,2", "1,1,2", "1,1,2")
    assert rc == 0
    assert out.splitlines() == ["klimyk: 20", "steinberg: 20", "agree: yes"]


def test_internal_invariant_failure_exits_1(monkeypatch, capsys):
    import hornvol.cli as cli
    from hornvol._exact import InvariantError

    def broken(*args):
        raise InvariantError("Klimyk sum -1 < 0")

    monkeypatch.setattr(cli, "lr_klimyk", broken)
    assert main(["lr", "B2", "1,0", "1,0", "2,0"]) == 1
    assert capsys.readouterr().err == "error: Klimyk sum -1 < 0\n"


def test_the_cached_parser_prints_what_fresh_parsers_print(capsys):
    import hornvol.cli as cli

    calls = [
        ["lr", "B2", "1,0", "1,0", "2,0"],
        ["volume", "B2", "4,7", "5,3", "2,4", "--format", "json"],
        ["lr", "B2", "1,0", "1,0", "2,0", "--method", "nope"],  # argparse error, exit 2
        ["covolume", "--max-rank", "3"],
        ["lr", "B2", "1,0", "1,0", "2,0", "--method", "klimyk"],
        ["lr", "B2", "1,0", "1,0", "2,0"],
    ]

    def outcomes(fresh: bool):
        seen = []
        for argv in calls:
            if fresh:
                cli.build_parser.cache_clear()
            try:
                rc = main(list(argv))
            except SystemExit as exc:
                rc = exc.code
            seen.append((rc, *capsys.readouterr()))
        return seen

    reference = outcomes(fresh=True)
    assert [rc for rc, _, _ in reference] == [0, 0, 2, 0, 0, 0]
    assert "invalid choice: 'nope'" in reference[2][2]
    assert outcomes(fresh=False) == reference
    assert cli.build_parser() is cli.build_parser()


def test_lr_trivial_factor(capsys):
    rc, out = run(capsys, "lr", "B2", "0,0", "3,4", "3,4", "--method", "klimyk")
    assert rc == 0
    assert out.strip() == "klimyk: 1"


def test_volume_all_routes(capsys):
    rc, out = run(capsys, "volume", "B2", "4,7", "5,3", "2,4")
    assert rc == 0
    lines = out.splitlines()
    assert lines[:4] == ["direct: 7/4", "lr: 7/4", "ehrhart: 7/4", "polytope: 7/4"]
    assert "agree: yes" in out


def test_volume_polytope_route(capsys):
    rc, out = run(capsys, "volume", "B2", "5,6", "3,4", "5,6", "--route", "polytope")
    assert rc == 0
    assert "polytope: 6" in out


def test_volume_degenerate_segment(capsys):
    rc, out = run(capsys, "volume", "B2", "5,6", "3,4", "0,10", "--route", "polytope")
    assert rc == 0
    assert "Segment(relative length 2)" in out


@pytest.mark.parametrize("route", ["all", "lr"])
def test_volume_builds_one_bz_polygon(route, monkeypatch, capsys):
    # --route all reports on the polytope route's polygon; --route lr builds the one it reports on
    import hornvol.cli as cli
    import hornvol.volume as volume

    calls = []
    build = volume.bz_polygon_b2
    for module in (cli, volume):
        monkeypatch.setattr(module, "bz_polygon_b2", lambda *a: calls.append(a) or build(*a))
    rc, out = run(capsys, "volume", "B2", "4,7", "5,3", "2,4", "--route", route)
    assert rc == 0 and "degeneracy: Full" in out
    assert calls == [((4, 7), (5, 3), (2, 4))]


def test_volume_rejects_incompatible_for_lr_route(capsys):
    rc, _ = run(capsys, "volume", "B2", "0,1", "0,1", "0,1", "--route", "lr")
    assert rc == 2


def test_ehrhart_refuses_a_triple_off_the_root_lattice(capsys):
    # the library fits it with a longer default period; the command keeps refusing it
    assert main(["ehrhart", "B3", "2,2,1", "2,2,2", "2,2,2"]) == 2
    assert "not compatible" in capsys.readouterr().err


def test_volume_without_c_kappa_table_names_the_algebra_once(capsys):
    assert main(["volume", "G2", "1,1", "1,1", "1,1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: no c_kappa table for G2\n"
    assert "G22" not in err


def test_volume_b3_lr_and_ehrhart(capsys):
    rc, out = run(capsys, "volume", "B3", "1,1,2", "1,1,2", "1,1,2")
    assert rc == 0
    assert "lr: 7/24" in out and "ehrhart: 7/24" in out
    for route in ("direct", "polytope"):
        capsys.readouterr()
        assert main(["volume", "B3", "1,1,2", "1,1,2", "1,1,2", "--route", route]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "B2-specific" in err


def test_non_integral_labels_exit_2(capsys):
    assert main(["lr", "B2", "1/2,0", "1,0", "1,0"]) == 2
    assert capsys.readouterr().err == "error: (1/2, 0) is not an integral weight\n"


def test_volume_skips_lr_beyond_the_size_guard(capsys):
    rc, out = run(capsys, "volume", "B2", "40,40", "40,40", "40,40")
    assert rc == 0
    assert out.splitlines()[:4] == [
        "direct: 600", "ehrhart: 600", "polytope: 600",
        "lr: skipped (dim V_(39, 39) = 2560000 exceeds the cap 1000000)",
    ]
    assert "agree: yes" in out
    rc, out = run(capsys, "volume", "B2", "40,40", "40,40", "40,40", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["skipped"] == {"lr": "dim V_(39, 39) = 2560000 exceeds the cap 1000000"}
    assert sorted(payload["volume"]) == ["direct", "ehrhart", "polytope"]
    assert main(["volume", "B2", "40,40", "40,40", "40,40", "--route", "lr"]) == 2
    assert "exceeds the cap" in capsys.readouterr().err


def test_volume_reports_a_non_shiftable_lr_route_as_skipped(capsys):
    rc, out = run(capsys, "volume", "B2", "0,3", "2,2", "2,3")
    assert rc == 0
    assert "lr: skipped (lam, mu, nu must all dominate rho)" in out.splitlines()


def test_volume_ehrhart_route_without_default_period_points_to_ehrhart(capsys):
    assert main(["volume", "G2", "1,1", "1,1", "1,1", "--route", "ehrhart"]) == 2
    assert capsys.readouterr().err == (
        "error: no default period for G2; volume has no --period, "
        "run 'hornvol ehrhart G2 1,1 1,1 1,1 --period N'\n"
    )


def test_grid_csv_and_svg(tmp_path, capsys):
    csv_path = tmp_path / "grid.csv"
    svg_path = tmp_path / "grid.svg"
    rc, _ = run(capsys, "grid", "17,4", "15,9", "--res", "10",
                "--csv", str(csv_path), "--svg", str(svg_path))
    assert rc == 0
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "gamma1,gamma2,J,pdf"
    assert len(rows) == 1 + 11 * 11
    # outside points carry J = 0
    zero_rows = [r for r in rows[1:] if r.split(",")[2] == "0"]
    assert zero_rows
    svg = svg_path.read_text()
    assert svg.startswith("<?xml")
    for level in (26, 19, 13, 8, 11):
        assert f"g1 = {level} " in svg
    assert "stroke-dasharray" in svg


def test_grid_fig3_right_configuration(tmp_path, capsys):
    svg_path = tmp_path / "grid.svg"
    rc, _ = run(capsys, "grid", "15,3", "17,8", "--res", "4",
                "--csv", str(tmp_path / "g.csv"), "--svg", str(svg_path))
    assert rc == 0
    svg = svg_path.read_text()
    # gamma1 candidate levels for alpha=(15,3), beta=(17,8): 23, 20, 11, 7, 14
    for level in (23, 20, 11, 7, 14):
        assert f"g1 = {level} " in svg


def test_grid_cell_diagram_export(tmp_path, capsys):
    svg_path = tmp_path / "grid.svg"
    cells_path = tmp_path / "cells.json"
    rc, _ = run(capsys, "grid", "17,4", "15,9", "--res", "2",
                "--csv", str(tmp_path / "g.csv"), "--svg", str(svg_path),
                "--cells", str(cells_path))
    assert rc == 0
    diagram = json.loads(cells_path.read_text())
    assert diagram["schema_version"] == 1
    assert len(diagram["cells"]) > 50
    assert all(len(c["coeffs"]) == 6 for c in diagram["cells"])
    assert all(w["classification"] != "violation" for w in diagram["walls"])
    # the SVG emitter consumed the cell polygons
    assert svg_path.read_text().count('stroke="#bbbbbb"') == len(diagram["cells"])


def test_grid_evaluates_j_once_per_point_of_the_horn_polygon(tmp_path, monkeypatch, capsys):
    import hornvol.cli as cli
    import hornvol.volume as volume

    counts = {"j": 0, "inside": 0}
    j_b2, contains = volume.j_b2, volume._in_slabs

    def counting_j(*args):
        counts["j"] += 1
        return j_b2(*args)

    def counting_contains(*args):
        inside = contains(*args)
        counts["inside"] += inside
        return inside

    for module in (cli, volume):
        monkeypatch.setattr(module, "j_b2", counting_j)
    monkeypatch.setattr(cli, "_in_slabs", counting_contains)
    assert main(["grid", "17,4", "15,9", "--csv", str(tmp_path / "g.csv")]) == 0
    # 1,681 points, 1,225 of them in the polygon; the PDF reuses their J
    assert counts == {"j": 1225, "inside": 1225}


def test_grid_dynkin_basis(tmp_path, capsys):
    rc, _ = run(capsys, "grid", "13,8", "6,12", "--basis", "dynkin",
                "--res", "4", "--csv", str(tmp_path / "g.csv"))
    assert rc == 0


@pytest.mark.parametrize("res", ["0", "-3"])
def test_grid_rejects_res_below_one(tmp_path, capsys, res):
    rc = main(["grid", "17,4", "15,9", "--res", res, "--csv", str(tmp_path / "g.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --res")


@pytest.mark.parametrize("option", ["--csv", "--svg", "--cells"])
def test_grid_unwritable_output_exits_2(tmp_path, capsys, option):
    path = tmp_path / "missing" / "out"
    argv = ["grid", "17,4", "15,9", "--res", "1", option, str(path)]
    if option != "--csv":
        argv += ["--csv", str(tmp_path / "g.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_covolume_family_column(capsys):
    rc, out = run(capsys, "covolume", "--family", "B", "--max-rank", "8")
    assert rc == 0
    for r in range(2, 9):
        assert f"| B{r} | {r * r} | {r * (r - 1)} | {(2 * r - 1) ** r} " in out


def test_covolume_a1(capsys):
    rc, out = run(capsys, "covolume", "--family", "A", "--max-rank", "1")
    assert rc == 0
    assert "| A1 | 1 | 0 | 1 | 1 | 1 | yes |" in out


def test_covolume_below_the_minimum_rank_exits_2(capsys):
    assert main(["covolume", "--family", "B", "--max-rank", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: B_r requires r >= 2, but --max-rank is 1\n"


@pytest.mark.parametrize("max_rank", ["0", "-3"])
def test_covolume_table_below_rank_one_exits_2(capsys, max_rank):
    # without --family every classical family was dropped and only G2, F4, E6 printed
    assert main(["covolume", "--max-rank", max_rank]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: max_rank must be at least 1, but is {max_rank}\n"


def test_sample_rejects_zero_n(capsys):
    rc, _ = run(capsys, "sample", "so2", "-N", "0")
    assert rc == 2


@pytest.mark.parametrize("mode", ["b2", "so2"])
def test_sample_rejects_bins_below_one(tmp_path, capsys, mode):
    rc = main(["sample", mode, "-N", "100", "--bins", "0", "--out", str(tmp_path / "s")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --bins")


@pytest.mark.parametrize("mode", ["b2", "so2"])
def test_sample_unwritable_output_exits_2(tmp_path, capsys, mode):
    # 4 x 4 bins give 100 b2 samples a chi-square test, so the write is reached
    prefix = tmp_path / "missing" / "s"
    assert main(["sample", mode, "-N", "100", "--bins", "4", "--out", str(prefix)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(prefix) in err


def test_sample_b2_without_degrees_of_freedom_exits_2(tmp_path, capsys):
    # 500 samples on 40 x 40 bins: no bin expects 20, so the chi-square has dof 0
    prefix = tmp_path / "b2"
    assert main(["sample", "b2", "-N", "500", "--out", str(prefix)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and list(tmp_path.iterdir()) == []
    assert err.startswith("error: ") and "-N 500" in err and "--bins 40" in err


def test_sample_b2_without_any_bin_class_exits_2_naming_the_cause(tmp_path, capsys):
    # 10 samples: even the pooled class expects too few, so no class is left
    prefix = tmp_path / "b2"
    assert main(["sample", "b2", "-N", "10", "--out", str(prefix)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and list(tmp_path.iterdir()) == []
    assert err.startswith("error: ") and "-N 10" in err and "--bins 40" in err
    assert "no degrees of freedom" in err and "-1" not in err


@pytest.mark.parametrize("n", ["1", "3"])
def test_sample_so2_below_a_reachable_ks_threshold_exits_2(tmp_path, capsys, n):
    # 1.949 / sqrt(N) >= 1 for N <= 3, and no KS distance exceeds 1
    prefix = tmp_path / "so2"
    assert main(["sample", "so2", "-N", n, "--out", str(prefix)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and list(tmp_path.iterdir()) == []
    assert err.startswith("error: ") and f"-N {n}" in err


def test_sample_so2_from_four_samples_runs_the_check(tmp_path, capsys):
    rc, out = run(capsys, "sample", "so2", "-N", "4", "--out", str(tmp_path / "so2"))
    assert rc in (0, 1)
    assert json.loads(out)["ks_threshold"] < 1


def test_covolume_b_column_past_rank_eight(capsys):
    rc, out = run(capsys, "covolume", "--family", "B", "--max-rank", "12", "--format", "json")
    assert rc == 0
    reports = json.loads(out)["reports"]
    assert [r["rank"] for r in reports] == list(range(2, 13))
    assert reports[-1]["delta_gram"] == 23**12


ZERO_DENOMINATORS = [
    ["lr", "B2", "1/0,1", "1,1", "1,1"],
    ["volume", "B2", "1,1", "1,1", "1/0,1"],
    ["ehrhart", "B2", "1,1", "1,1", "1,0/0"],
    ["grid", "17,4", "15/0,9"],
    ["sample", "b2", "--alpha", "17,4", "--beta", "1/0,9"],
    ["sample", "so2", "--alpha12", "1/0"],
    ["sample", "so2", "--beta12", "2/0"],
]


@pytest.mark.parametrize("argv", ZERO_DENOMINATORS, ids=lambda a: "-".join(a))
def test_zero_denominator_exits_2(tmp_path, capsys, argv):
    assert main([*argv, *(["--out", str(tmp_path / "s")] if argv[0] == "sample" else [])]) == 2
    out, err = capsys.readouterr()
    assert out == "" and list(tmp_path.iterdir()) == []
    assert err.startswith("error: cannot parse ") and "/0" in err


@pytest.mark.parametrize("argv", [
    *ZERO_DENOMINATORS,
    ["grid", "17,4", "15,9", "--res", "0"],
    ["sample", "b2", "--bins", "0"],
    ["sample", "b2", "-N", "500"],
], ids=lambda a: "-".join(a))
def test_bad_input_exits_2_without_a_traceback_under_python_O(tmp_path, argv):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    if argv[0] == "sample":
        argv = [*argv, "--out", str(tmp_path / "s")]
    proc = subprocess.run([sys.executable, "-O", "-m", "hornvol.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_sample_so2_files(tmp_path, capsys):
    prefix = str(tmp_path / "so2")
    rc, out = run(capsys, "sample", "so2", "--alpha12", "1", "--beta12", "2",
                  "-N", "20000", "--seed", "1", "--out", prefix)
    assert rc == 0
    header = json.loads((tmp_path / "so2.csv").read_text().splitlines()[0])
    assert header == {"schema_version": 1, "N": 20000, "seed": 1, "mode": "so2"}
    report = json.loads((tmp_path / "so2.json").read_text())
    assert report["samples_outside_support"] == 0
    lo, hi = (float(v) for v in report["support"])
    assert 0.999 < lo < 1.05 and 2.95 < hi < 3.001


def test_sample_b2_files(tmp_path, capsys):
    prefix = str(tmp_path / "b2")
    rc, out = run(capsys, "sample", "b2", "--alpha", "17,4", "--beta", "15,9",
                  "-N", "20000", "--seed", "1", "--out", prefix)
    assert rc == 0
    report = json.loads((tmp_path / "b2.json").read_text())
    assert report["samples_outside_support"] == 0
    assert report["chi_square"]["p_value"] > 1e-3
    rows = (tmp_path / "b2.csv").read_text().splitlines()
    assert rows[1] == "gamma1_center,gamma2_center,count,density"


@pytest.mark.parametrize("mode,columns,n_rows,report_keys", [
    ("b2", ["gamma1_center", "gamma2_center", "count", "density"], 6 * 6,
     {"mode", "N", "seed", "samples_outside_support", "chi_square"}),
    ("so2", ["gamma12_center", "count", "density"], 6,
     {"mode", "N", "seed", "support", "samples_outside_support", "ks_distance", "ks_threshold"}),
])
def test_sample_output_shape(tmp_path, capsys, mode, columns, n_rows, report_keys):
    prefix = tmp_path / mode
    rc, out = run(capsys, "sample", mode, "-N", "2000", "--seed", "4", "--bins", "6", "--out", str(prefix))
    assert rc == 0
    header, names, *rows = (tmp_path / f"{mode}.csv").read_text().splitlines()
    assert list(json.loads(header).items()) == [("schema_version", 1), ("N", 2000), ("seed", 4), ("mode", mode)]
    assert names.split(",") == columns
    assert len(rows) == n_rows  # one per bin
    assert sum(int(row.split(",")[columns.index("count")]) for row in rows) == 2000
    report = json.loads((tmp_path / f"{mode}.json").read_text())
    assert set(report) == report_keys | {"schema_version"}
    if mode == "b2":
        assert set(report["chi_square"]) == {"statistic", "dof", "p_value", "bins_used"}
    assert out == json.dumps({k: v for k, v in report.items() if k != "schema_version"}, sort_keys=True) + "\n"


def test_sample_b2_on_a_histogram_of_another_pair_exits_2(tmp_path, monkeypatch, capsys):
    import hornvol.sampler as sampler

    draw = sampler.sample_b2_spectrum
    # the histogram of (17, 4), (15, 9) tested against the law of (17, 4), (14.9, 9)
    monkeypatch.setattr(sampler, "sample_b2_spectrum", lambda alpha, beta, *a, **k: draw((17, 4), (15, 9), *a, **k))
    prefix = tmp_path / "b2"
    assert main(["sample", "b2", "--beta", "149/10,9", "-N", "2000", "--bins", "6", "--out", str(prefix)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and list(tmp_path.iterdir()) == []
    assert err.startswith("error: a histogram drawn for ")


def test_ehrhart_exceptional_algebra_needs_a_period(capsys):
    assert main(["ehrhart", "G2", "1,1", "1,1", "1,1"]) == 2
    assert capsys.readouterr().err == "error: no default period for G2; pass --period\n"


@pytest.mark.parametrize("period", ["0", "-2"])
def test_ehrhart_period_below_one_exits_2(capsys, period):
    assert main(["ehrhart", "B2", "1,2", "1,2", "1,2", "--period", period]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: the period must be at least 1, but is {period}\n"


@pytest.mark.parametrize("argv", [
    ["lr", "B2", "5,6", "-1,4", "5,6"],
    ["volume", "B2", "-1,4", "5,6", "5,6"],
    ["ehrhart", "B2", "5,6", "5,6", "-1,4"],
], ids=lambda a: "-".join(a))
def test_a_weight_whose_first_label_is_negative_is_read_as_a_weight(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: (-1, 4) is not dominant\n"


@pytest.mark.parametrize("argv", [
    ["lr", "A10", *["0,0,0,0,0,0,0,0,0,0"] * 3],
    ["lr", "E8", *["0,0,0,0,0,0,0,0"] * 3, "--method", "steinberg"],
    ["ehrhart", "E7", *["0,0,0,0,0,0,0"] * 3, "--period", "1"],
], ids=lambda a: a[1])
def test_steinberg_on_a_weyl_group_above_the_cap_exits_2_unbuilt(capsys, monkeypatch, argv):
    from hornvol import multiplicity

    def unbuilt(*args):
        raise AssertionError("a Weyl group above the cap was built")

    monkeypatch.setattr(multiplicity, "weyl_elements", unbuilt)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: the Weyl group of {argv[1]} has ") and "above the cap 10000" in err


def test_bad_algebra_and_weights(capsys):
    assert run(capsys, "lr", "Q9", "1,0", "1,0", "1,0")[0] == 2
    assert run(capsys, "lr", "B2", "1", "1,0", "1,0")[0] == 2
    assert run(capsys, "lr", "B3", "1,0,0", "1,0,0", "1,0,0", "--method", "bz")[0] == 2


@pytest.mark.parametrize(
    "name,argv",
    [
        ("volume_475324.json", ["volume", "B2", "4,7", "5,3", "2,4", "--format", "json"]),
        ("volume_563456.json", ["volume", "B2", "5,6", "3,4", "5,6", "--format", "json"]),
        ("ehrhart_563456.json", ["ehrhart", "B2", "5,6", "3,4", "5,6"]),
        ("ehrhart_563464.json", ["ehrhart", "B2", "5,6", "3,4", "6,4"]),
        ("ehrhart_5634210.json", ["ehrhart", "B2", "5,6", "3,4", "2,10"]),
        ("lr_563464.json", ["lr", "B2", "5,6", "3,4", "6,4", "--format", "json"]),
        ("covolume_g2.json", ["covolume", "--family", "G2", "--format", "json"]),
        ("grid_cells_174_159.json", ["grid", "17,4", "15,9", "--csv", os.devnull, "--cells", "{cells}"]),
        ("grid_cells_153_178.json", ["grid", "15,3", "17,8", "--csv", os.devnull, "--cells", "{cells}"]),
        ("grid_174_159.svg",
         ["grid", "17,4", "15,9", "--csv", os.devnull, "--cells", "{cells}", "--svg", "{svg}"]),
    ],
)
def test_golden_outputs(capsys, tmp_path, name, argv):
    files = {"{cells}": tmp_path / "cells.json", "{svg}": tmp_path / "grid.svg"}
    rc, out = run(capsys, *(str(files.get(a, a)) for a in argv))
    assert rc == 0
    if name.endswith(".svg"):
        assert files["{svg}"].read_bytes() == (GOLDEN / name).read_bytes()
        return
    # the cells file or stdout, byte for byte
    got = files["{cells}"].read_bytes() if files["{cells}"].exists() else out.encode()
    assert got == (GOLDEN / name).read_bytes()
    assert json.loads(got)["schema_version"] == 1


# -- the JSON writer against json.dumps ------------------------------------------

json_leaves = st.one_of(
    st.text(),                                  # escapes, control characters and non-ASCII among them
    st.integers(), st.integers(-10**60, 10**60),
    st.booleans(), st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(st.text(), json_values, max_size=6))
def test_emit_json_writes_the_text_of_json_dumps(payload):
    out = io.StringIO()
    _emit_json(payload, out)
    assert out.getvalue() == json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("payload", [{"x": Fraction(1, 2)}, {"x": [object()]}, {"x": {(1, 2): 0}}])
def test_emit_json_refuses_what_json_dumps_refuses(payload):
    with pytest.raises(TypeError):
        json.dumps(payload, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _emit_json(payload, io.StringIO())

