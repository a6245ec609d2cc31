"""Self-tests of the benchmark: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from tracer import Tracer, metric_prefix  # noqa: E402
from workloads import WORKLOADS, HornResult, setup  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())
TARGETS = [(f["module"], f["name"]) for f in LAYERS["functions"]]


def traced(wl, items):
    tracer = Tracer(TARGETS, keep_results={"bzpolytope.bz_polygon_b2"})
    tracer.install()
    try:
        result = run.measure(wl, items, tracer, keep_outputs=True)
    finally:
        tracer.uninstall()
    return tracer.summary(), result


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    wl = WORKLOADS[name]()
    assert wl.inputs(7, 3) == wl.inputs(7, 3)
    assert wl.inputs(7, 3) != wl.inputs(8, 3)


def test_inputs_are_compatible_and_regular():
    from hornvol.rootsys import build_root_system, is_compatible

    for call in WORKLOADS["volume_cli"]().inputs(3, 2):
        rs = build_root_system(call.algebra[0], int(call.algebra[1]))
        assert is_compatible(rs, call.lam, call.mu, call.nu)
        assert min(call.lam + call.mu + call.nu) >= 1
    for p in WORKLOADS["horn_pdf"]().inputs(3, 5):
        assert p.alpha[0] > p.alpha[1] > 0 and p.beta[0] > p.beta[1] > 0


def test_lr_sweep_traced_counts_match_triples():
    setup("lr_sweep")
    wl = WORKLOADS["lr_sweep"]()
    items = wl.inputs(11, 2)
    summary, result = traced(wl, items)
    n = len(items)
    assert summary["multiplicity.lr_steinberg.calls"] == n
    assert summary["bzpolytope.lattice_point_count.calls"] == n
    assert summary["bzpolytope.bz_polygon_b2.calls"] == n
    assert summary["multiplicity.tensor_decompose.calls"] == 2
    assert result["counters"]["bzpolytope.polygons"] == len(range(0, n, run.POLYGON_STRIDE))


def test_volume_cli_traced_counts_match_items():
    setup("volume_cli")
    wl = WORKLOADS["volume_cli"]()
    items = wl.inputs(11, 1)
    summary, result = traced(wl, items)
    assert summary["cli.main.calls"] == len(items)
    assert summary["multiplicity.kostant_partition.calls"] > 0
    assert summary["multiplicity.lr_steinberg_table.calls"] > 0
    assert result["failed"] == 0 and result["incorrect"] == 0


def _same(a, b) -> bool:
    if isinstance(a, HornResult):
        fields = ("cells", "walls", "violations", "integral", "b2_outside", "p_value", "ks")
        return all(getattr(a, f) == getattr(b, f) for f in fields) and np.array_equal(a.so2, b.so2)
    return a == b


@pytest.mark.parametrize("name,units,window", [
    ("lr_sweep", 1, slice(0, 45)),
    ("volume_cli", 1, slice(0, 24)),
    ("horn_pdf", 1, slice(1, 3)),
])
def test_traced_and_untraced_results_are_identical(name, units, window):
    setup(name)
    wl = WORKLOADS[name]()
    items = wl.inputs(5, units)[window]
    plain = run.measure(wl, items, keep_outputs=True)
    _, with_trace = traced(wl, items)
    assert len(plain["outputs"]) == len(with_trace["outputs"]) == len(items)
    assert all(_same(a, b) for a, b in zip(plain["outputs"], with_trace["outputs"]))
    assert plain["failed"] == with_trace["failed"]


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(1, 21)]) == (50.0, 10.0, 10)
    assert run.tail([float(i) for i in range(1, 26)]) == (60.0, 15.0, 10)
    assert run.tail([float(i) for i in range(1, 1001)])[0] == 99.0
    assert run.tail([float(i) for i in range(1, 1000)])[0] == 95.0


def test_benchmark_json_matches_contract_and_layers():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCH["workloads"]} == set(WORKLOADS)
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    assert all(name_re.match(m["name"]) for m in metrics)
    assert len({m["name"] for m in metrics}) == len(metrics)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
    expected = []
    for module, name in TARGETS:
        expected += [metric_prefix(module, name) + ".calls", metric_prefix(module, name) + ".self_s"]
    expected += [c["name"] for c in LAYERS["counters"]]
    assert [m["name"] for m in BENCH["per_layer"]] == expected


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_printed_metric_is_in_benchmark_json(name):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
             "--seconds", "1", "--trace", str(trace), "--units", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        lines = done.stdout.splitlines()
        report = json.loads(lines[-1])
        assert set(report) == {"correct", "attempted", "failed", "metrics"}
        assert report["correct"] is True
        declared = {m["name"]: m["unit"] for m in BENCH[section]}
        assert {k: v["unit"] for k, v in report["metrics"].items()} == declared
        detail = json.loads(lines[-2])["detail"]
        all_names = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
        assert {k for k in detail if "." in k} <= all_names


def test_run_without_sources_exits_nonzero_without_result():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "lr_sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
