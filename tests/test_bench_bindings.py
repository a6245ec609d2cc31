"""The names the benchmark's traced run wraps and reads must keep resolving.

perfbench/layers.json lists the functions the tracer rebinds, and the run
reads cache_info() of three multiplicity caches; a refactor that renames or
unwraps one of them would silently break the traced benchmark.  One item of
each workload in perfbench/workloads.py also runs here, so a refactor that
removes a name the workloads call fails the tests, not a benchmark run.
"""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from hornvol import multiplicity

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.json"


def test_traced_functions_resolve():
    functions = json.loads(LAYERS.read_text())["functions"]
    assert functions
    for entry in functions:
        obj = importlib.import_module(f"hornvol.{entry['module']}")
        for part in entry["name"].split("."):
            obj = getattr(obj, part)
        assert callable(obj), entry


def test_counted_caches_have_cache_info():
    for fn in (multiplicity._freudenthal_cached, multiplicity.kostant_partition_b2, multiplicity._kostant_rec):
        assert callable(fn.cache_info)


def load_workloads():
    """perfbench/workloads.py as a module; its dataclasses need it in sys.modules."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", LAYERS.parent / "workloads.py")
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["lr_sweep", "volume_cli", "horn_pdf"])
def test_one_item_of_each_workload_runs_and_agrees(name):
    """One item of each benchmark workload (one of each kind for volume_cli), in-process,
    the way the benchmark runs it.

    A call the benchmark makes into the package (weyl_group, lr_steinberg_table,
    so2_support and the rest) that stops resolving or agreeing fails here.
    Only the exact routes' agreement is asserted: the Monte Carlo checks of
    horn_pdf fail a correct item by chance about twice in a thousand.
    """
    workloads = load_workloads()
    workloads.setup(name)
    wl = workloads.WORKLOADS[name]()
    items = wl.inputs(7, 1)
    # volume_cli checks its `lr` calls, the middle of each block, through lr_steinberg_table
    picks = [items[0], items[wl.period // 2]] if name == "volume_cli" else items[:1]
    wl.start()
    for item in picks:
        exact_ok, _ = wl.check(item, wl.run(item), Counter())
        assert exact_ok, item
