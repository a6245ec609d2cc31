"""The names the benchmark's traced run wraps and reads must keep resolving.

perfbench/layers.json lists the functions the tracer rebinds, and the run
reads cache_info() of three multiplicity caches; a refactor that renames or
unwraps one of them would silently break the traced benchmark.
"""

import importlib
import json
from pathlib import Path

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
