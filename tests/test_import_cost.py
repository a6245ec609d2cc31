"""Importing the package and its CLI loads neither numpy nor scipy, and nothing loads scipy.

`import numpy` takes about twice as long as `import hornvol`, and most
subcommands never need it: numpy is imported inside the functions of the
exact modules that use it (kostant_values, _cell_quadratics), and the CLI
imports the sampler only when it samples.  scipy is not a runtime
dependency at all: the chi-square p-value is computed in pure Python
(sampler.chi2_sf), and only the tests import scipy, as the reference.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_after(code: str) -> str:
    """Which of numpy and scipy a fresh interpreter has loaded after running the given statements."""
    code = f"import sys; {code}; print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_package_and_cli_import_without_numpy_or_scipy():
    assert loaded_after("import hornvol, hornvol.cli") == "[]"


def test_sampler_imports_without_scipy():
    assert loaded_after("import hornvol.sampler") == "['numpy']"


def test_chi_square_runs_without_scipy():
    code = (
        "from hornvol.sampler import chi_square_vs_pdf, sample_b2_spectrum; "
        "h = sample_b2_spectrum((17, 4), (15, 9), 2000, seed=1, bins=6); "
        "s = chi_square_vs_pdf(h, (17, 4), (15, 9)); "
        "sys.exit(1) if not 0 < s.p_value <= 1 else None"
    )
    assert loaded_after(code) == "['numpy']"


def test_sample_b2_cli_runs_without_scipy(tmp_path):
    prefix = str(tmp_path / "s")
    code = (
        "from hornvol.cli import main; "
        f"rc = main(['sample', 'b2', '-N', '2000', '--bins', '6', '--out', {prefix!r}]); "
        "sys.exit(rc) if rc else None"
    )
    assert loaded_after(code) == "['numpy']"
    assert (tmp_path / "s.csv").exists()
