"""Importing the package and its CLI loads neither numpy nor scipy.

`import numpy` takes about twice as long as `import hornvol`, and most
subcommands never need it: numpy is imported inside the functions of the
exact modules that use it (kostant_table, _cell_quadratics), and the CLI
imports the sampler only when it samples.  The sampler itself loads no
scipy: only chi_square_vs_pdf needs it, and imports it when called.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_after(imports: str) -> str:
    """Which of numpy and scipy a fresh interpreter has loaded after the given import statement."""
    code = f"import sys; {imports}; print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    return out.stdout.strip()


def test_package_and_cli_import_without_numpy_or_scipy():
    assert loaded_after("import hornvol, hornvol.cli") == "[]"


def test_sampler_imports_without_scipy():
    assert loaded_after("import hornvol.sampler") == "['numpy']"
