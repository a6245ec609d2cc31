"""Print the setup time of one workload in this fresh interpreter, in seconds.

Setup is the import of hornvol plus the construction of the root systems and
Weyl groups the workload uses.  The second number is the calibration kernel
time right after it.  run.py starts this script several times and reports the
median calibrated setup time as setup_s.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import setup  # noqa: E402

setup(sys.argv[1])
setup_s = time.perf_counter() - t0

from run import CALIBRATION_BURST, calibration_sample  # noqa: E402

kernel_s = sum(calibration_sample() for _ in range(CALIBRATION_BURST)) / CALIBRATION_BURST
print(f"{setup_s:.9f} {kernel_s:.9f}")
