"""Time one set-up in a fresh interpreter: import geothermo, build the specs.

Prints the seconds taken, then the same calibrated by the kernels sampled
during it (see ``calibrate.py``).  ``run.py`` starts several of these and
reports the median calibrated figure as ``setup_s``.  Nothing before the
first timestamp imports numpy, mpmath or the package, so their import cost
is inside the figure.
"""

import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import calibrate  # noqa: E402  (standard library only)

cal = calibrate.Calibrator()
cal.start()
t0 = time.perf_counter()
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
import specs  # noqa: E402

specs.build()
t1 = time.perf_counter()
cal.stop()
seconds = t1 - t0 - cal.stolen
print(repr(seconds), repr(seconds * cal.scale(t0, t1)))
