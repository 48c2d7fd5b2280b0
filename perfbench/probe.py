"""One set-up in a fresh interpreter: ``python3 perfbench/probe.py <workload>``.

``run.py`` starts this several times and takes the median wall time from
spawn to exit as ``setup_s``: interpreter start, ``import signalgame``,
config resolution and the language-table fill a user pays before the first
operation.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import setup  # noqa: E402

setup(sys.argv[1])
