"""Print the seconds a fresh interpreter takes to import schmidt_lens and
schmidt_lens.cli and to build one workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import schmidt_lens  # noqa: E402,F401
import schmidt_lens.cli  # noqa: E402,F401

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - START))
