"""Fresh-process set-up probe: import the package and build a workload.

``run.py`` times this script end to end (interpreter start, imports,
scenario generation and system builds) to report ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed> [--tiny]
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

if __name__ == "__main__":
    size = workloads.SIZES["tiny" if "--tiny" in sys.argv else "full"]
    workloads.setup(sys.argv[1], int(sys.argv[2]), size)
