"""Put the benchmark's modules and the program's sources on the path.

Run with ``python3 -m pytest benchmarks/e2e/tests -q`` from the
repository root.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parents[1] / "src")]
