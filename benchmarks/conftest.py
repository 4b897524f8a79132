"""Benchmark-suite fixtures and shape-assertion helpers.

Every benchmark regenerates one of the paper's exhibits, prints the
measured table next to the paper's numbers, and asserts the *shape*
claims (who wins, roughly by how much).  Absolute simulated seconds are
not compared against the paper — the substrate is a simulator, not the
authors' 2002 testbed (see DESIGN.md §3).
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before NumPy loads (pytest imports this file before
# any bench module) and inherited by the shard workers the parallel rows
# fork.  With OpenBLAS's default of one thread per CPU, two workers on a
# 2-CPU host ran four BLAS threads: the 2-worker sharded DTW join read
# 0.55-0.77x serial, against 1.6-2.0x with one thread.
assert "numpy" not in sys.modules, (
    "NumPy was imported before benchmarks/conftest.py could pin one BLAS "
    "thread; run the benchmarks in a pytest process of their own"
)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

# Machine-readable benchmark trajectory: every bench run folds its numbers
# into this one file (keyed by section) so successive PRs can diff perf
# without parsing text tables.  Checked in at the repo root; CI uploads it
# as an artifact.
BENCH_JSON = Path(__file__).parent.parent / "BENCH_micro.json"


def record_json_result(section: str, payload) -> None:
    """Merge one section of measurements into ``BENCH_micro.json``."""
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except json.JSONDecodeError:
            data = {}
    data[section] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def record_json():
    return record_json_result


def assert_ordering(values: dict, ordering: list, slack: float = 1.0) -> None:
    """Assert values[ordering[0]] >= values[ordering[1]] >= ... (with slack).

    ``slack`` < 1 tolerates small inversions (e.g. 0.95 allows the later
    method to be up to ~5 % above the earlier one).
    """
    for earlier, later in zip(ordering, ordering[1:]):
        assert values[later] <= values[earlier] / slack + 1e-12, (
            f"expected {later} <= {earlier}: "
            f"{later}={values[later]:.3f} vs {earlier}={values[earlier]:.3f}"
        )


@pytest.fixture(scope="session")
def shape():
    return assert_ordering


def record_result(name: str, text: str) -> None:
    """Print a measured table and persist it under benchmarks/results/.

    pytest captures stdout by default, so the persistent copy is what
    survives a plain ``pytest benchmarks/ --benchmark-only`` run; use
    ``-s`` to also see the tables live.
    """
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    # Mirror every figure/table bench into the machine-readable trajectory
    # file so one artifact carries the whole run.
    record_json_result(f"table:{name}", {"text": text})


@pytest.fixture(scope="session")
def record():
    return record_result
