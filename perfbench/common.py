"""Shared start-up for the benchmark scripts.

``pin_and_import()`` must run before anything imports numpy: it pins every
BLAS back end to one thread through the environment, then puts the
checkout's ``src/`` first on the import path so the benchmark measures the
code next to it and never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FROZEN = BENCH_DIR / "frozen"


class BenchSetupError(RuntimeError):
    """The checkout cannot be benchmarked (missing sources, bad inputs)."""


def pin_and_import():
    """Pin BLAS, import ``promptmt`` from this checkout and return it."""
    if "numpy" in sys.modules:
        raise BenchSetupError("numpy was imported before the BLAS pin")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "promptmt" / "__init__.py").is_file():
        raise BenchSetupError(f"no promptmt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import promptmt
    if Path(promptmt.__file__).resolve().parent != SRC / "promptmt":
        raise BenchSetupError(f"imported promptmt from {promptmt.__file__}, "
                              f"expected {SRC / 'promptmt'}")
    return promptmt
