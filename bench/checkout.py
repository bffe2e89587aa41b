"""Locate the checkout's sources and pin the math library before numpy loads.

Every benchmark entry point imports this module first, so the program under
test is always the one in ``<checkout>/src`` and never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# One math-library thread: all load comes from one process and one thread,
# which keeps runs steady on a small shared machine.
MATH_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    pass


def use_checkout_src() -> Path:
    """Pin math threads and put ``src`` first on sys.path; return the root."""
    if not (SRC / "mesosettle" / "__init__.py").is_file():
        raise MissingProgram(f"no mesosettle sources under {SRC}")
    for var in _THREAD_VARS:
        os.environ[var] = str(MATH_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mesosettle

    if SRC not in Path(mesosettle.__file__).resolve().parents:
        raise MissingProgram(f"mesosettle was imported from {mesosettle.__file__}, not {SRC}")
    return ROOT
