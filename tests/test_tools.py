from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_jobtimes_runs_one_job_a_against_a():
    """tools/jobtimes.py times a bench job in a fresh process per side and
    prints one table row for it, with the same tree as A and B."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "jobtimes.py"), str(ROOT), str(ROOT),
         "--workload", "analytic", "--jobs", "compare-coarse-w5", "--rounds", "1", "--repeat", "1"],
        check=True, capture_output=True, text=True, timeout=60,
    ).stdout
    header, row = out.splitlines()
    assert header.split() == ["job", "A", "ms", "B", "ms", "B/A"]
    assert row.split()[0] == "compare-coarse-w5"
    assert row.endswith("%")


def test_jobtimes_refuses_a_tree_without_sources(tmp_path):
    """A side whose root holds no src/mesosettle stops the run with a message
    naming that src, rather than timing some other importable copy."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "jobtimes.py"), str(tmp_path), str(ROOT),
         "--workload", "analytic", "--jobs", "compare-coarse-w5", "--rounds", "1", "--repeat", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert f"no mesosettle sources under {tmp_path / 'src'}" in proc.stderr
