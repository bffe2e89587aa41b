"""The package's public surface and the narrative demos."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

import mesosettle
from mesosettle import jitter, loop, markov, reduction, sim

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_package_exports_each_module_list():
    modules = (markov, jitter, loop, sim, reduction)
    names = [name for module in modules for name in module.__all__]
    assert mesosettle.__all__ == names
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(mesosettle, name) is getattr(module, name), name


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
