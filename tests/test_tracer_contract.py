"""The benchmark tracer wraps lab functions by name; every name must resolve."""

import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _entry_points():
    # read-only: executing the source defines names and writes no bytecode;
    # install() is never called
    namespace = {"__name__": "benchmark_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return [(mod, attr) for mod, attr, _, _ in namespace["ENTRY_POINTS"]]


@pytest.mark.parametrize("mod,attr", _entry_points())
def test_entry_point_resolves(mod, attr):
    obj = importlib.import_module(f"enstrophy_lab.{mod}")
    for part in attr.split("."):
        assert hasattr(obj, part), f"enstrophy_lab.{mod}.{attr} is missing"
        obj = getattr(obj, part)
    assert callable(obj)
