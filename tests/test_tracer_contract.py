"""The benchmark tracer wraps lab functions by name; every name must resolve."""

import importlib
import inspect
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _tracer_namespace():
    # read-only: executing the source defines names and writes no bytecode;
    # install() is never called
    namespace = {"__name__": "benchmark_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


def _entry_points():
    return [(mod, attr) for mod, attr, _, _ in _tracer_namespace()["ENTRY_POINTS"]]


@pytest.mark.parametrize("mod,attr", _entry_points())
def test_entry_point_resolves(mod, attr):
    obj = importlib.import_module(f"enstrophy_lab.{mod}")
    for part in attr.split("."):
        assert hasattr(obj, part), f"enstrophy_lab.{mod}.{attr} is missing"
        obj = getattr(obj, part)
    assert callable(obj)


@pytest.mark.parametrize("attr,positional", [
    ("pushforward", ["ensemble", "params"]),
    ("weak_form_residual", ["ensemble", "functional", "params"]),
])
def test_integration_info_reads_positional_parameters(attr, positional):
    # the tracer's _integration reads the ensemble and the flow parameters
    # by position: (ensemble, params) or (ensemble, functional, params)
    from enstrophy_lab.cylinder import CylinderFunctional, ramp_down
    from enstrophy_lab.flow import FlowParams
    from enstrophy_lab.measure import MeasureSpec, UniformDensity, init_ensemble

    fn = getattr(importlib.import_module("enstrophy_lab.measure"), attr)
    params = list(inspect.signature(fn).parameters.values())
    assert [p.name for p in params[: len(positional)]] == positional
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[: len(positional)])
    ensemble = init_ensemble(MeasureSpec(cutoff=2, seed=1), UniformDensity(), 3)
    flow = FlowParams(cutoff=2, dt=0.1, t_end=0.3, integrator="rk4")
    args = {"ensemble": ensemble, "params": flow,
            "functional": CylinderFunctional.time_only(*ramp_down(0.3), 0.3)}
    info = _tracer_namespace()["_integration"](*(args[name] for name in positional))
    assert info == [3, 3, "rk4"]
