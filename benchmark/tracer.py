"""Spans around the lab's module entry points, recorded from outside the package.

`install()` replaces each entry point listed in ENTRY_POINTS with a wrapper
that records a span (name, parent, start, end, info) in memory, in every
module of the package that holds a reference to it.  The spans are written
out once, after the run.  Recording assumes batteries run one at a time, as
they do when ENSTROPHY_LAB_WORKERS is unset.

`layer_metrics()` turns a span list into the per-layer metrics.  A span's
layer is the prefix of its name.  Self time is a span's duration minus the
time its direct children cover; a group time sums the spans of a group that
have no ancestor in the same group, so nested calls count once.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np


def _members(arr) -> int:
    return int(np.prod(np.shape(arr)[:-2], dtype=np.int64))


def _sampled(*args, **kwargs):
    return len(args[1])  # sample_batch(spec, indices)


def _members_arg0(*args, **kwargs):
    return _members(args[0])


def _members_arg1(*args, **kwargs):
    return _members(args[1])


def _integration(ensemble, functional_or_params, params=None, **kwargs):
    # pushforward(ensemble, params) and weak_form_residual(ensemble, functional, params)
    params = functional_or_params if params is None else params
    return [len(ensemble), params.n_steps, params.integrator]


def _battery(*args, **kwargs):
    return "invariance_negative" if kwargs.get("expect_fail") else None


# (module, attribute, span name, info function).  "Class.method" attributes
# are replaced on the class.  The verify.py functions that construct
# dynamics.QuadraticForm matrices count to dynamics; report writing that
# cli.run drives counts to cli.
ENTRY_POINTS = [
    ("cli", "run", "cli.run", None),
    ("verify", "TestReport.write", "cli.write_report", None),
    ("cli", "write_summary_csv", "cli.write_summary", None),
    ("cli", "_sha256_file", "cli.hash_file", None),
    ("cli", "_atomic_write", "cli.write_manifest", None),
    ("verify", "wick_mean_test", "verify.wick_mean", None),
    ("verify", "wick_variance_test", "verify.wick_variance", None),
    ("verify", "moment_bound_test", "verify.moment_bound", None),
    ("verify", "exp_integrability_test", "verify.exp_integrability", None),
    ("verify", "cauchy_study", "verify.cauchy", None),
    ("verify", "dirichlet_kernel_study", "verify.dirichlet_kernel", None),
    ("verify", "invariance_test", "verify.invariance", _battery),
    ("verify", "transport_battery", "verify.transport", None),
    ("verify", "exchange_kernel", "dynamics.exchange_kernel", None),
    ("verify", "rank_one_form", "dynamics.rank_one_form", None),
    ("measure", "sample_batch", "measure.sample_batch", _sampled),
    ("measure", "sample_white_noise", "measure.sample_white_noise", None),
    ("measure", "init_ensemble", "measure.init_ensemble", None),
    ("measure", "GaussianTilt.values", "measure.density_values", None),
    ("measure", "pairings_batch", "measure.pairings_batch", None),
    ("measure", "pushforward", "measure.pushforward", _integration),
    ("measure", "weak_form_residual", "measure.weak_form_residual", _integration),
    ("measure", "sobolev_norm_diff", "measure.sobolev_norm_diff", None),
    ("flow", "_run_padded", "flow.run_padded", None),
    ("flow", "_step_batch", "flow.step_batch", None),
    ("flow", "_step_rk4", "flow.step_rk4", None),
    ("flow", "_step_midpoint_fused", "flow.step_midpoint_fused", None),
    ("flow", "_step_midpoint", "flow.step_midpoint", None),
    ("flow", "real_coordinate_layout", "flow.real_coordinate_layout", None),
    ("dynamics", "SpectralDrift.__call__", "dynamics.drift_call", _members_arg1),
    ("dynamics", "SpectralDrift.padded_drift", "dynamics.padded_drift", _members_arg1),
    ("dynamics", "_drift_dealiased", "dynamics.drift_dealiased", _members_arg0),
    ("dynamics", "_drift_direct", "dynamics.drift_direct", _members_arg0),
    ("dynamics", "drift", "dynamics.drift", None),
    ("dynamics", "quadratic_coefficients", "dynamics.quadratic_coefficients", None),
    ("dynamics", "quadratic_pairing_batch", "dynamics.quadratic_pairing", _members_arg0),
    ("dynamics", "drift_pairing_batch", "dynamics.drift_pairing", _members_arg0),
    ("dynamics", "drift_form_frobenius_sq", "dynamics.drift_form_frobenius_sq", None),
    ("dynamics", "trace_integral", "dynamics.trace_integral", None),
    ("dynamics", "symmetry_integral", "dynamics.symmetry_integral", None),
    ("dynamics", "dirichlet_values", "dynamics.dirichlet_values", None),
    ("cylinder", "CylinderFunctional.value", "cylinder.value", None),
    ("cylinder", "CylinderFunctional.dt_value", "cylinder.dt_value", None),
    ("cylinder", "CylinderFunctional.pairing_gradient", "cylinder.pairing_gradient", None),
    ("cylinder", "CylinderFunctional.empirical_bounds", "cylinder.empirical_bounds", None),
    ("cylinder", "ramp_down", "cylinder.ramp_down", None),
    ("cylinder", "bounded_window", "cylinder.bounded_window", None),
    ("fields", "project", "fields.project", None),
    ("fields", "sobolev_norm", "fields.sobolev_norm", None),
    ("fields", "dual_pairing", "fields.dual_pairing", None),
    ("fields", "dirichlet_kernel", "fields.dirichlet_kernel", None),
    ("fields", "to_grid", "fields.to_grid", None),
    ("fields", "coeffs_to_grid", "fields.coeffs_to_grid", None),
    ("fields", "grid_to_coeffs", "fields.grid_to_coeffs", None),
    ("fields", "evaluate_at", "fields.evaluate_at", None),
    ("fields", "gradient_at", "fields.gradient_at", None),
    ("fields", "_nonuniform_sum", "fields.nonuniform_sum", None),
]

MODULES = ["fields", "dynamics", "flow", "measure", "cylinder", "verify", "cli"]


class Tracer:
    """In-memory span recorder; one call stack, so one thread at a time."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, info_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = info_fn(*args, **kwargs) if info_fn is not None else None
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0, info])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install(package: str = "enstrophy_lab") -> Tracer:
    """Wrap every entry point of the package, wherever it is referenced."""
    tracer = Tracer()
    mods = [importlib.import_module(f"{package}.{m}") for m in MODULES]
    for mod_name, attr, name, info_fn in ENTRY_POINTS:
        mod = importlib.import_module(f"{package}.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(getattr(cls, meth), name, info_fn))
            continue
        orig = getattr(mod, attr)
        wrapped = tracer.wrap(orig, name, info_fn)
        setattr(mod, attr, wrapped)
        if mod_name == "cli" and attr == "_atomic_write":
            continue  # only the manifest write; report files are timed by write_report
        for other in mods:
            for key, val in list(vars(other).items()):
                if val is orig:
                    setattr(other, key, wrapped)
    return tracer


DRIFT_EVALS = {"dynamics.padded_drift", "dynamics.drift_dealiased", "dynamics.drift_direct"}
GROUPS = {
    "measure.sample_batch_s": {"measure.sample_batch", "measure.sample_white_noise"},
    "measure.pushforward_s": {"measure.pushforward"},
    "measure.weak_form_residual_s": {"measure.weak_form_residual"},
    "measure.pairings_s": {"measure.pairings_batch"},
    "dynamics.drift_s": DRIFT_EVALS | {"dynamics.drift_call", "dynamics.drift"},
    "dynamics.pairing_s": {"dynamics.quadratic_pairing", "dynamics.drift_pairing"},
    "dynamics.form_build_s": {"dynamics.quadratic_coefficients", "dynamics.exchange_kernel",
                              "dynamics.rank_one_form"},
    "dynamics.quadrature_s": {"dynamics.trace_integral", "dynamics.symmetry_integral",
                              "dynamics.dirichlet_values"},
    "cli.report_write_s": {"cli.write_report", "cli.write_summary", "cli.hash_file",
                           "cli.write_manifest"},
}
SELF_TIMES = {"flow.self_s": "flow", "cylinder.s": "cylinder", "verify.self_s": "verify",
              "fields.s": "fields"}
BATTERIES = ["wick_mean", "wick_variance", "moment_bound", "exp_integrability", "cauchy",
             "dirichlet_kernel", "invariance", "invariance_negative", "transport"]
UNITS = {"measure.samples_drawn": "count", "measure.us_per_sample": "us",
         "dynamics.drift_evals": "count", "dynamics.drift_member_evals": "count",
         "dynamics.drift_call_member_evals": "count", "dynamics.drift_us_per_member": "us",
         "dynamics.pairing_us_per_sample": "us", "flow.midpoint_sweeps_per_step": "sweeps/step",
         "flow.rk4_evals_per_step": "evals/step", "flow.rk4_pushforward_evals_per_step": "evals/step"}
# counts and ratios of counts: they repeat exactly between runs of one seed
COUNTS = ["measure.samples_drawn", "dynamics.drift_evals", "dynamics.drift_member_evals",
          "dynamics.drift_call_member_evals", "flow.midpoint_sweeps_per_step",
          "flow.rk4_evals_per_step", "flow.rk4_pushforward_evals_per_step"]


def _group_time(spans, names, ancestors) -> float:
    total = 0.0
    for i, s in enumerate(spans):
        if s[0] in names and not any(spans[a][0] in names for a in ancestors[i]):
            total += s[3] - s[2]
    return total


def _per_member_step(spans, ancestors, integrator: str, kind: str) -> float:
    """Drift member-evaluations per member-step inside one kind of integration span."""
    evals = 0
    steps = 0
    for i, s in enumerate(spans):
        if s[0] == kind and s[4][2] == integrator:
            steps += s[4][0] * s[4][1]
        if s[0] in DRIFT_EVALS:
            ctx = next((spans[a] for a in ancestors[i]
                        if spans[a][0] in ("measure.pushforward", "measure.weak_form_residual")),
                       None)
            if ctx is not None and ctx[0] == kind and ctx[4][2] == integrator:
                evals += s[4]
    return evals / steps if steps else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer times and counts of one traced run (see the README table)."""
    ancestors = []
    for s in spans:  # parents precede children, so ancestor lists build in order
        p = s[1]
        ancestors.append([] if p < 0 else [p] + ancestors[p])
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] += s[3] - s[2]
    out: dict[str, float] = {}
    for metric, names in GROUPS.items():
        out[metric] = _group_time(spans, names, ancestors)
    for metric, layer in SELF_TIMES.items():
        out[metric] = sum((s[3] - s[2] - child_time[i] for i, s in enumerate(spans)
                           if s[0].split(".")[0] == layer), 0.0)
    for b in BATTERIES:
        out[f"verify.{b}_s"] = 0.0
    for s in spans:
        if s[0].startswith("verify."):  # battery spans; they never nest
            out[f"verify.{s[4] or s[0].split('.', 1)[1]}_s"] += s[3] - s[2]
    samples = sum(s[4] for s in spans if s[0] == "measure.sample_batch")
    samples += sum(1 for s in spans if s[0] == "measure.sample_white_noise")
    drift_spans = [s for s in spans if s[0] in DRIFT_EVALS]
    members = sum(s[4] for s in drift_spans)
    paired = sum(s[4] for s in spans if s[0] in GROUPS["dynamics.pairing_s"])
    out["measure.samples_drawn"] = samples
    out["measure.us_per_sample"] = 1e6 * out["measure.sample_batch_s"] / samples if samples else 0.0
    out["dynamics.drift_evals"] = len(drift_spans)
    out["dynamics.drift_member_evals"] = members
    out["dynamics.drift_call_member_evals"] = sum(s[4] for s in spans
                                                  if s[0] == "dynamics.drift_call")
    out["dynamics.drift_us_per_member"] = 1e6 * out["dynamics.drift_s"] / members if members else 0.0
    out["dynamics.pairing_us_per_sample"] = (1e6 * out["dynamics.pairing_s"] / paired
                                             if paired else 0.0)
    sweeps = _per_member_step(spans, ancestors, "implicit_midpoint", "measure.pushforward")
    out["flow.midpoint_sweeps_per_step"] = sweeps - 1.0 if sweeps else 0.0
    out["flow.rk4_evals_per_step"] = _per_member_step(spans, ancestors, "rk4",
                                                      "measure.weak_form_residual")
    out["flow.rk4_pushforward_evals_per_step"] = _per_member_step(spans, ancestors, "rk4",
                                                                  "measure.pushforward")
    return out
