"""Experiment driver: JSON configs in, reproducible report trees out.

A config selects batteries and parameters; together with the seed and the
package version it determines every output byte.  Reports are written
atomically, a summary table aggregates pass/fail, and a manifest records a
content hash for every artifact.  Exit codes: 0 all passed, 1 battery
failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__
from .dynamics import env_workers
from .flow import FlowParams
from .measure import MeasureSpec
from .verify import (
    TestReport,
    cauchy_study,
    dirichlet_kernel_study,
    exchange_kernel,
    exp_integrability_test,
    invariance_test,
    moment_bound_test,
    named_test_field,
    quadratic_coefficients,
    rank_one_form,
    transport_battery,
    wick_mean_test,
    wick_variance_test,
    write_summary_csv,
    _atomic_write,
)


class ConfigError(Exception):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _typed(val, typ, field: str, lo=None, hi=None):
    """`val` as `typ` (an int is a float; a bool is neither), within [lo, hi]."""
    if typ is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if isinstance(val, bool) or not isinstance(val, typ):
        raise ConfigError(field, f"expected {typ.__name__}, got {type(val).__name__}")
    if (lo is not None and val < lo) or (hi is not None and val > hi):
        bounds = f"at least {lo}" if hi is None else f"between {lo} and {hi}"
        raise ConfigError(field, f"must be {bounds}, got {val}")
    return val


def _named_field(name: str, field: str):
    try:
        return named_test_field(name)
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from None


class _Params:
    """A battery's params: typed, range-checked reads that remember each key."""

    def __init__(self, params: dict, path: str):
        self.params, self.path, self.read = params, path, set()

    def get(self, key: str, typ, default, lo=None, hi=None):
        self.read.add(key)
        return _typed(self.params.get(key, default), typ, f"{self.path}.{key}", lo, hi)

    def get_list(self, key: str, typ, default: list, lo=None) -> list:
        vals = self.get(key, list, default)
        if not vals:
            raise ConfigError(f"{self.path}.{key}", "must not be empty")
        for j, v in enumerate(vals):
            _typed(v, typ, f"{self.path}.{key}[{j}]", lo)
        return vals

    def cutoffs(self, default: list) -> list:
        n_list = self.get_list("N_list", int, default, lo=1)
        if len(set(n_list)) < len(n_list):  # a repeat pairs a cutoff with itself or writes it twice
            raise ConfigError(f"{self.path}.N_list", f"repeats a cutoff: {n_list}")
        return n_list

    def field(self, key: str, default: str):
        return _named_field(self.get(key, str, default), f"{self.path}.{key}")

    def flow(self, cutoff: int, default_T: float, default_dt: float,
             default_integrator: str = "implicit_midpoint") -> FlowParams:
        t_end = self.get("T", float, default_T)
        dt = self.get("dt", float, default_dt)
        integrator = self.get("integrator", str, default_integrator)
        try:
            return FlowParams(cutoff=cutoff, dt=dt, t_end=t_end, integrator=integrator)
        except ValueError as exc:
            raise ConfigError(self.path, str(exc)) from None


def _kernel(p: _Params, cutoff: int):
    kind = p.get("kernel", str, "drift")
    if kind == "drift":
        return quadratic_coefficients(p.field("phi", "cos_x1_plus_x2"), cutoff)
    if kind == "rank_one":
        return rank_one_form(p.field("phi", "cos_x1"), cutoff)
    if kind == "exchange":
        return exchange_kernel(cutoff)
    raise ConfigError(f"{p.path}.kernel", f"unknown kernel kind {kind!r}")


# Each builder validates its params and returns the battery as a thunk, so
# that every entry is checked before any battery runs.  Cutoffs start at 1;
# Monte Carlo counts at 2, the fewest that give a standard error.

def _build_wick_mean(p: _Params, seed: int):
    n = p.get("N", int, 4, lo=1)
    count = p.get("M", int, 10000, lo=1000)
    kernel = _kernel(p, n)
    return lambda: wick_mean_test(kernel, MeasureSpec(cutoff=n, seed=seed), count)


def _build_wick_variance(p: _Params, seed: int):
    n = p.get("N", int, 4, lo=1)
    count = p.get("M", int, 10000, lo=2)
    kernel = _kernel(p, n)
    return lambda: wick_variance_test(kernel, MeasureSpec(cutoff=n, seed=seed), count)


def _build_moment_bound(p: _Params, seed: int):
    n = p.get("N", int, 4, lo=1)
    count = p.get("M", int, 10000, lo=2)
    order = p.get("p", int, 2, lo=2, hi=6)
    return lambda: moment_bound_test(exchange_kernel(n), order, MeasureSpec(cutoff=n, seed=seed),
                                     count)


def _build_exp_integrability(p: _Params, seed: int):
    count = p.get("M", int, 5000, lo=2)
    n_list = p.cutoffs([4, 8, 16])
    eps_list = p.get_list("eps_list", float, [0.1, 0.25, 0.4, 0.5])
    kind = p.get("kernel", str, "exchange")
    if kind not in ("exchange", "drift"):
        raise ConfigError(f"{p.path}.kernel", f"unknown kernel kind {kind!r}")
    phi = p.field("phi", "cos_x1_plus_x2") if kind == "drift" else None
    return lambda: exp_integrability_test(phi, eps_list, MeasureSpec(cutoff=max(n_list), seed=seed),
                                          count, n_list, kernel_kind=kind)


def _build_cauchy(p: _Params, seed: int):
    n_list = p.cutoffs([4, 8, 16, 32])
    if len(n_list) < 2:
        raise ConfigError(f"{p.path}.N_list", "needs at least two cutoffs")
    n_ref = p.get("N_ref", int, max(n_list), lo=max(n_list))
    count = p.get("M", int, 10000, lo=2)
    phi = p.field("phi", "cos_x1_plus_x2")
    return lambda: cauchy_study(phi, n_list, n_ref, MeasureSpec(cutoff=n_ref, seed=seed), count)


def _build_invariance(p: _Params, seed: int, expect_fail: bool = False):
    n = p.get("N", int, 8, lo=1)
    count = p.get("M", int, 2000, lo=2)
    flow = p.flow(n, default_T=1.0, default_dt=1e-2)
    names = p.get_list("observables", str, ["cos_x1", "sin_x1_plus_x2"])
    obs = [_named_field(s, f"{p.path}.observables[{j}]") for j, s in enumerate(names)]
    shift = (obs[0], p.get("shift_amp", float, 1.0)) if expect_fail else None
    return lambda: invariance_test(MeasureSpec(cutoff=n, seed=seed), flow, obs, count,
                                   drift_shift=shift, expect_fail=expect_fail)


def _build_dirichlet(p: _Params, seed: int):
    n_list = p.cutoffs([2, 4, 8])
    size = p.get("G", int, max(64, 4 * max(n_list) + 4), lo=4 * max(n_list) + 4)
    if size % 2:
        raise ConfigError(f"{p.path}.G", f"must be even, got {size}")
    k_max = p.get("k_max", int, 64, lo=1)
    phi = p.field("phi", "cos_x1_plus_x2")
    return lambda: dirichlet_kernel_study(phi, n_list, size=size, k_max=k_max)


def _build_transport(p: _Params, seed: int):
    n = p.get("N", int, 6, lo=1)
    count = p.get("M", int, 2000, lo=2)
    flow = p.flow(n, default_T=0.5, default_dt=1e-2, default_integrator="rk4")
    if flow.t_end == 0:
        raise ConfigError(f"{p.path}.T", "must be positive: the weak form's time factor ramps to 0 over T")
    tilt = p.field("tilt_phi", "cos_x1")
    obs = p.field("obs_phi", "cos_x1")
    return lambda: transport_battery(MeasureSpec(cutoff=n, seed=seed), flow, tilt, obs, count)


BATTERY_BUILDERS = {
    "wick_mean": _build_wick_mean,
    "wick_variance": _build_wick_variance,
    "moment_bound": _build_moment_bound,
    "exp_integrability": _build_exp_integrability,
    "cauchy": _build_cauchy,
    "invariance": lambda p, s: _build_invariance(p, s, expect_fail=False),
    "invariance_negative": lambda p, s: _build_invariance(p, s, expect_fail=True),
    "dirichlet_kernel": _build_dirichlet,
    "transport": _build_transport,
}


def _prepare(i: int, entry: dict, seed: int):
    """Validate one config entry; return its battery as a thunk."""
    p = _Params(entry.get("params", {}), f"tests[{i}].params")
    job = BATTERY_BUILDERS[entry["name"]](p, seed)
    unread = sorted(set(p.params) - p.read)
    if unread:
        raise ConfigError(f"{p.path}.{unread[0]}",
                          f"unknown key; this entry reads {sorted(p.read)}")
    return job


def load_config(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be an object")
    cfg["_sha256"] = hashlib.sha256(raw).hexdigest()
    _typed(cfg.get("seed", 0), int, "seed", lo=0)  # a bool seed would run as 0 or 1
    tests = cfg.get("tests", [])
    if not isinstance(tests, list):
        raise ConfigError("tests", "must be a list")
    for i, entry in enumerate(tests):
        if not isinstance(entry, dict):
            raise ConfigError(f"tests[{i}]", "must be an object")
        name = entry.get("name")
        if name not in BATTERY_BUILDERS:
            raise ConfigError(f"tests[{i}].name",
                              f"unknown battery {name!r}; known: {sorted(BATTERY_BUILDERS)}")
        if not isinstance(entry.get("params", {}), dict):
            raise ConfigError(f"tests[{i}].params", "must be an object")
    return cfg


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def run(config_path: str, out_dir: str | None = None, seed_override: int | None = None) -> int:
    """Validate every entry, run the batteries in config order, write reports, summary, manifest."""
    try:
        cfg = load_config(config_path)
        if seed_override is not None:
            _typed(seed_override, int, "--seed-override", lo=0)
        env_workers()  # a bad FFT thread cap is a config error before any battery runs
        seed = seed_override if seed_override is not None else cfg.get("seed", 0)
        tests = cfg.get("tests", [])
        jobs = [_prepare(i, entry, seed) for i, entry in enumerate(tests)]
    except (ConfigError, ValueError) as exc:  # ValueError: ENSTROPHY_LAB_WORKERS
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = out_dir or cfg.get("out_dir", "reports")
    os.makedirs(out, exist_ok=True)

    reports = []
    for entry, job in zip(tests, jobs):
        t0 = time.perf_counter()
        try:
            rep = job()
        except Exception as exc:  # battery blew up: failed report, artifacts preserved
            rep = TestReport(name=entry["name"], params=entry.get("params", {}), seed=seed,
                             passed=False, summary={}, notes=[f"battery raised: {exc!r}"])
        rep.runtime_seconds = time.perf_counter() - t0
        reports.append(rep)
    # report names come from the batteries; check them before writing any
    writers: dict[str, int] = {}
    for i, rep in enumerate(reports):
        if rep.name in writers:
            print(f"config error: tests[{writers[rep.name]}] and tests[{i}] both write "
                  f"report {rep.name!r} ({rep.name}.json)", file=sys.stderr)
            return 2
        writers[rep.name] = i

    files = []
    for rep in reports:
        files.extend(rep.write(out))
        status = "PASS" if rep.passed else "FAIL"
        print(f"[{status}] {rep.name}  ({rep.runtime_seconds:.1f}s)")
    summary_path = os.path.join(out, "summary.csv")
    write_summary_csv(summary_path, reports)
    files.append(summary_path)
    manifest = {
        "version": __version__,
        "config_sha256": cfg["_sha256"],
        "seed": seed,
        "files": {os.path.basename(p): _sha256_file(p) for p in sorted(files)},
    }
    _atomic_write(os.path.join(out, "manifest.json"),
                  json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="enstrophy-lab",
                                     description="verification batteries for truncated "
                                                 "vorticity dynamics under white noise")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute the batteries selected by a JSON config")
    p_run.add_argument("config", help="path to a JSON config (see quickcheck.cfg)")
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--seed-override", type=int, default=None)
    args = parser.parse_args(argv)
    return run(args.config, out_dir=args.out_dir, seed_override=args.seed_override)


if __name__ == "__main__":
    sys.exit(main())
