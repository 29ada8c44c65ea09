"""Experiment driver: JSON configs in, reproducible report trees out.

A config selects batteries and parameters; together with the seed and the
package version it determines every output byte.  Reports are written
atomically, a summary table aggregates pass/fail, and a manifest records a
content hash for every artifact.  Exit codes: 0 all passed, 1 battery
failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .dynamics import dealias_grid_size, drift, env_workers
from .fields import SpectralField, sobolev_norm
from .flow import FlowParams
from .measure import MeasureSpec, sample_white_noise
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


def _need(params: dict, field_path: str, key: str, typ, default=None):
    if key not in params:
        if default is not None:
            return default
        raise ConfigError(f"{field_path}.{key}", "missing required field")
    val = params[key]
    if typ is float and isinstance(val, int):
        val = float(val)
    if not isinstance(val, typ):
        raise ConfigError(f"{field_path}.{key}", f"expected {typ.__name__}, got {type(val).__name__}")
    return val


def _check_seed(seed, field: str) -> None:
    # bool is an int subclass; SeedSequence would take True as seed 1.
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(field, "must be an integer")
    if seed < 0:
        raise ConfigError(field, f"must be non-negative, got {seed}")


def _field(params: dict, path: str, key: str, default: str) -> SpectralField:
    name = _need(params, path, key, str, default)
    try:
        return named_test_field(name)
    except ValueError as exc:
        raise ConfigError(f"{path}.{key}", str(exc)) from None


def _flow_params(params: dict, path: str, cutoff: int, default_T: float, default_dt: float,
                 default_integrator: str = "implicit_midpoint") -> FlowParams:
    t_end = _need(params, path, "T", float, default_T)
    dt = _need(params, path, "dt", float, default_dt)
    integrator = _need(params, path, "integrator", str, default_integrator)
    try:
        return FlowParams(cutoff=cutoff, dt=dt, t_end=t_end, integrator=integrator)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _kernel(params: dict, path: str, cutoff: int):
    kind = _need(params, path, "kernel", str, "drift")
    if kind == "drift":
        return quadratic_coefficients(_field(params, path, "phi", "cos_x1_plus_x2"), cutoff)
    if kind == "rank_one":
        return rank_one_form(_field(params, path, "phi", "cos_x1"), cutoff)
    if kind == "exchange":
        return exchange_kernel(cutoff)
    raise ConfigError(f"{path}.kernel", f"unknown kernel kind {kind!r}")


def _build_wick_mean(params, path, seed):
    n = _need(params, path, "N", int, 4)
    count = _need(params, path, "M", int, 10000)
    return wick_mean_test(_kernel(params, path, n), MeasureSpec(cutoff=n, seed=seed), count)


def _build_wick_variance(params, path, seed):
    n = _need(params, path, "N", int, 4)
    count = _need(params, path, "M", int, 10000)
    return wick_variance_test(_kernel(params, path, n), MeasureSpec(cutoff=n, seed=seed), count)


def _build_moment_bound(params, path, seed):
    n = _need(params, path, "N", int, 4)
    count = _need(params, path, "M", int, 10000)
    p = _need(params, path, "p", int, 2)
    return moment_bound_test(exchange_kernel(n), p, MeasureSpec(cutoff=n, seed=seed), count)


def _build_exp_integrability(params, path, seed):
    count = _need(params, path, "M", int, 5000)
    n_list = _need(params, path, "N_list", list, [4, 8, 16])
    eps_list = _need(params, path, "eps_list", list, [0.1, 0.25, 0.4, 0.5])
    kind = _need(params, path, "kernel", str, "exchange")
    phi = _field(params, path, "phi", "cos_x1_plus_x2") if kind == "drift" else None
    return exp_integrability_test(phi, eps_list, MeasureSpec(cutoff=max(n_list), seed=seed),
                                  count, n_list, kernel_kind=kind)


def _build_cauchy(params, path, seed):
    n_list = _need(params, path, "N_list", list, [4, 8, 16, 32])
    n_ref = _need(params, path, "N_ref", int, max(n_list))
    count = _need(params, path, "M", int, 10000)
    phi = _field(params, path, "phi", "cos_x1_plus_x2")
    return cauchy_study(phi, n_list, n_ref, MeasureSpec(cutoff=n_ref, seed=seed), count)


def _build_invariance(params, path, seed, expect_fail=False):
    n = _need(params, path, "N", int, 8)
    count = _need(params, path, "M", int, 2000)
    flow = _flow_params(params, path, n, default_T=1.0, default_dt=1e-2)
    names = _need(params, path, "observables", list, ["cos_x1", "sin_x1_plus_x2"])
    obs = [named_test_field(s) for s in names]
    shift = None
    if expect_fail:
        amp = _need(params, path, "shift_amp", float, 1.0)
        shift = (obs[0], amp)
    return invariance_test(MeasureSpec(cutoff=n, seed=seed), flow, obs, count,
                           drift_shift=shift, expect_fail=expect_fail)


def _build_dirichlet(params, path, seed):
    n_list = _need(params, path, "N_list", list, [2, 4, 8])
    size = _need(params, path, "G", int, max(64, 4 * max(n_list) + 4))
    k_max = _need(params, path, "k_max", int, 64)
    phi = _field(params, path, "phi", "cos_x1_plus_x2")
    return dirichlet_kernel_study(phi, n_list, size=size, k_max=k_max)


def _build_transport(params, path, seed):
    n = _need(params, path, "N", int, 6)
    count = _need(params, path, "M", int, 2000)
    flow = _flow_params(params, path, n, default_T=0.5, default_dt=1e-2,
                        default_integrator="rk4")
    tilt = _field(params, path, "tilt_phi", "cos_x1")
    obs = _field(params, path, "obs_phi", "cos_x1")
    return transport_battery(MeasureSpec(cutoff=n, seed=seed), flow, tilt, obs, count)


BATTERY_BUILDERS = {
    "wick_mean": _build_wick_mean,
    "wick_variance": _build_wick_variance,
    "moment_bound": _build_moment_bound,
    "exp_integrability": _build_exp_integrability,
    "cauchy": _build_cauchy,
    "invariance": lambda p, path, s: _build_invariance(p, path, s, expect_fail=False),
    "invariance_negative": lambda p, path, s: _build_invariance(p, path, s, expect_fail=True),
    "dirichlet_kernel": _build_dirichlet,
    "transport": _build_transport,
}


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
    _check_seed(cfg.get("seed", 0), "seed")
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
    """Execute the selected batteries and write reports, summary, manifest."""
    try:
        cfg = load_config(config_path)
        if seed_override is not None:
            _check_seed(seed_override, "--seed-override")
        workers = env_workers() or 1
    except (ConfigError, ValueError) as exc:  # ValueError: ENSTROPHY_LAB_WORKERS
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    seed = seed_override if seed_override is not None else cfg.get("seed", 0)
    out = out_dir or cfg.get("out_dir", "reports")
    os.makedirs(out, exist_ok=True)
    tests = cfg.get("tests", [])

    def execute(i_entry):
        i, entry = i_entry
        name = entry["name"]
        params = entry.get("params", {})
        try:
            return BATTERY_BUILDERS[name](params, f"tests[{i}].params", seed)
        except ConfigError:
            raise
        except Exception as exc:  # battery blew up: failed report, artifacts preserved
            return TestReport(name=name, params=params, seed=seed, passed=False,
                              summary={}, notes=[f"battery raised: {exc!r}"])

    try:
        if workers > 1 and len(tests) > 1:
            with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
                reports = list(pool.map(execute, enumerate(tests)))
        else:
            reports = [execute(item) for item in enumerate(tests)]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

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


def bench(max_n: int = 16, out_dir: str | None = None) -> int:
    """Throughput of the two drift strategies; equivalence asserted first."""
    rows = []
    n = 2
    while n <= max_n:
        spec = MeasureSpec(cutoff=n, seed=2024)
        field = sample_white_noise(spec, 0)
        direct = drift(field, n, "direct")
        fast = drift(field, n, "dealiased")
        dev = float(np.sqrt(np.sum(np.abs(direct.coeffs - fast.coeffs) ** 2)))
        scale = max(1e-30, float(np.sqrt(np.sum(np.abs(direct.coeffs) ** 2))))
        if dev / scale > 1e-12:
            print(f"strategy disagreement at N={n}: rel {dev / scale:.3e}", file=sys.stderr)
            return 1

        def rate(strategy: str) -> float:
            reps, t0 = 0, time.perf_counter()
            while time.perf_counter() - t0 < 0.3:
                drift(field, n, strategy)
                reps += 1
            return reps / (time.perf_counter() - t0)

        rows.append({"N": n, "grid": dealias_grid_size(n), "rel_dev": dev / scale,
                     "direct_evals_per_s": rate("direct"),
                     "dealiased_evals_per_s": rate("dealiased")})
        n *= 2
    print(f"{'N':>4} {'grid':>5} {'direct/s':>12} {'dealiased/s':>12} {'rel_dev':>10}")
    for r in rows:
        print(f"{r['N']:>4} {r['grid']:>5} {r['direct_evals_per_s']:>12.1f} "
              f"{r['dealiased_evals_per_s']:>12.1f} {r['rel_dev']:>10.2e}")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        lines = ["N,grid,direct_evals_per_s,dealiased_evals_per_s,rel_dev"]
        for r in rows:
            lines.append("%d,%d,%.6g,%.6g,%.3e" % (r["N"], r["grid"], r["direct_evals_per_s"],
                                                   r["dealiased_evals_per_s"], r["rel_dev"]))
        _atomic_write(os.path.join(out_dir, "throughput.csv"), "\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="enstrophy-lab",
                                     description="verification batteries for truncated "
                                                 "vorticity dynamics under white noise")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute the batteries selected by a JSON config")
    p_run.add_argument("config", help="path to a JSON config (see quickcheck.cfg)")
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--seed-override", type=int, default=None)
    p_bench = sub.add_parser("bench", help="drift strategy throughput table")
    p_bench.add_argument("--max-n", type=int, default=16)
    p_bench.add_argument("--out-dir", default=None)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, out_dir=args.out_dir, seed_override=args.seed_override)
    return bench(max_n=args.max_n, out_dir=args.out_dir)


if __name__ == "__main__":
    sys.exit(main())
