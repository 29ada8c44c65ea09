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
import math
import os
import sys
import time
from typing import Callable, NamedTuple

from . import __version__
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
    _pairing_values,
)


class ConfigError(Exception):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _typed(val, typ, field: str, lo=None, hi=None):
    """`val` as `typ` (an int is a float; a bool is neither; a float is finite), within [lo, hi]."""
    if typ is float and isinstance(val, int) and not isinstance(val, bool):
        try:
            val = float(val)
        except OverflowError:
            raise ConfigError(field, "must be finite, got an integer beyond the float range") from None
    if isinstance(val, bool) or not isinstance(val, typ):
        raise ConfigError(field, f"expected {typ.__name__}, got {type(val).__name__}")
    if typ is float and not math.isfinite(val):
        raise ConfigError(field, f"must be finite, got {val}")
    if (lo is not None and val < lo) or (hi is not None and val > hi):
        bounds = f"at least {lo}" if hi is None else f"between {lo} and {hi}"
        raise ConfigError(field, f"must be {bounds}, got {val}")
    return val


def _named_field(name: str, field: str, cutoff: int | None = None):
    """The named test field; with `cutoff`, it must fit the lattice it is paired on."""
    try:
        phi = named_test_field(name)
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from None
    if cutoff is not None and phi.cutoff > cutoff:
        raise ConfigError(field, f"{name!r} has modes up to {phi.cutoff}, beyond the cutoff N={cutoff}")
    return phi


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

    def distinct_list(self, key: str, typ, default: list, lo=None) -> list:
        vals = self.get_list(key, typ, default, lo)
        if len(set(vals)) < len(vals):  # a repeat pairs a cutoff with itself or writes a row twice
            raise ConfigError(f"{self.path}.{key}", f"repeats an entry: {vals}")
        return vals

    def cutoffs(self, default: list) -> list:
        return self.distinct_list("N_list", int, default, lo=1)

    def field(self, key: str, default: str, cutoff: int | None = None):
        return _named_field(self.get(key, str, default), f"{self.path}.{key}", cutoff)

    def flow(self, cutoff: int, default_T: float, default_dt: float,
             default_integrator: str = "implicit_midpoint") -> FlowParams:
        t_end = self.get("T", float, default_T)
        if t_end <= 0:  # zero steps would check nothing
            raise ConfigError(f"{self.path}.T", f"must be positive, got {t_end}")
        dt = self.get("dt", float, default_dt)
        integrator = self.get("integrator", str, default_integrator)
        try:
            return FlowParams(cutoff=cutoff, dt=dt, t_end=t_end, integrator=integrator)
        except ValueError as exc:
            raise ConfigError(self.path, str(exc)) from None


def _kernel(p: _Params, cutoff: int):
    kind = p.get("kernel", str, "drift")
    if kind == "drift":
        return quadratic_coefficients(p.field("phi", "cos_x1_plus_x2", cutoff), cutoff)
    if kind == "rank_one":
        return rank_one_form(p.field("phi", "cos_x1"), cutoff)
    if kind == "exchange":
        return exchange_kernel(cutoff)
    raise ConfigError(f"{p.path}.kernel", f"unknown kernel kind {kind!r}")


class _Draw(NamedTuple):
    """A pairing battery's draw: samples 0..count-1 of `spec`, paired with `forms`."""

    spec: MeasureSpec
    count: int
    forms: list
    battery: Callable  # battery(pairings) runs it on a reader like `_pairing_values`


class _DrawPool:
    """One `_pairing_values` pass per measure and run, made at its first reader.

    A pass covers the largest declared count and every declared form; each
    reader gets the first `count` values of its own forms, which equal a pass
    of its own because rows are pure functions of (spec, index).  A pass that
    raises raises again for every reader of its measure.
    """

    def __init__(self):
        self._plans: dict = {}   # spec -> (largest count, forms)
        self._passes: dict = {}  # spec -> values, or the exception its pass raised

    def bind(self, draw: _Draw) -> Callable:
        """Declare `draw`; return its battery as a thunk that reads the pool."""
        largest, declared = self._plans.get(draw.spec, (0, []))
        first = len(declared)
        self._plans[draw.spec] = (max(largest, draw.count), declared + draw.forms)

        def read(spec, count, forms):
            assert (spec, count, len(forms)) == (draw.spec, draw.count, len(draw.forms))
            if spec not in self._passes:
                try:
                    self._passes[spec] = _pairing_values(spec, *self._plans[spec])
                except Exception as exc:
                    self._passes[spec] = exc
            if isinstance(self._passes[spec], Exception):
                raise self._passes[spec]
            return [v[:count].copy() for v in self._passes[spec][first : first + len(forms)]]
        return lambda: draw.battery(read)


# Each builder validates its params and returns the battery as a thunk, or,
# for a pairing battery, as a `_Draw`, so that every entry is checked before
# any battery runs.  Cutoffs start at 1; Monte Carlo counts at 2, the fewest
# that give a standard error.

def _build_wick_mean(p: _Params, seed: int):
    n = p.get("N", int, 4, lo=1)
    count = p.get("M", int, 10000, lo=1000)
    kernel, spec = _kernel(p, n), MeasureSpec(cutoff=n, seed=seed)
    return _Draw(spec, count, [kernel], lambda read: wick_mean_test(kernel, spec, count, read))


def _build_wick_variance(p: _Params, seed: int):
    n = p.get("N", int, 4, lo=1)
    count = p.get("M", int, 10000, lo=2)
    kernel, spec = _kernel(p, n), MeasureSpec(cutoff=n, seed=seed)
    return _Draw(spec, count, [kernel], lambda read: wick_variance_test(kernel, spec, count, read))


def _build_moment_bound(p: _Params, seed: int):
    n = p.get("N", int, 4, lo=1)
    count = p.get("M", int, 10000, lo=2)
    order = p.get("p", int, 2, lo=2, hi=6)
    kernel, spec = exchange_kernel(n), MeasureSpec(cutoff=n, seed=seed)
    return _Draw(spec, count, [kernel],
                 lambda read: moment_bound_test(kernel, order, spec, count, pairings=read))


def _build_exp_integrability(p: _Params, seed: int):
    count = p.get("M", int, 5000, lo=2)
    n_list = p.cutoffs([4, 8, 16])
    eps_list = p.distinct_list("eps_list", float, [0.1, 0.25, 0.4, 0.5])
    kind = p.get("kernel", str, "exchange")
    if kind not in ("exchange", "drift"):
        raise ConfigError(f"{p.path}.kernel", f"unknown kernel kind {kind!r}")
    phi = p.field("phi", "cos_x1_plus_x2", min(n_list)) if kind == "drift" else None
    spec = MeasureSpec(cutoff=max(n_list), seed=seed)
    forms = [quadratic_coefficients(phi, n) if phi is not None else exchange_kernel(n)
             for n in sorted(n_list)]
    return _Draw(spec, count, forms, lambda read: exp_integrability_test(
        phi, eps_list, spec, count, n_list, kernel_kind=kind, pairings=read))


def _build_cauchy(p: _Params, seed: int):
    n_list = p.cutoffs([4, 8, 16, 32])
    if len(n_list) < 2:
        raise ConfigError(f"{p.path}.N_list", "needs at least two cutoffs")
    n_ref = p.get("N_ref", int, max(n_list), lo=max(n_list))
    count = p.get("M", int, 10000, lo=2)
    phi = p.field("phi", "cos_x1_plus_x2", min(n_list))
    spec = MeasureSpec(cutoff=n_ref, seed=seed)
    forms = [quadratic_coefficients(phi, n) for n in sorted(n_list)]
    return _Draw(spec, count, forms,
                 lambda read: cauchy_study(phi, n_list, n_ref, spec, count, pairings=read))


def _build_invariance(p: _Params, seed: int, expect_fail: bool = False):
    n = p.get("N", int, 8, lo=1)
    count = p.get("M", int, 2000, lo=2)
    flow = p.flow(n, default_T=1.0, default_dt=1e-2)
    names = p.get_list("observables", str, ["cos_x1", "sin_x1_plus_x2"])
    obs = [_named_field(s, f"{p.path}.observables[{j}]", n) for j, s in enumerate(names)]
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
    tilt = p.field("tilt_phi", "cos_x1", n)
    obs = p.field("obs_phi", "cos_x1", n)
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


def _known_keys(obj: dict, known, path: str) -> None:
    """Reject a key outside `known`: it would be ignored silently."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError(f"{path}{unknown[0]}", f"unknown key; accepted: {sorted(known)}")


def _prepare(i: int, entry: dict, seed: int):
    """Validate one config entry; return its battery as a thunk or a `_Draw`."""
    p = _Params(entry.get("params", {}), f"tests[{i}].params")
    job = BATTERY_BUILDERS[entry["name"]](p, seed)
    _known_keys(p.params, p.read, f"{p.path}.")
    return job


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are distinct: a repeated key would overwrite silently."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise ConfigError(key, "repeated in one JSON object")
    return obj


def load_config(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    try:
        cfg = json.loads(raw, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # bad syntax, bytes that are not UTF-8, or an integer too long to parse
        raise ConfigError("config", f"invalid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be an object")
    _known_keys(cfg, ("seed", "out_dir", "tests"), "")
    _typed(cfg.get("seed", 0), int, "seed", lo=0)  # a bool seed would run as 0 or 1
    if not _typed(cfg.get("out_dir", "reports"), str, "out_dir"):
        raise ConfigError("out_dir", "must not be empty")
    tests = cfg.get("tests", [])
    if not isinstance(tests, list):
        raise ConfigError("tests", "must be a list")
    for i, entry in enumerate(tests):
        if not isinstance(entry, dict):
            raise ConfigError(f"tests[{i}]", "must be an object")
        _known_keys(entry, ("name", "params"), f"tests[{i}].")
        name = entry.get("name")
        if name not in BATTERY_BUILDERS:
            raise ConfigError(f"tests[{i}].name",
                              f"unknown battery {name!r}; known: {sorted(BATTERY_BUILDERS)}")
        if not isinstance(entry.get("params", {}), dict):
            raise ConfigError(f"tests[{i}].params", "must be an object")
    cfg["_sha256"] = hashlib.sha256(raw).hexdigest()
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
        seed = seed_override if seed_override is not None else cfg.get("seed", 0)
        tests = cfg.get("tests", [])
        jobs = [_prepare(i, entry, seed) for i, entry in enumerate(tests)]
        pool = _DrawPool()
        jobs = [pool.bind(job) if isinstance(job, _Draw) else job for job in jobs]
        field, out = ("--out-dir", out_dir) if out_dir is not None else ("out_dir", cfg.get("out_dir", "reports"))
        try:
            os.makedirs(out, exist_ok=True)
        except (OSError, ValueError) as exc:  # an empty path, an existing file, a path under one, a NUL
            raise ConfigError(field, f"{getattr(exc, 'strerror', None) or exc}: {out!r}") from None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

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
