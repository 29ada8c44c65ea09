"""Statistical verification batteries with reproducible reports.

Each battery draws its own counter-based streams from a seed, computes
Monte Carlo estimates with standard errors from the same run, compares
them against exact spectral predictions, and returns a `TestReport`.
Reports serialize deterministically: a report is a pure function of
(name, parameters, seed) for a fixed binary, so re-runs are byte
identical.  `cli.run` times each battery and sets the report's
wall-clock runtime, which is printed on the console but never written
into artifacts.

Assertion conventions: Monte Carlo checks use 3-standard-error bands
computed from the run itself; exact-arithmetic identities use the 1e-12 /
1e-13 rungs of the tolerance ladder; heavy-tailed regimes are reported
without a pass criterion (flagged in the table instead).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field as dc_field, replace
from typing import Optional, Sequence

import numpy as np
import scipy.stats
from scipy.special import gammaln

from .cylinder import CylinderFunctional, bounded_window, ramp_down
from .dynamics import (
    DenseForm,
    KernelEval,
    QuadraticForm,
    SpectralDrift,
    dirichlet_values,
    drift,
    quadratic_coefficients,
    quadratic_pairing_batch,
    symmetry_integral,
    trace_integral,
)
from .fields import (
    SpectralField,
    dirichlet_kernel,
    dual_pairing,
    gradient_at,
    grid_to_coeffs,
    project,
    sobolev_norm,
    to_grid,
)
from .flow import FlowParams, real_coordinate_layout
from .measure import (
    GaussianTilt,
    MeasureSpec,
    UniformDensity,
    _mean_se,
    init_ensemble,
    pairings_batch,
    pushforward,
    sample_batch,
    weak_form_residual,
)


@dataclass
class TestReport:
    """Outcome of one battery; serializes without the runtime field."""

    __test__ = False  # not a pytest test class despite the name

    name: str
    params: dict
    seed: int
    passed: bool
    summary: dict
    table: list[dict] = dc_field(default_factory=list)
    notes: list[str] = dc_field(default_factory=list)
    runtime_seconds: float = 0.0

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "params": _plain(self.params),
            "seed": int(self.seed),
            "passed": bool(self.passed),
            "summary": _plain(self.summary),
            "table": _plain(self.table),
            "notes": list(self.notes),
        }
        return json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)

    def write(self, out_dir) -> list[str]:
        """Write <name>.json and, when a table exists, <name>.csv; atomic."""
        os.makedirs(out_dir, exist_ok=True)
        written = []
        jpath = os.path.join(out_dir, f"{self.name}.json")
        _atomic_write(jpath, self.to_json() + "\n")
        written.append(jpath)
        if self.table:
            cols = list(self.table[0].keys())
            lines = [",".join(cols)]
            for row in self.table:
                lines.append(",".join(_csv_cell(row.get(c)) for c in cols))
            cpath = os.path.join(out_dir, f"{self.name}.csv")
            _atomic_write(cpath, "\n".join(lines) + "\n")
            written.append(cpath)
        return written


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None  # RFC 8259 JSON has no NaN or infinity
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


def _csv_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    return str(v)


def _atomic_write(path, text: str) -> None:
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_summary_csv(path, reports: Sequence[TestReport]) -> None:
    lines = ["name,passed"]
    for rep in reports:
        lines.append(f"{rep.name},{'true' if rep.passed else 'false'}")
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# named test fields and reference kernels

_NAMED_FIELDS: dict[str, dict[tuple[int, int], complex]] = {
    "cos_x1": {(1, 0): 0.5},
    "cos_x1_plus_x2": {(1, 1): 0.5},
    "sin_x1_plus_x2": {(1, 1): -0.5j},
    "cos_2x1_plus_x2": {(2, 1): 0.5},
    "mix_low": {(1, 0): 0.4, (1, 1): 0.25, (2, -1): 0.1 + 0.2j},
}


def named_test_field(name: str) -> SpectralField:
    """Small library of smooth test fields addressable from configs."""
    try:
        modes = _NAMED_FIELDS[name]
    except KeyError:
        raise ValueError(f"unknown test field {name!r}; known: {sorted(_NAMED_FIELDS)}") from None
    cutoff = max(max(abs(a), abs(b)) for a, b in modes)
    return SpectralField.from_modes(cutoff, modes)


class RankOneForm(QuadraticForm):
    """Kernel phi(x) psi(y), symmetrized: the pairing is <w,phi><w,psi>."""

    def __init__(self, phi: SpectralField, psi: SpectralField, cutoff: int):
        self.cutoff = cutoff
        self.phi, self.psi = project(phi, cutoff), project(psi, cutoff)
        self._a = np.conj(self.phi.coeffs).ravel()
        self._b = np.conj(self.psi.coeffs).ravel()

    def pair(self, batch: np.ndarray) -> np.ndarray:
        flat = batch.reshape(batch.shape[:-2] + (-1,))
        return (flat @ self._a) * (flat @ self._b)

    def trace(self) -> float:
        return dual_pairing(self.phi, self.psi)

    def frobenius_sq(self) -> float:
        # |1/2 (a b^T + b a^T)|^2 = 1/2 (|a|^2 |b|^2 + |a^H b|^2)
        a, b = self._a, self._b
        return 0.5 * float(np.vdot(a, a).real * np.vdot(b, b).real + abs(np.vdot(a, b)) ** 2)

    def matrix(self) -> np.ndarray:
        return 0.5 * (np.outer(self._a, self._b) + np.outer(self._b, self._a))


def rank_one_form(phi: SpectralField, cutoff: int, psi: Optional[SpectralField] = None) -> QuadraticForm:
    """Kernel phi(x) psi(y), symmetrized: pairing equals <w,phi><w,psi>."""
    return RankOneForm(phi, phi if psi is None else psi, cutoff)


class ExchangeForm(QuadraticForm):
    """Kernel cos(2 pi (x1 - y1)): A((1,0), (-1,0)) = A((-1,0), (1,0)) = 1/2."""

    def __init__(self, cutoff: int):
        self.cutoff = cutoff

    def pair(self, batch: np.ndarray) -> np.ndarray:
        return _exchange_pairing(batch, self.cutoff)

    def trace(self) -> float:
        return 1.0

    def frobenius_sq(self) -> float:
        return 0.5

    def matrix(self) -> np.ndarray:
        d = 2 * self.cutoff + 1
        table = np.zeros((d * d, d * d), dtype=complex)
        i = (1 + self.cutoff) * d + self.cutoff       # mode (1, 0)
        j = (-1 + self.cutoff) * d + self.cutoff      # mode (-1, 0)
        table[i, j] = table[j, i] = 0.5
        return table


def exchange_kernel(cutoff: int) -> QuadraticForm:
    """Kernel cos(2 pi (x1 - y1)): sup norm 1, trace 1, squared L2 norm 1/2.

    Its Gaussian pairing is |w_hat(1,0)|^2, an exponential variable with
    unit mean, which anchors the moment and exponential batteries to
    closed-form values.
    """
    if cutoff < 1:
        raise ValueError("exchange kernel needs cutoff >= 1")
    return ExchangeForm(cutoff)


def _exchange_pairing(batch: np.ndarray, cutoff: int) -> np.ndarray:
    """Closed form of the exchange-kernel pairing: |w_hat(1,0)|^2.

    Written as re*re + im*im, it equals the dense pairing bit for bit.
    """
    z = batch[..., cutoff + 1, cutoff]
    return z.real * z.real + z.imag * z.imag


def measured_sup_symmetrized(ke: KernelEval, base_grid: int = 12, diff_grid: int = 32) -> float:
    """Observed sup of |H(x, y)| over an off-diagonal sample of point pairs.

    Kernel values depend on the displacement only, so they are evaluated
    once per displacement and recombined with the gradients.
    """
    xs = (np.arange(base_grid) + 0.5) / base_grid
    x1, x2 = np.meshgrid(xs, xs, indexing="ij")
    x = np.stack([x1, x2], axis=-1).reshape(-1, 2)
    zs = (np.arange(diff_grid) + 0.25) / diff_grid
    z1, z2 = np.meshgrid(zs, zs, indexing="ij")
    z = np.stack([z1, z2], axis=-1).reshape(-1, 2)
    kv = ke.kernel_at(z)
    gx = gradient_at(ke.phi, x)
    gy = gradient_at(ke.phi, x[:, None, :] - z[None, :, :])
    vals = 0.5 * np.sum((gx[:, None, :] - gy) * kv[None, :, :], axis=-1)
    return float(np.abs(vals).max())


def real_form_matrix(form: QuadraticForm) -> np.ndarray:
    """The pairing as a real symmetric matrix on real coordinates.

    Columns follow the [zero mode, Re half modes, Im half modes] layout;
    eigenvalues of the result give the exact critical exponent
    1/(2 max|eig|) for exponential integrability of the pairing.
    """
    d, hi, hj = real_coordinate_layout(form.cutoff)
    dim = d * d
    t = np.zeros((dim, dim), dtype=complex)
    centre = form.cutoff * d + form.cutoff
    t[centre, 0] = 1.0
    h = len(hi)
    flat = hi * d + hj
    mirror = (d - 1 - hi) * d + (d - 1 - hj)
    cols = np.arange(h)
    t[flat, 1 + cols] = 1.0 / np.sqrt(2.0)
    t[mirror, 1 + cols] = 1.0 / np.sqrt(2.0)
    t[flat, 1 + h + cols] = 1j / np.sqrt(2.0)
    t[mirror, 1 + h + cols] = -1j / np.sqrt(2.0)
    b = t.T @ form.matrix() @ t
    b = 0.5 * (b + b.T)
    if float(np.abs(b.imag).max()) > 1e-10 * max(1.0, float(np.abs(b.real).max())):
        raise ValueError("real form has unexpected imaginary part")
    return b.real


# ---------------------------------------------------------------------------
# batteries


def wick_mean_test(kernel: QuadraticForm, spec: MeasureSpec, count: int,
                   name: str = "wick_mean") -> TestReport:
    """Gaussian mean identity: MC mean of the pairing equals the mode trace."""
    if count < 10 ** 3:
        raise ValueError("mean test needs at least 1000 samples")
    if spec.cutoff != kernel.cutoff:
        raise ValueError("kernel and measure cutoffs differ")
    batch = sample_batch(spec, range(count))
    q = quadratic_pairing_batch(batch, spec.cutoff, kernel)
    mean, se = _mean_se(q)
    trace = kernel.trace()
    passed = abs(mean - trace) <= 3.0 * se
    return TestReport(
        name=name,
        params={"N": spec.cutoff, "M": count},
        seed=spec.seed,
        passed=passed,
        summary={"mc_mean": mean, "std_error": se, "exact_trace": trace,
                 "abs_error_in_se": abs(mean - trace) / se if se > 0 else 0.0},
        table=[{"quantity": "pairing_mean", "estimate": mean, "std_error": se,
                "target": trace, "n_samples": count}],
    )


def wick_variance_test(kernel: QuadraticForm, spec: MeasureSpec, count: int,
                       name: str = "wick_variance") -> TestReport:
    """Gaussian variance identity for symmetric kernels: Var = 2 sum |A|^2."""
    if spec.cutoff != kernel.cutoff:
        raise ValueError("kernel and measure cutoffs differ")
    batch = sample_batch(spec, range(count))
    q = quadratic_pairing_batch(batch, spec.cutoff, kernel)
    centred = q - kernel.trace()
    var = float(np.mean(centred ** 2))
    m4 = float(np.mean(centred ** 4))
    se_var = float(np.sqrt(max(m4 - var ** 2, 0.0) / count))
    pred = 2.0 * kernel.frobenius_sq()
    rel = abs(var - pred) / pred if pred > 0 else abs(var)
    passed = abs(var - pred) <= max(0.05 * pred, 3.0 * se_var)
    return TestReport(
        name=name,
        params={"N": spec.cutoff, "M": count},
        seed=spec.seed,
        passed=passed,
        summary={"mc_variance": var, "std_error": se_var, "prediction": pred,
                 "rel_error": rel},
        table=[{"quantity": "pairing_variance", "estimate": var, "std_error": se_var,
                "target": pred, "n_samples": count}],
    )


def moment_bound(p: int) -> float:
    """(2p)! / (2^p p!), the Gaussian quadratic-form moment bound constant."""
    return math.factorial(2 * p) / (2 ** p * math.factorial(p))


def moment_bound_test(kernel: QuadraticForm, p: int, spec: MeasureSpec, count: int,
                      sup_norm: float = 1.0, name: Optional[str] = None) -> TestReport:
    """p-th absolute moment of the pairing against the factorial-type bound."""
    if not 2 <= p <= 6:
        raise ValueError("moment order restricted to 2..6 (noise grows too fast above)")
    if sup_norm > 1.0 + 1e-12:
        raise ValueError("kernel must be normalized to sup norm at most 1")
    batch = sample_batch(spec, range(count))
    q = np.abs(quadratic_pairing_batch(batch, spec.cutoff, kernel)) ** p
    est, se = _mean_se(q)
    bound = moment_bound(p) * sup_norm ** p
    passed = est + 3.0 * se <= bound
    return TestReport(
        name=name or f"moment_bound_p{p}",
        params={"N": spec.cutoff, "M": count, "p": p, "sup_norm": sup_norm},
        seed=spec.seed,
        passed=passed,
        summary={"mc_moment": est, "std_error": se, "bound": bound,
                 "margin": bound - est - 3.0 * se},
        table=[{"quantity": f"abs_moment_p{p}", "estimate": est, "std_error": se,
                "target": bound, "n_samples": count}],
    )


def _series_terms(eps: float, p_max: int) -> np.ndarray:
    p = np.arange(p_max + 1, dtype=float)
    log_terms = np.where(
        p == 0, 0.0, p * np.log(eps / 2.0) + gammaln(2 * p + 1) - 2 * gammaln(p + 1)
    )
    return log_terms


def series_check(eps: float, p_max: int = 400) -> dict:
    """Partial sums of sum_p (eps/2)^p (2p)!/(p! p!) and the tail term ratio.

    The ratio tends to 2*eps, so the series converges below 1/2 and blows
    up above; evaluated in log space to dodge overflow.
    """
    log_terms = _series_terms(eps, p_max)
    ratio = float(np.exp(log_terms[-1] - log_terms[-2]))
    cap = 700.0
    terms = np.exp(np.minimum(log_terms, cap))
    partial = np.cumsum(terms)
    converged = bool(log_terms[-1] < np.log(1e-14) + np.log(max(partial[-1], 1.0))) and np.isfinite(partial[-1])
    diverged = bool(log_terms[-1] > log_terms[p_max // 2] + 10.0)
    return {
        "eps": eps,
        "tail_ratio": ratio,
        "ratio_limit": 2.0 * eps,
        "partial_sum_p200": float(partial[min(200, p_max)]),
        "partial_sum_final": float(partial[-1]),
        "converged": converged,
        "diverged": diverged,
    }


def exp_integrability_test(phi: Optional[SpectralField], eps_list: Sequence[float],
                           spec: MeasureSpec, count: int, n_list: Sequence[int],
                           k_max: int = 64, kernel_kind: str = "exchange",
                           name: Optional[str] = None) -> TestReport:
    """Exponential moments of a sup-normalized pairing across cutoffs.

    For eps <= 0.4 the estimates must be finite and free of a growth trend
    beyond 3 combined standard errors across the cutoff list; estimates at
    eps >= 0.5 are reported without a pass criterion (Monte Carlo cannot
    certify divergence).  The termwise series bound is checked exactly:
    partial sums converge at eps = 0.4 and diverge at 0.6 with tail ratio
    approaching 2*eps.
    """
    n_list = sorted(n_list)
    n_ref = max(n_list)
    base = replace(spec, cutoff=n_ref)
    batch = sample_batch(base, range(count))
    rows = []
    notes = []
    estimates: dict[tuple[float, int], tuple[float, float]] = {}
    if kernel_kind == "drift":
        if phi is None:
            raise ValueError("drift kernel family needs a test field")
        ke = KernelEval(phi, k_max=k_max)
        sup = measured_sup_symmetrized(ke)
        notes.append(f"normalized by measured kernel sup {sup:.6g} (truncated series, k_max={k_max})")
    elif kernel_kind == "exchange":
        sup = 1.0
    else:
        raise ValueError(f"unknown kernel kind {kernel_kind!r}")
    for n in n_list:
        proj = batch[..., n_ref - n : n_ref + n + 1, n_ref - n : n_ref + n + 1]
        form = quadratic_coefficients(phi, n) if kernel_kind == "drift" else exchange_kernel(n)
        q = quadratic_pairing_batch(proj, n, form) / sup
        for eps in eps_list:
            vals = np.exp(eps * np.abs(q))
            est, se = _mean_se(vals)
            estimates[(eps, n)] = (est, se)
            row = {"eps": eps, "N": n, "estimate": est, "std_error": se,
                   "asserted": bool(eps <= 0.4), "n_samples": count}
            if kernel_kind == "exchange":
                row["analytic"] = 1.0 / (1.0 - eps) if eps < 1 else float("inf")
            rows.append(row)
    passed = True
    for eps in eps_list:
        if eps > 0.4:
            continue
        for lo, hi in zip(n_list[:-1], n_list[1:]):
            e1, s1 = estimates[(eps, lo)]
            e2, s2 = estimates[(eps, hi)]
            if not (np.isfinite(e1) and np.isfinite(e2)):
                passed = False
            elif abs(e2 - e1) > 3.0 * math.hypot(s1, s2) + 1e-12:
                passed = False
    series_rows = [series_check(0.4), series_check(0.6)]
    ratio_ok = all(abs(r["tail_ratio"] - r["ratio_limit"]) <= 0.02 * r["ratio_limit"] for r in series_rows)
    series_ok = series_rows[0]["converged"] and not series_rows[0]["diverged"] and series_rows[1]["diverged"]
    passed = passed and ratio_ok and series_ok
    critical = None
    n_small = min(n_list)
    if (2 * n_small + 1) ** 2 <= 1200:
        if kernel_kind == "drift":
            form = DenseForm(n_small, quadratic_coefficients(phi, n_small).matrix() / sup)
        else:
            form = exchange_kernel(n_small)
        eig = np.linalg.eigvalsh(real_form_matrix(form))
        critical = float(1.0 / (2.0 * np.abs(eig).max()))
        notes.append(f"exact critical exponent at N={n_small}: {critical:.6g} (from extreme eigenvalue)")
    summary = {"kernel": kernel_kind, "series_ratio_04": series_rows[0]["tail_ratio"],
               "series_ratio_06": series_rows[1]["tail_ratio"],
               "series_converged_04": series_rows[0]["converged"],
               "series_diverged_06": series_rows[1]["diverged"]}
    if critical is not None:
        summary["critical_eps_exact"] = critical
    return TestReport(
        name=name or f"exp_integrability_{kernel_kind}",
        params={"M": count, "N_list": list(n_list), "eps_list": list(eps_list), "k_max": k_max},
        seed=spec.seed,
        passed=passed,
        summary=summary,
        table=rows + [{"eps": r["eps"], "N": -1, "estimate": r["partial_sum_final"],
                       "std_error": 0.0, "asserted": True, "n_samples": 0}
                      for r in series_rows],
        notes=notes,
    )


# Samples drawn and paired per block in `cauchy_study`.
_CAUCHY_CHUNK = 512


def cauchy_study(phi: SpectralField, n_list: Sequence[int], n_ref: int,
                 spec: MeasureSpec, count: int, name: str = "cauchy") -> TestReport:
    """Mean-square truncation increments against the spectral prediction.

    Common samples at the reference cutoff are truncated to each listed
    cutoff; for consecutive pairs the Monte Carlo E[(Q_N - Q_N')^2] must
    decrease and agree with 2 * sum of |A|^2 over the index increment
    within 10 percent.
    """
    n_list = sorted(n_list)
    if n_ref < max(n_list):
        raise ValueError("reference cutoff must dominate the cutoff list")
    base = replace(spec, cutoff=n_ref)
    qs = {n: np.empty(count) for n in n_list}
    checked = False
    notes = []
    forms = {n: quadratic_coefficients(phi, n) for n in n_list}
    for start in range(0, count, _CAUCHY_CHUNK):
        ids = range(start, min(start + _CAUCHY_CHUNK, count))
        batch = sample_batch(base, ids)
        for n in n_list:
            proj = batch[..., n_ref - n : n_ref + n + 1, n_ref - n : n_ref + n + 1]
            qvals = quadratic_pairing_batch(proj, n, forms[n])
            qs[n][start : start + len(qvals)] = qvals
            if not checked:
                w = SpectralField(n, proj[0])
                ref = dual_pairing(drift(w, n), project(phi, n))
                if abs(ref - qvals[0]) > 1e-9 * max(1.0, abs(ref)):
                    raise AssertionError("structured pairing disagrees with drift route")
        checked = True
    notes.append("structured pairing cross-checked against the drift route on the first chunk")
    fro = {n: forms[n].frobenius_sq() for n in n_list}
    rows = []
    passed = True
    prev_ms = None
    for lo, hi in zip(n_list[:-1], n_list[1:]):
        diff = qs[hi] - qs[lo]
        ms, se = _mean_se(diff ** 2)
        l1, l1se = _mean_se(np.abs(diff))
        pred = 2.0 * (fro[hi] - fro[lo])
        rel = abs(ms - pred) / pred if pred > 0 else abs(ms)
        ok = rel <= 0.10
        if prev_ms is not None and not ms < prev_ms:
            ok = False
        passed = passed and ok
        rows.append({"N": lo, "N_next": hi, "mean_square": ms, "std_error": se,
                     "prediction": pred, "rel_error": rel, "l1_distance": l1,
                     "l1_std_error": l1se, "n_samples": count, "pass": ok})
        prev_ms = ms
    return TestReport(
        name=name,
        params={"N_list": list(n_list), "N_ref": n_ref, "M": count},
        seed=spec.seed,
        passed=passed,
        summary={"pairs": len(rows), "max_rel_error": max(r["rel_error"] for r in rows),
                 "monotone_decreasing": bool(all(
                     rows[i]["mean_square"] > rows[i + 1]["mean_square"] for i in range(len(rows) - 1)
                 ))},
        table=rows,
        notes=notes,
    )


def _moment_rows(values: np.ndarray, label: str) -> list[dict]:
    rows = []
    for order in (1, 2, 3, 4):
        est, se = _mean_se(values ** order)
        rows.append({"stage": label, "moment": order, "estimate": est, "std_error": se})
    return rows


def invariance_test(spec: MeasureSpec, params: FlowParams,
                    observables: Sequence[SpectralField], count: int,
                    drift_shift: Optional[tuple[SpectralField, float]] = None,
                    expect_fail: bool = False,
                    name: Optional[str] = None) -> TestReport:
    """Distribution of test pairings before and after transport.

    Under the unmodified drift the pushforward of the white-noise ensemble
    must look Gaussian with unchanged covariance: Kolmogorov-Smirnov
    p-values above 0.01 at a fixed seed.  With a constant drift shift the
    mean moves and the test must reject (p below 1e-3), which is the
    negative control.
    """
    ensemble = init_ensemble(spec, UniformDensity(), count)
    drift_fn = None
    if drift_shift is not None:
        shift_field, amp = drift_shift
        shift = amp * project(shift_field, spec.cutoff).coeffs
        drift_fn = SpectralDrift(spec.cutoff, shift=shift)
    moved = pushforward(ensemble, params, drift_fn=drift_fn)
    rows = []
    pvals = []
    for j, phi in enumerate(observables):
        sigma = sobolev_norm(phi, 0.0)
        before = ensemble.pairings([phi])[:, 0]
        after = moved.pairings([phi])[:, 0]
        stat, pval = scipy.stats.kstest(after, "norm", args=(0.0, sigma))
        pvals.append(pval)
        mean, se = _mean_se(after)
        rows.append({"observable": j, "ks_stat": float(stat), "p_value": float(pval),
                     "sigma": sigma, "n_samples": count, "stage": "after", "moment": 0,
                     "estimate": mean, "std_error": se})
        for r in _moment_rows(before, "before") + _moment_rows(after, "after"):
            r["observable"] = j
            r.update({"ks_stat": float("nan"), "p_value": float("nan"), "sigma": sigma,
                      "n_samples": count})
            rows.append(r)
    if expect_fail:
        passed = all(p < 1e-3 for p in pvals)
    else:
        passed = all(p > 0.01 for p in pvals)
    return TestReport(
        name=name or ("invariance_negative" if expect_fail else "invariance"),
        params={"N": spec.cutoff, "M": count, "T": params.t_end, "dt": params.dt,
                "integrator": params.integrator,
                "drift_shift": None if drift_shift is None else drift_shift[1]},
        seed=spec.seed,
        passed=passed,
        summary={"min_p_value": min(pvals), "max_p_value": max(pvals),
                 "expect_fail": expect_fail},
        table=rows,
    )


def dirichlet_kernel_study(phi: SpectralField, n_list: Sequence[int], size: int = 64,
                           k_max: int = 64, name: str = "dirichlet_kernel") -> TestReport:
    """Symmetries and trace cancellation of the sharp-truncation kernel.

    Checks, per cutoff: grid symmetry of the kernel under coordinate swap
    and per-axis reflection; the self-convolution identity (coefficients
    all one); vanishing of the angular quadrature for a basis of symmetric
    matrices; smallness of the double trace integral with reported error
    bars, against the exactly vanishing spectral trace.
    """
    if size < 4 * max(n_list) + 4:
        raise ValueError("quadrature size must be at least 4*max(N)+4")
    ke = KernelEval(phi, k_max=k_max)
    nodes = -0.5 + (np.arange(size) + 0.5) / size
    s_basis = [np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]
    rows = []
    passed = True
    trace_rows = []
    for n in sorted(n_list):
        dvals = dirichlet_values(n, nodes)
        theta = np.outer(dvals, dvals)
        swap_dev = float(np.abs(theta - theta.T).max())
        refl_dev = float(np.abs(theta - theta[::-1, :]).max())
        g2 = 4 * n + 4
        tg = to_grid(dirichlet_kernel(n), g2).values
        conv = np.fft.ifft2(np.fft.fft2(tg) ** 2).real / (g2 * g2)
        wcoef = grid_to_coeffs(conv, n)
        conv_dev = float(np.abs(wcoef - 1.0).max())
        sym_vals = [abs(symmetry_integral(dirichlet_kernel(n), s, size)) for s in s_basis]
        est = trace_integral(ke, n, size)
        spectral = quadratic_coefficients(phi, n).trace()
        ok = (
            swap_dev <= 1e-13
            and refl_dev <= 1e-13
            and conv_dev <= 1e-12
            and all(v <= 1e-13 for v in sym_vals)
            and abs(est.value) <= est.error
            and spectral == 0.0
        )
        passed = passed and ok
        rows.append({"N": n, "swap_dev": swap_dev, "reflect_dev": refl_dev,
                     "conv_coeff_dev": conv_dev, "sym_integral_max": max(sym_vals),
                     "trace_value": est.value, "trace_error_bar": est.error,
                     "spectral_trace": spectral, "pass": ok})
        trace_rows.append(est)
    first, last = trace_rows[0], trace_rows[-1]
    if not abs(last.value) <= abs(first.value) + first.error + last.error:
        passed = False
    return TestReport(
        name=name,
        params={"N_list": sorted(n_list), "G": size, "k_max": k_max},
        seed=0,
        passed=passed,
        summary={"max_swap_dev": max(r["swap_dev"] for r in rows),
                 "max_sym_integral": max(r["sym_integral_max"] for r in rows),
                 "max_abs_trace": max(abs(r["trace_value"]) for r in rows)},
        table=rows,
    )


def transport_battery(spec: MeasureSpec, params: FlowParams, tilt_phi: SpectralField,
                      obs_phi: SpectralField, count: int,
                      name: str = "transport") -> TestReport:
    """Weak-form residual, two-route consistency, and entropy invariance.

    The residual check allows a time-quadrature bias calibrated by a
    Richardson halving with common streams; the two transport routes
    (carry weights forward vs pull the density back) must agree within
    combined Monte Carlo bands; the entropy sum of the weights matches the
    closed-form tilt entropy and is bitwise unchanged by the flow.
    """
    density = GaussianTilt(tilt_phi)
    ensemble = init_ensemble(spec, density, count)
    horizon = params.t_end
    g, dg = ramp_down(horizon)
    f, grad_f = bounded_window()
    functional = CylinderFunctional.single(f, grad_f, g, dg, [obs_phi], horizon)
    res = weak_form_residual(ensemble, functional, params)
    moved, res = res.moved, replace(res, moved=None)  # released before the dt/2 run
    weights_ok = bool(np.array_equal(ensemble.weights, moved.weights))
    r1, se1 = moved.weighted_mean(np.tanh(moved.pairings([obs_phi])[:, 0]))
    ent1, _ = moved.entropy()
    del moved
    half = FlowParams(cutoff=params.cutoff, dt=params.dt / 2.0, t_end=params.t_end,
                      integrator=params.integrator, midpoint_tol=params.midpoint_tol,
                      midpoint_max_iter=params.midpoint_max_iter)
    res_half = weak_form_residual(ensemble, functional, half)
    c_hat = abs(res.residual - res_half.residual) / (0.75 * params.dt ** 2)
    bound = 3.0 * res.std_error + 1.25 * c_hat * params.dt ** 2
    residual_ok = abs(res.residual) <= bound

    fresh = init_ensemble(replace(spec, seed=spec.seed + 104729), UniformDensity(), count)
    moved_back = pushforward(fresh, params, drift_fn=SpectralDrift(params.cutoff, sign=-1.0))
    pulled = density.values(moved_back.coeffs, spec.cutoff)
    vals2 = pulled * np.tanh(pairings_batch(fresh.coeffs, spec.cutoff, [obs_phi])[:, 0])
    r2, se2 = _mean_se(vals2)
    two_route_ok = abs(r1 - r2) <= 3.0 * math.hypot(se1, se2)

    ent0, ent0_se = ensemble.entropy()
    target = 0.5 * sobolev_norm(tilt_phi, 0.0) ** 2
    entropy_ok = abs(ent0 - target) <= 3.0 * ent0_se and ent0 == ent1

    passed = residual_ok and two_route_ok and weights_ok and entropy_ok
    return TestReport(
        name=name,
        params={"N": spec.cutoff, "M": count, "T": params.t_end, "dt": params.dt,
                "integrator": params.integrator},
        seed=spec.seed,
        passed=passed,
        summary={"residual": res.residual, "residual_se": res.std_error,
                 "residual_bound": bound, "quadrature_c": c_hat,
                 "route_forward": r1, "route_backward": r2,
                 "route_combined_se": math.hypot(se1, se2),
                 "entropy": ent0, "entropy_se": ent0_se, "entropy_target": target,
                 "entropy_weight_invariant": ent0 == ent1,
                 "weights_bitwise_equal": weights_ok},
        table=[
            {"quantity": "weak_form_residual", "estimate": res.residual,
             "std_error": res.std_error, "target": 0.0, "n_samples": count},
            {"quantity": "weak_form_residual_half_dt", "estimate": res_half.residual,
             "std_error": res_half.std_error, "target": 0.0, "n_samples": count},
            {"quantity": "pushforward_route", "estimate": r1, "std_error": se1,
             "target": float("nan"), "n_samples": count},
            {"quantity": "pullback_route", "estimate": r2, "std_error": se2,
             "target": float("nan"), "n_samples": count},
            {"quantity": "entropy", "estimate": ent0, "std_error": ent0_se,
             "target": target, "n_samples": count},
        ],
        notes=[f"observable bounds over the ensemble: {res.bounds}"],
    )
