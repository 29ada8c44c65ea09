"""Checks of one workload round, made apart from the program.

Three kinds:

* artifact operations: every JSON artifact must parse as strict RFC 8259
  JSON (no bare NaN or Infinity), and every file's sha256 must match the
  manifest.  Each is one counted operation; a failure is a failed operation.
* battery operations: every configured battery must have run to its end.
  A battery that raised fails its operation and makes the round incorrect.
  Batteries whose gate cannot fail by chance at the workload's sizes must
  also pass it; the others (3-standard-error bands, a KS test at 1 %) fail
  on a share of seeds by design, so their numbers are judged instead by the
  closed-form checks below, with false-alarm odds near 1e-9.
* closed-form checks, computed here from the definitions: Wick identities
  of the exchange and drift pairings, exponential moments, the tilt
  entropy, the after-flow moments of the invariant Gaussian, and, on a few
  members, the drift oracle, enstrophy conservation and time reversal of the
  implicit midpoint flow.  A failed check makes the round incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np
import scipy.stats

# one-sided normal tail of 4e-11: a band of Z exact standard errors
Z = 6.5
# chance that one sample exceeds the high-side allowance of a heavy-tailed mean
ALPHA = 1e-9
# batteries whose verdict is a sure pass at the workload sizes
SURE_VERDICT = {"moment_bound", "exp_integrability", "dirichlet_kernel", "invariance_negative"}
# test fields used by the workloads, as mode -> coefficient on the full lattice
FIELDS = {
    "cos_x1": {(1, 0): 0.5, (-1, 0): 0.5},
    "cos_x1_plus_x2": {(1, 1): 0.5, (-1, -1): 0.5},
    "sin_x1_plus_x2": {(1, 1): -0.5j, (-1, -1): 0.5j},
}


def norm_sq(field: str) -> float:
    return float(sum(abs(c) ** 2 for c in FIELDS[field].values()))


def drift_form_frobenius_sq(field: str, n: int) -> float:
    """Sum of |A(n, m)|^2, A(n, m) = 1/2 (perp(m).n)(1/|n|^2 - 1/|m|^2) phi_hat(-n-m)."""
    k = np.arange(-n, n + 1)
    a, b = (x.ravel() for x in np.meshgrid(k, k, indexing="ij"))
    nn = a ** 2 + b ** 2
    inv = np.divide(1.0, nn, out=np.zeros(nn.shape), where=nn > 0)
    cross = np.outer(a, b) - np.outer(b, a)  # perp(m).n = m2 n1 - m1 n2; rows n, columns m
    phi = np.zeros(cross.shape, dtype=complex)
    for (s1, s2), c in FIELDS[field].items():
        phi += c * ((a[:, None] + a[None, :] == -s1) & (b[:, None] + b[None, :] == -s2))
    form = 0.5 * cross * (inv[:, None] - inv[None, :]) * phi
    return float(np.sum(np.abs(form) ** 2))


def within(est: float, mean: float, sd: float, m: int, big: float = 0.0) -> bool:
    """Monte Carlo mean of m samples against its exact mean and standard deviation.

    The band is Z exact standard errors.  For heavy right tails `big` is the
    largest value one sample reaches with probability ALPHA; the high side
    then also allows the shift big/m that such a sample gives the mean.
    """
    se = sd / math.sqrt(m)
    return mean - Z * se <= est <= mean + max(Z * se, big / m)


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _exp_tail(m: int) -> float:
    """Quantile of Exp(1) that one of m samples exceeds with probability ALPHA."""
    return math.log(m / ALPHA)


def _check_wick_mean(p, s, t):
    m = p["M"]
    sd = math.sqrt(2.0 * drift_form_frobenius_sq(p["phi"], p["N"]))
    return [("drift-form mean 0", s["exact_trace"] == 0.0 and within(s["mc_mean"], 0.0, sd, m))]


def _check_wick_variance(p, s, t):
    # exchange pairing X = |w(1,0)|^2 ~ Exp(1); (X - 1)^2 has mean 1 and variance 8
    m = p["M"]
    x = _exp_tail(m)
    return [("exchange variance 1", close(s["prediction"], 1.0)
             and within(s["mc_variance"], 1.0, math.sqrt(8.0), m, (x - 1.0) ** 2))]


def _check_moment_bound(p, s, t):
    q, m = p["p"], p["M"]
    mean = math.factorial(q)
    sd = math.sqrt(math.factorial(2 * q) - mean ** 2)
    bound = math.factorial(2 * q) / (2 ** q * math.factorial(q))
    return [(f"E X^{q} = {q}!", close(s["bound"], bound)
             and within(s["mc_moment"], mean, sd, m, _exp_tail(m) ** q))]


def _check_exp_integrability(p, s, t):
    m = p["M"]
    out = []
    for row in t:
        eps = row["eps"]
        if row["N"] < 0 or eps > 0.4:
            continue  # series rows, and eps >= 0.5 where the variance is infinite
        mean = 1.0 / (1.0 - eps)
        sd = math.sqrt(1.0 / (1.0 - 2.0 * eps) - mean ** 2)
        ok = close(row["analytic"], mean) and within(row["estimate"], mean, sd, m,
                                                     math.exp(eps * _exp_tail(m)))
        out.append((f"E exp({eps} X) at N={row['N']}", ok))
    return out


def _check_cauchy(p, s, t):
    out = []
    for row in t:
        pred = 2.0 * (drift_form_frobenius_sq(p["phi"], row["N_next"])
                      - drift_form_frobenius_sq(p["phi"], row["N"]))
        ok = close(row["prediction"], pred, 1e-9) and abs(row["mean_square"] / pred - 1.0) <= 0.5
        out.append((f"cauchy increment {row['N']}->{row['N_next']}", ok))
    return out


def _check_invariance(p, s, t):
    m = p["M"]
    out = []
    for j, field in enumerate(p["observables"]):
        var = norm_sq(field)
        rows = {(r["stage"], r["moment"]): r for r in t if r["observable"] == j}
        ks = rows[("after", 0)]
        m1 = rows[("after", 1)]["estimate"]
        m2 = rows[("after", 2)]["estimate"]
        lo, hi = scipy.stats.chi2.ppf(ALPHA, m) / m, scipy.stats.chi2.isf(ALPHA, m) / m
        ok = (close(ks["sigma"], math.sqrt(var)) and ks["p_value"] > ALPHA
              and within(m1, 0.0, math.sqrt(var), m) and lo * var <= m2 <= hi * var)
        out.append((f"after-flow moments of {field}", ok))
    return out


def _entropy_moments(var: float) -> tuple[float, float]:
    """Mean and sd of rho log rho, rho = exp(X - var/2), X ~ N(0, var)."""
    second = math.exp(var) * (var + 2.25 * var ** 2)
    return 0.5 * var, math.sqrt(second - (0.5 * var) ** 2)


def _check_transport(p, s, t):
    m, dt = p["M"], p["dt"]
    var = norm_sq(p["tilt_phi"])
    mean, sd = _entropy_moments(var)
    x = math.sqrt(var) * scipy.stats.norm.isf(ALPHA / m) - 0.5 * var
    residual_bound = Z * s["residual_se"] + 2.0 * s["quadrature_c"] * dt ** 2
    return [
        ("tilt entropy 1/2 |phi|^2", close(s["entropy_target"], mean)
         and within(s["entropy"], mean, sd, m, x * math.exp(x))),
        ("entropy and weights unchanged by the flow",
         s["entropy_weight_invariant"] is True and s["weights_bitwise_equal"] is True),
        ("weak-form residual", abs(s["residual"]) <= residual_bound),
        ("two transport routes", abs(s["route_forward"] - s["route_backward"])
         <= Z * s["route_combined_se"]),
    ]


CLOSED_FORMS = {
    "wick_mean": _check_wick_mean,
    "wick_variance": _check_wick_variance,
    "moment_bound": _check_moment_bound,
    "exp_integrability": _check_exp_integrability,
    "cauchy": _check_cauchy,
    "invariance": _check_invariance,
    "transport": _check_transport,
}


def _reject(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_artifacts(out_dir: str) -> list[tuple[str, bool]]:
    """One operation per JSON artifact (strict parse) and per hashed file."""
    ops = []
    names = sorted(os.listdir(out_dir))
    for name in names:
        if name.endswith(".json"):
            with open(os.path.join(out_dir, name)) as fh:
                text = fh.read()
            try:
                json.loads(text, parse_constant=_reject)
                ops.append((f"strict JSON {name}", True))
            except ValueError:
                ops.append((f"strict JSON {name}", False))
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        hashes = json.load(fh)["files"]
    for name in names:
        if name != "manifest.json":
            ok = hashes.get(name) == _sha256(os.path.join(out_dir, name))
            ops.append((f"manifest hash {name}", ok))
    return ops


def check_batteries(cfg: dict, out_dir: str) -> tuple[list[tuple[str, bool]], list[str]]:
    """Battery operations, plus the closed-form checks of their reports.

    `summary.csv` lists the reports in config order under the names they
    were written with, so row i names the report of cfg["tests"][i].
    """
    with open(os.path.join(out_dir, "summary.csv")) as fh:
        stems = [line.split(",")[0] for line in fh.read().splitlines()[1:]]
    ops, problems = [], []
    if len(stems) != len(cfg["tests"]):
        problems.append(f"summary.csv lists {len(stems)} reports for {len(cfg['tests'])} batteries")
    for entry, stem in zip(cfg["tests"], stems):
        name, params = entry["name"], entry["params"]
        with open(os.path.join(out_dir, stem + ".json")) as fh:
            report = json.load(fh)  # lenient: NaN reports are still checked
        raised = [note for note in report["notes"] if note.startswith("battery raised")]
        ops.append((f"battery {stem}", not raised))
        if raised:
            problems.append(f"{stem}: {raised[0]}")
            continue
        if name in SURE_VERDICT and not report["passed"]:
            problems.append(f"{stem}: verdict FAIL where a pass is certain")
        check = CLOSED_FORMS.get(name)
        if check is None:
            continue
        try:
            results = check(params, report["summary"], report["table"])
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{stem}: report lacks what its closed-form check reads ({exc!r})")
            continue
        problems += [f"{stem}: {label} check failed" for label, ok in results if not ok]
    return ops, problems


def check_members(cfg: dict, members: int = 4, dt: float = 0.01, steps: int = 5) -> list[str]:
    """Drift oracle, enstrophy conservation and time reversal on a few members."""
    from enstrophy_lab.dynamics import SpectralDrift, drift
    from enstrophy_lab.fields import SpectralField
    from enstrophy_lab.flow import FlowParams
    from enstrophy_lab.measure import Ensemble, MeasureSpec, pushforward, sample_batch

    n = next(e["params"]["N"] for e in cfg["tests"] if "N" in e["params"])
    spec = MeasureSpec(cutoff=n, seed=cfg["seed"])
    coeffs = sample_batch(spec, range(members))
    problems = []
    fast = SpectralDrift(n)(coeffs)
    for i in range(members):
        exact = drift(SpectralField(n, coeffs[i]), n, "direct").coeffs
        if np.linalg.norm(fast[i] - exact) > 1e-12 * np.linalg.norm(exact):
            problems.append(f"member {i}: dealiased drift differs from the direct oracle")
    params = FlowParams(cutoff=n, dt=dt, t_end=steps * dt)
    start = Ensemble(spec=spec, coeffs=coeffs, weights=np.ones(members),
                     stream_ids=np.arange(members))
    moved = pushforward(start, params)
    back = pushforward(moved, params, drift_fn=SpectralDrift(n, sign=-1.0))
    ens0 = np.sum(np.abs(coeffs) ** 2, axis=(-2, -1))
    ens1 = np.sum(np.abs(moved.coeffs) ** 2, axis=(-2, -1))
    if np.any(np.abs(ens1 - ens0) > 1e-9 * ens0):
        problems.append("midpoint pushforward does not conserve member enstrophy to 1e-9")
    dist = np.sqrt(np.sum(np.abs(back.coeffs - coeffs) ** 2, axis=(-2, -1)))
    if np.any(dist > 1e-9 * np.sqrt(ens0)):
        problems.append("forward then backward midpoint pushforward misses the start")
    return problems
