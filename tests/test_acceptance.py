"""Acceptance criteria, one test per criterion at the stated tolerance.

Every test prints one `[criterion NN] PASS/FAIL` line (run pytest with -s
to watch them).  Statistical checks use 3-standard-error bands from their
own run at fixed seeds; exact identities use the 1e-12/1e-13 rungs.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import enstrophy_lab
from enstrophy_lab.cli import run as cli_run
from enstrophy_lab.dynamics import (
    biot_savart,
    curl,
    drift,
    quadratic_coefficients,
)
from enstrophy_lab.fields import SpectralField, dual_pairing, mode_grids, project, sobolev_norm
from enstrophy_lab.flow import FlowParams, divergence_check, evolve
from enstrophy_lab.measure import MeasureSpec, sample_white_noise
from enstrophy_lab.verify import (
    cauchy_study,
    dirichlet_kernel_study,
    exchange_kernel,
    exp_integrability_test,
    invariance_test,
    moment_bound_test,
    named_test_field,
    rank_one_form,
    transport_battery,
    wick_mean_test,
    wick_variance_test,
)
from test_verify import TestDriftExpIntegrability as DriftExpPins

SEED = 20260801


def _line(num: int, ok: bool, desc: str) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}")
    return ok


def _samples(cutoff: int, count: int, seed: int = SEED):
    spec = MeasureSpec(cutoff=cutoff, seed=seed)
    return [sample_white_noise(spec, i) for i in range(count)]


def test_criterion_01_drift_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    # grids 7, 10, 14, 20, 25, 40, 49: odd and mixed-radix sizes included
    for cutoff in (2, 3, 4, 6, 8, 12, 16):
        for field in _samples(cutoff, 50):
            a = drift(field, cutoff, "direct").coeffs
            b = drift(field, cutoff, "dealiased").coeffs
            rel = np.sqrt(np.sum(np.abs(a - b) ** 2) / np.sum(np.abs(a) ** 2))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 60.0
    assert _line(1, ok, f"direct vs dealiased rel dev {worst:.2e} over 350 fields, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 60.0


def test_criterion_02_exact_drift_identities():
    worst_pair = 0.0
    for cutoff in (2, 4, 8, 16):
        for field in _samples(cutoff, 25):
            val = abs(dual_pairing(drift(field, cutoff), project(field, cutoff)))
            worst_pair = max(worst_pair, val / sobolev_norm(field) ** 2)
    pair_ok = worst_pair <= 1e-10

    worst_div = 0.0
    for cutoff in (2, 4):
        for field in _samples(cutoff, 3):
            div, scale = divergence_check(field, cutoff, 1e-4, with_scale=True)
            worst_div = max(worst_div, abs(div) / scale)
    div_ok = worst_div <= 1e-5

    field = _samples(2, 1)[0]
    ident = divergence_check(field, 2, 1e-4, vector_field=lambda c: c)
    ident_ok = abs(ident - 25.0) <= 1e-6

    ok = pair_ok and div_ok and ident_ok
    assert _line(2, ok, f"state orthogonality {worst_pair:.1e}, scaled divergence {worst_div:.1e}, "
                        f"identity control dev {abs(ident - 25.0):.1e}")
    assert pair_ok and div_ok and ident_ok


def test_criterion_03_biot_savart_contract():
    worst_curl = 0.0
    worst_div = 0.0
    int_exact = True
    for cutoff in (2, 8):
        n1, n2 = mode_grids(cutoff)
        # the wavevector-perpendicular geometry is exact in integer arithmetic
        int_exact = int_exact and bool(np.all(n2 * n1 + (-n1) * n2 == 0))
        for field in _samples(cutoff, 10):
            v = biot_savart(field)
            back = curl(v).coeffs - field.coeffs
            back[cutoff, cutoff] = 0.0
            worst_curl = max(worst_curl, np.abs(back).max() / max(1.0, np.abs(field.coeffs).max()))
            scale = max(np.abs(v.u1).max(), np.abs(v.u2).max(), 1.0)
            worst_div = max(worst_div, np.abs(n1 * v.u1 + n2 * v.u2).max() / scale)
    # stored components carry independent roundings, so the float residual
    # sits at the last ulp; the orthogonality itself is integer-exact
    ok = worst_curl <= 1e-12 and int_exact and worst_div <= 1e-15
    assert _line(3, ok, f"curl defect {worst_curl:.1e}, integer orthogonality exact, "
                        f"float residual {worst_div:.1e}")
    assert worst_curl <= 1e-12
    assert int_exact
    assert worst_div <= 1e-15


def test_criterion_04_conservation_and_order():
    rng = np.random.default_rng(SEED)
    d = 17
    c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    c = (c + np.conj(c[::-1, ::-1])) / 2
    c[8, 8] = rng.standard_normal()
    c /= np.sqrt(np.sum(np.abs(c) ** 2))
    w = SpectralField(8, c)

    traj = evolve(w, FlowParams(cutoff=8, dt=1e-2, t_end=1.0), record_stride=1000)
    e = traj.diag_enstrophy
    drift_rel = float(np.abs(e - e[0]).max() / e[0])
    cons_ok = drift_rel <= 1e-9

    def final(dt):
        p = FlowParams(cutoff=8, dt=dt, t_end=0.2, integrator="rk4")
        return evolve(w, p, record_stride=10 ** 6).final.coeffs

    f1, f2, f3 = final(2e-2), final(1e-2), final(5e-3)
    order = float(np.log2(np.linalg.norm(f1 - f2) / np.linalg.norm(f2 - f3)))
    order_ok = order >= 3.9

    ok = cons_ok and order_ok
    assert _line(4, ok, f"midpoint enstrophy drift {drift_rel:.2e} over T=1, rk4 order {order:.2f}")
    assert cons_ok and order_ok


def test_criterion_05_wick_formulas():
    count = 10 ** 5
    spec4 = MeasureSpec(cutoff=4, seed=SEED)
    phi2 = named_test_field("cos_x1_plus_x2")

    drift_mean = wick_mean_test(quadratic_coefficients(phi2, 4), spec4, count)
    trace_ok = drift_mean.summary["exact_trace"] == 0.0 and drift_mean.passed

    rank = wick_mean_test(rank_one_form(named_test_field("cos_x1"), 4), spec4, count)
    rank_ok = rank.passed and abs(rank.summary["exact_trace"] - 0.5) <= 1e-15

    var_ex = wick_variance_test(exchange_kernel(4), spec4, count)
    var_drift = wick_variance_test(quadratic_coefficients(phi2, 4), spec4, count)
    var_ok = var_ex.summary["rel_error"] <= 0.05 and var_drift.summary["rel_error"] <= 0.05

    moments_ok = True
    margins = []
    for p, bound in ((2, 3.0), (3, 15.0), (4, 105.0)):
        rep = moment_bound_test(exchange_kernel(4), p, spec4, count)
        assert rep.summary["bound"] == bound
        margins.append(rep.summary["margin"])
        moments_ok = moments_ok and rep.passed

    ok = trace_ok and rank_ok and var_ok and moments_ok
    assert _line(5, ok, f"mean tests in-band (trace 0 and 1/2), variance rel errs "
                        f"{var_ex.summary['rel_error']:.3f}/{var_drift.summary['rel_error']:.3f}, "
                        f"moment margins {['%.1f' % m for m in margins]}")
    assert ok


def test_criterion_06_exponential_integrability():
    rep = exp_integrability_test(None, [0.1, 0.25, 0.4, 0.5],
                                 MeasureSpec(cutoff=16, seed=SEED), 20000,
                                 [4, 8, 16], kernel_kind="exchange")
    series_ok = (rep.summary["series_converged_04"] and rep.summary["series_diverged_06"]
                 and abs(rep.summary["series_ratio_04"] - 0.8) <= 0.016
                 and abs(rep.summary["series_ratio_06"] - 1.2) <= 0.024)
    ok = rep.passed and series_ok
    assert _line(6, ok, f"estimates stable across cutoffs, series ratios "
                        f"{rep.summary['series_ratio_04']:.3f}/{rep.summary['series_ratio_06']:.3f}")
    assert ok


def test_criterion_07_cauchy_convergence():
    t0 = time.perf_counter()
    rep = cauchy_study(named_test_field("cos_x1_plus_x2"), [4, 8, 16, 32], 32,
                       MeasureSpec(cutoff=32, seed=SEED), 10 ** 4)
    elapsed = time.perf_counter() - t0
    rels = [row["rel_error"] for row in rep.table]
    ok = rep.passed and rep.summary["monotone_decreasing"] and max(rels) <= 0.10 and elapsed < 300
    assert _line(7, ok, f"mean-square increments decrease, rel errs "
                        f"{['%.3f' % r for r in rels]}, {elapsed:.0f}s")
    assert ok


@pytest.mark.slow
def test_criterion_08_measure_invariance():
    spec = MeasureSpec(cutoff=8, seed=SEED)
    obs = [named_test_field("cos_x1"), named_test_field("sin_x1_plus_x2")]
    pos = invariance_test(spec, FlowParams(cutoff=8, dt=1e-2, t_end=1.0), obs, 2000)
    neg = invariance_test(spec, FlowParams(cutoff=8, dt=1e-2, t_end=0.5), [obs[0]], 2000,
                          drift_shift=(obs[0], 1.0), expect_fail=True)
    ok = pos.passed and neg.passed
    assert _line(8, ok, f"KS p-values in [{pos.summary['min_p_value']:.3f}, "
                        f"{pos.summary['max_p_value']:.3f}] > 0.01; "
                        f"negative control p = {neg.summary['min_p_value']:.1e} < 1e-3")
    assert ok


@pytest.mark.slow
def test_criterion_09_continuity_equation():
    rep = transport_battery(
        MeasureSpec(cutoff=6, seed=SEED),
        FlowParams(cutoff=6, dt=1e-2, t_end=0.5, integrator="rk4"),
        named_test_field("cos_x1"),
        named_test_field("cos_x1"),
        2000,
    )
    s = rep.summary
    residual_ok = abs(s["residual"]) <= s["residual_bound"]
    route_ok = abs(s["route_forward"] - s["route_backward"]) <= 3.0 * s["route_combined_se"]
    entropy_ok = (abs(s["entropy"] - s["entropy_target"]) <= 3.0 * s["entropy_se"]
                  and s["entropy_weight_invariant"] and s["weights_bitwise_equal"])
    ok = rep.passed and residual_ok and route_ok and entropy_ok
    assert _line(9, ok, f"residual {s['residual']:.1e} <= {s['residual_bound']:.1e}, "
                        f"routes within {abs(s['route_forward'] - s['route_backward']) / max(s['route_combined_se'], 1e-30):.1f} SE, "
                        f"entropy {s['entropy']:.3f} vs {s['entropy_target']:.3f} (weight-exact)")
    assert ok


def test_criterion_10_dirichlet_kernel_lemma():
    rep = dirichlet_kernel_study(named_test_field("cos_x1_plus_x2"), [2, 4, 8], size=64)
    sym_ok = rep.summary["max_swap_dev"] <= 1e-13 and rep.summary["max_sym_integral"] <= 1e-13
    conv_ok = max(row["conv_coeff_dev"] for row in rep.table) <= 1e-12
    trace_ok = all(abs(row["trace_value"]) <= row["trace_error_bar"] for row in rep.table)
    spectral_ok = all(row["spectral_trace"] == 0.0 for row in rep.table)
    ok = rep.passed and sym_ok and conv_ok and trace_ok and spectral_ok
    assert _line(10, ok, f"symmetries exact, trace values "
                         f"{['%.0e' % abs(r['trace_value']) for r in rep.table]} within bars, "
                         f"spectral route exactly 0")
    assert ok


# sha256 of every quickcheck report at the bundled seed (the manifest is
# left out: it also hashes the package version).  Recorded with version
# 0.2.0; the two exp_integrability_exchange digests were re-recorded with
# 0.3.0, whose exchange pairing is the closed form re*re + im*im, equal
# bit for bit to the dense pairing, instead of |w(1,0)|**2, which moved
# the last digit of two standard errors.  With 0.4.0 the implicit midpoint
# iteration stops member by member, which moved the last digits of the
# invariance and invariance_negative reports (json and csv), and the cauchy
# note names sample 0, where its cross-check runs, not "the first chunk".
# With 0.5.0 the drift runs on grids of size next_fast_len(3N+1), which
# moved the last digits of the invariance, invariance_negative and
# transport reports (json and csv); the cauchy reports, whose three
# cross-check drifts also use the grid, kept their bytes.  With 0.6.0 the
# kernel series of `trace_integral` is summed on its tensor grid by two
# einsum contractions in one fixed order, not by a BLAS product whose order
# followed the BLAS thread count; that moved the last digits of the
# dirichlet_kernel trace values and error bars (json and csv), which now
# read the same at every thread count.
QUICKCHECK_DIGESTS = {
    "cauchy.csv": "636cf20e9b9e4048a63adf20d645bfa2582c5958fa301cb6188a7bed24f8066b",
    "cauchy.json": "08510d3aa571d5bd6db28e4bc10e3b42cd3c7280c75efcbe079688045d472a05",
    "dirichlet_kernel.csv": "e639b3bc3af3288098e21b4d2610b9c1bccbdf8d98430c8168d9e8920a237817",
    "dirichlet_kernel.json": "929a303e801ccce997633c4dd47f36a27c3de7f8b1127dc8a741724376eca208",
    "exp_integrability_exchange.csv": "1e552bc6a3dcf91e826cb6602a7625b90b478364a55b89a7b10a93f15bff28de",
    "exp_integrability_exchange.json": "7191494fd23cdc38620b5752519335d98cb07e9968f11154dddeb06bc9e95b0a",
    "invariance.csv": "ae383a9a2e904ff1c98568f26a8a144dadff418dc574dbb03e5c4ee23869517e",
    "invariance.json": "72c3c32fbe9cb46ab25aad57026da194364e59f982c7b48dc0400393290f7eac",
    "invariance_negative.csv": "d98b7d7f33dcc10759199418e01df48165b66f511ded3ab2cba8861cf216aab9",
    "invariance_negative.json": "19fdcdf1158a2248a97dbef14b2f472b2678de63654b0a48a3bef860cb8cb1e5",
    "moment_bound_p2.csv": "5e8735263b7949a6f2f0be1fcd6efd566da3fa3ab33a4da383b5980c6672ed91",
    "moment_bound_p2.json": "42cb5d205e2e1dd66f84f454087f48fa87ec52c6d2958f96aa888887e401544e",
    "moment_bound_p3.csv": "eae829b499d2273a17c6d9f84229dbc870d4608a4de3a4a9e4693429416342d1",
    "moment_bound_p3.json": "24587e70435ec8209995a105fcbb7084baccde35f7a46aa2b7592288ff6fa354",
    "moment_bound_p4.csv": "3f253eae40da37d7bd4b221f8e29e42f5c480fc26393af46c86388074aff1a1c",
    "moment_bound_p4.json": "fad930daaa7bd552557229d446f82040f8090f57a0c7d3a2a29b50a209d65698",
    "summary.csv": "f7d53eaf07d54743a0dccc492b67e332c662970ec4e70cf6e41df23058f31465",
    "transport.csv": "0664481ae561e4aed1bbd55cc2b3e6764ab7dbf9bb028da537dadd54c5a1755c",
    "transport.json": "3fd475f2e9e3250a944aef9708d16a3f03ddd853befa90ee3d2f2b555d6aba67",
    "wick_mean.csv": "e1c367eb0f03793711b385a6c3347d52fcf38fbcafb4ce52a6d9481b4348310e",
    "wick_mean.json": "7c58d8e7c9521a46d05ab395b4ae295fe292891bb0cad791ff3fee55f7b1f43e",
    "wick_variance.csv": "33d0d0b719d067193cfadc2c8745db283e708c9f0a4f428770dab9d3aac576dd",
    "wick_variance.json": "986c515141304c2c3e57bd4cc38138fd59608847bbae26ea93c948ddeb77f5b2",
}


def test_criterion_11_reproducibility(tmp_path):
    import importlib.resources as res

    with res.as_file(res.files("enstrophy_lab") / "configs" / "quickcheck.cfg") as cfg:
        out1, out2 = tmp_path / "a", tmp_path / "b"
        code1 = cli_run(str(cfg), out_dir=str(out1))
        code2 = cli_run(str(cfg), out_dir=str(out2))
    identical = True
    for name in sorted(os.listdir(out1)):
        identical = identical and (out1 / name).read_bytes() == (out2 / name).read_bytes()
    digests = {name: hashlib.sha256((out1 / name).read_bytes()).hexdigest()
               for name in os.listdir(out1) if name != "manifest.json"}
    pinned = digests == QUICKCHECK_DIGESTS
    ok = code1 == 0 and code2 == 0 and identical and pinned
    assert _line(11, ok, f"quickcheck reruns byte-identical across "
                         f"{len(os.listdir(out1))} artifacts, reports match the pinned "
                         f"digests, all batteries passing")
    assert ok


# Runs the bundled quickcheck and the pinned drift exp_integrability report,
# then writes their digests as JSON to the path given as argv[1].
_PINNED_REPORTS = """
import hashlib, importlib.resources as res, json, pathlib, sys
from enstrophy_lab.cli import run
from test_verify import TestDriftExpIntegrability

out = pathlib.Path(sys.argv[1]).parent / "quickcheck"
with res.as_file(res.files("enstrophy_lab") / "configs" / "quickcheck.cfg") as cfg:
    code = run(str(cfg), out_dir=str(out))
rep = TestDriftExpIntegrability.report()
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code,
               "quickcheck": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                              for p in out.iterdir() if p.name != "manifest.json"},
               "drift_report": hashlib.sha256(rep.to_json().encode()).hexdigest(),
               "critical_eps_exact": rep.summary["critical_eps_exact"]}, fh)
"""


def test_reports_do_not_depend_on_blas_threads(tmp_path):
    # one BLAS thread in a fresh process: no report byte may follow the count
    paths = [os.path.dirname(os.path.dirname(enstrophy_lab.__file__)), os.path.dirname(__file__)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(paths))
    result = tmp_path / "digests.json"
    subprocess.run([sys.executable, "-c", _PINNED_REPORTS, str(result)], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    got = json.loads(result.read_text())
    assert got["code"] == 0
    assert got["quickcheck"] == QUICKCHECK_DIGESTS
    assert got["drift_report"] == DriftExpPins.DIGEST
    assert got["critical_eps_exact"] == DriftExpPins.CRITICAL
