"""Battery plumbing: reference kernels, series check, report serialization."""

import json

import numpy as np
import pytest

from enstrophy_lab.dynamics import quadratic_coefficients
from enstrophy_lab.fields import SpectralField
from enstrophy_lab.measure import MeasureSpec, sample_batch
from enstrophy_lab.verify import (
    TestReport,
    exchange_kernel,
    kernel_pairing,
    measured_sup_symmetrized,
    moment_bound,
    named_test_field,
    rank_one_form,
    real_form_matrix,
    series_check,
    wick_mean_test,
    write_summary_csv,
)
from enstrophy_lab.dynamics import KernelEval


class TestReferenceKernels:
    def test_exchange_kernel_constants(self):
        k = exchange_kernel(3)
        assert k.trace_diagonal() == 1.0
        assert abs(k.frobenius_sq() - 0.5) <= 1e-15

    def test_exchange_pairing_is_exponential(self):
        spec = MeasureSpec(cutoff=3, seed=5)
        batch = sample_batch(spec, range(4000))
        q = kernel_pairing(batch, 3, exchange_kernel(3))
        assert np.all(q >= 0)
        se = q.std(ddof=1) / np.sqrt(len(q))
        assert abs(q.mean() - 1.0) <= 3 * se

    def test_rank_one_trace_is_field_norm(self):
        phi = named_test_field("cos_x1")
        k = rank_one_form(phi, 2)
        assert abs(k.trace_diagonal() - 0.5) <= 1e-15

    def test_critical_epsilon_exchange(self):
        eig = np.linalg.eigvalsh(real_form_matrix(exchange_kernel(2)))
        assert abs(1.0 / (2 * np.abs(eig).max()) - 1.0) <= 1e-12

    def test_zero_kernel_exponential_moment_is_one(self):
        from enstrophy_lab.dynamics import QuadraticForm, quadratic_pairing_batch

        zero = QuadraticForm(2, np.zeros((25, 25), dtype=complex))
        spec = MeasureSpec(cutoff=2, seed=1)
        q = quadratic_pairing_batch(sample_batch(spec, range(100)), 2, zero)
        assert np.all(np.exp(0.3 * np.abs(q)) == 1.0)

    def test_measured_sup_tracks_kernel_scale(self):
        ke = KernelEval(named_test_field("cos_x1_plus_x2"), k_max=32)
        sup_coarse = measured_sup_symmetrized(ke, base_grid=8, diff_grid=16)
        sup_fine = measured_sup_symmetrized(ke, base_grid=12, diff_grid=32)
        assert 0.5 <= sup_fine / sup_coarse <= 2.0


class TestSeriesCheck:
    def test_bound_constants(self):
        assert moment_bound(2) == 3.0
        assert moment_bound(3) == 15.0
        assert moment_bound(4) == 105.0

    def test_converges_below_half(self):
        r = series_check(0.4)
        assert r["converged"] and not r["diverged"]
        assert abs(r["tail_ratio"] - 0.8) <= 0.01

    def test_diverges_above_half(self):
        r = series_check(0.6)
        assert r["diverged"]
        assert abs(r["tail_ratio"] - 1.2) <= 0.012


class TestReportSerialization:
    def test_deterministic_json_and_files(self, tmp_path):
        rep = TestReport(name="demo", params={"N": 2}, seed=7, passed=True,
                         summary={"x": np.float64(1.5), "flag": np.bool_(True)},
                         table=[{"a": 1, "b": 0.25}], notes=["note"],
                         runtime_seconds=123.0)
        text = rep.to_json()
        payload = json.loads(text)
        assert "runtime" not in text
        assert payload["summary"]["x"] == 1.5
        assert payload["summary"]["flag"] is True
        files = rep.write(tmp_path)
        assert sorted(p.split("/")[-1] for p in files) == ["demo.csv", "demo.json"]
        again = rep.write(tmp_path)
        assert (tmp_path / "demo.json").read_text() == text + "\n"

    def test_non_finite_numbers_written_as_null(self, tmp_path):
        rep = TestReport(name="demo", params={"eps": float("inf")}, seed=7, passed=True,
                         summary={"ks": float("nan"), "x": np.float64(-np.inf),
                                  "v": np.array([np.nan, 0.5])},
                         table=[{"target": np.float64(np.nan), "estimate": 0.25}])
        text = rep.to_json()

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = json.loads(text, parse_constant=reject)
        assert payload["params"] == {"eps": None}
        assert payload["summary"] == {"ks": None, "x": None, "v": [None, 0.5]}
        assert payload["table"] == [{"estimate": 0.25, "target": None}]
        rep.write(tmp_path)
        assert (tmp_path / "demo.csv").read_text().splitlines()[1] == "nan,0.25"

    def test_summary_csv(self, tmp_path):
        reps = [TestReport(name="a", params={}, seed=0, passed=True, summary={}),
                TestReport(name="b", params={}, seed=0, passed=False, summary={})]
        write_summary_csv(tmp_path / "summary.csv", reps)
        assert (tmp_path / "summary.csv").read_text() == "name,passed\na,true\nb,false\n"


class TestBatteryGuards:
    def test_mean_test_sample_floor(self):
        spec = MeasureSpec(cutoff=2, seed=0)
        with pytest.raises(ValueError):
            wick_mean_test(exchange_kernel(2), spec, 10)

    def test_mean_test_cutoff_consistency(self):
        with pytest.raises(ValueError):
            wick_mean_test(exchange_kernel(2), MeasureSpec(cutoff=3, seed=0), 2000)

    def test_named_field_unknown(self):
        with pytest.raises(ValueError):
            named_test_field("nope")

    def test_drift_kernel_mean_is_trace_free(self):
        phi = named_test_field("cos_x1_plus_x2")
        form = quadratic_coefficients(phi, 3)
        assert form.trace_diagonal() == 0.0
        rep = wick_mean_test(form, MeasureSpec(cutoff=3, seed=21), 4000)
        assert rep.passed
        assert rep.summary["exact_trace"] == 0.0
