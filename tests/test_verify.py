"""Battery plumbing: reference kernels, series check, report serialization."""

import hashlib
import json

import numpy as np
import pytest

from enstrophy_lab.dynamics import DenseForm, quadratic_coefficients, quadratic_pairing_batch
from enstrophy_lab.fields import SpectralField, dual_pairing, project
from enstrophy_lab.measure import MeasureSpec, sample_batch
from enstrophy_lab import verify
from enstrophy_lab.flow import coords_to_coeffs
from enstrophy_lab.verify import (
    RankOneForm,
    TestReport,
    _exchange_pairing,
    _pairing_values,
    cauchy_study,
    dirichlet_kernel_study,
    exchange_kernel,
    measured_sup_symmetrized,
    moment_bound,
    named_test_field,
    exp_integrability_test,
    moment_bound_test,
    rank_one_form,
    real_form_matrix,
    series_check,
    wick_mean_test,
    wick_variance_test,
    write_summary_csv,
)
from enstrophy_lab.dynamics import KernelEval


class TestReferenceKernels:
    def test_exchange_kernel_constants(self):
        k = exchange_kernel(3)
        assert k.trace() == 1.0
        assert abs(k.frobenius_sq() - 0.5) <= 1e-15
        dense = DenseForm(3, k.matrix())
        assert dense.trace() == 1.0 and dense.frobenius_sq() == 0.5

    def test_exchange_closed_form_equals_dense(self):
        # bitwise, so that the sparse form changes no report byte
        for n in range(1, 17):
            batch = sample_batch(MeasureSpec(cutoff=n, seed=20260801), range(300))
            dense = quadratic_pairing_batch(batch, n, DenseForm(n, exchange_kernel(n).matrix()))
            assert np.array_equal(quadratic_pairing_batch(batch, n, exchange_kernel(n)), dense)
            assert np.array_equal(_exchange_pairing(batch, n), dense)

    def test_exchange_pairing_is_exponential(self):
        spec = MeasureSpec(cutoff=3, seed=5)
        batch = sample_batch(spec, range(4000))
        q = quadratic_pairing_batch(batch, 3, exchange_kernel(3))
        assert np.all(q >= 0)
        se = q.std(ddof=1) / np.sqrt(len(q))
        assert abs(q.mean() - 1.0) <= 3 * se

    def test_rank_one_trace_is_field_norm(self):
        phi = named_test_field("cos_x1")
        k = rank_one_form(phi, 2)
        assert abs(k.trace() - 0.5) <= 1e-15

    def test_rank_one_form_matches_dense(self):
        phi = named_test_field("mix_low")
        psi = named_test_field("cos_2x1_plus_x2")
        for n in (2, 3):
            k = RankOneForm(phi, psi, n)
            dense = DenseForm(n, k.matrix())
            # the trace is exactly <phi, psi>
            assert k.trace() == dual_pairing(project(phi, n), project(psi, n))
            assert abs(k.trace() - dense.trace()) <= 1e-15
            assert abs(k.frobenius_sq() - dense.frobenius_sq()) <= 1e-14
            batch = sample_batch(MeasureSpec(cutoff=n, seed=9), range(50))
            got = quadratic_pairing_batch(batch, n, k)
            ref = quadratic_pairing_batch(batch, n, dense)
            assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    def test_critical_epsilon_exchange(self):
        eig = np.linalg.eigvalsh(real_form_matrix(exchange_kernel(2).matrix()))
        assert abs(1.0 / (2 * np.abs(eig).max()) - 1.0) <= 1e-12

    @pytest.mark.parametrize("form", [
        quadratic_coefficients(named_test_field("cos_x1_plus_x2"), 2),
        exchange_kernel(2),
        RankOneForm(named_test_field("mix_low"), named_test_field("cos_2x1_plus_x2"), 2),
    ])
    def test_real_form_matrix_is_the_pairing_on_real_coordinates(self, form):
        dim = (2 * form.cutoff + 1) ** 2
        x = np.random.default_rng(4).standard_normal((20, dim))
        got = np.einsum("ki,ij,kj->k", x, real_form_matrix(form.matrix()), x)
        ref = quadratic_pairing_batch(coords_to_coeffs(x, form.cutoff), form.cutoff, form)
        assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    def test_zero_kernel_exponential_moment_is_one(self):
        zero = DenseForm(2, np.zeros((25, 25), dtype=complex))
        spec = MeasureSpec(cutoff=2, seed=1)
        q = quadratic_pairing_batch(sample_batch(spec, range(100)), 2, zero)
        assert np.all(np.exp(0.3 * np.abs(q)) == 1.0)

    def test_measured_sup_tracks_kernel_scale(self):
        ke = KernelEval(named_test_field("cos_x1_plus_x2"), k_max=32)
        sup_coarse = measured_sup_symmetrized(ke, base_grid=8, diff_grid=16)
        sup_fine = measured_sup_symmetrized(ke, base_grid=12, diff_grid=32)
        assert 0.5 <= sup_fine / sup_coarse <= 2.0

    def test_measured_sup_matches_row_route(self, monkeypatch):
        # the tensor-grid sum against the row route over every grid point
        ke = KernelEval(named_test_field("cos_x1_plus_x2"), k_max=64)
        grid = measured_sup_symmetrized(ke)

        def rows(self, a, b, k_cut):
            return self._kernel_sum(np.stack(np.meshgrid(a, b, indexing="ij"), axis=-1), k_cut)

        monkeypatch.setattr(KernelEval, "grid_sum", rows)
        assert abs(grid - measured_sup_symmetrized(ke)) <= 1e-14 * grid


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

    @pytest.mark.parametrize("battery", [
        lambda spec: wick_mean_test(exchange_kernel(2), spec, 2000),
        lambda spec: wick_variance_test(exchange_kernel(2), spec, 2000),
        # blocked pairing projects to the form's cutoff; a finer measure must
        # still raise rather than be truncated
        lambda spec: moment_bound_test(exchange_kernel(2), 2, spec, 2000),
    ], ids=["wick_mean", "wick_variance", "moment_bound"])
    def test_kernel_and_measure_cutoffs_must_agree(self, battery):
        with pytest.raises(ValueError, match="cutoffs differ"):
            battery(MeasureSpec(cutoff=3, seed=0))

    def test_moment_past_float_range_reads_null_without_warning(self):
        # exp(1000 |q|) overflows: the overflow and the inf - inf of the
        # standard error warned, an error under Tier-1's error::RuntimeWarning
        spec = MeasureSpec(cutoff=4, seed=3)
        rows = json.loads(exp_integrability_test(None, [0.1, 0.4, 1000.0], spec, 200, [2, 4])
                          .to_json())["table"]
        finite = json.loads(exp_integrability_test(None, [0.1, 0.4], spec, 200, [2, 4])
                            .to_json())["table"]
        assert [r for r in rows if r["eps"] != 1000.0] == finite
        big = [r for r in rows if r["eps"] == 1000.0]
        assert len(big) == 2 and all(r["estimate"] is None for r in big)

    def test_named_field_unknown(self):
        with pytest.raises(ValueError):
            named_test_field("nope")

    def test_drift_kernel_mean_is_trace_free(self):
        phi = named_test_field("cos_x1_plus_x2")
        form = quadratic_coefficients(phi, 3)
        assert form.trace() == 0.0
        rep = wick_mean_test(form, MeasureSpec(cutoff=3, seed=21), 4000)
        assert rep.passed
        assert rep.summary["exact_trace"] == 0.0


class TestDriftExpIntegrability:
    """The drift kernel route: measured sup, dense table and critical exponent."""

    PHI = named_test_field("cos_x1_plus_x2")
    # sha256 of the report's JSON and its exact critical exponent, recorded
    # with 0.6.0, whose measured kernel sup is summed in one fixed order
    # (3.251007377882165 at every BLAS thread count)
    DIGEST = "47ccc26e62854de0f4914e8752bc9808c600aae6b33afb5a97ccd8922c6a48d6"
    CRITICAL = 8.127518444705414

    @classmethod
    def report(cls):
        return exp_integrability_test(cls.PHI, [0.1, 0.4], MeasureSpec(cutoff=4, seed=3), 300,
                                      [2, 4], kernel_kind="drift")

    def test_report_bytes(self):
        rep = self.report()
        assert hashlib.sha256(rep.to_json().encode()).hexdigest() == self.DIGEST
        assert rep.summary["critical_eps_exact"] == self.CRITICAL

    def test_zero_form_has_infinite_critical_exponent(self):
        # at N=1 the drift form of cos(x1 + x2) vanishes: the exponent used
        # to come from a division by zero (a RuntimeWarning, an error here)
        assert np.all(quadratic_coefficients(self.PHI, 1).matrix() == 0)
        rep = exp_integrability_test(self.PHI, [0.1, 0.4], MeasureSpec(cutoff=1, seed=3), 300,
                                     [1], kernel_kind="drift")
        assert rep.summary["critical_eps_exact"] == np.inf
        assert json.loads(rep.to_json())["summary"]["critical_eps_exact"] is None
        assert rep.passed


class TestDirichletKernelStudy:
    # even sizes that are not powers of two, among them the default G = 68
    # for N = 16: there -1/2 + (a + 1/2)/G is not exactly antisymmetric
    @pytest.mark.parametrize("n_list,size", [([8], 36), ([2, 4, 8], 40), ([8, 16], 68)])
    def test_nodes_antisymmetric_at_any_even_size(self, n_list, size):
        rep = dirichlet_kernel_study(named_test_field("cos_x1_plus_x2"), n_list, size)
        for key in ("reflect_dev", "swap_dev", "sym_integral_max"):
            assert [row[key] for row in rep.table] == [0.0] * len(n_list)
        assert rep.passed


class TestBlockedPairing:
    PHI = named_test_field("cos_x1_plus_x2")

    @pytest.mark.parametrize("make", [
        lambda n: quadratic_coefficients(TestBlockedPairing.PHI, n),
        exchange_kernel,
        lambda n: RankOneForm(named_test_field("mix_low"), named_test_field("cos_2x1_plus_x2"), n),
    ], ids=["drift", "exchange", "rank_one"])
    def test_bytes_equal_whole_batch_pairing(self, make):
        # 1100 samples: two full blocks and a partial one; cutoffs 2 and 3
        # sit below the sampled cutoff 5 and are truncated by hand here
        spec, count = MeasureSpec(cutoff=5, seed=20260801), 1100
        forms = [make(n) for n in (2, 3, 5)]
        batch = sample_batch(spec, range(count))
        for form, got in zip(forms, _pairing_values(spec, count, forms)):
            n = form.cutoff
            sub = batch[..., 5 - n : 5 + n + 1, 5 - n : 5 + n + 1]
            ref = quadratic_pairing_batch(sub, n, form)
            assert got.shape == (count,)
            assert got.tobytes() == ref.tobytes()

    # `redraws`: cauchy draws sample 0 once more, alone, to cross-check its
    # pairings against the drift route
    @pytest.mark.parametrize("battery,redraws", [
        (lambda spec, m: wick_mean_test(exchange_kernel(2), spec, m), 0),
        (lambda spec, m: wick_variance_test(exchange_kernel(2), spec, m), 0),
        (lambda spec, m: moment_bound_test(exchange_kernel(2), 3, spec, m), 0),
        (lambda spec, m: exp_integrability_test(None, [0.1], spec, m, [1, 2]), 0),
        (lambda spec, m: cauchy_study(TestBlockedPairing.PHI, [1, 2], 2, spec, m), 1),
    ], ids=["wick_mean", "wick_variance", "moment_bound", "exp_integrability", "cauchy"])
    def test_batteries_draw_in_blocks(self, monkeypatch, battery, redraws):
        sizes = []

        def recording(spec, indices):
            sizes.append(len(indices))
            return sample_batch(spec, indices)

        monkeypatch.setattr(verify, "sample_batch", recording)
        battery(MeasureSpec(cutoff=2, seed=3), 1300)
        blocks = sizes[: len(sizes) - redraws]
        assert sum(blocks) == 1300 and max(blocks) <= 512
        assert sizes[len(blocks):] == [1] * redraws
