"""Integrators, conservation, reversibility, divergence diagnostics."""

import warnings

import numpy as np
import pytest

from enstrophy_lab.dynamics import SpectralDrift, _drift_dealiased
from enstrophy_lab.fields import SpectralField, sobolev_norm
from enstrophy_lab.flow import (
    FlowParams,
    StepFailure,
    _step_rk4,
    divergence_check,
    enstrophy,
    evolve,
    evolve_backward,
    step,
)
from conftest import white_field


def unit_field(cutoff, seed=0):
    rng = np.random.default_rng(seed)
    return white_field(cutoff, rng, scale=1.0)


class TestFlowParams:
    def test_accepts_integer_step_count(self):
        p = FlowParams(cutoff=4, dt=1e-2, t_end=0.5)
        assert p.n_steps == 50

    def test_rejects_fractional_step_count(self):
        with pytest.raises(ValueError):
            FlowParams(cutoff=4, dt=0.013, t_end=0.25)

    def test_rejects_bad_dt_and_scheme(self):
        with pytest.raises(ValueError):
            FlowParams(cutoff=4, dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            FlowParams(cutoff=4, dt=1e-2, t_end=1.0, integrator="euler")


class TestStep:
    def test_shear_fixed_point_both_schemes(self):
        w = SpectralField.from_modes(8, {(1, 0): 0.5})
        for scheme in ("rk4", "implicit_midpoint"):
            p = FlowParams(cutoff=8, dt=1e-2, t_end=1.0, integrator=scheme)
            out = step(w, p)
            assert np.abs(out.coeffs - w.coeffs).max() <= 1e-15

    def test_midpoint_conserves_enstrophy_per_step(self):
        p = FlowParams(cutoff=8, dt=1e-2, t_end=1.0)
        for seed, scale in ((0, None), (1, 1.0)):
            w = white_field(8, np.random.default_rng(seed), scale=scale)
            out = step(w, p)
            e0, e1 = sobolev_norm(w) ** 2, sobolev_norm(out) ** 2
            assert abs(e1 - e0) / e0 <= 1e-10

    def test_rk4_enstrophy_drift_order(self):
        w = white_field(8, np.random.default_rng(2))
        drv = SpectralDrift(8)

        def one_step_drift(dt):
            out = _step_rk4(w.coeffs, dt, drv)
            return abs(float(enstrophy(out)) - float(enstrophy(w.coeffs)))

        order = np.log2(one_step_drift(1e-2) / one_step_drift(5e-3))
        assert order >= 4.5

    def test_midpoint_divergence_raises_with_diagnostics(self):
        # a growing increment stops the iteration at once: fewer sweeps
        # than the budget and no overflow warning on the way
        w = white_field(4, np.random.default_rng(3))
        p = FlowParams(cutoff=4, dt=5.0, t_end=5.0, midpoint_max_iter=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailure, match="diverged") as info:
                step(w, p)
        assert 1 <= info.value.iterations < 10
        assert np.isfinite(info.value.residual) and info.value.residual > 0
        assert info.value.member_mask.tolist() == [True]

    def test_midpoint_budget_exhausted(self):
        # a contracting iteration that runs out of sweeps reports them all
        w = white_field(4, np.random.default_rng(3))
        p = FlowParams(cutoff=4, dt=1e-2, t_end=1e-2, midpoint_max_iter=2)
        with pytest.raises(StepFailure, match="did not converge in 2 iterations") as info:
            step(w, p)
        assert info.value.iterations == 2


class TestEvolve:
    def test_zero_horizon(self):
        w = unit_field(4)
        traj = evolve(w, FlowParams(cutoff=4, dt=1e-2, t_end=0.0))
        assert len(traj.states) == 1
        assert traj.final is w

    def test_round_trip(self):
        w = unit_field(8)
        p = FlowParams(cutoff=8, dt=1e-2, t_end=1.0)
        fwd = evolve(w, p, record_stride=1000)
        back = evolve_backward(fwd.final, p, record_stride=1000)
        err = np.linalg.norm(back.final.coeffs - w.coeffs) / np.linalg.norm(w.coeffs)
        assert err <= 1e-6

    def test_enstrophy_constant_along_trajectory(self):
        w = unit_field(8, seed=5)
        traj = evolve(w, FlowParams(cutoff=8, dt=1e-2, t_end=1.0), record_stride=100)
        e = traj.diag_enstrophy
        assert np.abs(e - e[0]).max() / e[0] <= 1e-9

    def test_orthogonality_residual_every_step(self):
        w = unit_field(6, seed=6)
        traj = evolve(w, FlowParams(cutoff=6, dt=2e-2, t_end=0.2))
        bound = 1e-10 * traj.diag_enstrophy
        assert np.all(np.abs(traj.diag_ortho) <= bound)

    @pytest.mark.parametrize("scheme,min_order", [("rk4", 3.9), ("implicit_midpoint", 1.9)])
    def test_observed_convergence_order(self, scheme, min_order):
        w = unit_field(8, seed=7)

        def final(dt):
            p = FlowParams(cutoff=8, dt=dt, t_end=0.2, integrator=scheme)
            return evolve(w, p, record_stride=10 ** 6).final.coeffs

        f1, f2, f3 = final(2e-2), final(1e-2), final(5e-3)
        order = np.log2(np.linalg.norm(f1 - f2) / np.linalg.norm(f2 - f3))
        assert order >= min_order

    def test_diagnostics_csv(self, tmp_path):
        w = unit_field(4)
        traj = evolve(w, FlowParams(cutoff=4, dt=1e-2, t_end=0.05))
        path = tmp_path / "diag.csv"
        traj.save_diagnostics_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,t,enstrophy,energy,ortho_residual"
        assert len(lines) == 2 + traj.params.n_steps

    def test_cutoff_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evolve(unit_field(4), FlowParams(cutoff=6, dt=1e-2, t_end=0.1))


class TestDivergenceCheck:
    def test_drift_divergence_vanishes(self):
        w = white_field(2, np.random.default_rng(8))
        div, scale = divergence_check(w, 2, 1e-4, with_scale=True)
        assert abs(div) <= 1e-6 * scale

    def test_cutoff_zero(self):
        w = SpectralField.from_modes(0, {(0, 0): 1.0})
        assert divergence_check(w, 0, 1e-4) == 0.0

    def test_identity_field_counts_dimension(self):
        w = white_field(2, np.random.default_rng(9))
        div = divergence_check(w, 2, 1e-4, vector_field=lambda c: c)
        assert abs(div - 25.0) <= 1e-6

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            divergence_check(unit_field(2), 2, 0.0)
