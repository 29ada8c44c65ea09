"""Integrators, conservation, reversibility, divergence diagnostics."""

import hashlib
import warnings

import numpy as np
import pytest

from enstrophy_lab import flow
from enstrophy_lab.dynamics import SpectralDrift, _drift_dealiased
from enstrophy_lab.fields import SpectralField, sobolev_norm
from enstrophy_lab.measure import MeasureSpec, sample_batch
from enstrophy_lab.flow import (
    FlowParams,
    StepFailure,
    _step_midpoint,
    _step_rk4,
    divergence_check,
    enstrophy,
    evolve,
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

    @pytest.mark.parametrize("name,value", [
        # an infinite dt took 0 steps; an infinite t_end raised OverflowError
        ("dt", float("inf")), ("dt", float("nan")),
        ("t_end", float("inf")), ("t_end", float("nan")),
    ])
    def test_rejects_non_finite_times(self, name, value):
        kwargs = dict(cutoff=4, dt=1e-2, t_end=1e-2)
        kwargs[name] = value
        with pytest.raises(ValueError, match=name):
            FlowParams(**kwargs)


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

    def test_midpoint_divergence_raises_with_diagnostics(self, monkeypatch):
        # a growing increment stops the iteration at once: fewer sweeps
        # than the budget and no overflow warning on the way
        monkeypatch.setattr(flow, "_MIDPOINT_MAX_ITER", 10)
        w = white_field(4, np.random.default_rng(3))
        p = FlowParams(cutoff=4, dt=5.0, t_end=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailure, match="diverged") as info:
                step(w, p)
        assert 1 <= info.value.iterations < 10
        assert np.isfinite(info.value.residual) and info.value.residual > 0
        assert info.value.member_mask.tolist() == [True]

    def test_midpoint_budget_exhausted(self, monkeypatch):
        # a contracting iteration that runs out of sweeps reports them all
        monkeypatch.setattr(flow, "_MIDPOINT_MAX_ITER", 2)
        w = white_field(4, np.random.default_rng(3))
        p = FlowParams(cutoff=4, dt=1e-2, t_end=1e-2)
        with pytest.raises(StepFailure, match="did not converge in 2 iterations") as info:
            step(w, p)
        assert info.value.iterations == 2

    def test_midpoint_members_stop_and_fail_alone(self, monkeypatch):
        # a shear fixed point converges at the first sweep and leaves the
        # later ones; a failure names only the member that failed
        shear = SpectralField.from_modes(4, {(1, 0): 0.5}).coeffs
        w = white_field(4, np.random.default_rng(3)).coeffs
        drv = SpectralDrift(4)
        members = []
        padded_drift = drv.padded_drift
        drv.padded_drift = lambda s: members.append(s.shape[0]) or padded_drift(s)
        out = _step_midpoint(np.stack([shear, w]), 1e-2, drv)
        assert members[:2] == [2, 2] and set(members[2:]) == {1}
        # the shear's bytes are its own step's; off a power-of-two grid its
        # drift is round-off rather than exact zeros: the paired transform
        # leaks about 1e-17 into modes (+-2, 0), so the step moves it by
        # less than dt times one ulp
        assert np.array_equal(out[0], _step_midpoint(shear[None], 1e-2, SpectralDrift(4))[0])
        assert np.abs(out[0] - shear).max() <= 1e-2 * np.finfo(float).eps
        for dt, max_iter, what in ((5.0, 10, "diverged"), (1e-2, 2, "did not converge")):
            monkeypatch.setattr(flow, "_MIDPOINT_MAX_ITER", max_iter)
            with pytest.raises(StepFailure, match=what) as info:
                _step_midpoint(np.stack([shear, w]), dt, drv)
            assert info.value.member_mask.tolist() == [False, True]


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
        back = evolve(fwd.final, p, SpectralDrift(8, sign=-1.0), record_stride=1000)
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

    def test_cutoff_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evolve(unit_field(4), FlowParams(cutoff=6, dt=1e-2, t_end=0.1))

    @pytest.mark.parametrize("entry", [step, evolve])
    def test_mismatched_drift_rejected_up_front(self, entry):
        p = FlowParams(cutoff=4, dt=1e-2, t_end=0.1, integrator="rk4")
        with pytest.raises(ValueError, match="drift cutoff 6 does not match flow cutoff 4"):
            entry(unit_field(4), p, SpectralDrift(6))
        with pytest.raises(TypeError, match="drift_fn must be a SpectralDrift"):
            entry(unit_field(4), p, lambda c: SpectralDrift(4)(c))


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


class TestRealCoordinates:
    @pytest.mark.parametrize("cutoff", [0, 1, 2, 5])
    def test_round_trip(self, cutoff):
        dim = (2 * cutoff + 1) ** 2
        x = np.random.default_rng(11).standard_normal((40, dim))
        coeffs = flow.coords_to_coeffs(x, cutoff)
        assert np.array_equal(coeffs, np.conj(coeffs[..., ::-1, ::-1]))
        back = flow.coeffs_to_coords(coeffs, cutoff)
        assert np.all(np.abs(back - x) <= 1e-15 * np.abs(x))


def _golden_drift(kind, cutoff):
    shift = 1.5 * SpectralField.from_modes(cutoff, {(1, 0): 0.5, (1, 2): 0.25}).coeffs
    return {"default": None, "reversed": SpectralDrift(cutoff, sign=-1.0),
            "shifted": SpectralDrift(cutoff, shift=shift),
            "shifted_reversed": SpectralDrift(cutoff, shift=shift, sign=-1.0)}[kind]


def _golden_digest(entry, integrator, kind, cutoff):
    w = white_field(cutoff, np.random.default_rng(20260819 + cutoff), scale=1.0)
    p = FlowParams(cutoff=cutoff, dt=1e-2, t_end=0.05, integrator=integrator)
    drv = _golden_drift(kind, cutoff)
    if entry == "step":
        return hashlib.sha256(step(w, p, drv).coeffs.tobytes()).hexdigest()
    traj = evolve(w, p, drv, record_stride=2)
    h = hashlib.sha256()
    for s in traj.states:
        h.update(s.coeffs.tobytes())
    for arr in (traj.times, traj.diag_enstrophy, traj.diag_energy, traj.diag_ortho):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()


# sha256 of step output, and of evolve states, times and diagnostics,
# recorded before every integrator moved to the padded layout and
# re-recorded with 0.5.0, whose smaller dealiasing grids move the last
# bits of every drift and whose drift is exactly zero in mode (0, 0).
# Keys are (entry, integrator, drift, cutoff); "reversed" is sign -1 and
# "shifted" adds a constant table.
FLOW_DIGESTS = {
    ("step", "rk4", "default", 4): "be725f2b70645835b5eb960991171476a38da5be8b0c2c641711b540d02d40e3",
    ("step", "rk4", "default", 8): "44aae50ebaf3db53fbe5cb926810938bf7ec6edaac30b0e56b5ceb2d2017cae8",
    ("step", "rk4", "reversed", 4): "790520b81729b29e9ae681ab5c0645f75e0c6bf96efd29962dc7076f94ded193",
    ("step", "rk4", "reversed", 8): "25b37144f5552bf600b377c7d4830ad911eea35a082ee4e7d858972a677ad967",
    ("step", "rk4", "shifted", 4): "789562d904a06285c53124e0717ded8784a69f27b5fd158a076c29b71bf30899",
    ("step", "rk4", "shifted", 8): "8219e42bd328518829a66d3e3047db0a63f37be7c42b9245c285bdc8823a8dd2",
    ("step", "rk4", "shifted_reversed", 4): "ee4e98687bc3525deff51da39ee94018ec9b675271eff358c0dd765e1c9979bf",
    ("step", "rk4", "shifted_reversed", 8): "13c09b9be7f4dd17d8eb7254699fab2c154ab2a55f11a9a01d52aa705fe113a3",
    ("step", "implicit_midpoint", "default", 4): "26f8c3177243ce0c1ab3c05a87aea014a1dfa1f79afbd7fc0ed751526418226f",
    ("step", "implicit_midpoint", "default", 8): "c1ece4daf9586d881cabea84f567a62305441abf823d32eae46df31ba80e90cb",
    ("step", "implicit_midpoint", "reversed", 4): "4f5858b9a894dff6b9ed1d2933abb82179e008336e50d0718570ffcadf9756ae",
    ("step", "implicit_midpoint", "reversed", 8): "148f155f0db1ecb6a109215faf7dc77c438bc8a5aa71267714ac9fdf933c49fc",
    ("step", "implicit_midpoint", "shifted", 4): "aad45356525a3bc467a9c92e559dd1d2dc0d2c7b476b7552415242354cf7714a",
    ("step", "implicit_midpoint", "shifted", 8): "52565ba70b8491777881b686ecd0ffc48948b09f49972116ecb218c2cc8b993c",
    ("step", "implicit_midpoint", "shifted_reversed", 4): "f6cefee330dd7b6f45effa632e79580f92570519c24930256f88584d8acb3ab5",
    ("step", "implicit_midpoint", "shifted_reversed", 8): "8d31d8a42fe7d28c233e781d9efc4e39fc899d41e2d45096ee6276e7a2ab8daa",
    ("evolve", "rk4", "default", 4): "e65ab0c9ce62aec8c95949f276433e630f2a4ed6a4bb64f3afd1ce5ff8f8e1ab",
    ("evolve", "rk4", "default", 8): "7256a1b0bf58690d3479c13951c25e72bbdb28577e5078a59b05dbed08df2b68",
    ("evolve", "rk4", "reversed", 4): "4dc8ae886204f6cc8fe40253c0e47de36410b6bd3ec996560b06aa1e24aa9653",
    ("evolve", "rk4", "reversed", 8): "2e07e50b90404b66634d6f39d3b06f401f343fc520a6237bd201cbdb904adecc",
    ("evolve", "rk4", "shifted", 4): "26c060d357f735d15d91435a86c4334e2a9b8a4d0b863fdc0fea3e3ad513dc05",
    ("evolve", "rk4", "shifted", 8): "53a04d4b26b61a64b027ced54ef388c848d1f210689741f49d9603afb128cceb",
    ("evolve", "rk4", "shifted_reversed", 4): "823d4b580d8c7906a8b7f5c9d64b95134aa3b1ad000024c463c3f6f50b34ec91",
    ("evolve", "rk4", "shifted_reversed", 8): "b1eb6123bf0cd7b181e0cb177bd16753f6b5fd99df94efa7137e0e8623bb40f3",
    ("evolve", "implicit_midpoint", "default", 4): "c9ec3266013a2c194483059c85b20a503860a42af9aac8071572fd292b3b638f",
    ("evolve", "implicit_midpoint", "default", 8): "41076b46f5e9ac1e14da719ce23183a5915108534872e85484463660f66f3ca5",
    ("evolve", "implicit_midpoint", "reversed", 4): "44e69f38c8896a7d8c7b6edd13d41f7fa3a9e08eb5fe9053896e62ed1d40d186",
    ("evolve", "implicit_midpoint", "reversed", 8): "58001cea3d6ac9600d3abc3b2724657ef36a47cf51a73032b7ed71925d6bd0d6",
    ("evolve", "implicit_midpoint", "shifted", 4): "04440a186d7440024a37e3911e5427267bf22e7d6c6245df98c0b1c40d0fde00",
    ("evolve", "implicit_midpoint", "shifted", 8): "e308cc102e6d9c39609923031acb081ea1f32900e92ec19d9cb8ae2ef1ac8c3d",
    ("evolve", "implicit_midpoint", "shifted_reversed", 4): "368468764fc90cedcd5625bb1454dadf3ed0384ddaeec449c0870e3aa641d964",
    ("evolve", "implicit_midpoint", "shifted_reversed", 8): "8db348d8bfcdb4c545b5c4d6313abb815897bb633f71ffffc81945ec64995a47",
}


class TestFlowBytes:
    @pytest.mark.parametrize("entry,integrator,kind,cutoff", list(FLOW_DIGESTS))
    def test_golden_bytes(self, entry, integrator, kind, cutoff):
        digest = _golden_digest(entry, integrator, kind, cutoff)
        assert digest == FLOW_DIGESTS[(entry, integrator, kind, cutoff)]

    @pytest.mark.parametrize("integrator,expected", [("rk4", 41), ("implicit_midpoint", 101)])
    def test_evolve_drift_evaluations(self, integrator, expected):
        # one padded evaluation per stage or sweep; the orthogonality
        # diagnostic reuses each step's k1 and the horizon adds one
        drv = SpectralDrift(4)
        calls = []
        padded_drift = drv.padded_drift
        drv.padded_drift = lambda s: calls.append(1) or padded_drift(s)
        w = SpectralField(4, sample_batch(MeasureSpec(cutoff=4, seed=20260801), [0])[0])
        evolve(w, FlowParams(cutoff=4, dt=1e-2, t_end=0.1, integrator=integrator), drv)
        assert len(calls) == expected
