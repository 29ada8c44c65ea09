"""Integrators, conservation, reversibility, divergence diagnostics."""

import hashlib
import warnings

import numpy as np
import pytest

from enstrophy_lab.dynamics import SpectralDrift, _drift_dealiased
from enstrophy_lab.fields import SpectralField, sobolev_norm
from enstrophy_lab.measure import MeasureSpec, sample_batch
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

    def test_cutoff_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evolve(unit_field(4), FlowParams(cutoff=6, dt=1e-2, t_end=0.1))

    @pytest.mark.parametrize("entry", [step, evolve, evolve_backward])
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
    traj = (evolve if entry == "evolve" else evolve_backward)(w, p, drv, record_stride=2)
    h = hashlib.sha256()
    for s in traj.states:
        h.update(s.coeffs.tobytes())
    for arr in (traj.times, traj.diag_enstrophy, traj.diag_energy, traj.diag_ortho):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()


# sha256 of step output, and of evolve/evolve_backward states, times and
# diagnostics, recorded before every integrator moved to the padded layout.
# Keys are (entry, integrator, drift, cutoff); "reversed" is sign -1 and
# "shifted" adds a constant table.
FLOW_DIGESTS = {
    ("step", "rk4", "default", 4): "4ead49a5db3029741efe4c6520ec9ba93fdce5029f5929d4d07a49c560bcb6f9",
    ("step", "rk4", "default", 8): "7380cea60d1805b1b3e62f49d38afbc8a4f39e1eb6917192bf5353842a5ae91c",
    ("step", "rk4", "reversed", 4): "2eea65cf41f5e51a3a53edacb4751e1c4873e8d4738bc9d26a959fb0faa66519",
    ("step", "rk4", "reversed", 8): "690b6f253fbecb900111a08ec70a3fd2cdcdf5a122c9e113053bb8bcf10363ca",
    ("step", "rk4", "shifted", 4): "b4f0ba8f6a42b969c0c9d3932d1c4fbc523bb79ab345212cf11f79a1315079f2",
    ("step", "rk4", "shifted", 8): "7895af6e92a9e24c9b62bcefe6375c6f0bf5653d13f9bf8d3f30c7568b51cda0",
    ("step", "rk4", "shifted_reversed", 4): "d5cbe563294b93ae787a63f16374eacd3286b0667159a3ad76d7aa2108cea7f2",
    ("step", "rk4", "shifted_reversed", 8): "5a212b41cd36c70c18aa48ad9eb9a194a2f26290f86aaeff5cd07a9179175bd7",
    ("step", "implicit_midpoint", "default", 4): "9e779e76afc394599efc073961c7292d506a7f961475c72b3ae6d86f3965f131",
    ("step", "implicit_midpoint", "default", 8): "e750595e22ee8f996deba1982fed55e1bee50a7f8e696cd46963e68345bf4f09",
    ("step", "implicit_midpoint", "reversed", 4): "b6fdfcfe14fba1e6529cf4393deb04051b514fd1c8140f2e6df36938aa2a8ce7",
    ("step", "implicit_midpoint", "reversed", 8): "6d488e48d66497340f5e9bb0f10c55cb9ab140a52b799c1ca7e4ba48601a2c71",
    ("step", "implicit_midpoint", "shifted", 4): "c3a3b48d7a60b120bb4ddcefcc23fdda1f2aa9670d9961633ed846eba07dae0c",
    ("step", "implicit_midpoint", "shifted", 8): "0e706b6754de32390480ed35f66f0991f4a1c477d72720c595781e0e6fed1280",
    ("step", "implicit_midpoint", "shifted_reversed", 4): "74d220539df20d1be5cb35acc585e6fdac0bc55d2d042a5ce110073241d4d290",
    ("step", "implicit_midpoint", "shifted_reversed", 8): "6ab3f6c2db7ed4992206292d324345a2e17308bab8750199f735cf3a5b43370c",
    ("evolve", "rk4", "default", 4): "6a16d0906cf1b13a41fd35f86621a0eb9e0d875e87776a6672bb784533c78522",
    ("evolve", "rk4", "default", 8): "adcab051f67f0d7ef7fff32286ef05c5a9aba69a7c6dd6d1fd15d3ed49073371",
    ("evolve", "rk4", "reversed", 4): "84daade920524a58a96968df84c6b44794816c70726944d304e2603fa6b7a360",
    ("evolve", "rk4", "reversed", 8): "a1d7aa0ad4d22d17f3bb8024520a36321dd1369a9ebecfb19c7ac844e8f0a7ef",
    ("evolve", "rk4", "shifted", 4): "bd45318fe1d6fdab4ec7f89278c8a81ea441eeb8623ff433ef0f5c41dc38dc84",
    ("evolve", "rk4", "shifted", 8): "516328e5f6fbc7d730689bf4071f4948096c60ec4a44f9b965ed18de6bd5db14",
    ("evolve", "rk4", "shifted_reversed", 4): "39134866a99d75dd33d75ba87a9b7f721be466893ad5b91fb41e6ac74baee2ae",
    ("evolve", "rk4", "shifted_reversed", 8): "01e861826464894cebc684a376e55bb3be0e4dc9c45e4eb88dba47fd7272755d",
    ("evolve", "implicit_midpoint", "default", 4): "22fa3bfc5831ce83de17f3ee69aff26bd43551f8f5e99d1e338922c7e8c1044f",
    ("evolve", "implicit_midpoint", "default", 8): "547f322d94d6e02f69920d39339486727d856756445bbbdb8924e9af66af2130",
    ("evolve", "implicit_midpoint", "reversed", 4): "5a6461f1e41c22fe61233dba01829c4251c832405f2a31a1b14b3677ca38dda3",
    ("evolve", "implicit_midpoint", "reversed", 8): "ecc3c7a378973cc56a17882cc4f38d2035711cec1599c2e8a8c67502c486b966",
    ("evolve", "implicit_midpoint", "shifted", 4): "e62e88c98b9d2c742a767a44b89332fbc5439154248746839f733a12307753a9",
    ("evolve", "implicit_midpoint", "shifted", 8): "64122e9182f787c44c8817bd4e79b29a851bd32e0f7b1d7055db4b30d61c87d3",
    ("evolve", "implicit_midpoint", "shifted_reversed", 4): "5981ec34718e127ee151b147cec5b0b967138d008187ce5797d626dedd020e47",
    ("evolve", "implicit_midpoint", "shifted_reversed", 8): "666ad738faa80245e37ffec8bfc7f98e1dadf87a433425fab0551c336e92eb2f",
    ("evolve_backward", "rk4", "default", 4): "ba23cdbbc53fa39f39fd50e4053c235c8f2bbdfe19eecfe9625da55a1dae86ec",
    ("evolve_backward", "rk4", "default", 8): "ba172c5ca4516842130198aed4af968483e78647d55f12784c1bbe12a4042d83",
    ("evolve_backward", "rk4", "reversed", 4): "ec9161bf47024482b80d1b93ef41b6cbcbab56db36e1eef552f3feaf776d82d5",
    ("evolve_backward", "rk4", "reversed", 8): "4c8b4679e7e9f4a6f3af196785347171aa2026ed848ebbcf2067135962d025c5",
    ("evolve_backward", "rk4", "shifted", 4): "56258a610a61e6e97ad351924f41dbb267efaf65706bc1bd0fafd84516f25f56",
    ("evolve_backward", "rk4", "shifted", 8): "f669210d23b30574531cdfcea15b34a6d46abc8e32cb91ec0606bbc6df2261d1",
    ("evolve_backward", "rk4", "shifted_reversed", 4): "3078dcec9a2a3229abeeb40c0b8d1f551f3e9cb75c46a2ea2b6f965f5d0a284f",
    ("evolve_backward", "rk4", "shifted_reversed", 8): "75b5cedf264d4d58ec0870a3a99acc9cf5308b98e0a19fa9f15830f11d61d1cb",
    ("evolve_backward", "implicit_midpoint", "default", 4): "846cdc4366f38c0637c943a74fe844c1e6d0c7943155903bea7827e46dfc6ba1",
    ("evolve_backward", "implicit_midpoint", "default", 8): "6fd7df792c8bd1ac6cba3c848b0056a477c0a38b384068b1653a53117f021a56",
    ("evolve_backward", "implicit_midpoint", "reversed", 4): "8ab5ef8a0b234a2d66cbca8431e9077dcdd8e9fdf62427f047fe79f4b5f2ca4c",
    ("evolve_backward", "implicit_midpoint", "reversed", 8): "5458e71cec966b5678acf31b45e5000807f217297ee9d601650bbcf8ede95b2f",
    ("evolve_backward", "implicit_midpoint", "shifted", 4): "04705cb6c355254102a5abe06a7e7c7a240f746d49fb1ac3083eb90b98504363",
    ("evolve_backward", "implicit_midpoint", "shifted", 8): "e651439906d2192966aa521348114e3f489e7c3cf5547154df2ae0bbb252f24b",
    ("evolve_backward", "implicit_midpoint", "shifted_reversed", 4): "5ac68388f713e256b41a2cc9d2bdb6de3f8444148d54abaa10afdce300b340d8",
    ("evolve_backward", "implicit_midpoint", "shifted_reversed", 8): "74a6ed0ef729a194358a3abe4dc2c240d93583de59b8f779d16721762bb9b973",
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
