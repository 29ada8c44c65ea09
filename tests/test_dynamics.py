"""Biot-Savart reconstruction, drift strategies, and the quadratic form."""

import concurrent.futures
import hashlib
import sys

import numpy as np
import pytest

from enstrophy_lab import dynamics
from enstrophy_lab.dynamics import (
    DenseForm,
    InvariantViolation,
    SpectralDrift,
    _drift_direct,
    _euler_drift,
    biot_savart,
    curl,
    dealias_grid_size,
    drift,
    drift_form_frobenius_sq,
    drift_pairing_batch,
    quadratic_coefficients,
    quadratic_pairing,
    quadratic_pairing_batch,
)
from enstrophy_lab.fields import SpectralField, dual_pairing, mode_grids, project, sobolev_norm, to_grid
from enstrophy_lab.measure import MeasureSpec, sample_batch
from conftest import white_field


def drift_oracle(field: SpectralField, cutoff: int) -> np.ndarray:
    """Brute-force mode-pair convolution, independent of the library paths."""
    src = project(field, cutoff)
    d = 2 * cutoff + 1
    out = np.zeros((d, d), dtype=complex)
    for m1 in range(-cutoff, cutoff + 1):
        for m2 in range(-cutoff, cutoff + 1):
            if (m1, m2) == (0, 0):
                continue
            wm = src.coeff(m1, m2)
            if wm == 0:
                continue
            for j1 in range(-cutoff, cutoff + 1):
                for j2 in range(-cutoff, cutoff + 1):
                    k1, k2 = m1 + j1, m2 + j2
                    if max(abs(k1), abs(k2)) > cutoff:
                        continue
                    cross = m2 * j1 - m1 * j2  # perp(m) . j
                    if cross == 0:
                        continue
                    out[k1 + cutoff, k2 + cutoff] -= (
                        cross / (m1 * m1 + m2 * m2) * wm * src.coeff(j1, j2)
                    )
    return out


class TestBiotSavart:
    def test_cosine_velocity(self):
        w = SpectralField.from_modes(1, {(1, 0): 0.5})
        v = biot_savart(w)
        assert np.all(v.u1 == 0)
        grid = to_grid(v.component(1), 8).values
        expected = -np.sin(2 * np.pi * np.arange(8) / 8) / (2 * np.pi)
        assert np.abs(grid - expected[:, None]).max() <= 1e-12

    def test_constant_vorticity_gives_zero_flow(self):
        v = biot_savart(SpectralField.from_modes(0, {(0, 0): 3.0}))
        assert np.all(v.u1 == 0) and np.all(v.u2 == 0)

    def test_curl_identity_on_nonzero_modes(self, rng):
        w = white_field(6, rng)
        back = curl(biot_savart(w))
        diff = back.coeffs - w.coeffs
        centre = 6
        assert abs(back.coeff(0, 0)) == 0.0
        diff[centre, centre] = 0.0  # zero mode is not reconstructed
        assert np.abs(diff).max() <= 1e-12 * max(1.0, np.abs(w.coeffs).max())

    def test_mode_orthogonality(self, rng):
        # the wavevector is orthogonal to its rotation exactly, in integers
        n1, n2 = mode_grids(8)
        assert np.all(n2 * n1 + (-n1) * n2 == 0)
        # stored components carry independent roundings: residual at epsilon scale
        v = biot_savart(white_field(8, rng))
        resid = np.abs(n1 * v.u1 + n2 * v.u2).max()
        scale = max(np.abs(v.u1).max(), np.abs(v.u2).max())
        assert resid <= 1e-15 * max(1.0, scale)


class TestDrift:
    def test_shear_is_steady(self):
        w = SpectralField.from_modes(1, {(1, 0): 0.5})
        for strategy in ("direct", "dealiased"):
            assert np.all(drift(w, 3, strategy).coeffs == 0)

    def test_hand_convolution_values(self):
        w = SpectralField.from_modes(2, {(1, 0): 0.5, (1, 1): 0.5})
        b = drift(w, 2, "direct")
        assert abs(b.coeff(2, 1) - 0.125) <= 1e-15
        assert abs(b.coeff(0, -1) - (-0.125)) <= 1e-15
        oracle = drift_oracle(w, 2)
        assert np.abs(b.coeffs - oracle).max() <= 1e-14

    @pytest.mark.parametrize("cutoff", [2, 4, 8])
    def test_strategies_agree_with_oracle(self, cutoff, rng):
        w = white_field(cutoff, rng)
        oracle = drift_oracle(w, cutoff)
        scale = max(1.0, np.abs(oracle).max())
        for strategy in ("direct", "dealiased"):
            got = drift(w, cutoff, strategy).coeffs
            assert np.abs(got - oracle).max() <= 1e-11 * scale

    def test_strategies_agree_tightly(self, rng):
        for cutoff in (2, 4, 8, 16):
            w = white_field(cutoff, rng)
            a = drift(w, cutoff, "direct").coeffs
            b = drift(w, cutoff, "dealiased").coeffs
            rel = np.sqrt(np.sum(np.abs(a - b) ** 2) / np.sum(np.abs(a) ** 2))
            assert rel <= 1e-12

    def test_orthogonal_to_state(self, rng):
        w = white_field(8, rng)
        b = drift(w, 8)
        val = dual_pairing(b, project(w, 8))
        assert abs(val) <= 1e-10 * sobolev_norm(w) ** 2

    def test_projects_input(self):
        w = SpectralField.from_modes(3, {(3, 0): 1.0, (1, 0): 0.5})
        got = drift(w, 1)
        expected = drift(project(w, 1), 1)
        assert np.array_equal(got.coeffs, expected.coeffs)

    def test_cutoff_zero(self):
        w = SpectralField.from_modes(0, {(0, 0): 2.0})
        assert np.all(drift(w, 0).coeffs == 0)

    def test_grid_size_rule(self):
        assert dealias_grid_size(2) == 7
        assert dealias_grid_size(8) == 25
        assert dealias_grid_size(12) == 40
        assert dealias_grid_size(16) == 49

    @pytest.mark.parametrize("cutoff", [2, 4, 8])
    def test_grid_size_is_tight(self, cutoff, rng, monkeypatch):
        # 3N folds mode 2N onto -N and aliases; 3N+1 is the smallest exact grid
        w = white_field(cutoff, rng).coeffs
        exact = _drift_direct(w, cutoff)
        scale = np.abs(exact).max()
        for size, exact_grid in ((3 * cutoff, False), (3 * cutoff + 1, True)):
            monkeypatch.setattr(dynamics, "dealias_grid_size", lambda n, size=size: size)
            drv = SpectralDrift(cutoff)
            assert drv.size == size
            err = np.abs(drv(w) - exact).max()
            assert (err <= 1e-12 * scale) if exact_grid else (err > 1e-6 * scale)

    def test_spectral_drift_callable_matches(self, rng):
        w = white_field(5, rng)
        drv = SpectralDrift(5)
        assert np.array_equal(drv(w.coeffs), drift(w, 5, "dealiased").coeffs)

    def test_drift_builds_one_euler_drift_per_cutoff(self, rng, monkeypatch):
        w = white_field(6, rng)
        expected = SpectralDrift(6)(w.coeffs).tobytes()
        _euler_drift.cache_clear()
        built = []
        init = SpectralDrift.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SpectralDrift, "__init__", counting_init)
        first = drift(w, 6)
        second = drift(w, 6)
        assert built == [(6,)]
        assert first.coeffs.tobytes() == expected and second.coeffs.tobytes() == expected

    def test_shift_and_sign(self, rng):
        w = white_field(3, rng)
        shift = white_field(3, rng).coeffs
        drv = SpectralDrift(3, shift=shift, sign=-1.0)
        expected = -(drift(w, 3).coeffs + shift)
        assert np.abs(drv(w.coeffs) - expected).max() <= 1e-14


def _padded_case(cutoff: int, sign: float, shifted: bool, count: int = 5):
    """A SpectralDrift and a padded batch of white-noise tables for it."""
    shift = None
    if shifted:
        shift = 2.5 * sample_batch(MeasureSpec(cutoff=cutoff, seed=7), [0])[0]
    drv = SpectralDrift(cutoff, shift=shift, sign=sign)
    coeffs = sample_batch(MeasureSpec(cutoff=cutoff, seed=20260801), range(count))
    return drv, drv.pad(coeffs)


# sha256 of padded_drift output bytes, recorded before the drift reused
# scratch buffers and re-recorded with 0.5.0, whose grids of size
# next_fast_len(3N+1) move the last bits of every drift and whose mode
# (0, 0) is exactly zero; keys are (cutoff, sign, shifted)
PADDED_DRIFT_DIGESTS = {
    (4, 1.0, False): "0a3e49e7b5de8551ad3a1049edecb9bc681008d549761556b4202a4456ca3b1a",
    (4, -1.0, False): "7a19db1ac11761c0f2325c7b274dec8fe180effb2510bfea9d61e6dfb11abee8",
    (4, 1.0, True): "c17b3ab9b8183467b4f0d785bff5c4fbe3f3fd087537fb99f397b3d3de37f1fd",
    (4, -1.0, True): "1120c3932316b98cee6ae6a5e5f4abb07ec2892f322d742a11c918f5f1227a8f",
    (8, 1.0, False): "f495da20b718e570afd8ae89ddfb856f7415abd9baa1317850c451607911ed4b",
    (8, -1.0, False): "b29d2a337893418f80ec6434b8c85a9985622f650b75c7a2aa061e52e01db510",
    (8, 1.0, True): "10d112f96d1c4840a819440dcea07d275919b13fca9ad67b82a38517f76f2ea0",
    (8, -1.0, True): "0c1f1712fe54ab6a3ab9c5338b98e7823913bfdf144f94b8bd023b9eb441f9c5",
    (16, 1.0, False): "a6ada520d641897bb74bd62e0863e2be96d0c3943cc97d33ee0af6de628b4a75",
    (16, -1.0, False): "ca2488d71599be81e92d915d1e91f3c1c0265f64c10933abc40f22c9d3b844b7",
    (16, 1.0, True): "3fe93add1d2d153acc89059c29889f79505d27316b53925e10c42df552bd7304",
    (16, -1.0, True): "dce07ac1c9a84ba182e376333db3bf9aa525582c4ccd4fe173185b176035df1a",
}


class TestPaddedDriftBytes:
    @pytest.mark.parametrize("cutoff,sign,shifted", list(PADDED_DRIFT_DIGESTS))
    def test_golden_bytes(self, cutoff, sign, shifted):
        drv, state = _padded_case(cutoff, sign, shifted)
        out = drv.padded_drift(state)
        assert out.shape == state.shape and out.dtype == np.complex128
        assert hashlib.sha256(out.tobytes()).hexdigest() == PADDED_DRIFT_DIGESTS[(cutoff, sign, shifted)]

    def test_results_never_overwritten(self):
        drv, state = _padded_case(4, -1.0, True, count=6)
        first = drv.padded_drift(state)
        kept = first.copy()
        again = drv.padded_drift(state)
        drv.padded_drift(state[:3])        # another batch shape
        drv.padded_drift(state[0])         # a single table
        drv.padded_drift(2.0 * state)      # same shape, other values
        assert again is not first
        assert np.array_equal(first, kept)
        assert np.array_equal(again, kept)
        assert np.array_equal(drv.padded_drift(state[:3]), kept[:3])
        assert np.array_equal(drv.padded_drift(state[0]), kept[0])

    def test_scratch_reuse_keeps_bytes(self):
        # a small batch runs in slices of the scratch that a large one sized;
        # an empty batch works on a fresh instance and on a sized one
        drv, state = _padded_case(8, -1.0, True, count=256)
        fresh = SpectralDrift(8, shift=drv.shift, sign=-1.0)
        assert fresh.padded_drift(state[:0]).shape == state[:0].shape
        drv.padded_drift(state)
        assert drv.padded_drift(state[:0]).shape == state[:0].shape
        assert np.array_equal(drv.padded_drift(state[:3]), fresh.padded_drift(state[:3]))

    def test_input_left_untouched(self):
        drv, state = _padded_case(8, 1.0, False)
        before = state.copy()
        drv.padded_drift(state)
        assert np.array_equal(state, before)

    def test_threads_share_one_drift(self):
        # one instance, more threads than cores, mixed batch shapes and
        # frequent switches: every result must equal the serial bytes
        drv, state = _padded_case(8, -1.0, True, count=12)
        inputs = [state[: 4 + i % 5] * (1.0 + 0.25 * i) for i in range(16)]
        serial = [drv.padded_drift(x) for x in inputs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(drv.padded_drift, inputs * 4, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for i, out in enumerate(got):
            assert np.array_equal(out, serial[i % len(inputs)])


def _drift_table(phi: SpectralField, cutoff: int) -> np.ndarray:
    """A(n, m) = 1/2 (perp(m).n) (1/|n|^2 - 1/|m|^2) phi_hat(-n-m), entry by entry."""
    modes = [(a, b) for a in range(-cutoff, cutoff + 1) for b in range(-cutoff, cutoff + 1)]
    table = np.zeros((len(modes), len(modes)), dtype=complex)
    for i, n in enumerate(modes):
        for j, m in enumerate(modes):
            nn, mm = n[0] ** 2 + n[1] ** 2, m[0] ** 2 + m[1] ** 2
            if nn and mm:
                cross = m[1] * n[0] - m[0] * n[1]
                table[i, j] = 0.5 * cross * (1 / nn - 1 / mm) * phi.coeff(-n[0] - m[0], -n[1] - m[1])
    return table


def _entry(form, n, m):
    """A(n, m) of the dense table of a form."""
    d = 2 * form.cutoff + 1
    i = (n[0] + form.cutoff) * d + (n[1] + form.cutoff)
    j = (m[0] + form.cutoff) * d + (m[1] + form.cutoff)
    return complex(form.matrix()[i, j])


class TestQuadraticForm:
    def test_structural_zeros(self):
        phi = white_field(2, np.random.default_rng(1))
        form = quadratic_coefficients(phi, 2)
        table = DenseForm(2, form.matrix()).matrix()  # symmetric and conjugation-symmetric
        n1, n2 = mode_grids(2)
        nn = (n1 ** 2 + n2 ** 2).ravel()
        assert np.all(table[np.equal.outer(nn, nn)] == 0)  # zero where |n| = |m|
        assert np.all(table[nn == 0, :] == 0) and np.all(table[:, nn == 0] == 0)
        for n in [(1, 0), (2, 1), (1, -2)]:
            assert _entry(form, n, (-n[0], -n[1])) == 0
        assert form.trace() == 0.0

    def test_handbook_entry(self):
        phi = SpectralField.from_modes(3, {(2, 1): 1.0})
        form = quadratic_coefficients(phi, 2)
        assert _entry(form, (1, 0), (1, 1)) == 0.25
        # cross-check through the drift route on a two-mode field
        w = SpectralField.from_modes(2, {(1, 0): 1.0, (1, 1): 1.0})
        lhs = quadratic_pairing(w, form)
        rhs = dual_pairing(drift(w, 2), project(phi, 2))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_constant_test_field_gives_zero(self):
        phi = SpectralField.from_modes(0, {(0, 0): 5.0})
        form = quadratic_coefficients(phi, 3)
        assert np.all(form.matrix() == 0)
        assert form.trace() == 0.0 and form.frobenius_sq() == 0.0

    def test_pairing_identity_random(self, rng):
        for _ in range(100):
            w = white_field(3, rng)
            phi = white_field(3, rng)
            form = quadratic_coefficients(phi, 3)
            lhs = quadratic_pairing(w, form)
            rhs = dual_pairing(drift(w, 3), phi)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_sign_invariance(self, rng):
        w = white_field(3, rng)
        phi = white_field(3, rng)
        form = quadratic_coefficients(phi, 3)
        neg = SpectralField(3, -w.coeffs)
        assert quadratic_pairing(w, form) == quadratic_pairing(neg, form)

    def test_gradient_free_test_field(self, rng):
        form = quadratic_coefficients(SpectralField.from_modes(0, {(0, 0): 1.0}), 2)
        assert quadratic_pairing(white_field(2, rng), form) == 0.0

    def test_structured_pairing_matches_dense(self, rng):
        # every method of the drift form against a dense reference whose
        # table is built entry by entry from the definition
        fields = [SpectralField.from_modes(2, {(1, 1): 0.5, (2, 0): 0.25 + 0.1j}),
                  SpectralField.from_modes(1, {(0, 0): 2.0, (1, 0): 0.5}),
                  white_field(2, np.random.default_rng(3))]
        for phi in fields:
            for n in range(1, 6):
                form = quadratic_coefficients(phi, n)
                dense = DenseForm(n, _drift_table(phi, n))
                assert np.abs(form.matrix() - dense.matrix()).max() <= 1e-15
                batch = np.stack([white_field(n, rng).coeffs for _ in range(16)])
                ref = quadratic_pairing_batch(batch, n, dense)
                fast = quadratic_pairing_batch(batch, n, form)
                assert np.array_equal(fast, drift_pairing_batch(batch, n, phi))
                assert np.abs(ref - fast).max() <= 1e-10 * max(1.0, np.abs(ref).max())
                assert abs(form.frobenius_sq() - dense.frobenius_sq()) <= 1e-12 * dense.frobenius_sq()
                assert form.frobenius_sq() == drift_form_frobenius_sq(phi, n)
                assert form.trace() == dense.trace() == 0.0

    def test_cutoff_mismatch_rejected(self, rng):
        form = quadratic_coefficients(white_field(2, rng), 2)
        with pytest.raises(ValueError):
            quadratic_pairing(white_field(3, rng), form)

    def test_symmetry_validation_catches_breakage(self):
        bad = np.zeros((9, 9), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(InvariantViolation):
            DenseForm(1, bad)
