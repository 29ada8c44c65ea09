"""Biot-Savart reconstruction, drift strategies, and the quadratic form."""

import concurrent.futures
import hashlib
import sys

import numpy as np
import pytest

from enstrophy_lab.dynamics import (
    InvariantViolation,
    QuadraticForm,
    SpectralDrift,
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
        assert dealias_grid_size(2) == 8
        assert dealias_grid_size(8) == 32
        assert dealias_grid_size(10) == 32
        assert dealias_grid_size(16) == 64

    def test_spectral_drift_callable_matches(self, rng):
        w = white_field(5, rng)
        drv = SpectralDrift(5)
        assert np.array_equal(drv(w.coeffs), drift(w, 5, "dealiased").coeffs)

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
# scratch buffers; keys are (cutoff, sign, shifted)
PADDED_DRIFT_DIGESTS = {
    (4, 1.0, False): "a50e13543428a27797afd9680575351a84256740bdf64947364cc679e9e464c9",
    (4, -1.0, False): "a357e4f1987dc6f3cf2a40cbefe9e138e904e3e91df7142d6381de3cd46cad14",
    (4, 1.0, True): "1f81bae3e526813404bd4ca6cfc9bfdafa0fa1c7f351616aad47d09db76169ff",
    (4, -1.0, True): "8d3aeeb6049580a6e1a0bf46ea7f0e5873afeb6d36c91784f8155cd8fda371bb",
    (8, 1.0, False): "808fbce0956d2203d9f0a445c4ea12a3157bd0e283d785c5960781c079c4c9b8",
    (8, -1.0, False): "3d4da34f01677d5b58869df33c412f4b2ad24c23228381d9d8872119401974a4",
    (8, 1.0, True): "24c724b6a364b533d4bea1c7036e0f4bc7464f0277794691feacb3ff097f17e7",
    (8, -1.0, True): "1d10b8a449b7fe1869045715f1f858f1d327cea717a65f2c82c8925bb1b5abab",
    (16, 1.0, False): "e87b9a88a89d8407e7dad07455213c4c791ae9bc9e3d6e9d36a5b764eaa7677c",
    (16, -1.0, False): "672b9f87704a3cdcefdba7abf394bcf588c517728e3a997d449faafa78d50499",
    (16, 1.0, True): "64323224158c1a505ae9f702c0da52657de88b0a287e61bf0fb5b9a35bfcc97a",
    (16, -1.0, True): "16d4aac38e26d16cbbc94dd569b86cb2add4a89d8640547a8762ae46075608b4",
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


class TestQuadraticForm:
    def test_structural_zeros(self):
        phi = white_field(2, np.random.default_rng(1))
        form = quadratic_coefficients(phi, 2)
        form.validate(drift_structure=True)
        n1, n2 = mode_grids(2)
        for n in [(1, 0), (2, 1), (1, -2)]:
            assert form.entry(n, (-n[0], -n[1])) == 0
        assert form.trace_diagonal() == 0.0

    def test_handbook_entry(self):
        phi = SpectralField.from_modes(3, {(2, 1): 1.0})
        form = quadratic_coefficients(phi, 2)
        assert form.entry((1, 0), (1, 1)) == 0.25
        # cross-check through the drift route on a two-mode field
        w = SpectralField.from_modes(2, {(1, 0): 1.0, (1, 1): 1.0})
        lhs = quadratic_pairing(w, form)
        rhs = dual_pairing(drift(w, 2), project(phi, 2))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_constant_test_field_gives_zero(self):
        phi = SpectralField.from_modes(0, {(0, 0): 5.0})
        form = quadratic_coefficients(phi, 3)
        assert np.all(form.matrix == 0)

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
        phi = SpectralField.from_modes(2, {(1, 1): 0.5, (2, 0): 0.25 + 0.1j})
        form = quadratic_coefficients(phi, 5)
        batch = np.stack([white_field(5, rng).coeffs for _ in range(16)])
        dense = quadratic_pairing_batch(batch, 5, form)
        fast = drift_pairing_batch(batch, 5, phi)
        assert np.abs(dense - fast).max() <= 1e-10 * max(1.0, np.abs(dense).max())
        assert abs(form.frobenius_sq() - drift_form_frobenius_sq(phi, 5)) <= 1e-10 * form.frobenius_sq()

    def test_cutoff_mismatch_rejected(self, rng):
        form = quadratic_coefficients(white_field(2, rng), 2)
        with pytest.raises(ValueError):
            quadratic_pairing(white_field(3, rng), form)

    def test_csv_export(self, tmp_path, rng):
        form = quadratic_coefficients(SpectralField.from_modes(1, {(1, 1): 0.5}), 2)
        path = tmp_path / "form.csv"
        form.save_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n1,n2,m1,m2,re,im"
        assert len(lines) > 1  # nonzero entries present

    def test_symmetry_validation_catches_breakage(self):
        bad = np.zeros((9, 9), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(InvariantViolation):
            QuadraticForm(1, bad).validate()
