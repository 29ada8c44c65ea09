"""Spectral field construction, projections, norms, pairings, grid transforms."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from enstrophy_lab.fields import (
    GridField,
    InvariantViolation,
    SpectralField,
    dirichlet_kernel,
    dual_pairing,
    evaluate_at,
    from_grid,
    project,
    sobolev_norm,
    to_grid,
)
from conftest import white_field


def cos_x1():
    return SpectralField.from_modes(1, {(1, 0): 0.5})


class TestConstruction:
    def test_half_lattice_writer_mirrors_conjugate(self):
        f = SpectralField.from_modes(2, {(1, 1): 0.3 + 0.2j})
        assert f.coeff(-1, -1) == (0.3 - 0.2j)

    def test_zero_mode_must_be_real(self):
        with pytest.raises(InvariantViolation):
            SpectralField.from_modes(1, {(0, 0): 1j})

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(InvariantViolation):
            SpectralField.from_modes(1, {(1, 0): 1.0, (-1, 0): 2.0})

    def test_broken_reality_rejected(self):
        arr = np.zeros((3, 3), dtype=complex)
        arr[2, 1] = 1.0  # mode (1,0) without its conjugate
        with pytest.raises(InvariantViolation):
            SpectralField(1, arr)

    def test_mode_outside_cutoff_rejected(self):
        with pytest.raises(ValueError):
            SpectralField.from_modes(1, {(2, 0): 1.0})

    def test_immutable(self):
        f = cos_x1()
        with pytest.raises(AttributeError):
            f.cutoff = 3
        with pytest.raises(ValueError):
            f.coeffs[0, 0] = 1.0

    @given(st.integers(0, 3), st.integers(0, 10 ** 6))
    def test_random_fields_satisfy_reality(self, cutoff, seed):
        f = white_field(cutoff, np.random.default_rng(seed))
        assert np.array_equal(f.coeffs, np.conj(f.coeffs[::-1, ::-1]))


class TestProject:
    def test_embedding_keeps_coefficients(self):
        f = white_field(1, np.random.default_rng(0))
        g = project(f, 3)
        assert g.cutoff == 3
        for n1 in (-1, 0, 1):
            for n2 in (-1, 0, 1):
                assert g.coeff(n1, n2) == f.coeff(n1, n2)

    def test_mode_outside_target_dropped(self):
        f = SpectralField.from_modes(2, {(2, 0): 1.0})
        assert np.all(project(f, 1).coeffs == 0)

    def test_norm_never_increases(self, rng):
        for _ in range(5):
            f = white_field(4, rng)
            n = int(rng.integers(0, 5))
            assert sobolev_norm(project(f, n)) <= sobolev_norm(f) + 1e-12

    def test_idempotent_and_self_adjoint(self, rng):
        w, phi = white_field(4, rng), white_field(4, rng)
        pw = project(project(w, 2), 2)
        assert np.array_equal(pw.coeffs, project(w, 2).coeffs)
        lhs = dual_pairing(project(w, 2), phi)
        rhs = dual_pairing(w, project(phi, 2))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestSobolevNorm:
    @pytest.mark.parametrize("s", [-2.0, -1.0, 0.0, 1.5])
    def test_zero_mode_only(self, s):
        f = SpectralField.from_modes(2, {(0, 0): 1.0})
        assert sobolev_norm(f, s) == 1.0

    def test_two_term_sum(self):
        # |coeff|^2 (1+1)^-1 summed over +-(1,0): 2 * 1/2 = 1
        f = SpectralField.from_modes(1, {(1, 0): 1.0})
        assert abs(sobolev_norm(f, -1.0) - 1.0) <= 1e-14

    def test_parseval(self, rng):
        f = white_field(3, rng)
        assert abs(dual_pairing(f, f) - sobolev_norm(f, 0.0) ** 2) <= 1e-12 * sobolev_norm(f) ** 2


class TestDirichletKernel:
    def test_coefficients_all_one(self):
        th = dirichlet_kernel(3)
        assert np.all(th.coeffs == 1.0)

    def test_peak_value(self):
        vals = to_grid(dirichlet_kernel(1), 4).values
        assert abs(vals[0, 0] - 9.0) <= 1e-12

    def test_grid_symmetry(self):
        vals = to_grid(dirichlet_kernel(2), 16).values
        assert np.abs(vals - vals.T).max() <= 1e-12

    def test_self_convolution_is_identity_on_coefficients(self):
        # quadrature oracle at G = 4N+4: circular convolution of the samples
        n = 3
        g = 4 * n + 4
        tg = to_grid(dirichlet_kernel(n), g).values
        conv = np.zeros_like(tg)
        for a in range(g):
            for b in range(g):
                conv += tg[a, b] * np.roll(np.roll(tg, a, axis=0), b, axis=1)
        conv /= g * g
        coeffs = from_grid(GridField(g, conv), n).coeffs
        assert np.abs(coeffs - 1.0).max() <= 1e-12


class TestDualPairing:
    def test_cosine_squared_is_half(self):
        f = cos_x1()
        # midpoint quadrature oracle for the same integral
        g = 64
        vals = to_grid(f, g).values
        quad = float(np.sum(vals * vals)) / (g * g)
        assert abs(quad - 0.5) <= 1e-12
        assert abs(dual_pairing(f, f) - 0.5) <= 1e-12

    def test_zero_mode_extraction(self, rng):
        f = white_field(2, rng)
        one = SpectralField.from_modes(0, {(0, 0): 1.0})
        assert abs(dual_pairing(f, one) - f.coeff(0, 0).real) <= 1e-12

    def test_bilinearity(self, rng):
        a, b, phi = white_field(2, rng), white_field(2, rng), white_field(2, rng)
        combo = SpectralField(2, 2.5 * a.coeffs + b.coeffs)
        lhs = dual_pairing(combo, phi)
        rhs = 2.5 * dual_pairing(a, phi) + dual_pairing(b, phi)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_differing_cutoffs_use_common_modes(self):
        f = SpectralField.from_modes(3, {(1, 0): 0.5, (3, 3): 1.0})
        assert abs(dual_pairing(f, cos_x1()) - 0.5) <= 1e-14


class TestGridTransforms:
    def test_zero_roundtrip(self):
        z = SpectralField.zeros(2)
        g = to_grid(z, 8)
        assert np.all(g.values == 0)
        assert np.all(from_grid(g, 2).coeffs == 0)

    def test_cosine_values(self):
        vals = to_grid(cos_x1(), 8).values
        expected = np.cos(2 * np.pi * np.arange(8) / 8)
        assert np.abs(vals - expected[:, None]).max() <= 1e-12

    def test_roundtrip_exact(self, rng):
        f = white_field(5, rng)
        back = from_grid(to_grid(f, 16), 5)
        assert np.abs(back.coeffs - f.coeffs).max() <= 1e-12

    def test_undersampled_grid_rejected(self):
        g = to_grid(white_field(5, np.random.default_rng(0)), 16)
        with pytest.raises(ValueError):
            from_grid(g, 8)

    def test_aliasing_matches_pointwise_evaluation(self, rng):
        # undersampled synthesis must agree with direct evaluation at the nodes
        f = white_field(4, rng)
        g = 5
        vals = to_grid(f, g).values
        pts = np.stack(np.meshgrid(np.arange(g) / g, np.arange(g) / g, indexing="ij"), axis=-1)
        assert np.abs(vals - evaluate_at(f, pts)).max() <= 1e-10

    def test_nonuniform_evaluation_matches_grid(self, rng):
        f = white_field(3, rng)
        g = 8
        pts = np.stack(np.meshgrid(np.arange(g) / g, np.arange(g) / g, indexing="ij"), axis=-1)
        assert np.abs(evaluate_at(f, pts) - to_grid(f, g).values).max() <= 1e-10
