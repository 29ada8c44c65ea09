"""Real-space symmetrized kernel, angular quadratures, trace integrals."""

import numpy as np
import pytest

from enstrophy_lab.dynamics import (
    KernelEval,
    dirichlet_values,
    offset_nodes,
    quadratic_coefficients,
    symmetry_integral,
    trace_integral,
)
from enstrophy_lab.fields import SpectralField, evaluate_at


PHI = SpectralField.from_modes(1, {(1, 1): 0.5})  # cos(2 pi (x1 + x2))


@pytest.fixture(scope="module")
def ke():
    return KernelEval(PHI, k_max=64)


def sample_pairs(rng, n_pts, rmin, rmax=0.35):
    xs = rng.uniform(size=(n_pts, 2))
    r = np.exp(rng.uniform(np.log(rmin), np.log(rmax), size=n_pts))
    th = rng.uniform(0, 2 * np.pi, size=n_pts)
    z = r[:, None] * np.stack([np.cos(th), np.sin(th)], axis=-1)
    return xs, xs - z, r


class TestKernelEval:
    def test_antisymmetric(self, ke, rng):
        z = rng.uniform(-0.5, 0.5, size=(32, 2))
        z = z[np.linalg.norm(z, axis=1) > 0.05]
        assert np.abs(ke.kernel_at(z) + ke.kernel_at(-z)).max() <= 1e-12

    @pytest.mark.parametrize("half", [False, True], ids=["k_max", "k_max_half"])
    def test_grid_sum_matches_row_route(self, ke, half):
        k_cut = ke.k_max // 2 if half else ke.k_max
        a = (np.arange(-15, 16) - 0.5) / 16
        b = (np.arange(9) + 0.25) / 9
        rows = ke._kernel_sum(np.stack(np.meshgrid(a, b, indexing="ij"), axis=-1), k_cut)
        grid = ke.grid_sum(a, b, k_cut)
        assert grid.shape == (len(a), len(b), 2)
        assert np.abs(grid - rows).max() <= 1e-13 * np.abs(rows).max()

    def test_pair_symmetric(self, ke):
        x = np.array([0.31, 0.17])
        y = np.array([0.62, 0.88])
        v1, tail = ke.pair_values(x, y)
        v2, _ = ke.pair_values(y, x)
        assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1))
        assert tail >= 0.0

    def test_diagonal_rejected(self, ke):
        with pytest.raises(ValueError):
            ke.pair_values([0.25, 0.25], [0.25, 0.25])

    def test_bounded_off_diagonal(self, ke, rng):
        # sup over a coarse and a fine off-diagonal sample stays at one scale
        xa, ya, _ = sample_pairs(rng, 1024, 1.0 / 8)
        xb, yb, _ = sample_pairs(rng, 4096, 1.0 / 8)
        sup_a = np.abs(ke.pair_values(xa, ya, with_tail=False)[0]).max()
        sup_b = np.abs(ke.pair_values(xb, yb, with_tail=False)[0]).max()
        assert np.isfinite(sup_b)
        assert sup_b <= 1.6 * sup_a

    def test_remainder_lipschitz_fit_stable(self, ke):
        # fit |R| <= C |x - y| inside the truncation trust region; the fitted
        # constant must be stable when the sample is refined
        rmin = 8.0 / ke.k_max
        fits = []
        for n_pts, seed in ((400, 0), (1600, 1)):
            xs, ys, r = sample_pairs(np.random.default_rng(seed), n_pts, rmin)
            fits.append(float(np.max(np.abs(ke.remainder(xs, ys)) / r)))
        assert 1.0 / 1.6 <= fits[1] / fits[0] <= 1.6
        # fresh validation sample respects the fitted constant with margin
        xs, ys, r = sample_pairs(np.random.default_rng(2), 800, rmin)
        assert np.all(np.abs(ke.remainder(xs, ys)) <= 1.25 * max(fits) * r)

    def test_remainder_needs_correct_leading_constant(self):
        # along a fixed ray toward the diagonal, |R|/r stays bounded with the
        # correct local coefficient but grows like 1/r when it is doubled
        fine = KernelEval(PHI, k_max=128)
        x0 = np.array([[0.31, 0.17]])
        direction = np.array([np.cos(0.3), np.sin(0.3)])
        q_right, q_wrong = [], []
        for r in (1.0 / 8, 1.0 / 16):
            y = x0 - r * direction
            val, _ = fine.pair_values(x0, y, with_tail=False)
            lead = fine.leading_term(x0, y)
            q_right.append(float(np.abs(val - lead)[0]) / r)
            q_wrong.append(float(np.abs(val - 2.0 * lead)[0]) / r)
        assert q_wrong[1] >= 1.5 * q_wrong[0]
        assert q_right[1] <= 1.3 * q_right[0]


def theta_samples(n, size):
    d = dirichlet_values(n, offset_nodes(size))
    return np.outer(d, d)


# the S basis of the dirichlet_kernel battery
S_BASIS = [np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]


class TestSymmetryIntegral:
    def test_identity_matrix(self):
        assert abs(symmetry_integral(theta_samples(2, 64), np.eye(2))) <= 1e-13

    def test_off_diagonal_matrix(self):
        s = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert abs(symmetry_integral(theta_samples(4, 128), s)) <= 1e-13

    def test_diag_contrast_matrix(self):
        assert abs(symmetry_integral(theta_samples(2, 64), np.diag([1.0, -1.0]))) <= 1e-13

    def test_shifted_kernel_is_generically_nonzero(self):
        # negative control: breaking evenness breaks the cancellation
        n = 2
        n1, n2 = np.meshgrid(np.arange(-n, n + 1), np.arange(-n, n + 1), indexing="ij")
        shifted = SpectralField(n, np.exp(-2j * np.pi * (0.21 * n1 + 0.13 * n2)))
        x1, x2 = np.meshgrid(offset_nodes(64), offset_nodes(64), indexing="ij")
        val = symmetry_integral(evaluate_at(shifted, np.stack([x1, x2], axis=-1)), np.diag([1.0, -1.0]))
        assert val == 0.9412680025439245

    def test_symmetric_samples_cancel_exactly(self):
        # neither separable nor mean-free: the cancellation rests on the
        # bitwise symmetries of the samples alone
        w = np.random.default_rng(5).standard_normal((40, 40))
        w = w + w[::-1]
        w = w + w[:, ::-1]
        w = w + w.T
        assert [symmetry_integral(w, s) for s in S_BASIS] == [0.0] * 3
        # any symmetric S, not only the basis: x1*x2 is formed swap-symmetrically
        assert symmetry_integral(w, np.array([[0.3, -0.7], [-0.7, 1.9]])) == 0.0

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            symmetry_integral(theta_samples(1, 63), np.eye(2))

    def test_non_square_grid_rejected(self):
        with pytest.raises(ValueError):
            symmetry_integral(np.ones((64, 32)), np.eye(2))


class TestTraceIntegral:
    def test_constant_test_field_vanishes(self):
        ke0 = KernelEval(SpectralField.from_modes(0, {(0, 0): 1.0}), k_max=16)
        est = trace_integral(ke0, 2, 16)
        assert est.value == 0.0

    def test_consistent_with_exact_zero(self, ke):
        est = trace_integral(ke, 2, 16)
        assert abs(est.value) <= est.error

    def test_spectral_route_exact_zero(self):
        assert quadratic_coefficients(PHI, 4).trace() == 0.0

    def test_shared_tables_keep_bytes(self, ke):
        # the kernel sums do not depend on the cutoff; sharing them across
        # cutoffs must not move a bit
        tables: dict = {}
        for n in (1, 2, 3):
            assert trace_integral(ke, n, 16, tables) == trace_integral(ke, n, 16)
        assert sorted(tables) == [(16, ke.k_max), (20, max(1, ke.k_max // 2))]

    def test_size_precondition(self, ke):
        with pytest.raises(ValueError):
            trace_integral(ke, 4, 16)
