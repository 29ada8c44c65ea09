"""Fourier representation of real scalar fields on the unit torus.

The torus is [0, 1)^2 with unit Lebesgue measure and basis
``e_n(x) = exp(2*pi*i n.x)``, n in Z^2.  A field with cutoff N stores the
coefficient table on the square lattice ``|n|_inf <= N``; reality
(``coeff(-n) == conj(coeff(n))``) is canonicalized bitwise at construction
so that downstream identities can be tested at machine precision.

Tolerance ladder used throughout the package:

* ``EXACT_TOL = 1e-12``  for identities that hold in exact arithmetic,
* ``HARD_TOL  = 1e-9``   for hard failures (invariant broken).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.fft

EXACT_TOL = 1e-12
HARD_TOL = 1e-9

_TWO_PI_I = 2j * np.pi


class InvariantViolation(Exception):
    """A structural invariant (reality, cutoff, realness of a pairing) failed."""


def mode_range(cutoff: int) -> np.ndarray:
    """Integer mode indices -N..N along one axis."""
    return np.arange(-cutoff, cutoff + 1)


def mode_grids(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Meshgrid (n1, n2) over the full lattice, 'ij' indexing."""
    n = mode_range(cutoff)
    return np.meshgrid(n, n, indexing="ij")


def half_lattice_mask(cutoff: int) -> np.ndarray:
    """Canonical half lattice: n1 > 0, or n1 == 0 and n2 > 0.

    Together with the real zero mode it parametrizes every real field;
    `flow.real_coordinate_layout` orders it into the real coordinates.
    """
    n1, n2 = mode_grids(cutoff)
    return (n1 > 0) | ((n1 == 0) & (n2 > 0))


def _canonical_reality(coeffs: np.ndarray) -> np.ndarray:
    # Averaging with the reflected conjugate is bitwise idempotent and makes
    # coeff(-n) == conj(coeff(n)) exact, not just within rounding.
    sym = 0.5 * (coeffs + np.conj(coeffs[..., ::-1, ::-1]))
    centre = coeffs.shape[-1] // 2
    sym[..., centre, centre] = sym[..., centre, centre].real
    return sym


def conjugate_residual(table: np.ndarray) -> float:
    """max |a - conj(a reversed on its last two axes)|; zero iff a(-n) == conj(a(n))."""
    return float(np.abs(table - np.conj(table[..., ::-1, ::-1])).max())


class SpectralField:
    """Immutable coefficient table of a real field, cutoff N.

    ``coeffs[i, j]`` holds the amplitude of mode ``(i - N, j - N)``.
    """

    __slots__ = ("cutoff", "coeffs")

    def __init__(self, cutoff: int, coeffs: np.ndarray):
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        d = 2 * cutoff + 1
        arr = np.asarray(coeffs, dtype=complex)
        if arr.shape != (d, d):
            raise ValueError(f"coefficient table must be {d}x{d}, got {arr.shape}")
        resid = conjugate_residual(arr)
        if resid > HARD_TOL:
            raise InvariantViolation(f"reality constraint violated by {resid:.3e}")
        arr = _canonical_reality(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("SpectralField is immutable")

    @classmethod
    def zeros(cls, cutoff: int) -> "SpectralField":
        d = 2 * cutoff + 1
        return cls(cutoff, np.zeros((d, d), dtype=complex))

    @classmethod
    def from_modes(cls, cutoff: int, modes: Mapping[tuple[int, int], complex]) -> "SpectralField":
        """Build a field from mode amplitudes, mirroring conjugates.

        Each supplied mode n also sets -n to the conjugate value.  Supplying
        both members of a pair is allowed when consistent; the zero mode,
        key (0, 0), must be real.
        """
        d = 2 * cutoff + 1
        arr = np.zeros((d, d), dtype=complex)
        seen: dict[tuple[int, int], complex] = {}
        for (n1, n2), v in modes.items():
            if max(abs(n1), abs(n2)) > cutoff:
                raise ValueError(f"mode ({n1},{n2}) outside cutoff {cutoff}")
            v = complex(v)
            if (n1, n2) == (0, 0):
                if abs(v.imag) > 0:
                    raise InvariantViolation("zero mode must be real")
                arr[cutoff, cutoff] = v.real
                continue
            for key, val in (((n1, n2), v), ((-n1, -n2), v.conjugate())):
                if key in seen and abs(seen[key] - val) > HARD_TOL:
                    raise InvariantViolation(f"inconsistent value for mode {key}")
                seen[key] = val
        for (n1, n2), v in seen.items():
            arr[n1 + cutoff, n2 + cutoff] = v
        return cls(cutoff, arr)

    def coeff(self, n1: int, n2: int) -> complex:
        """Amplitude of mode (n1, n2); zero outside the cutoff lattice."""
        if max(abs(n1), abs(n2)) > self.cutoff:
            return 0.0 + 0.0j
        return complex(self.coeffs[n1 + self.cutoff, n2 + self.cutoff])

    def __repr__(self) -> str:
        return f"SpectralField(cutoff={self.cutoff})"


@dataclass(frozen=True)
class GridField:
    """Real samples on the uniform lattice {(a/G, b/G)}, unit-measure torus."""

    size: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.size, self.size):
            raise ValueError("grid values must be size x size")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def project_coeffs(coeffs: np.ndarray, src: int, dst: int) -> np.ndarray:
    """Array-level projection of (..., 2src+1, 2src+1) tables onto cutoff dst.

    Coefficients inside the target lattice are copied verbatim, the rest
    dropped; enlarging the cutoff pads with zeros.  Equal cutoffs return the
    input itself.
    """
    if src == dst:
        return coeffs
    m = min(src, dst)
    out = np.zeros(coeffs.shape[:-2] + (2 * dst + 1, 2 * dst + 1), dtype=complex)
    out[..., dst - m : dst + m + 1, dst - m : dst + m + 1] = coeffs[
        ..., src - m : src + m + 1, src - m : src + m + 1
    ]
    return out


def project(field: SpectralField, cutoff: int) -> SpectralField:
    """Orthogonal projection onto the lattice |n|_inf <= cutoff.  Idempotent."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    return SpectralField(cutoff, project_coeffs(field.coeffs, field.cutoff, cutoff))


def sobolev_norm(field: SpectralField, s: float = 0.0) -> float:
    """H^s norm: sqrt of sum over modes of (1+|n|^2)^s |coeff(n)|^2."""
    n1, n2 = mode_grids(field.cutoff)
    weight = (1.0 + n1.astype(float) ** 2 + n2.astype(float) ** 2) ** s
    return float(np.sqrt(np.sum(weight * np.abs(field.coeffs) ** 2)))


def dirichlet_kernel(cutoff: int) -> SpectralField:
    """Sharp spectral truncation as a field: every amplitude on the lattice is 1."""
    d = 2 * cutoff + 1
    return SpectralField(cutoff, np.ones((d, d), dtype=complex))


def real_part(vals, what: str) -> np.ndarray:
    """Real part of values that are real in exact arithmetic.

    An imaginary residual above HARD_TOL times the largest real magnitude
    (at least 1) means a broken reality invariant and raises, naming `what`.
    """
    vals = np.asarray(vals)
    if vals.size:
        resid = float(np.abs(vals.imag).max())
        if resid > HARD_TOL * max(1.0, float(np.abs(vals.real).max())):
            raise InvariantViolation(f"{what}: imaginary residual {resid:.3e}")
    return vals.real


def pairings_batch(coeffs: np.ndarray, cutoff: int, phis: Sequence[SpectralField]) -> np.ndarray:
    """L2 pairings <w_i, phi_j> over the common lattice: (B, ...) -> (B, k)."""
    out = np.empty(coeffs.shape[:-2] + (len(phis),))
    for j, phi in enumerate(phis):
        m = min(cutoff, phi.cutoff)
        w = coeffs[..., cutoff - m : cutoff + m + 1, cutoff - m : cutoff + m + 1]
        p = phi.coeffs[phi.cutoff - m : phi.cutoff + m + 1, phi.cutoff - m : phi.cutoff + m + 1]
        out[..., j] = real_part(np.sum(w * np.conj(p), axis=(-2, -1)), f"pairing against phi[{j}]")
    return out


def dual_pairing(a: SpectralField, b: SpectralField) -> float:
    """L2 pairing of two real fields: sum of a_hat(n) conj(b_hat(n)).

    Cutoffs may differ; the sum runs over the common lattice.
    """
    return float(pairings_batch(a.coeffs, a.cutoff, [b])[0])


def embed_layout(coeffs: np.ndarray, size: int) -> np.ndarray:
    """(..., 2N+1, 2N+1) tables in the (..., size, size) FFT layout.

    Modes fold mod `size`; on undersampled grids distinct modes that share
    a cell add up, so synthesis aliases exactly as continuous evaluation.
    """
    d = coeffs.shape[-1]
    idx = mode_range(d // 2) % size
    layout = np.zeros(coeffs.shape[:-2] + (size, size), dtype=complex)
    if size >= d:
        layout[..., idx[:, None], idx[None, :]] = coeffs
    else:
        np.add.at(layout, (..., idx[:, None], idx[None, :]), coeffs)
    return layout


def extract_layout(layout: np.ndarray, cutoff: int) -> np.ndarray:
    """The cutoff lattice of an FFT layout, inverse of `embed_layout`."""
    idx = mode_range(cutoff) % layout.shape[-1]
    return layout[..., idx[:, None], idx[None, :]]


def coeffs_to_grid(coeffs: np.ndarray, size: int) -> np.ndarray:
    """Array-level synthesis of (..., 2N+1, 2N+1) coefficients on a size^2 grid.

    Returns real values (imag part discarded after a hard check).
    """
    layout = embed_layout(coeffs, size)
    vals = scipy.fft.ifft2(layout, axes=(-2, -1)) * (size * size)
    return real_part(vals, "grid synthesis")


def grid_to_coeffs(values: np.ndarray, cutoff: int) -> np.ndarray:
    """Array-level analysis of grid samples into (..., 2N+1, 2N+1) coefficients."""
    size = values.shape[-1]
    if size < 2 * cutoff + 1:
        raise ValueError(
            f"grid of size {size} aliases modes at cutoff {cutoff}; need size >= {2 * cutoff + 1}"
        )
    spec = scipy.fft.fft2(np.asarray(values, dtype=float), axes=(-2, -1))
    spec /= size * size
    return extract_layout(spec, cutoff)


def to_grid(field: SpectralField, size: int) -> GridField:
    """Evaluate the field on the uniform lattice of the given size (any size >= 1)."""
    if size < 1:
        raise ValueError("grid size must be >= 1")
    return GridField(size, coeffs_to_grid(field.coeffs, size))


def from_grid(grid: GridField, cutoff: int) -> SpectralField:
    """Recover coefficients from grid samples; exact when size >= 2*cutoff+1."""
    return SpectralField(cutoff, grid_to_coeffs(grid.values, cutoff))


def _nonuniform_sum(coeffs: np.ndarray, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    # (e1 @ C) rows dotted with e2 rows; the product is a BLAS call, whose
    # summation order may follow the BLAS thread count
    return np.sum((e1 @ coeffs) * e2, axis=1)


def _mode_exponentials(points: np.ndarray, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """exp(2 pi i x_a n) for n = -N..N at the points (..., 2), one (P, 2N+1) table per axis."""
    flat = np.asarray(points, dtype=float).reshape(-1, 2)
    n = mode_range(cutoff)
    return np.exp(_TWO_PI_I * np.outer(flat[:, 0], n)), np.exp(_TWO_PI_I * np.outer(flat[:, 1], n))


def evaluate_at(field: SpectralField, points: np.ndarray) -> np.ndarray:
    """Evaluate the field at arbitrary torus points, shape (..., 2) -> (...)."""
    pts = np.asarray(points, dtype=float)
    e1, e2 = _mode_exponentials(pts, field.cutoff)
    vals = _nonuniform_sum(field.coeffs, e1, e2)
    return vals.real.reshape(pts.shape[:-1])


def gradient_at(field: SpectralField, points: np.ndarray) -> np.ndarray:
    """Gradient of the field at arbitrary points, shape (..., 2) -> (..., 2)."""
    pts = np.asarray(points, dtype=float)
    e1, e2 = _mode_exponentials(pts, field.cutoff)
    n1, n2 = mode_grids(field.cutoff)
    g1 = _nonuniform_sum(_TWO_PI_I * n1 * field.coeffs, e1, e2)
    g2 = _nonuniform_sum(_TWO_PI_I * n2 * field.coeffs, e1, e2)
    return np.stack([g1.real, g2.real], axis=-1).reshape(pts.shape)
