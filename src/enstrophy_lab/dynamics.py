"""Truncated Euler drift and its kernel realizations.

Velocity is reconstructed from vorticity diagonally in Fourier space,

    u_hat(n) = w_hat(n) * perp(n) / (2*pi*i |n|^2),    perp(n) = (n2, -n1),

the unique normalization with ``curl u = w`` on mean-zero modes under the
``exp(2*pi*i n.x)`` basis.  The projected drift at cutoff N is

    b_N(w) = -P_N( u(P_N w) . grad P_N w ),

a quadratic map of the retained coefficients.  Its pairing with a test
field phi is the quadratic form with the symmetrized coefficients

    A(n, m) = 1/2 (perp(m).n) (1/|n|^2 - 1/|m|^2) phi_hat(-n-m),

zero whenever n = 0, m = 0 or |n| = |m|; in particular every diagonal
entry A(n, -n) vanishes identically, which is the finite-cutoff shadow of
the trace cancellation exercised by `trace_integral`.

Two drift strategies are provided: an exact lattice convolution (`direct`,
the oracle) and a dealiased pseudo-spectral product (`dealiased`, the fast
path); they agree to rounding, which the tests assert.

Array-level cores accept stacked coefficient tables (..., 2N+1, 2N+1) so
ensembles evolve vectorized; all operations are pure.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
import scipy.fft
import scipy.signal

from .fields import (
    EXACT_TOL,
    HARD_TOL,
    InvariantViolation,
    SpectralField,
    _mode_exponentials,
    _nonuniform_sum,
    embed_layout,
    evaluate_at,
    extract_layout,
    gradient_at,
    mode_grids,
    project,
    project_coeffs,
    real_part,
)

_TWO_PI_I = 2j * np.pi


def env_workers() -> int | None:
    """ENSTROPHY_LAB_WORKERS, the FFT thread cap, as an integer >= 1; None when unset or empty."""
    raw = os.environ.get("ENSTROPHY_LAB_WORKERS", "")
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"ENSTROPHY_LAB_WORKERS must be an integer >= 1, got {raw!r}")
    return value


def fft_workers() -> int | None:
    """Worker budget for batched transforms; capped by ENSTROPHY_LAB_WORKERS.

    Thread count never changes results (transforms in a batch are
    independent), only throughput.
    """
    cpus = os.cpu_count() or 1
    cap = env_workers()
    return min(cpus, cap) if cap else cpus


def _inverse_norm_sq(cutoff: int) -> np.ndarray:
    n1, n2 = mode_grids(cutoff)
    nn = (n1 ** 2 + n2 ** 2).astype(float)
    inv = np.zeros_like(nn)
    np.divide(1.0, nn, out=inv, where=nn > 0)
    return inv


@dataclass(frozen=True)
class VelocityField:
    """Spectral two-component velocity; divergence free with zero mean flow."""

    cutoff: int
    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        d = 2 * self.cutoff + 1
        for comp in (self.u1, self.u2):
            if comp.shape != (d, d):
                raise ValueError("velocity component table has wrong shape")
            resid = np.abs(comp - np.conj(comp[::-1, ::-1])).max()
            if resid > HARD_TOL:
                raise InvariantViolation(f"velocity reality violated by {resid:.3e}")
            comp.setflags(write=False)
        if abs(self.u1[self.cutoff, self.cutoff]) > 0 or abs(self.u2[self.cutoff, self.cutoff]) > 0:
            raise InvariantViolation("velocity zero mode must vanish")
        div = self.spectral_divergence_max()
        scale = max(1.0, float(np.abs(self.u1).max()), float(np.abs(self.u2).max()))
        if div > EXACT_TOL * scale:
            raise InvariantViolation(f"velocity not divergence free: {div:.3e}")

    def spectral_divergence_max(self) -> float:
        """max over modes of |n . u_hat(n)|, the spectral divergence residual."""
        n1, n2 = mode_grids(self.cutoff)
        return float(np.abs(n1 * self.u1 + n2 * self.u2).max())

    def component(self, axis: int) -> SpectralField:
        return SpectralField(self.cutoff, (self.u1, self.u2)[axis])


def biot_savart(field: SpectralField) -> VelocityField:
    """Divergence-free velocity with ``curl u = w`` on nonzero modes.

    The zero mode of the vorticity is inert (no mean flow is generated).
    """
    n1, n2 = mode_grids(field.cutoff)
    s = field.coeffs * _inverse_norm_sq(field.cutoff) / _TWO_PI_I
    return VelocityField(field.cutoff, s * n2, s * (-n1))


def curl(v: VelocityField) -> SpectralField:
    """d2 u1 - d1 u2 as a spectral field (zero mode always 0)."""
    n1, n2 = mode_grids(v.cutoff)
    return SpectralField(v.cutoff, _TWO_PI_I * (n2 * v.u1 - n1 * v.u2))


def dealias_grid_size(cutoff: int) -> int:
    """Smallest power of two >= 3N+2: quadratic products project exactly."""
    g = 1
    while g < 3 * cutoff + 2:
        g *= 2
    return g


def _drift_multipliers(cutoff: int):
    n1, n2 = mode_grids(cutoff)
    inv = _inverse_norm_sq(cutoff)
    return (
        (n2 * inv) / _TWO_PI_I,   # velocity component 1
        (-n1 * inv) / _TWO_PI_I,  # velocity component 2
        _TWO_PI_I * n1,           # d/dx1
        _TWO_PI_I * n2,           # d/dx2
    )


@functools.lru_cache(maxsize=None)
def _euler_drift(cutoff: int) -> SpectralDrift:
    """One shared Euler drift per cutoff, so `drift()` builds its tables once."""
    return SpectralDrift(cutoff)


def _drift_dealiased(coeffs: np.ndarray, cutoff: int) -> np.ndarray:
    """Batched pseudo-spectral drift on (..., 2N+1, 2N+1) tables."""
    return _euler_drift(cutoff)(coeffs)


def _drift_direct(coeffs: np.ndarray, cutoff: int) -> np.ndarray:
    """Exact lattice convolution for a single coefficient table (the oracle)."""
    n1, n2 = mode_grids(cutoff)
    inv = _inverse_norm_sq(cutoff)
    a1 = (n2 * inv) * coeffs
    a2 = (-n1 * inv) * coeffs
    b1 = n1 * coeffs
    b2 = n2 * coeffs
    full = scipy.signal.convolve2d(a1, b1) + scipy.signal.convolve2d(a2, b2)
    return -full[cutoff : 3 * cutoff + 1, cutoff : 3 * cutoff + 1]


class SpectralDrift:
    """The projected drift, and the only drift the integrators take.

    Its output is ``sign * (b_N(w) + shift)``: the optional constant shift
    makes negative controls and sign -1 reverses time.  The padded-layout
    multiplier tables are precomputed, so integrators pad a state once and
    step it there; `padded_drift` consumes and produces the padded layout,
    and calling the instance on lattice tables pads and unpads.  Each
    velocity component is paired with the matching vorticity derivative in
    one complex transform: both are real fields, so the real and imaginary
    parts of the synthesized grid separate them exactly.  The two
    transform inputs live in per-thread scratch buffers kept for the
    latest batch shape, so one instance may be shared between threads and
    every call returns a fresh array.
    """

    def __init__(self, cutoff: int, shift: Optional[np.ndarray] = None, sign: float = 1.0):
        self.cutoff = cutoff
        self.sign = float(sign)
        self.size = dealias_grid_size(cutoff)
        mu1, mu2, md1, md2 = _drift_multipliers(cutoff)
        self._pu = embed_layout(mu1 + 1j * mu2, self.size)
        self._pd = embed_layout(md1 + 1j * md2, self.size)
        d = 2 * cutoff + 1
        mask = embed_layout(np.ones((d, d)), self.size).real
        self._out_scale = -(self.size * self.size) * mask
        self._scratch = threading.local()
        if shift is not None:
            shift = np.asarray(shift, dtype=complex)
            if shift.shape != (d, d):
                raise ValueError("drift shift table has wrong shape")
            self._shift_pad = embed_layout(shift, self.size)
        else:
            self._shift_pad = None
        self.shift = shift

    def pad(self, coeffs: np.ndarray) -> np.ndarray:
        return embed_layout(coeffs, self.size)

    def unpad(self, padded: np.ndarray) -> np.ndarray:
        return extract_layout(padded, self.cutoff)

    def _buffers(self, shape: tuple) -> tuple:
        local = self._scratch
        if getattr(local, "shape", None) != shape:
            local.shape = shape
            local.bufs = (np.empty(shape, dtype=complex), np.empty(shape, dtype=complex))
        return local.bufs

    def padded_drift(self, state_pad: np.ndarray) -> np.ndarray:
        workers = fft_workers()
        su, sd = self._buffers(state_pad.shape)
        gu = scipy.fft.ifft2(np.multiply(state_pad, self._pu, out=su), axes=(-2, -1),
                             workers=workers, overwrite_x=True)
        gd = scipy.fft.ifft2(np.multiply(state_pad, self._pd, out=sd), axes=(-2, -1),
                             workers=workers, overwrite_x=True)
        # a fresh real product: a kept one raised peak memory in midpoint runs
        prod = gu.real * gd.real
        prod += np.multiply(gu.imag, gd.imag, out=gu.imag)
        out = scipy.fft.fft2(prod, axes=(-2, -1), workers=workers)
        out *= self._out_scale
        if self._shift_pad is not None:
            out += self._shift_pad
        if self.sign != 1.0:
            out *= self.sign
        return out

    def __call__(self, coeffs: np.ndarray) -> np.ndarray:
        return self.unpad(self.padded_drift(self.pad(coeffs)))


def drift(field: SpectralField, cutoff: Optional[int] = None, strategy: str = "dealiased") -> SpectralField:
    """Projected Euler drift b_N applied to the field (projected internally).

    `direct` computes the exact mode convolution; `dealiased` the padded
    pseudo-spectral product.  Both land in the cutoff lattice.
    """
    n = field.cutoff if cutoff is None else cutoff
    coeffs = project_coeffs(field.coeffs, field.cutoff, n)
    if strategy == "direct":
        out = _drift_direct(coeffs, n)
    elif strategy == "dealiased":
        out = _drift_dealiased(coeffs, n)
    else:
        raise ValueError(f"unknown drift strategy {strategy!r}")
    return SpectralField(n, out)


class QuadraticForm:
    """A symmetric kernel A(n, m) on the cutoff lattice squared.

    The protocol: `pair(batch)` evaluates sum_(n,m) A(n, m) w_hat(n) w_hat(m)
    on stacked tables (..., 2N+1, 2N+1) at the form's cutoff, `trace()` is
    sum_n A(n, -n) (the Gaussian mean of the pairing), `frobenius_sq()` is
    sum |A(n, m)|^2 (half its Gaussian variance), and `matrix()` builds the
    dense (d^2, d^2) table over flattened indices
    ``i = (n1+N)*(2N+1) + (n2+N)``, on demand only.  The defaults here work
    from `matrix()`; `DenseForm`, the reference that tests compare against,
    uses them, and the sparse forms (drift, exchange, rank one) override
    them so that no battery builds the table.
    """

    cutoff: int

    def matrix(self) -> np.ndarray:
        raise NotImplementedError

    def pair(self, batch: np.ndarray) -> np.ndarray:
        flat = batch.reshape(batch.shape[:-2] + (-1,))
        return np.einsum("...i,...i->...", flat @ self.matrix(), flat)

    def trace(self) -> float:
        return complex(np.trace(self.matrix()[:, ::-1])).real

    def frobenius_sq(self) -> float:
        return float(np.sum(np.abs(self.matrix()) ** 2))


class DenseForm(QuadraticForm):
    """An explicit symmetric, conjugation-symmetric (d^2, d^2) table."""

    def __init__(self, cutoff: int, table: np.ndarray):
        d2 = (2 * cutoff + 1) ** 2
        if table.shape != (d2, d2):
            raise ValueError("quadratic form matrix has wrong shape")
        if np.abs(table - table.T).max() > HARD_TOL:
            raise InvariantViolation("quadratic form not symmetric")
        if np.abs(table - np.conj(table[::-1, ::-1])).max() > HARD_TOL:
            raise InvariantViolation("quadratic form conjugation property broken")
        self.cutoff = cutoff
        self._table = np.array(table)
        self._table.setflags(write=False)

    def matrix(self) -> np.ndarray:
        return self._table


class DriftForm(QuadraticForm):
    """The drift pairing w -> <b_N(w), phi>, evaluated over the support of phi."""

    def __init__(self, phi: SpectralField, cutoff: int):
        self.cutoff = cutoff
        self.phi = project(phi, max(cutoff, phi.cutoff))

    def pair(self, batch: np.ndarray) -> np.ndarray:
        return drift_pairing_batch(batch, self.cutoff, self.phi)

    def trace(self) -> float:
        # the diagonal entries A(n, -n) are those of the support mode s = 0
        total = 0j
        for s, amp, c, _ in _support_terms(self.phi, self.cutoff):
            if s == (0, 0):
                total += amp * np.sum(c)
        return total.real

    def frobenius_sq(self) -> float:
        return drift_form_frobenius_sq(self.phi, self.cutoff)

    def matrix(self) -> np.ndarray:
        cutoff = self.cutoff
        n1, n2 = mode_grids(cutoff)
        f1, f2 = n1.ravel().astype(float), n2.ravel().astype(float)
        inv = _inverse_norm_sq(cutoff).ravel()
        # perp(m).n = m2 n1 - m1 n2, rows indexed by n, columns by m
        cross = np.outer(f1, f2) - np.outer(f2, f1)
        factor = 0.5 * cross * (inv[:, None] - inv[None, :])
        # phi_hat(-n-m) gathered from the lattice at twice the cutoff
        phi2 = project(self.phi, 2 * cutoff).coeffs
        i1 = (-(n1.ravel()[:, None] + n1.ravel()[None, :])) + 2 * cutoff
        i2 = (-(n2.ravel()[:, None] + n2.ravel()[None, :])) + 2 * cutoff
        nonzero = (inv > 0).astype(float)
        return factor * phi2[i1, i2] * np.outer(nonzero, nonzero)


def quadratic_coefficients(phi: SpectralField, cutoff: int) -> DriftForm:
    """Coefficients A(n, m) of the drift pairing against phi at the cutoff.

    Contract: for any w, sum_(n,m) w_hat(n) w_hat(m) A(n, m) equals
    <drift(w, N), phi> whenever phi is supported inside the cutoff lattice.
    """
    return DriftForm(phi, cutoff)


def quadratic_pairing(field: SpectralField, form: QuadraticForm) -> float:
    """Evaluate the quadratic form on a field (projected to the form's cutoff)."""
    vals = quadratic_pairing_batch(field.coeffs[None, ...], field.cutoff, form)
    return float(vals[0])


def quadratic_pairing_batch(coeffs: np.ndarray, cutoff: int, form: QuadraticForm) -> np.ndarray:
    """Batched pairing on stacked tables (..., 2N+1, 2N+1) -> (...).

    The one pairing entry of the batteries.  The value of a real field under
    a conjugation-symmetric kernel is real; an imaginary residual raises.
    """
    if cutoff > form.cutoff:
        raise ValueError("form cutoff smaller than field cutoff")
    return real_part(form.pair(project_coeffs(coeffs, cutoff, form.cutoff)), "quadratic pairing")


def _minimal_image(z: np.ndarray) -> np.ndarray:
    return z - np.round(z)


@dataclass(frozen=True)
class KernelEval:
    """Evaluator for the symmetrized convection kernel of a test field.

    The singular convolution kernel is summed as a truncated Fourier series
    over 0 < |n|_inf <= k_max; the series converges slowly near the origin,
    so every evaluation can report the measured increment between the
    half-truncation and the full truncation as its accuracy indicator.
    """

    phi: SpectralField
    k_max: int = 64
    _k1: np.ndarray = dc_field(init=False, repr=False)
    _k2: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self):
        n1, n2 = mode_grids(self.k_max)
        inv = _inverse_norm_sq(self.k_max)
        object.__setattr__(self, "_k1", (n2 * inv) / _TWO_PI_I)
        object.__setattr__(self, "_k2", (-n1 * inv) / _TWO_PI_I)

    def _kernel_sum(self, z: np.ndarray, k_cut: int) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        e1, e2 = _mode_exponentials(z, self.k_max)
        if k_cut >= self.k_max:
            c1, c2 = self._k1, self._k2
        else:
            n1, n2 = mode_grids(self.k_max)
            mask = np.maximum(np.abs(n1), np.abs(n2)) <= k_cut
            c1, c2 = self._k1 * mask, self._k2 * mask
        k1 = _nonuniform_sum(c1, e1, e2).real
        k2 = _nonuniform_sum(c2, e1, e2).real
        return np.stack([k1, k2], axis=-1).reshape(z.shape)

    def kernel_at(self, z: np.ndarray) -> np.ndarray:
        """Truncated Fourier sum of the convolution kernel at displacements z."""
        return self._kernel_sum(z, self.k_max)

    def pair_values(self, x: np.ndarray, y: np.ndarray, with_tail: bool = True):
        """Symmetrized kernel 1/2 K(x-y).(grad phi(x) - grad phi(y)).

        Returns (values, tail) where tail is the half-to-full truncation
        increment, an empirical accuracy indicator (the termwise series
        does not converge absolutely).  Coincident points are rejected.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = x - y
        if np.any(np.all(_minimal_image(z) == 0.0, axis=-1)):
            raise ValueError("kernel undefined on the diagonal x = y")
        dg = gradient_at(self.phi, x) - gradient_at(self.phi, y)
        val = 0.5 * np.sum(self.kernel_at(z) * dg, axis=-1)
        if not with_tail:
            return val, None
        half = 0.5 * np.sum(self._kernel_sum(z, self.k_max // 2) * dg, axis=-1)
        return val, np.abs(val - half)

    def hessian_at(self, points: np.ndarray) -> np.ndarray:
        """Second derivative matrix of phi at the points, shape (..., 2, 2)."""
        pts = np.asarray(points, dtype=float)
        e1, e2 = _mode_exponentials(pts, self.phi.cutoff)
        n1, n2 = mode_grids(self.phi.cutoff)
        out = np.empty((e1.shape[0], 2, 2))
        for a, na in ((0, n1), (1, n2)):
            for b, nb in ((0, n1), (1, n2)):
                c = (_TWO_PI_I * na) * (_TWO_PI_I * nb) * self.phi.coeffs
                out[:, a, b] = _nonuniform_sum(c, e1, e2).real
        return out.reshape(pts.shape[:-1] + (2, 2))

    def leading_term(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Diagonal leading part (4 pi)^-1 <D2phi(x) zh, perp(zh)>, minimal image z."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = _minimal_image(x - y)
        r = np.linalg.norm(z, axis=-1)
        if np.any(r == 0):
            raise ValueError("leading term undefined on the diagonal")
        zh = z / r[..., None]
        zp = np.stack([zh[..., 1], -zh[..., 0]], axis=-1)
        hess = self.hessian_at(x)
        return np.einsum("...ij,...j,...i->...", hess, zh, zp) / (4.0 * np.pi)

    def remainder(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Kernel minus leading term; Lipschitz small near the diagonal."""
        val, _ = self.pair_values(x, y, with_tail=False)
        return val - self.leading_term(x, y)


def symmetrized_kernel(ke: KernelEval, x, y) -> tuple[float, float]:
    """Point evaluation of the symmetrized kernel with its truncation indicator."""
    val, tail = ke.pair_values(np.asarray(x, float), np.asarray(y, float))
    return float(val), float(tail)


def _separable_axis_values(field: SpectralField, nodes: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Exact per-axis factors when the coefficient table factorizes.

    For real even factors the per-axis sums are evaluated as cosine series,
    which makes the grid values bitwise symmetric under reflection and swap;
    the quadrature in `symmetry_integral` then cancels exactly.
    """
    c = field.coeffs
    n = field.cutoff
    piv = c[n, n]
    if piv == 0:
        return None
    col, row = c[:, n] / piv, c[n, :] / piv
    if not np.array_equal(np.outer(col, row) * piv, c):
        return None

    def axis_vals(vec: np.ndarray) -> Optional[np.ndarray]:
        if np.abs(vec.imag).max() > 0:
            return None
        v = vec.real
        if not np.array_equal(v, v[::-1]):
            return None
        k = np.arange(1, n + 1)
        base = np.full(nodes.shape, v[n])
        if n > 0:
            base = base + 2.0 * np.cos(2 * np.pi * np.outer(nodes, k)) @ v[n + 1 :]
        return base

    a = axis_vals(col * piv)
    b = axis_vals(row)
    if a is None or b is None:
        return None
    return a, b


def symmetry_integral(w_field: SpectralField, s_matrix: np.ndarray, size: int) -> float:
    """Midpoint quadrature of integral of W(x) <S x/|x|, perp(x)/|x|> dx.

    The grid is the offset lattice -1/2 + (a+1/2)/G on [-1/2, 1/2)^2, which
    is closed under reflections and coordinate swap and excludes the origin.
    Summands are folded over those symmetries first, so for even
    swap-symmetric W the cancellation is exact and only rounding remains.
    """
    if size % 2 != 0:
        raise ValueError("quadrature size must be even")
    s_matrix = np.asarray(s_matrix, dtype=float)
    if s_matrix.shape != (2, 2) or s_matrix[0, 1] != s_matrix[1, 0]:
        raise ValueError("S must be a symmetric 2x2 matrix")
    nodes = -0.5 + (np.arange(size) + 0.5) / size
    x1, x2 = np.meshgrid(nodes, nodes, indexing="ij")
    sep = _separable_axis_values(w_field, nodes)
    if sep is not None:
        wvals = np.outer(sep[0], sep[1])
    else:
        wvals = evaluate_at(w_field, np.stack([x1, x2], axis=-1))
    rr = x1 ** 2 + x2 ** 2
    # <S xh, perp(xh)> with perp(x) = (x2, -x1)
    angular = ((s_matrix[0, 0] - s_matrix[1, 1]) * x1 * x2 + s_matrix[0, 1] * (x2 ** 2 - x1 ** 2)) / rr
    t = wvals * angular
    folded = t + t[::-1, :]          # x1 -> -x1 kills the x1*x2 part
    folded = folded + folded.T       # swap kills the x2^2 - x1^2 part
    return float(np.sum(folded) / 4.0 / (size * size))


def _window_sums(table: np.ndarray, win: int) -> np.ndarray:
    """All win x win block sums of a 2D table via a summed-area table."""
    rows, cols = table.shape
    pad = np.zeros((rows + 1, cols + 1))
    np.cumsum(np.cumsum(table, axis=0), axis=1, out=pad[1:, 1:])
    out_r, out_c = rows - win + 1, cols - win + 1
    return (
        pad[win : win + out_r, win : win + out_c]
        - pad[:out_r, win : win + out_c]
        - pad[win : win + out_r, :out_c]
        + pad[:out_r, :out_c]
    )


@dataclass(frozen=True)
class TraceEstimate:
    value: float
    error: float


def trace_integral(ke: KernelEval, cutoff: int, size: int) -> TraceEstimate:
    """Quadrature of the double integral of theta_N(x-y) H(x, y) over the torus.

    Offset midpoint grids keep x != y everywhere.  The exact value vanishes
    at every cutoff (the spectral trace of the drift form is identically
    zero), so the returned number measures quadrature plus truncation
    error; the error field reports an independent re-evaluation difference
    plus a roundoff allowance.
    """
    if size < 4 * cutoff + 4:
        raise ValueError("quadrature size must be at least 4N+4")

    def one(sz: int, k_cut: int) -> tuple[float, float]:
        xs = (np.arange(sz) + 0.25) / sz
        ys = (np.arange(sz) + 0.75) / sz
        diff = (np.arange(-(sz - 1), sz) - 0.5) / sz
        z1, z2 = np.meshgrid(diff, diff, indexing="ij")
        zpts = np.stack([z1, z2], axis=-1)
        kv = ke._kernel_sum(zpts, k_cut)
        theta = dirichlet_values(cutoff, diff)
        wk = theta[:, None, None] * theta[None, :, None] * kv.reshape(2 * sz - 1, 2 * sz - 1, 2)
        x1g, x2g = np.meshgrid(xs, xs, indexing="ij")
        gx = gradient_at(ke.phi, np.stack([x1g, x2g], axis=-1))
        y1g, y2g = np.meshgrid(ys, ys, indexing="ij")
        gy = gradient_at(ke.phi, np.stack([y1g, y2g], axis=-1))
        total = 0.0
        total_abs = 0.0
        for comp in (0, 1):
            sums = _window_sums(wk[..., comp], sz)
            asums = _window_sums(np.abs(wk[..., comp]), sz)
            # sum over b of M[a-b] is the window starting at a; over a, at G-1-b
            total += np.sum(gx[..., comp] * sums) - np.sum(gy[..., comp] * sums[::-1, ::-1])
            total_abs += np.sum(np.abs(gx[..., comp]) * asums) + np.sum(np.abs(gy[..., comp]) * asums[::-1, ::-1])
        norm = 0.5 / sz ** 4
        return total * norm, total_abs * norm

    val, scale = one(size, ke.k_max)
    alt, _ = one(size + 4, max(1, ke.k_max // 2))
    error = abs(val - alt) + 1e-15 * scale * size
    return TraceEstimate(value=val, error=error)


def dirichlet_values(cutoff: int, nodes: np.ndarray) -> np.ndarray:
    """One-axis sharp-truncation kernel 1 + 2 sum cos(2 pi k t) at the nodes."""
    nodes = np.asarray(nodes, dtype=float)
    if cutoff == 0:
        return np.ones_like(nodes)
    k = np.arange(1, cutoff + 1)
    return 1.0 + 2.0 * np.sum(np.cos(2 * np.pi * nodes[..., None] * k), axis=-1)


def _support_terms(phi: SpectralField, cutoff: int):
    """Per-output-mode pieces of the drift form, grouped by n + m = s.

    For fixed s, perp(m).n collapses to s2*n1 - s1*n2, so each support mode
    of the test field contributes one dense lattice factor.  Yields
    (amplitude phi_hat(-s), coefficient table c_s, gather indices of s - n).
    """
    n1, n2 = mode_grids(cutoff)
    inv = _inverse_norm_sq(cutoff)
    phi2 = project(phi, 2 * cutoff).coeffs
    centre = 2 * cutoff
    for a, b in zip(*np.nonzero(phi2)):
        s1, s2 = int(a) - centre, int(b) - centre
        amp = phi2[centre - s1, centre - s2]  # phi_hat(-s)
        m1, m2 = s1 - n1, s2 - n2
        valid = (np.maximum(np.abs(m1), np.abs(m2)) <= cutoff) & ((n1 != 0) | (n2 != 0)) & ((m1 != 0) | (m2 != 0))
        mm = (m1 ** 2 + m2 ** 2).astype(float)
        inv_m = np.zeros_like(mm)
        np.divide(1.0, mm, out=inv_m, where=valid & (mm > 0))
        c = 0.5 * (s2 * n1 - s1 * n2) * (inv - inv_m)
        c = np.where(valid, c, 0.0)
        i1 = np.clip(m1 + cutoff, 0, 2 * cutoff)
        i2 = np.clip(m2 + cutoff, 0, 2 * cutoff)
        yield (s1, s2), amp, c, (i1, i2)


def drift_pairing_batch(coeffs: np.ndarray, cutoff: int, phi: SpectralField) -> np.ndarray:
    """Structured evaluation of the drift quadratic form, (..., d, d) -> (...).

    The pairing of `DriftForm`, at a cost proportional to the support of
    the test field.
    """
    total = np.zeros(coeffs.shape[:-2], dtype=complex)
    for _, amp, c, (i1, i2) in _support_terms(phi, cutoff):
        gathered = coeffs[..., i1, i2]
        total = total + amp * np.einsum("ij,...ij,...ij->...", c, coeffs, gathered)
    return real_part(total, "drift pairing")


def drift_form_frobenius_sq(phi: SpectralField, cutoff: int) -> float:
    """Sum of |A(n, m)|^2 over the cutoff lattice squared, without the matrix.

    Each entry belongs to exactly one support mode s = n + m of the test
    field, so the sum splits over the support.
    """
    total = 0.0
    for _, amp, c, _ in _support_terms(phi, cutoff):
        total += float(np.abs(amp) ** 2 * np.sum(c ** 2))
    return total
