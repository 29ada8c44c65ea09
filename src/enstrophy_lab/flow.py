"""Time integration of the truncated vorticity equation dw/dt = b_N(w).

Two schemes: classical rk4 and the implicit midpoint rule.  The midpoint
step solves ``w' = w + dt * b((w + w')/2)`` by fixed-point iteration; at
the fixed point the quadratic invariants are conserved up to solver
tolerance because the drift is orthogonal to the state.  Non-convergence
is surfaced as `StepFailure` (no silent time-step adaptation).

The drift is always a `SpectralDrift` (with an optional constant shift and
a sign).  `_run_padded` is the one stepping loop: it pads once and steps
in the padded transform layout; the drift output is masked to the retained
lattice, so this is exact.  Its observer sees each step's state and k1:
`evolve` records through one, `measure.weak_form_residual` integrates.
Array cores operate on stacked coefficient tables so that ensembles of
trajectories integrate vectorized; independent trajectories never
interact, which keeps results deterministic under any scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .dynamics import SpectralDrift, _inverse_norm_sq
from .fields import SpectralField, half_lattice_mask, project


class StepFailure(Exception):
    """Implicit midpoint iteration failed to converge within the budget."""

    def __init__(self, message: str, iterations: int, residual: float, member_mask=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.member_mask = member_mask


@dataclass(frozen=True)
class FlowParams:
    """Integration parameters; t_end/dt must round to an integer step count."""

    cutoff: int
    dt: float
    t_end: float
    integrator: str = "implicit_midpoint"
    midpoint_tol: float = 1e-12
    midpoint_max_iter: int = 50

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if self.integrator not in ("rk4", "implicit_midpoint"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        ratio = self.t_end / self.dt
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValueError(f"t_end/dt = {ratio} does not round to an integer step count")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


def _batch_norm(coeffs: np.ndarray) -> float:
    return float(np.sqrt(np.max(np.sum(np.abs(coeffs) ** 2, axis=(-2, -1)))))


def _resolve_drift(drift_fn: Optional[SpectralDrift], cutoff: int) -> SpectralDrift:
    """The drift to integrate with: `drift_fn`, or the Euler drift when None."""
    if drift_fn is None:
        return SpectralDrift(cutoff)
    if not isinstance(drift_fn, SpectralDrift):
        raise TypeError(f"drift_fn must be a SpectralDrift, got {type(drift_fn).__name__}")
    if drift_fn.cutoff != cutoff:
        raise ValueError(f"drift cutoff {drift_fn.cutoff} does not match flow cutoff {cutoff}")
    return drift_fn


def _rk4_from(state: np.ndarray, k1: np.ndarray, dt: float, drv: SpectralDrift) -> np.ndarray:
    """One classical rk4 step from padded `state`, given k1 = drv.padded_drift(state)."""
    k2 = drv.padded_drift(state + (0.5 * dt) * k1)
    k3 = drv.padded_drift(state + (0.5 * dt) * k2)
    k4 = drv.padded_drift(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _midpoint_failure(inc: np.ndarray, tol_abs: float, dt: float, sweeps: int,
                      diverged: bool = False) -> StepFailure:
    bad = ~(inc <= tol_abs)  # catches overflow to NaN as well
    resid = float(inc.max())
    if not np.isfinite(resid):
        resid = float("inf")
    what = (f"diverged at sweep {sweeps}" if diverged
            else f"did not converge in {sweeps} iterations")
    return StepFailure(
        f"implicit midpoint {what} "
        f"(residual {resid:.3e}, dt={dt}); halving dt may help",
        iterations=sweeps,
        residual=resid,
        member_mask=np.atleast_1d(bad),
    )


def _midpoint_from(base: np.ndarray, k1: np.ndarray, dt: float, drv: SpectralDrift,
                   tol_abs: float, max_iter: int) -> np.ndarray:
    """Solve w' = base + dt * b((base + w')/2) from the predictor base + dt * k1.

    `base` is padded and k1 = drv.padded_drift(base).  A contraction
    shrinks the largest increment from sweep to sweep, so an increment
    that is not finite or exceeds the first sweep's stops the iteration at
    once, before it can overflow.
    """
    state = base + dt * k1
    first = None
    for sweep in range(1, max_iter + 1):
        new = base + dt * drv.padded_drift(0.5 * (base + state))
        inc = np.sqrt(np.sum(np.abs(new - state) ** 2, axis=(-2, -1)))
        state = new
        worst = inc.max()
        if worst <= tol_abs:
            return state
        if first is None:
            first = worst
        if not (np.isfinite(worst) and worst <= first):
            raise _midpoint_failure(inc, tol_abs, dt, sweep, diverged=True)
    raise _midpoint_failure(inc, tol_abs, dt, max_iter)


def _advance(state: np.ndarray, k1: np.ndarray, params: FlowParams, drv: SpectralDrift) -> np.ndarray:
    """One step of the configured scheme from padded `state`, given k1 = drv.padded_drift(state).

    The largest norm of `state` scales the midpoint tolerance.
    """
    if params.integrator == "rk4":
        return _rk4_from(state, k1, params.dt, drv)
    scale = max(1.0, _batch_norm(state))
    return _midpoint_from(state, k1, params.dt, drv, params.midpoint_tol * scale,
                          params.midpoint_max_iter)


def _run_padded(coeffs: np.ndarray, params: FlowParams, drv: SpectralDrift,
                n_steps: int, observe: Optional[Callable] = None) -> np.ndarray:
    """Integrate n_steps from lattice tables, padded once.

    With `observe`, calls observe(k, state, k1) for k = 0..n_steps with the
    padded state and k1 = drv.padded_drift(state), which the step from it
    reuses, so only the horizon adds an evaluation; neither may be written.
    """
    state = drv.pad(coeffs)
    for k in range(n_steps):
        k1 = drv.padded_drift(state)
        if observe is not None:
            observe(k, state, k1)
        state = _advance(state, k1, params, drv)
    if observe is not None:
        observe(n_steps, state, drv.padded_drift(state))
    return drv.unpad(state)


def _step_batch(coeffs: np.ndarray, params: FlowParams, drv: SpectralDrift) -> np.ndarray:
    """One step of lattice tables."""
    return _run_padded(coeffs, params, drv, 1)


def _step_rk4(coeffs: np.ndarray, dt: float, drv: SpectralDrift) -> np.ndarray:
    return _step_batch(coeffs, FlowParams(drv.cutoff, dt, dt, "rk4"), drv)


def _step_midpoint_fused(coeffs: np.ndarray, dt: float, drv: SpectralDrift,
                         tol: float, max_iter: int) -> np.ndarray:
    return _step_batch(coeffs, FlowParams(drv.cutoff, dt, dt, "implicit_midpoint", tol, max_iter), drv)


def _step_midpoint(coeffs: np.ndarray, dt: float, drv: SpectralDrift, tol: float, max_iter: int) -> np.ndarray:
    return _step_midpoint_fused(coeffs, dt, drv, tol, max_iter)


def step(field: SpectralField, params: FlowParams, drift_fn: Optional[SpectralDrift] = None) -> SpectralField:
    """Advance one time step with the configured scheme."""
    if field.cutoff != params.cutoff:
        raise ValueError("field cutoff does not match flow parameters")
    drv = _resolve_drift(drift_fn, params.cutoff)
    return SpectralField(params.cutoff, _step_batch(field.coeffs, params, drv))


def enstrophy(coeffs: np.ndarray) -> np.ndarray:
    """Squared H^0 norm of stacked coefficient tables."""
    return np.sum(np.abs(coeffs) ** 2, axis=(-2, -1)).real


def kinetic_energy(coeffs: np.ndarray) -> np.ndarray:
    """Squared H^0 norm of the reconstructed velocity."""
    cutoff = coeffs.shape[-1] // 2
    inv = _inverse_norm_sq(cutoff)
    return np.sum(np.abs(coeffs) ** 2 * inv, axis=(-2, -1)).real / (4.0 * np.pi ** 2)


@dataclass
class Trajectory:
    """Sampled states plus per-step conservation diagnostics."""

    times: np.ndarray
    states: list[SpectralField]
    diag_enstrophy: np.ndarray = dc_field(repr=False)
    diag_energy: np.ndarray = dc_field(repr=False)
    diag_ortho: np.ndarray = dc_field(repr=False)

    @property
    def final(self) -> SpectralField:
        return self.states[-1]


def _evolve(field: SpectralField, params: FlowParams, drift_fn: Optional[SpectralDrift],
            record_stride: int, sign: float) -> Trajectory:
    if field.cutoff != params.cutoff:
        raise ValueError("field cutoff does not match flow parameters")
    base = _resolve_drift(drift_fn, params.cutoff)
    drv = base if sign > 0 else SpectralDrift(params.cutoff, shift=base.shift, sign=-base.sign)
    n = params.n_steps
    states = [field]
    times = [0.0]
    ens = np.empty(n + 1)
    ener = np.empty(n + 1)
    orth = np.empty(n + 1)

    def observe(k, state, k1):
        coeffs = drv.unpad(state)
        ens[k] = enstrophy(coeffs)
        ener[k] = kinetic_energy(coeffs)
        # <b_N(w), w> of the given drift: negation commutes with the rounded sum
        orth[k] = sign * np.sum(drv.unpad(k1) * np.conj(coeffs), axis=(-2, -1)).real
        if k > 0 and (k % record_stride == 0 or k == n):
            states.append(SpectralField(params.cutoff, coeffs))
            times.append(k * params.dt)

    _run_padded(field.coeffs, params, drv, n, observe)
    return Trajectory(times=np.asarray(times), states=states, diag_enstrophy=ens,
                      diag_energy=ener, diag_ortho=orth)


def evolve(field: SpectralField, params: FlowParams, drift_fn: Optional[SpectralDrift] = None,
           record_stride: int = 1) -> Trajectory:
    """Integrate forward over [0, t_end], recording diagnostics every step."""
    return _evolve(field, params, drift_fn, record_stride, sign=+1.0)


def evolve_backward(field: SpectralField, params: FlowParams, drift_fn: Optional[SpectralDrift] = None,
                    record_stride: int = 1) -> Trajectory:
    """Integrate the time-reversed dynamics dw/dt = -b(w) with b = `drift_fn` over [0, t_end]."""
    return _evolve(field, params, drift_fn, record_stride, sign=-1.0)


def real_coordinate_layout(cutoff: int):
    """Index maps between coefficient tables and real coordinates.

    Coordinates are [w(0)] + [Re w(n), Im w(n)] over the canonical half
    lattice in lexicographic order; dimension (2N+1)^2.
    """
    d = 2 * cutoff + 1
    half = half_lattice_mask(cutoff)
    hi, hj = np.nonzero(half)
    return d, hi, hj


def coords_to_coeffs(coords: np.ndarray, cutoff: int) -> np.ndarray:
    """(..., (2N+1)^2) real coordinates -> (..., 2N+1, 2N+1) tables."""
    d, hi, hj = real_coordinate_layout(cutoff)
    coords = np.asarray(coords, dtype=float)
    out = np.zeros(coords.shape[:-1] + (d, d), dtype=complex)
    out[..., cutoff, cutoff] = coords[..., 0]
    h = len(hi)
    re = coords[..., 1 : 1 + h]
    im = coords[..., 1 + h : 1 + 2 * h]
    out[..., hi, hj] = re + 1j * im
    out[..., (d - 1) - hi, (d - 1) - hj] = re - 1j * im
    return out


def coeffs_to_coords(coeffs: np.ndarray, cutoff: int) -> np.ndarray:
    """(..., 2N+1, 2N+1) tables -> (..., (2N+1)^2) real coordinates."""
    d, hi, hj = real_coordinate_layout(cutoff)
    vals = coeffs[..., hi, hj]
    zero = coeffs[..., cutoff, cutoff].real
    return np.concatenate(
        [zero[..., None], vals.real, vals.imag], axis=-1
    )


def divergence_check(field: SpectralField, cutoff: int, h: float,
                     vector_field: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                     with_scale: bool = False):
    """Central finite-difference divergence of the drift in real coordinates.

    The drift is quadratic in the coefficients, so central differences are
    exact up to rounding and the estimate sits at the roundoff floor of the
    true value 0.  Pass a different `vector_field` (tables -> tables) to
    probe other fields; the identity map returns the dimension (2N+1)^2.

    With `with_scale` also returns the Frobenius norm of the finite
    difference Jacobian, the natural magnitude to judge the estimate
    against.
    """
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    base = project(field, cutoff).coeffs
    fn = vector_field if vector_field is not None else SpectralDrift(cutoff)
    coords = coeffs_to_coords(base, cutoff)
    dim = coords.shape[-1]
    plus = np.repeat(coords[None, :], dim, axis=0)
    plus[np.arange(dim), np.arange(dim)] += h
    minus = np.repeat(coords[None, :], dim, axis=0)
    minus[np.arange(dim), np.arange(dim)] -= h
    out_plus = coeffs_to_coords(fn(coords_to_coeffs(plus, cutoff)), cutoff)
    out_minus = coeffs_to_coords(fn(coords_to_coeffs(minus, cutoff)), cutoff)
    jac = (out_plus - out_minus) / (2.0 * h)
    div = float(np.trace(jac))
    if with_scale:
        return div, float(np.linalg.norm(jac))
    return div
