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
interact, not even in the midpoint iteration, which stops member by member.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .dynamics import SpectralDrift, _inverse_norm_sq
from .fields import SpectralField, half_lattice_mask, project

# The midpoint solver's increment tolerance, relative to max(1, |w_i|), and its sweep budget.
_MIDPOINT_TOL = 1e-12
_MIDPOINT_MAX_ITER = 50


class StepFailure(Exception):
    """Implicit midpoint iteration failed to converge within the budget."""

    def __init__(self, message: str, iterations: int, residual: float, member_mask: np.ndarray):
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

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be nonnegative and finite, got {self.t_end}")
        if self.integrator not in ("rk4", "implicit_midpoint"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        ratio = self.t_end / self.dt
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValueError(f"t_end/dt = {ratio} does not round to an integer step count")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


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


def _midpoint_failure(m: int, failed: np.ndarray, inc: np.ndarray, dt: float, sweeps: int,
                      diverged: bool = False) -> StepFailure:
    """The failure of members `failed` of m, whose last increments are `inc`."""
    resid = float(inc.max()) if np.isfinite(inc).all() else float("inf")
    what = (f"diverged at sweep {sweeps}" if diverged
            else f"did not converge in {sweeps} iterations")
    return StepFailure(
        f"implicit midpoint {what} "
        f"(residual {resid:.3e}, dt={dt}); halving dt may help",
        iterations=sweeps,
        residual=resid,
        member_mask=np.isin(np.arange(m), failed),
    )


def _midpoint_from(base: np.ndarray, k1: np.ndarray, dt: float, drv: SpectralDrift) -> np.ndarray:
    """Solve w' = base + dt * b((base + w')/2) from the predictor base + dt * k1.

    `base` is padded and k1 = drv.padded_drift(base).  Member i stops once
    its increment is at most _MIDPOINT_TOL * max(1, |base_i|), is written
    over its row of `base` and leaves later sweeps, so its bytes do not
    depend on the other members.  A contraction shrinks a member's
    increment from sweep to sweep, so one that is not finite or exceeds
    the member's first fails the step at once, before it can overflow.
    """
    members = base.reshape((-1,) + base.shape[-2:])  # a view of the contiguous padded state
    tols = _MIDPOINT_TOL * np.maximum(1.0, np.sqrt(enstrophy(members)))
    active = np.arange(len(members))
    state = (base + dt * k1).reshape(members.shape)
    first = None
    for sweep in range(1, _MIDPOINT_MAX_ITER + 1):
        # base + dt * b, as addition commutes; only one iterate and no copy
        # of base outlive the sweep
        prev = state
        state = dt * drv.padded_drift(0.5 * (members[active] + prev))
        state += members[active]
        inc = np.sqrt(enstrophy(state - prev))
        done = inc <= tols
        first = inc if first is None else first
        bad = ~done & ~(np.isfinite(inc) & (inc <= first))
        if bad.any():
            raise _midpoint_failure(len(members), active[bad], inc[bad], dt, sweep, diverged=True)
        if done.any():
            members[active[done]] = state[done]
            active, state, first, tols = active[~done], state[~done], first[~done], tols[~done]
            if not active.size:
                return members.reshape(base.shape)
    raise _midpoint_failure(len(members), active, inc[~done], dt, _MIDPOINT_MAX_ITER)


def _run_padded(coeffs: np.ndarray, params: FlowParams, drv: SpectralDrift,
                n_steps: int, observe: Optional[Callable] = None) -> np.ndarray:
    """Integrate n_steps from lattice tables, padded once.

    With `observe`, calls observe(k, state, k1) for k = 0..n_steps with the
    padded state and k1 = drv.padded_drift(state), which the step from it
    reuses, so only the horizon adds an evaluation.  Neither may be written
    or kept: the midpoint step overwrites the state with the next one.
    """
    state = drv.pad(coeffs)
    for k in range(n_steps):
        k1 = drv.padded_drift(state)
        if observe is not None:
            observe(k, state, k1)
        state = (_rk4_from(state, k1, params.dt, drv) if params.integrator == "rk4" else
                 _midpoint_from(state, k1, params.dt, drv))
    if observe is not None:
        observe(n_steps, state, drv.padded_drift(state))
    return drv.unpad(state)


# Only benchmark/tracer.py (its ENTRY_POINTS wrap them by name) and tests
# call the _step_* wrappers; they go when the tracer takes its counts from
# the reports (ROADMAP item 5).
def _step_batch(coeffs: np.ndarray, params: FlowParams, drv: SpectralDrift) -> np.ndarray:
    """One step of lattice tables."""
    return _run_padded(coeffs, params, drv, 1)


def _step_rk4(coeffs: np.ndarray, dt: float, drv: SpectralDrift) -> np.ndarray:
    return _step_batch(coeffs, FlowParams(drv.cutoff, dt, dt, "rk4"), drv)


def _step_midpoint_fused(coeffs: np.ndarray, dt: float, drv: SpectralDrift) -> np.ndarray:
    return _step_batch(coeffs, FlowParams(drv.cutoff, dt, dt, "implicit_midpoint"), drv)


def _step_midpoint(coeffs: np.ndarray, dt: float, drv: SpectralDrift) -> np.ndarray:
    return _step_midpoint_fused(coeffs, dt, drv)


def step(field: SpectralField, params: FlowParams, drift_fn: Optional[SpectralDrift] = None) -> SpectralField:
    """Advance one time step with the configured scheme."""
    if field.cutoff != params.cutoff:
        raise ValueError("field cutoff does not match flow parameters")
    drv = _resolve_drift(drift_fn, params.cutoff)
    return SpectralField(params.cutoff, _run_padded(field.coeffs, params, drv, 1))


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


def evolve(field: SpectralField, params: FlowParams, drift_fn: Optional[SpectralDrift] = None,
           record_stride: int = 1) -> Trajectory:
    """Integrate over [0, t_end], recording diagnostics every step.

    Time runs backward under the drift of opposite sign, e.g.
    ``SpectralDrift(N, sign=-1.0)``.
    """
    if field.cutoff != params.cutoff:
        raise ValueError("field cutoff does not match flow parameters")
    drv = _resolve_drift(drift_fn, params.cutoff)
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
        orth[k] = np.sum(drv.unpad(k1) * np.conj(coeffs), axis=(-2, -1)).real  # <b_N(w), w>
        if k > 0 and (k % record_stride == 0 or k == n):
            states.append(SpectralField(params.cutoff, coeffs))
            times.append(k * params.dt)

    _run_padded(field.coeffs, params, drv, n, observe)
    return Trajectory(times=np.asarray(times), states=states, diag_enstrophy=ens,
                      diag_energy=ener, diag_ortho=orth)


@functools.lru_cache(maxsize=None)
def real_coordinate_layout(cutoff: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Table side d = 2N+1 and the read-only indices (hi, hj) of the
    canonical half lattice in lexicographic order; their mirrors -n sit at
    (d-1-hi, d-1-hj)."""
    hi, hj = np.nonzero(half_lattice_mask(cutoff))
    hi.setflags(write=False)
    hj.setflags(write=False)
    return 2 * cutoff + 1, hi, hj


def coords_to_coeffs(coords: np.ndarray, cutoff: int) -> np.ndarray:
    """(..., (2N+1)^2) real coordinates -> (..., 2N+1, 2N+1) tables.

    Coordinates are [w(0)] + [sqrt(2) Re w(n)] + [sqrt(2) Im w(n)] over
    `real_coordinate_layout`'s half lattice, those in which the white-noise
    measure is standard Gaussian: `measure.sample_batch` maps its normal
    draws here, `verify.real_form_matrix` and `divergence_check` work in them.
    """
    d, hi, hj = real_coordinate_layout(cutoff)
    coords = np.asarray(coords, dtype=float)
    out = np.zeros(coords.shape[:-1] + (d, d), dtype=complex)
    out[..., cutoff, cutoff] = coords[..., 0]
    h = len(hi)
    vals = (coords[..., 1 : 1 + h] + 1j * coords[..., 1 + h :]) / np.sqrt(2.0)
    out[..., hi, hj] = vals
    out[..., (d - 1) - hi, (d - 1) - hj] = np.conj(vals)
    return out


def coeffs_to_coords(coeffs: np.ndarray, cutoff: int) -> np.ndarray:
    """(..., 2N+1, 2N+1) tables -> (..., (2N+1)^2) real coordinates; the
    inverse of `coords_to_coeffs`."""
    d, hi, hj = real_coordinate_layout(cutoff)
    vals = coeffs[..., hi, hj] * np.sqrt(2.0)
    zero = coeffs[..., cutoff, cutoff].real
    return np.concatenate([zero[..., None], vals.real, vals.imag], axis=-1)


def divergence_check(field: SpectralField, cutoff: int, h: float,
                     vector_field: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                     with_scale: bool = False):
    """Central finite-difference divergence of the drift in real coordinates.

    The coordinates, and the step `h`, are those of `coords_to_coeffs`, in
    which the white-noise measure is standard Gaussian; the trace does not
    depend on their scaling.  The drift is quadratic, so central differences
    are exact up to rounding and the estimate sits at the roundoff floor of
    the true value 0.  Pass a different `vector_field` (tables -> tables) to
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
