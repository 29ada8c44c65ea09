"""Sampling the projected white-noise measure and transporting densities.

Coefficient samples are unit complex Gaussians on the canonical half
lattice (plus a real standard normal zero mode), which realizes the
covariance  E <w,phi><w,psi> = <phi,psi>_{H^0}  on the cutoff lattice.
Streams are counter based: sample `index` under seed `s` is generated by a
Philox generator keyed by (s, index), so ensembles are reproducible and
order independent.  The key is derived exactly as
``SeedSequence(entropy=s, spawn_key=(index,))`` derives it, vectorised over
a batch of indices, so every stream is the one that numpy's own seeding
gives.

Densities ride along trajectories as importance weights.  Pushing an
ensemble forward moves the member fields with the flow and leaves weights
untouched: the weight of a member is exactly the transported density at
the member's current position, entropy sums of the weights are therefore
invariant by construction, and the falsifiable content of transport lives
in the distribution tests of the verification batteries.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import SpectralDrift
from .fields import SpectralField, half_lattice_mask, project, real_part, sobolev_norm
from .flow import FlowParams, StepFailure, _resolve_drift, _run_padded


@dataclass(frozen=True)
class MeasureSpec:
    """Projected white-noise measure at a cutoff; seed keys all streams."""

    cutoff: int
    include_zero_mode: bool = True
    seed: int = 0


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) restated on
# uint32 words; the same code runs on Python ints and on uint32 arrays.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# Rows drawn and assembled per block; small blocks keep the temporaries
# (draws, values, conjugates) a few MB even at N=32.
_CHUNK_ROWS = 64


def _hashmix(value, const: int, mult: int = _MULT_A):
    nxt = (const * mult) & _MASK32
    value = ((value ^ const) * nxt) & _MASK32
    return value ^ (value >> 16), nxt


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ (r >> 16)


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of n, as SeedSequence splits an int."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    return [(n >> shift) & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _philox_keys(seed: int, indices: Sequence[int]) -> np.ndarray:
    """(M, 2) uint64 Philox keys, bit for bit those of
    ``SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(2, np.uint64)``.

    The seed words, zero-padded to the pool size as SeedSequence pads them
    ahead of a spawn key, give a pool that is the same for every index; only
    the rounds of the index words and the output hash run per index.
    """
    words = _uint32_words(operator.index(seed))
    words += [0] * (_POOL_SIZE - len(words))
    seed_pool = np.random.SeedSequence(words).pool.tolist()
    # mixing L seed words into the pool takes 4L hashmix steps, each one
    # multiplying the hash constant by _MULT_A
    const = (_INIT_A * pow(_MULT_A, _POOL_SIZE * len(words), 1 << 32)) & _MASK32

    ids = [operator.index(i) for i in indices]
    if not ids:
        return np.zeros((0, 2), dtype=np.uint64)
    if min(ids) < 0:
        raise ValueError("expected non-negative integer")
    top = max(ids)
    ids = np.array(ids, dtype=np.uint64 if top < 2**64 else object)
    pool = [np.full(len(ids), p, dtype=np.uint32) for p in seed_pool]
    for shift in range(0, max(top.bit_length(), 1), 32):
        shifted = ids >> shift
        word = (shifted & _MASK32).astype(np.uint32)
        mixed = []
        for old in pool:
            h, const = _hashmix(word, const)
            mixed.append(_mix(old, h))
        # Every index has word 0; a later word only while the index reaches it.
        pool = mixed if shift == 0 else [np.where(shifted > 0, new, old)
                                         for new, old in zip(mixed, pool)]

    const = _INIT_B
    state = []
    for value in pool:
        value, const = _hashmix(value, const, _MULT_B)
        state.append(value.astype(np.uint64))
    return np.stack([state[0] | (state[1] << 32), state[2] | (state[3] << 32)], axis=-1)


@functools.lru_cache(maxsize=None)
def _half_layout(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of the canonical half lattice and of their mirrors -n."""
    d = 2 * cutoff + 1
    flat = np.flatnonzero(half_lattice_mask(cutoff))
    mirror = (d * d - 1) - flat
    flat.setflags(write=False)
    mirror.setflags(write=False)
    return flat, mirror


def sample_batch(spec: MeasureSpec, indices: Sequence[int]) -> np.ndarray:
    """Stacked coefficient tables; row i is a pure function of (spec, indices[i]).

    Each row is one draw of ``1 + 2h`` standard normals from its own Philox
    stream (zero mode, then the real and the imaginary parts of the h
    half-lattice modes); one generator is re-keyed per row.
    """
    d = 2 * spec.cutoff + 1
    flat, mirror = _half_layout(spec.cutoff)
    h = len(flat)
    keys = _philox_keys(spec.seed, indices)
    m = len(keys)
    out = np.zeros((m, d * d), dtype=complex)
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    # A fresh Philox(key=k): counter 0 and an empty output buffer.
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    draws = np.empty((min(m, _CHUNK_ROWS), 1 + 2 * h))
    for start in range(0, m, _CHUNK_ROWS):
        rows = draws[: min(_CHUNK_ROWS, m - start)]
        for row, key in zip(rows, keys[start : start + len(rows)].tolist()):
            state["state"]["key"] = key
            bitgen.state = state
            gen.standard_normal(out=row)
        block = out[start : start + len(rows)]
        vals = (rows[:, 1 : 1 + h] + 1j * rows[:, 1 + h :]) / np.sqrt(2.0)
        block[:, flat] = vals
        block[:, mirror] = np.conj(vals)
        if spec.include_zero_mode:
            block[:, (d * d) // 2] = rows[:, 0]
    return out.reshape(m, d, d)


def sample_coeffs(spec: MeasureSpec, index: int) -> np.ndarray:
    """Coefficient table of sample `index`; pure function of (spec, index)."""
    return sample_batch(spec, [index])[0]


def sample_white_noise(spec: MeasureSpec, index: int) -> SpectralField:
    """One sample of the cutoff white-noise field."""
    return SpectralField(spec.cutoff, sample_coeffs(spec, index))


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error std(ddof=1)/sqrt(m); 0 for one value."""
    m = len(values)
    se = float(np.std(values, ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    return float(np.mean(values)), se


def pairings_batch(coeffs: np.ndarray, cutoff: int, phis: Sequence[SpectralField]) -> np.ndarray:
    """<w_i, phi_j> for stacked tables: (B, ...) -> (B, k)."""
    if not phis:
        return np.zeros(coeffs.shape[:-2] + (0,))
    out = np.empty(coeffs.shape[:-2] + (len(phis),))
    for j, phi in enumerate(phis):
        m = min(cutoff, phi.cutoff)
        w = coeffs[..., cutoff - m : cutoff + m + 1, cutoff - m : cutoff + m + 1]
        p = phi.coeffs[phi.cutoff - m : phi.cutoff + m + 1, phi.cutoff - m : phi.cutoff + m + 1]
        out[..., j] = real_part(np.sum(w * np.conj(p), axis=(-2, -1)), f"pairing against phi[{j}]")
    return out


class DensitySpec:
    """Nonnegative density with respect to the cutoff white-noise measure."""

    def values(self, coeffs: np.ndarray, cutoff: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class UniformDensity(DensitySpec):
    def values(self, coeffs: np.ndarray, cutoff: int) -> np.ndarray:
        return np.ones(coeffs.shape[:-2])


@dataclass(frozen=True)
class GaussianTilt(DensitySpec):
    """exp(<w,phi> - ||phi||^2/2): unit mean by the Gaussian mgf identity."""

    phi: SpectralField

    def values(self, coeffs: np.ndarray, cutoff: int) -> np.ndarray:
        v = pairings_batch(coeffs, cutoff, [self.phi])[..., 0]
        return np.exp(v - 0.5 * sobolev_norm(self.phi, 0.0) ** 2)


@dataclass(frozen=True)
class TruncatedDensity(DensitySpec):
    """min(base, bound)/Z with Z estimated once by Monte Carlo and cached."""

    base: DensitySpec
    bound: float
    norm_const: Optional[float] = None
    norm_std_error: Optional[float] = None

    def raw_values(self, coeffs: np.ndarray, cutoff: int) -> np.ndarray:
        return np.minimum(self.base.values(coeffs, cutoff), self.bound)

    def values(self, coeffs: np.ndarray, cutoff: int) -> np.ndarray:
        if self.norm_const is None:
            raise ValueError("truncated density used before estimating its normalization")
        return self.raw_values(coeffs, cutoff) / self.norm_const

    def with_normalization(self, spec: MeasureSpec, n_samples: int,
                           seed_offset: int = 1) -> "TruncatedDensity":
        """Estimate Z = E min(base, bound) on a dedicated stream family."""
        est_spec = replace(spec, seed=spec.seed + seed_offset)
        z, se = _mean_se(self.raw_values(sample_batch(est_spec, range(n_samples)), spec.cutoff))
        return TruncatedDensity(self.base, self.bound, norm_const=z, norm_std_error=se)


def density_value(density: DensitySpec, field: SpectralField) -> float:
    """Density at a single field."""
    return float(density.values(field.coeffs[None, ...], field.cutoff)[0])


@dataclass(frozen=True)
class Ensemble:
    """Weighted samples representing density * measure at a common time."""

    spec: MeasureSpec
    coeffs: np.ndarray        # (M, 2N+1, 2N+1)
    weights: np.ndarray       # (M,)
    stream_ids: np.ndarray    # (M,)
    t: float = 0.0

    def __post_init__(self):
        if len(self.weights) != self.coeffs.shape[0] or len(self.stream_ids) != self.coeffs.shape[0]:
            raise ValueError("ensemble member arrays disagree in length")
        if self.coeffs.shape[0] < 1:
            raise ValueError("ensemble needs at least one member")
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights < 0):
            raise ValueError("weights must be finite and nonnegative")
        for arr in (self.coeffs, self.weights, self.stream_ids):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.coeffs.shape[0]

    def pairings(self, phis: Sequence[SpectralField]) -> np.ndarray:
        return pairings_batch(self.coeffs, self.spec.cutoff, phis)

    def weighted_mean(self, values: np.ndarray) -> tuple[float, float]:
        """Estimate integral of F against density*measure, with standard error."""
        return _mean_se(self.weights * np.asarray(values))

    def entropy(self) -> tuple[float, float]:
        """Estimate of integral of rho log rho (mean of w log w with SE)."""
        w = self.weights
        return _mean_se(np.where(w > 0, w * np.log(np.where(w > 0, w, 1.0)), 0.0))


def init_ensemble(spec: MeasureSpec, density: DensitySpec, count: int,
                  start_index: int = 0) -> Ensemble:
    """Draw `count` members and weight them by the initial density.

    The weighted mean of F over the ensemble estimates the integral of F
    against density * measure.
    """
    if count < 1:
        raise ValueError("ensemble needs at least one member")
    ids = np.arange(start_index, start_index + count)
    coeffs = sample_batch(spec, ids)
    weights = density.values(coeffs, spec.cutoff)
    return Ensemble(spec=spec, coeffs=coeffs, weights=np.asarray(weights, dtype=float),
                    stream_ids=ids, t=0.0)


class PushforwardError(Exception):
    """Integration failed for some members; their stream ids are attached."""

    def __init__(self, message: str, failed_members: list[int]):
        super().__init__(message)
        self.failed_members = failed_members


def _move(ensemble: Ensemble, params: FlowParams, drv: SpectralDrift, chunk_size: int,
          observer: Optional[Callable] = None) -> Ensemble:
    """The ensemble moved over [t, t + t_end] in chunks of `chunk_size` members.

    Each chunk runs through `flow._run_padded`, observed by
    observer(sl, k, state, k1) with its member slice sl when one is given.
    """
    if params.cutoff != ensemble.spec.cutoff:
        raise ValueError("flow cutoff does not match ensemble cutoff")
    coeffs = np.array(ensemble.coeffs)
    m = coeffs.shape[0]
    for start in range(0, m, chunk_size):
        sl = slice(start, min(start + chunk_size, m))
        observe = functools.partial(observer, sl) if observer is not None else None
        try:
            coeffs[sl] = _run_padded(coeffs[sl], params, drv, params.n_steps, observe)
        except StepFailure as exc:
            mask = exc.member_mask
            failed = np.nonzero(mask)[0] if mask is not None else []
            ids = [int(ensemble.stream_ids[start + int(i)]) for i in failed]
            raise PushforwardError(f"{exc} (members {ids})", ids) from exc
    return Ensemble(
        spec=ensemble.spec,
        coeffs=coeffs,
        weights=ensemble.weights,
        stream_ids=ensemble.stream_ids,
        t=ensemble.t + params.t_end,
    )


def pushforward(ensemble: Ensemble, params: FlowParams,
                drift_fn: Optional[SpectralDrift] = None,
                chunk_size: int = 256) -> Ensemble:
    """Move member fields with the flow over [t, t + t_end]; weights unchanged.

    Weights transported along trajectories are exactly the time-t density at
    the member's current position, so they are reused bitwise.  The drift
    is `drift_fn` (the Euler drift when None), a `SpectralDrift` at the
    flow's cutoff.  Members are stepped by `flow._run_padded` in chunks of
    `chunk_size`, four drift evaluations per rk4 step; a failed step raises
    `PushforwardError` naming its members.  rk4 results do not depend on the
    partition; implicit midpoint results do, in the last bits (about 1e-12),
    because the tolerance scales with the chunk's largest norm and the
    sweeps run until the chunk's slowest member converges.
    """
    return _move(ensemble, params, _resolve_drift(drift_fn, params.cutoff), chunk_size)


@dataclass(frozen=True)
class WeakFormResult:
    residual: float
    std_error: float
    n_samples: int
    dt: float
    bounds: dict
    moved: Optional[Ensemble] = None  # the ensemble at the horizon


def weak_form_residual(ensemble: Ensemble, functional, params: FlowParams,
                       drift_fn: Optional[SpectralDrift] = None,
                       chunk_size: int = 256) -> WeakFormResult:
    """Monte Carlo plus trapezoidal estimate of the transport-equation defect.

    Computes the time integral of (d_t F + <b_N(w), DF>) against the
    transported density plus the initial term, which telescopes to zero
    along exact trajectories because the time factors vanish at the
    horizon.  Test fields of the functional must live inside the cutoff
    lattice; the time quadrature contributes an O(dt^2) bias on top of the
    Monte Carlo error.

    The members move as in `pushforward` (same drift argument, chunks and
    errors) and the result carries them, bitwise `pushforward`'s.  The
    integrand accumulates through an observer of `flow._run_padded`: the
    drift b_N(w_k) of the pairing term is the step's k1, so an rk4 step
    costs four drift evaluations and only the horizon adds one.
    """
    n = params.cutoff
    drv = _resolve_drift(drift_fn, n)
    if abs(functional.horizon - params.t_end) > 1e-12 * max(1.0, params.t_end):
        raise ValueError("functional horizon differs from integration horizon")
    for j, phi in enumerate(functional.phis):
        if sobolev_norm_diff(phi, n) > 1e-12 * max(1.0, sobolev_norm(phi, 0.0)):
            raise ValueError(f"test field {j} is not supported inside the cutoff lattice")
    totals = np.zeros(len(ensemble))
    steps = params.n_steps
    pair_all0 = pairings_batch(ensemble.coeffs, n, functional.phis)
    bounds = functional.empirical_bounds(pair_all0)

    def observe(sl, k, state, k1):
        t = k * params.dt
        pair = pair_all0[sl] if k == 0 else pairings_batch(drv.unpad(state), n, functional.phis)
        integrand = functional.dt_value(t, pair)
        if functional.n_pairings:
            drift_pairs = pairings_batch(drv.unpad(k1), n, functional.phis)
            integrand = integrand + np.sum(functional.pairing_gradient(t, pair) * drift_pairs, axis=-1)
        totals[sl] += params.dt * (0.5 if k in (0, steps) else 1.0) * integrand
        if k == steps:
            totals[sl] += functional.value(0.0, pair_all0[sl])

    moved = _move(ensemble, params, drv, chunk_size, observe)
    residual, se = _mean_se(ensemble.weights * totals)
    return WeakFormResult(residual=residual, std_error=se, n_samples=len(ensemble), dt=params.dt,
                          bounds=bounds, moved=moved)


def sobolev_norm_diff(phi: SpectralField, cutoff: int) -> float:
    """H^0 distance between phi and its projection to the cutoff lattice."""
    proj = project(phi, cutoff)
    back = project(proj, phi.cutoff)
    return float(np.sqrt(np.sum(np.abs(phi.coeffs - back.coeffs) ** 2)))
