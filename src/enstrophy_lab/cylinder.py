"""Cylinder test functionals F(t, w) = f(<w,phi_1>,...,<w,phi_k>) g(t).

The spatial dependence enters only through finitely many pairings, so the
chain rule along a trajectory needs the outer gradient of f and the drift
pairings against the phi_j.  The time factor must vanish at the horizon,
which turns the weak-form time integral into a telescoping test.  The weak
form is linear in F, so a sum of products is tested one product at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import SpectralField

ArrayFn = Callable[[np.ndarray], np.ndarray]
TimeFn = Callable[[float], float]


@dataclass(frozen=True)
class CylinderFunctional:
    """F(t, w) = f(<w,phi_1>,...,<w,phi_k>) g(t); `phis` is stored as a tuple."""

    f: ArrayFn          # (B, k) pairing values -> (B,)
    grad_f: ArrayFn     # (B, k) -> (B, k)
    g: TimeFn
    dg: TimeFn
    phis: tuple[SpectralField, ...]
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "phis", tuple(self.phis))
        gT = self.g(self.horizon)
        scale = max(1.0, abs(self.g(0.0)))
        if abs(gT) > 1e-12 * scale:
            raise ValueError(f"time factor must vanish at the horizon, got g(T)={gT}")

    @classmethod
    def time_only(cls, g: TimeFn, dg: TimeFn, horizon: float) -> "CylinderFunctional":
        """F depending on time alone (empty pairing vector)."""
        one = lambda v: np.ones(v.shape[0])
        zero = lambda v: np.zeros_like(v)
        return cls(one, zero, g, dg, (), horizon)

    @property
    def n_pairings(self) -> int:
        return len(self.phis)

    def value(self, t: float, pairings: np.ndarray) -> np.ndarray:
        """F(t, .) from pairing values, shape (B, k) -> (B,)."""
        return self.f(pairings) * self.g(t)

    def dt_value(self, t: float, pairings: np.ndarray) -> np.ndarray:
        return self.f(pairings) * self.dg(t)

    def pairing_gradient(self, t: float, pairings: np.ndarray) -> np.ndarray:
        """dF/d<w,phi_j> as (B, k); contracts against drift pairings."""
        return self.grad_f(pairings) * self.g(t)

    def empirical_bounds(self, pairings: np.ndarray) -> dict[str, float]:
        """Observed sup of |f| and |grad f| over a sample of pairing values."""
        sup_g = float(np.abs(self.grad_f(pairings)).max()) if self.n_pairings else 0.0
        return {"sup_f": float(np.abs(self.f(pairings)).max()), "sup_grad_f": sup_g}


def ramp_down(horizon: float) -> tuple[TimeFn, TimeFn]:
    """g(t) = (T - t)/T with its derivative; vanishes at the horizon."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    return (lambda t: (horizon - t) / horizon), (lambda t: -1.0 / horizon)


def bounded_window() -> tuple[ArrayFn, ArrayFn]:
    """f(v) = tanh(v) on the first pairing: bounded with bounded gradient."""

    def f(v: np.ndarray) -> np.ndarray:
        return np.tanh(v[:, 0])

    def grad(v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        out[:, 0] = (1.0 / np.cosh(v[:, 0])) ** 2
        return out

    return f, grad
