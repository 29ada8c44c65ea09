"""Workload configs for the enstrophy-lab benchmark, built from a seed.

Each workload is one `enstrophy-lab run` config.  The seed goes into the
config unchanged, so the same seed gives the same streams and the same
report bytes.  Sizes are chosen so that one round of a workload takes a
few seconds on a 2-CPU machine.
"""

from __future__ import annotations

DEFAULT_SEED = 20260801


def sampling(seed: int) -> dict:
    """Batteries without time stepping: sampler, pairing routes, quadrature."""
    return {"seed": seed, "tests": [
        {"name": "wick_mean", "params": {"N": 4, "M": 6000, "kernel": "drift",
                                         "phi": "cos_x1_plus_x2"}},
        {"name": "wick_variance", "params": {"N": 16, "M": 2000, "kernel": "exchange"}},
        {"name": "moment_bound", "params": {"N": 4, "M": 6000, "p": 2}},
        {"name": "moment_bound", "params": {"N": 4, "M": 6000, "p": 3}},
        {"name": "moment_bound", "params": {"N": 4, "M": 6000, "p": 4}},
        {"name": "exp_integrability", "params": {"M": 2000, "N_list": [4, 8, 16],
                                                 "eps_list": [0.1, 0.25, 0.4, 0.5],
                                                 "kernel": "exchange"}},
        {"name": "cauchy", "params": {"N_list": [2, 4, 8], "N_ref": 16, "M": 1500,
                                      "phi": "cos_x1_plus_x2"}},
        {"name": "dirichlet_kernel", "params": {"N_list": [2, 4], "G": 32,
                                                "phi": "cos_x1_plus_x2"}},
    ]}


def midpoint(seed: int) -> dict:
    """Implicit-midpoint pushforwards: dealiased drift FFTs and fixed-point sweeps."""
    # one step over three 256-member chunks: each chunk sweeps until its
    # slowest member converges, so more chunks make the work depend less on
    # the seed than more steps would
    return {"seed": seed, "tests": [
        {"name": "invariance", "params": {"N": 8, "M": 768, "T": 0.01, "dt": 0.01,
                                          "observables": ["cos_x1", "sin_x1_plus_x2"]}},
        # shift 80 moves the cos_x1 pairing by 0.57 sigma over T, so the
        # negative control rejects at p far below 1e-3 on every seed
        {"name": "invariance_negative", "params": {"N": 8, "M": 768, "T": 0.01, "dt": 0.01,
                                                   "observables": ["cos_x1"],
                                                   "shift_amp": 80.0}},
    ]}


def transport(seed: int) -> dict:
    """Weak-form transport through the explicit rk4 route."""
    return {"seed": seed, "tests": [
        {"name": "transport", "params": {"N": 6, "M": 256, "T": 0.06, "dt": 0.01,
                                         "integrator": "rk4", "tilt_phi": "cos_x1",
                                         "obs_phi": "cos_x1"}},
    ]}


WORKLOADS = {"sampling": sampling, "midpoint": midpoint, "transport": transport}

