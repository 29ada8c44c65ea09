"""The in-tree KS test against scipy.stats, bit for bit, branch by branch."""

import ast
import inspect
import linecache
import math
import sys

import numpy as np
import pytest
import scipy.stats

from enstrophy_lab import ks, verify
from enstrophy_lab.flow import FlowParams
from enstrophy_lab.measure import MeasureSpec
from enstrophy_lab.verify import invariance_test, named_test_field

NS = [2, 16, 50, 139, 140, 141, 500, 768, 2000, 10000]
# above n = 100,000 Pelz-Good takes over from Durbin/MTW, down to its own z cutoff
LARGE = [(10**6, 1.5e-6), (10**6, 1.2e-4)]


def _d_grid(n):
    """Statistics from below 1/(2n) to 1, in units of 1/n, 1/sqrt(n) and 1."""
    r = math.sqrt(n)
    grid = [0.4 / n, 0.5 / n, 0.8 / n, 1 / n, 1.5 / n,
            0.3 / r, 0.6 / r, 0.9 / r, 1.3 / r, 1.8 / r, 2.5 / r, 5 / r, 20 / r,
            0.3, 0.5, 0.7, 1 - 0.5 / n, 1.0, math.nan]
    # either side of the switches on n d^2 and n d^1.5
    grid += [math.sqrt(c / n) * f for c in (0.754693, 2.2, 4, 370) for f in (0.999, 1.001)]
    grid += [(1.4 / n) ** (2 / 3) * f for f in (0.999, 1.001)]
    return [d for d in grid if not d > 1]


def _return_lines():
    """Line numbers of the `return` statements of `ks.kolmogorov_sf`."""
    src, first = inspect.getsourcelines(ks.kolmogorov_sf)
    tree = ast.parse("".join(src))
    return {first + node.lineno - 1 for node in ast.walk(tree) if isinstance(node, ast.Return)}


def _sf_and_branch(n, d):
    """`kolmogorov_sf(n, d)` and the line of the `return` it took."""
    code, taken = ks.kolmogorov_sf.__code__, []

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "return":
            taken.append(frame.f_lineno)
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        p = ks.kolmogorov_sf(n, d)
    finally:
        sys.settrace(previous)
    return p, taken[-1]


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def test_sf_matches_kstwo_on_every_branch():
    taken = {}
    for n, d in [(n, d) for n in NS for d in _d_grid(n)] + LARGE:
        p, line = _sf_and_branch(n, d)
        expected = float(scipy.stats.kstwo.sf(d, n))
        assert _same(p, expected), (n, d, p, expected)
        taken.setdefault(line, []).append((n, d))
    missed = _return_lines() - set(taken)
    assert not missed, [linecache.getline(ks.__file__, i).strip() for i in sorted(missed)]


@pytest.mark.parametrize("n", [2, 16, 50, 140, 141, 768, 2000])
@pytest.mark.parametrize("extra", [[], [math.nan], [math.inf], [-math.inf], [math.inf, -math.inf],
                                   [1e300, -1e300]])
def test_ks_norm_matches_kstest(n, extra):
    rng = np.random.default_rng(n)
    for sigma, shift in [(1.0, 0.0), (0.7, 0.1), (2.5, -0.4), (1.3, 1.5)]:
        sample = np.concatenate([rng.normal(shift, sigma, n - len(extra)), extra])
        rng.shuffle(sample)
        stat, pval = ks.ks_norm(sample, sigma)
        ref = scipy.stats.kstest(sample, "norm", args=(0.0, sigma))
        assert _same(stat, float(ref.statistic)) and _same(pval, float(ref.pvalue)), \
            (sigma, shift, stat, pval, ref)
        assert math.isnan(pval) == bool(extra and math.isnan(extra[0]))


@pytest.mark.parametrize("cutoff,count", [(4, 50), (8, 768)])
def test_invariance_report_matches_kstest(monkeypatch, cutoff, count):
    # M = 768 at N = 8, one step of 0.01: the `midpoint` benchmark workload
    seen = []

    def recording(after, sigma):
        seen.append((after.copy(), sigma))
        return ks.ks_norm(after, sigma)

    monkeypatch.setattr(verify, "ks_norm", recording)
    spec = MeasureSpec(cutoff=cutoff, seed=20260801)
    flow = FlowParams(cutoff=cutoff, dt=0.01, t_end=0.01)
    obs = [named_test_field("cos_x1"), named_test_field("sin_x1_plus_x2")]
    reports = [invariance_test(spec, flow, obs, count),
               invariance_test(spec, flow, obs[:1], count, drift_shift=(obs[0], 80.0),
                               expect_fail=True)]
    rows = [r for rep in reports for r in rep.table if not math.isnan(r["p_value"])]
    assert len(rows) == len(seen) == 3
    for row, (after, sigma) in zip(rows, seen):
        ref = scipy.stats.kstest(after, "norm", args=(0.0, sigma))
        assert (row["ks_stat"], row["p_value"]) == (float(ref.statistic), float(ref.pvalue))
