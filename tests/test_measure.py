"""White-noise sampler, densities, ensembles, transport, weak-form residual."""

import concurrent.futures
import hashlib
import os
import sys
import threading

import numpy as np
import pytest
import scipy.stats

from enstrophy_lab.cylinder import CylinderFunctional, bounded_window, ramp_down
from enstrophy_lab.dynamics import SpectralDrift
from enstrophy_lab.fields import SpectralField, sobolev_norm
from enstrophy_lab import flow, measure
from enstrophy_lab.flow import FlowParams, StepFailure, _run_padded, evolve
from enstrophy_lab.measure import (
    Ensemble,
    GaussianTilt,
    MeasureSpec,
    PushforwardError,
    UniformDensity,
    init_ensemble,
    pushforward,
    sample_batch,
    weak_form_residual,
    _philox_keys,
)

SPEC = MeasureSpec(cutoff=4, seed=123)
PHI = SpectralField.from_modes(1, {(1, 0): 0.5})  # cos(2 pi x1), norm^2 = 1/2


@pytest.fixture
def chunk32(monkeypatch):
    """Step ensembles in chunks of at most 32 members (128 otherwise)."""
    monkeypatch.setattr(measure, "_CHUNK_MEMBERS", 32)


class TestSampler:
    def test_pure_function_of_spec_and_index(self):
        a = sample_batch(SPEC, [11])[0]
        b = sample_batch(SPEC, [11])[0]
        assert np.array_equal(a, b)
        batch = sample_batch(SPEC, [3, 11, 7])
        assert np.array_equal(batch[1], a)  # order independent

    def test_fields_satisfy_reality(self):
        # the raw rows, not a SpectralField, whose constructor would
        # canonicalise away a sampler asymmetry
        for row in sample_batch(SPEC, range(5)):
            assert np.array_equal(row, np.conj(row[::-1, ::-1]))
            assert row[4, 4].imag == 0.0

    def test_seed_changes_samples(self):
        other = MeasureSpec(cutoff=4, seed=124)
        assert not np.array_equal(sample_batch(SPEC, [0])[0], sample_batch(other, [0])[0])

    def test_covariance_identity(self):
        batch = sample_batch(SPEC, range(20000))
        # direct pairing against cos(2 pi x1): modes (1,0) and (-1,0)
        v = (batch[:, 5, 4] * 0.5 + batch[:, 3, 4] * 0.5).real
        se_mean = v.std(ddof=1) / np.sqrt(len(v))
        assert abs(v.mean()) <= 3 * se_mean
        var = v.var(ddof=1)
        se_var = np.sqrt((np.mean((v - v.mean()) ** 4) - var ** 2) / len(v))
        assert abs(var - 0.5) <= 3 * se_var

    def test_coordinates_standard_gaussian(self):
        # every mean and covariance entry of the 25 coordinates at N=2; the
        # band per entry makes the family-wise level that of one 3-SE band
        m, dim = 20000, 25
        x = flow.coeffs_to_coords(sample_batch(MeasureSpec(cutoff=2, seed=SPEC.seed), range(m)), 2)
        band = scipy.stats.norm.isf(scipy.stats.norm.sf(3.0) / (dim + dim * (dim + 1) // 2))
        assert np.all(np.abs(x.mean(axis=0)) <= band * x.std(axis=0, ddof=1) / np.sqrt(m))
        cov = x.T @ x / m
        se = np.sqrt(((x * x).T @ (x * x) / m - cov ** 2) / (m - 1))
        assert np.all(np.abs(cov - np.eye(dim)) <= band * se)

    def test_rows_are_raw_draws_in_real_coordinates(self):
        # across a block boundary and for an index of two 32-bit words
        indices = list(range(150)) + [2**32 + 1]
        raw = np.stack([
            np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=SPEC.seed, spawn_key=(i,)))).standard_normal(81)
            for i in indices])
        assert np.array_equal(sample_batch(SPEC, indices), flow.coords_to_coeffs(raw, SPEC.cutoff))

    def test_expected_squared_norm(self):
        batch = sample_batch(SPEC, range(20000))
        sq = np.sum(np.abs(batch) ** 2, axis=(1, 2))
        se = sq.std(ddof=1) / np.sqrt(len(sq))
        assert abs(sq.mean() - 81.0) <= 3 * se

    def test_distinct_modes_uncorrelated(self):
        batch = sample_batch(SPEC, range(20000))
        a = batch[:, 5, 4]          # mode (1, 0)
        b = np.conj(batch[:, 5, 5])  # mode (1, 1)
        prod = (a * b).real
        se = prod.std(ddof=1) / np.sqrt(len(prod))
        assert abs(prod.mean()) <= 3 * se


# sha256 of sample_batch(...).tobytes() for GOLDEN_INDICES, keyed by
# (seed, cutoff, with_zero_mode).  Recorded from the original per-sample
# sampler, Generator(Philox(SeedSequence(entropy=seed, spawn_key=(index,))))
# .standard_normal(1 + 2h) per index, so any change to a stream, to the
# layout or to the block assembly shows here.  A False key hashes the
# batch with its (0, 0) entry cleared: it pins the nonzero modes alone, so
# a fault confined to the zero mode fails only the True digest.
GOLDEN_INDICES = [7, 3, 0, 2**32 + 1] + list(range(100, 170))
GOLDEN_DIGESTS = {
    (0, 1, True): "07a435936b81d8f931898b8033df8c486dbf56567424656ff00d6848facce245",
    (0, 1, False): "bd301c5cc4a867473200a0ba34b5783f6d7374acabb58610c30de43b960360c6",
    (0, 4, True): "3d6ef408fcfea16d2d935890109e93d6e07175f84e05568c1d0aa55e11bfa45d",
    (0, 4, False): "e97aa0b3365c71cb8ab1822494b3d55c1f1fc809501910f2ac1e0fdfe6548c53",
    (0, 16, True): "069bada84b7f58194b45e4ef980b543a432856c23cbc4b9c6249b105d42458e1",
    (0, 16, False): "711638bde77a9781526ae08a8e170dcdc768cd9a8ec07f71d7f1eeaf563d9caa",
    (0, 32, True): "0442c4cdeac6a5a32e55757d3516cb1a12b9ffeb0563b27dd7d5687b415a89d2",
    (0, 32, False): "60dd19db017deb5e9cd5347d0ab57a86e11f7cc01015d2ce59834389bd07899d",
    (123, 1, True): "ca9ceec831681459a9e0771611a5636f4f8ea69edea61be28a1b0c4219cdd923",
    (123, 1, False): "0116d3d89d255d8e1bfac7cdb5106eb8679df327370d2fd3c61b51ee62215957",
    (123, 4, True): "26a2caed08d5ac3596cafa83c2f6b0076e5cdeade87875d40f49615817cc4d52",
    (123, 4, False): "2259fabea415fadbf6191fcbecca0668bec804ef4b31a5e62e7e4e8f576498c1",
    (123, 16, True): "74ad885aab493bd886504603969fdf7016526b6fcfa14745af548382f84b5b62",
    (123, 16, False): "0c9e1cb09a25c092ccb60d6b248da9483cbab3416b700d2bd969f852d16eee33",
    (123, 32, True): "57d1378eb609e0e272ed052d01f6bddf1253d2462da50bc6894c078916d9085a",
    (123, 32, False): "65306e80688e93ffefbdf8d6067c209f837da5c305b7c19ec180bb858e1b49ea",
    (20260801, 1, True): "ad2d695a60b49d0323c9849b5aafb1f751d262430863f1553460a67942f19c6a",
    (20260801, 1, False): "fe2672c037c1db6bc50974856e5e29be9d19b8c9103fb346024854c7166cb952",
    (20260801, 4, True): "cb0f198e237601377dd824373454f41fad45b4d935d2baff4dcac54e4c9eaefa",
    (20260801, 4, False): "263b89233a68032abb8c2e00e58dc6f70df83513a37c4102286dbd1a8a4ca6b6",
    (20260801, 16, True): "ab11a770d2b637f546a1ca72f4698236645c41e034e262efd9a40f07a4141faf",
    (20260801, 16, False): "ae3db2c016eed5d9969bfd2f1af7d84f8c3bdafae9add0b43033fb3e07314c9e",
    (20260801, 32, True): "38efb641e87f95dcaa9e35419a86bf54d65d780da1d016a23c5f600fd750fab1",
    (20260801, 32, False): "475d9d6c965257d55851bf51a3aa8ca6420c0715c050a9abe0b339f9f1fb2e1f",
    (2**64 + 5, 1, True): "9c449b8db4a3c95e9acb3d06a8f3a16527afb48cbf7719523985d3453371b0c0",
    (2**64 + 5, 1, False): "4027a5088335a3c6ccd50485f04b2b2693cbc0d924ad745825e1bc049c8a9aa9",
    (2**64 + 5, 4, True): "a7b325d596e42ae1cba97e7ba94afe978167800cff394e2fb7112fe4de27ed09",
    (2**64 + 5, 4, False): "aca7faa2fd72afb0f8adb09697e33204a8d2bdcc1bd6f1e89bb2ea56d2d60b68",
    (2**64 + 5, 16, True): "f1859fd567eade11a2783b3f1349a45a154d1b9e2c8fb5711038d3bdcf22ac44",
    (2**64 + 5, 16, False): "3e0d79167cd178d23196182202f4c78cb0a3b6d6c17dfbfee7bbc954c8c4dabb",
    (2**64 + 5, 32, True): "f5ba2dac1a76eaf2052f547bc1c2354f21839d1f380ec44a0f0268b0747a97f5",
    (2**64 + 5, 32, False): "9b080e50d5fb681c27440a60e857c22db5eac96d6d1ce94320fc1594a14d491f",
}


def _reference_key(seed: int, index: int) -> np.ndarray:
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(2, np.uint64)


class TestSamplerBytes:
    @pytest.mark.parametrize("seed,cutoff,with_zero_mode", list(GOLDEN_DIGESTS))
    def test_golden_bytes(self, seed, cutoff, with_zero_mode):
        spec = MeasureSpec(cutoff=cutoff, seed=seed)
        batch = sample_batch(spec, GOLDEN_INDICES)
        assert batch.shape == (len(GOLDEN_INDICES), 2 * cutoff + 1, 2 * cutoff + 1)
        if not with_zero_mode:
            batch[:, cutoff, cutoff] = 0
        digest = hashlib.sha256(batch.tobytes()).hexdigest()
        assert digest == GOLDEN_DIGESTS[(seed, cutoff, with_zero_mode)]

    @pytest.mark.parametrize("seed", [0, 123, 20260801, 2**64 + 5, 2**200 + 3])
    def test_keys_match_seed_sequence(self, seed):
        # dense low indices, then indices of two and three 32-bit words
        indices = list(range(4990)) + [2**32 - 1, 2**32, 2**32 + 1, 2**40 + 9, 2**63,
                                       2**64 - 1, 2**64, 2**64 + 3, 2**100]
        expected = np.array([_reference_key(seed, i) for i in indices])
        assert np.array_equal(_philox_keys(seed, indices), expected)
        assert np.array_equal(_philox_keys(seed, np.arange(4990)), expected[:4990])

    @pytest.mark.parametrize("seed,index", [(-3, 0), (0, -1)])
    def test_negative_seed_or_index_raises_like_seed_sequence(self, seed, index):
        with pytest.raises(ValueError, match="expected non-negative integer") as ours:
            _philox_keys(seed, [index])
        with pytest.raises(ValueError) as ref:
            _reference_key(seed, index)
        assert str(ours.value) == str(ref.value)

    def test_empty_and_single_index(self):
        assert sample_batch(SPEC, []).shape == (0, 9, 9)
        assert np.array_equal(sample_batch(SPEC, [2**32 + 1])[0],
                              sample_batch(SPEC, GOLDEN_INDICES)[3])

    def test_threads_share_layout_cache(self):
        # more threads than cores, frequent switches, a cold cache: every
        # thread must see the serial bytes
        specs = [MeasureSpec(cutoff=n, seed=5) for n in range(1, 7)]
        serial = [sample_batch(spec, range(40)) for spec in specs]
        flow.real_coordinate_layout.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(sample_batch, spec, range(40)) for spec in specs * 4]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for i, batch in enumerate(results):
            assert np.array_equal(batch, serial[i % len(specs)])

    def test_layout_read_only_and_tables_writable(self):
        d, hi, hj = flow.real_coordinate_layout(SPEC.cutoff)
        assert not hi.flags.writeable and not hj.flags.writeable
        assert d == 9 and len(hi) == len(hj) == (9 * 9 - 1) // 2
        # the returned tables are fresh and writable
        batch = sample_batch(SPEC, [0, 1])
        batch[0, 0, 0] = 1.0


class TestDensities:
    def test_trivial_tilt_is_uniform(self):
        zero = SpectralField.zeros(1)
        d = GaussianTilt(zero)
        assert d.values(sample_batch(SPEC, [0]), SPEC.cutoff)[0] == 1.0
        e = init_ensemble(SPEC, d, 64)
        ent, _ = e.entropy()
        assert ent == 0.0

    def test_tilt_unit_mean_and_entropy(self):
        e = init_ensemble(SPEC, GaussianTilt(PHI), 20000)
        mean, se = e.weighted_mean(np.ones(len(e)))
        assert abs(mean - 1.0) <= 3 * se
        ent, ent_se = e.entropy()
        assert abs(ent - 0.25) <= 3 * ent_se

    def test_tilt_shifts_the_mean(self):
        e = init_ensemble(SPEC, GaussianTilt(PHI), 20000)
        est, se = e.weighted_mean(e.pairings([PHI])[:, 0])
        assert abs(est - 0.5) <= 3 * se

    def test_uniform_weights_are_one(self):
        e = init_ensemble(SPEC, UniformDensity(), 32)
        assert np.all(e.weights == 1.0)


class TestEnsembleTransport:
    def test_fixed_point_members_unchanged(self):
        shear = SpectralField.from_modes(4, {(1, 0): 0.5}).coeffs
        ens = Ensemble(spec=SPEC, coeffs=np.stack([shear, 2 * shear]),
                       weights=np.ones(2), stream_ids=np.arange(2))
        out = pushforward(ens, FlowParams(cutoff=4, dt=1e-2, t_end=0.2))
        assert np.abs(out.coeffs - ens.coeffs).max() <= 1e-12
        assert out.t == 0.2

    def test_weights_ride_bitwise(self):
        e = init_ensemble(SPEC, GaussianTilt(PHI), 64)
        out = pushforward(e, FlowParams(cutoff=4, dt=1e-2, t_end=0.1))
        assert np.array_equal(out.weights, e.weights)
        assert out.entropy() == e.entropy()

    def test_two_route_consistency(self):
        # carrying weights forward and pulling the density back both
        # estimate the same transported integral
        count = 1500
        density = GaussianTilt(PHI)
        params = FlowParams(cutoff=4, dt=1e-2, t_end=0.25, integrator="rk4")
        e = init_ensemble(SPEC, density, count)
        moved = pushforward(e, params)
        obs = np.tanh(moved.pairings([PHI])[:, 0])
        r1, se1 = moved.weighted_mean(obs)
        fresh = init_ensemble(MeasureSpec(cutoff=4, seed=999), UniformDensity(), count)
        back = pushforward(fresh, params, drift_fn=SpectralDrift(4, sign=-1.0))
        vals = density.values(back.coeffs, 4) * np.tanh(fresh.pairings([PHI])[:, 0])
        r2, se2 = float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(count))
        assert abs(r1 - r2) <= 3 * np.hypot(se1, se2)

    @pytest.mark.parametrize("integrator", ["rk4", "implicit_midpoint"])
    def test_chunk_partition_keeps_bytes(self, integrator, monkeypatch):
        e = init_ensemble(MeasureSpec(cutoff=8, seed=123), UniformDensity(), 128)
        p = FlowParams(cutoff=8, dt=1e-2, t_end=2e-2, integrator=integrator)
        whole = pushforward(e, p)
        monkeypatch.setattr(measure, "_CHUNK_MEMBERS", 32)
        small = pushforward(e, p)
        assert np.array_equal(small.coeffs, whole.coeffs)

    @pytest.mark.parametrize("integrator", ["rk4", "implicit_midpoint"])
    def test_members_move_as_if_alone(self, integrator):
        # each member's bytes are those of integrating it by itself: the
        # midpoint iteration stops member by member, not chunk by chunk;
        # also backward in time, under the drift of sign -1
        e = init_ensemble(MeasureSpec(cutoff=8, seed=123), UniformDensity(), 40)
        p = FlowParams(cutoff=8, dt=1e-2, t_end=2e-2, integrator=integrator)
        for drv in (None, SpectralDrift(8, sign=-1.0)):
            out = pushforward(e, p, drv)
            for i in range(len(e)):
                alone = evolve(SpectralField(8, e.coeffs[i]), p, drv, record_stride=p.n_steps).final
                assert np.array_equal(out.coeffs[i], alone.coeffs), (drv, i)

    @pytest.mark.parametrize("entry", ["pushforward", "weak_form_residual"])
    def test_divergent_step_reports_members(self, entry, monkeypatch):
        # both integrators share one chunk loop, which names the members
        # whose step failed
        monkeypatch.setattr(flow, "_MIDPOINT_MAX_ITER", 8)
        e = init_ensemble(SPEC, UniformDensity(), 8)
        bad = FlowParams(cutoff=4, dt=5.0, t_end=5.0)
        with pytest.raises(PushforwardError, match=r"members \[0, 1,") as info:
            if entry == "pushforward":
                pushforward(e, bad)
            else:
                weak_form_residual(e, _cylinder(5.0), bad)
        assert info.value.failed_members == list(range(8))

    def test_failures_of_all_chunks_reported_alike_on_any_thread_count(self, monkeypatch):
        # failing members in both 4-member chunks, stream ids in reverse:
        # every chunk finishes, the ids come sorted and the message is the
        # lowest failing chunk's, with one thread or two
        monkeypatch.setattr(measure, "_CHUNK_MEMBERS", 4)
        e = init_ensemble(SPEC, UniformDensity(), 8)
        scale = np.array([0.01, 10, 10, 0.01, 0.01, 0.01, 20, 0.01])[:, None, None]
        wild = Ensemble(spec=SPEC, coeffs=scale * e.coeffs, weights=e.weights,
                        stream_ids=e.stream_ids[::-1].copy())
        monkeypatch.setattr(flow, "_MIDPOINT_MAX_ITER", 8)
        p = FlowParams(cutoff=4, dt=0.05, t_end=0.05)
        with pytest.raises(StepFailure) as low:  # the lowest chunk alone
            _run_padded(wild.coeffs[:4], p, SpectralDrift(4), p.n_steps)
        reports = {}
        for threads in (1, 2):
            monkeypatch.setattr(measure, "_pool_threads", lambda: threads)
            with pytest.raises(PushforwardError) as info:
                pushforward(wild, p)
            reports[threads] = (str(info.value), info.value.failed_members)
        assert reports[1] == reports[2]
        assert reports[1][1] == [1, 5, 6]
        assert reports[1][0] == f"{low.value} (members [1, 5, 6])"
        # a failed chunk's frames, and with them its arrays, are not kept
        assert info.value.__cause__.__traceback__ is None


class TestChunkPool:
    def test_pool_follows_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert measure._pool_threads() == 3

    def test_pool_without_affinity_call_takes_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert measure._pool_threads() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # count unknown
        assert measure._pool_threads() == 1

    @pytest.mark.parametrize("integrator", ["rk4", "implicit_midpoint"])
    @pytest.mark.parametrize("count,chunk", [(1, 128), (3, 2), (16, 8), (300, 128)])
    def test_threads_keep_bytes(self, count, chunk, integrator, monkeypatch):
        # one thread against two: M=1 in one chunk, M=3 in 2 + 1 members,
        # M=16 in 8 + 8, M=300 in 128 + 128 + 44; the weak-form observer of
        # each chunk writes only its own rows
        monkeypatch.setattr(measure, "_CHUNK_MEMBERS", chunk)
        e = init_ensemble(SPEC, GaussianTilt(PHI), count)
        p = FlowParams(cutoff=4, dt=1e-2, t_end=2e-2, integrator=integrator)
        drv = SpectralDrift(4)
        callers = []
        padded_drift = drv.padded_drift
        drv.padded_drift = lambda s: callers.append(threading.get_ident()) or padded_drift(s)
        runs = {}
        for threads in (1, 2):
            monkeypatch.setattr(measure, "_pool_threads", lambda: threads)
            runs[threads] = []
            for move in (lambda: pushforward(e, p, drift_fn=drv),
                         lambda: weak_form_residual(e, _cylinder(2e-2), p, drift_fn=drv)):
                callers.clear()
                runs[threads].append(move())
                # every chunk runs on the pool, none on the calling thread
                assert callers and threading.get_ident() not in callers
                assert len(set(callers)) <= threads
        (out1, res1), (out2, res2) = runs[1], runs[2]
        assert np.array_equal(out1.coeffs, out2.coeffs)
        assert res1.residual == res2.residual and res1.std_error == res2.std_error
        assert np.array_equal(res1.moved.coeffs, res2.moved.coeffs)
        assert np.array_equal(res1.moved.coeffs, out1.coeffs)

    def test_many_threads_many_chunks_keep_bytes(self, monkeypatch):
        # 16 chunks on 8 threads, switching threads every microsecond: a
        # lost write to the shared state or the weak-form totals, or a
        # scratch pair shared across threads, would move bytes
        monkeypatch.setattr(measure, "_CHUNK_MEMBERS", 4)
        e = init_ensemble(SPEC, GaussianTilt(PHI), 64)
        p = FlowParams(cutoff=4, dt=1e-2, t_end=3e-2, integrator="implicit_midpoint")
        monkeypatch.setattr(measure, "_pool_threads", lambda: 1)
        serial = weak_form_residual(e, _cylinder(3e-2), p)
        monkeypatch.setattr(measure, "_pool_threads", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = weak_form_residual(e, _cylinder(3e-2), p)
        finally:
            sys.setswitchinterval(interval)
        assert pooled.residual == serial.residual and pooled.std_error == serial.std_error
        assert np.array_equal(pooled.moved.coeffs, serial.moved.coeffs)


class TestWeakForm:
    def test_time_only_functional_telescopes(self):
        g, dg = ramp_down(0.2)
        func = CylinderFunctional.time_only(g, dg, 0.2)
        e = init_ensemble(SPEC, GaussianTilt(PHI), 64)
        res = weak_form_residual(e, func, FlowParams(cutoff=4, dt=1e-2, t_end=0.2))
        # trapezoid is exact for the linear ramp, so only roundoff remains
        assert abs(res.residual) <= 1e-12

    def test_cylinder_residual_within_band(self):
        count = 1200
        horizon = 0.25
        g, dg = ramp_down(horizon)
        f, grad_f = bounded_window()
        func = CylinderFunctional(f, grad_f, g, dg, [PHI], horizon)
        e = init_ensemble(SPEC, GaussianTilt(PHI), count)
        p = FlowParams(cutoff=4, dt=1e-2, t_end=horizon, integrator="rk4")
        res = weak_form_residual(e, func, p)
        half = FlowParams(cutoff=4, dt=5e-3, t_end=horizon, integrator="rk4")
        res_half = weak_form_residual(e, func, half)
        c_hat = abs(res.residual - res_half.residual) / (0.75 * p.dt ** 2)
        assert abs(res.residual) <= 3 * res.std_error + 1.25 * c_hat * p.dt ** 2

    def test_invariant_measure_time_ramp(self):
        # uniform density, time-ramped cylinder: residual consistent with zero
        horizon = 0.2
        g, dg = ramp_down(horizon)
        f, grad_f = bounded_window()
        func = CylinderFunctional(f, grad_f, g, dg, [PHI], horizon)
        e = init_ensemble(SPEC, UniformDensity(), 1500)
        res = weak_form_residual(e, func, FlowParams(cutoff=4, dt=1e-2, t_end=horizon, integrator="rk4"))
        assert abs(res.residual) <= 3 * res.std_error + 1e-3 * res.dt ** 2 + 1e-4

    def test_horizon_time_factor_enforced(self):
        with pytest.raises(ValueError):
            CylinderFunctional.time_only(lambda t: 1.0, lambda t: 0.0, 1.0)

    def test_unsupported_test_field_rejected(self):
        wide = SpectralField.from_modes(6, {(6, 0): 1.0})
        g, dg = ramp_down(0.1)
        f, grad_f = bounded_window()
        func = CylinderFunctional(f, grad_f, g, dg, [wide], 0.1)
        e = init_ensemble(SPEC, UniformDensity(), 8)
        with pytest.raises(ValueError):
            weak_form_residual(e, func, FlowParams(cutoff=4, dt=1e-2, t_end=0.1))

    def test_horizon_mismatch_rejected(self):
        g, dg = ramp_down(0.2)
        func = CylinderFunctional.time_only(g, dg, 0.2)
        e = init_ensemble(SPEC, UniformDensity(), 8)
        with pytest.raises(ValueError):
            weak_form_residual(e, func, FlowParams(cutoff=4, dt=1e-2, t_end=0.1))


TRANSPORT_SPEC = MeasureSpec(cutoff=4, seed=20260801)
TRANSPORT_SHIFT = 1.5 * SpectralField.from_modes(4, {(1, 0): 0.5, (1, 2): 0.25}).coeffs


def _transport_drift(kind):
    if kind == "default":
        return None
    return SpectralDrift(4, shift=TRANSPORT_SHIFT, sign=-1.0)


def _weak_form_digest(res) -> str:
    payload = repr((res.residual, res.std_error, res.n_samples, res.dt, sorted(res.bounds.items())))
    return hashlib.sha256(payload.encode()).hexdigest()


def _cylinder(horizon):
    g, dg = ramp_down(horizon)
    f, grad_f = bounded_window()
    return CylinderFunctional(f, grad_f, g, dg, [PHI], horizon)


# sha256 digests recorded before weak_form_residual moved to the padded
# core; M=70 in chunks of 32 leaves a 6-member tail chunk.  Keys are
# (integrator, drift): "default" is SpectralDrift(4), "shifted" a shifted,
# time-reversed SpectralDrift.  The implicit_midpoint digests were
# re-recorded when the midpoint iteration began to stop member by member,
# and all of them with 0.5.0, whose smaller dealiasing grids move the last
# bits of every drift and whose drift is exactly zero in mode (0, 0).
PUSHFORWARD_DIGESTS = {
    ("rk4", "default"): "dd504f8af41236606f7f9c97c4a46c2126fcb1a1f6b350156172407f8595d7c6",
    ("implicit_midpoint", "default"): "2eb6b5bcfc73ae647d7ac087bf8eb54439892312652228ef53e230c2efb652bf",
    ("implicit_midpoint", "shifted"): "321121e05f4a46cd48b5341916a87b4678d3023ddbfca41fd98272433640b1db",
}
WEAK_FORM_DIGESTS = {
    ("rk4", "default"): "5e672c2148d6271db9044972d8f2b312f0e45fa7414a2bcefb5b308ca4352a29",
    ("implicit_midpoint", "default"): "6bcf6b11a628158377a6f5bcb27093857d387c247b608dfc6cf31b71097760c3",
    ("rk4", "shifted"): "d5844c99edda430d2c7ef235e0b851f7b59180459b99334a9df698b80f137994",
    ("implicit_midpoint", "shifted"): "2854ab3240fc80722badd6bc07b14f09aed404f16092271e612a32014c0b7014",
}


@pytest.mark.usefixtures("chunk32")
class TestTransportBytes:
    @pytest.mark.parametrize("integrator,kind", list(PUSHFORWARD_DIGESTS))
    def test_pushforward_golden_bytes(self, integrator, kind):
        e = init_ensemble(TRANSPORT_SPEC, GaussianTilt(PHI), 70)
        p = FlowParams(cutoff=4, dt=1e-2, t_end=0.05, integrator=integrator)
        out = pushforward(e, p, drift_fn=_transport_drift(kind))
        digest = hashlib.sha256(out.coeffs.tobytes()).hexdigest()
        assert digest == PUSHFORWARD_DIGESTS[(integrator, kind)]

    @pytest.mark.parametrize("integrator,kind", list(WEAK_FORM_DIGESTS))
    def test_weak_form_golden_bytes(self, integrator, kind):
        e = init_ensemble(TRANSPORT_SPEC, GaussianTilt(PHI), 70)
        p = FlowParams(cutoff=4, dt=1e-2, t_end=0.05, integrator=integrator)
        res = weak_form_residual(e, _cylinder(0.05), p, drift_fn=_transport_drift(kind))
        assert _weak_form_digest(res) == WEAK_FORM_DIGESTS[(integrator, kind)]

    @pytest.mark.parametrize("entry", ["pushforward", "weak_form_residual"])
    def test_mismatched_drift_rejected_up_front(self, entry):
        e = init_ensemble(TRANSPORT_SPEC, GaussianTilt(PHI), 8)
        p = FlowParams(cutoff=4, dt=1e-2, t_end=0.05, integrator="rk4")

        def run(drv):
            if entry == "pushforward":
                return pushforward(e, p, drift_fn=drv)
            return weak_form_residual(e, _cylinder(0.05), p, drift_fn=drv)

        with pytest.raises(ValueError, match="drift cutoff 6 does not match flow cutoff 4"):
            run(SpectralDrift(6))
        with pytest.raises(TypeError, match="drift_fn must be a SpectralDrift"):
            run(lambda c: SpectralDrift(4)(c))

    @pytest.mark.parametrize("integrator", ["rk4", "implicit_midpoint"])
    def test_weak_form_moves_the_ensemble_as_pushforward(self, integrator):
        # the same chunk partition steps the same members: the moved
        # ensemble is bitwise pushforward's, tail chunk included
        e = init_ensemble(TRANSPORT_SPEC, GaussianTilt(PHI), 70)
        p = FlowParams(cutoff=4, dt=1e-2, t_end=0.05, integrator=integrator)
        moved = weak_form_residual(e, _cylinder(0.05), p).moved
        out = pushforward(e, p)
        assert np.array_equal(moved.coeffs, out.coeffs)
        assert moved.t == out.t == 0.05
        assert np.array_equal(moved.weights, e.weights)
        assert np.array_equal(moved.stream_ids, e.stream_ids)

    @pytest.mark.parametrize("entry", ["pushforward", "weak_form_residual"])
    def test_drift_evaluations(self, entry):
        # rk4: four member evaluations per member-step; the weak form's
        # pairing term reuses each step's k1 and only the horizon adds one
        drv = SpectralDrift(4)
        members = []
        padded_drift = drv.padded_drift
        drv.padded_drift = lambda s: members.append(s.shape[0]) or padded_drift(s)
        e = init_ensemble(TRANSPORT_SPEC, GaussianTilt(PHI), 70)
        p = FlowParams(cutoff=4, dt=1e-2, t_end=0.1, integrator="rk4")
        if entry == "pushforward":
            pushforward(e, p, drift_fn=drv)
            per_chunk = 4 * p.n_steps
        else:
            weak_form_residual(e, _cylinder(0.1), p, drift_fn=drv)
            per_chunk = 4 * p.n_steps + 1
        assert len(members) == 3 * per_chunk
        assert sum(members) == 70 * per_chunk
