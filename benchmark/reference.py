"""Reference figures for single layers: drift, sampler and pairing routes.

    python3 benchmark/reference.py

Run from the root of a source checkout.  Prints, per cutoff N, the cost of
one dealiased drift evaluation per member (SpectralDrift.padded_drift on a
batch of 64 members), of the white-noise sampler per sample
(measure.sample_batch), and of each quadratic-form pairing route per sample.
Each figure is the median of five timed repeats.  Thread settings as in the
benchmark: ENSTROPHY_LAB_WORKERS unset, transforms on every CPU.
"""

import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from enstrophy_lab.dynamics import (  # noqa: E402
    SpectralDrift,
    drift_pairing_batch,
    quadratic_coefficients,
    quadratic_pairing_batch,
)
from enstrophy_lab.measure import MeasureSpec, sample_batch  # noqa: E402
from enstrophy_lab.verify import _exchange_pairing, exchange_kernel, named_test_field  # noqa: E402

SEED = 20260801


def per_item_us(fn, items: int, min_seconds: float = 0.2) -> float:
    """Median over five repeats of the time per item, each repeat at least min_seconds."""
    fn()  # warm caches and FFT plans
    costs = []
    for _ in range(5):
        reps, t0 = 0, time.perf_counter()
        while True:
            fn()
            reps += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= min_seconds:
                break
        costs.append(1e6 * elapsed / (reps * items))
    return statistics.median(costs)


def main() -> int:
    phi = named_test_field("cos_x1_plus_x2")
    print(f"{'N':>3} {'drift us/member':>16} {'sampler us/sample':>18}")
    for n in (4, 8, 16, 32):
        drv = SpectralDrift(n)
        state = drv.pad(sample_batch(MeasureSpec(cutoff=n, seed=SEED), range(64)))
        spec = MeasureSpec(cutoff=n, seed=SEED)
        drift_us = per_item_us(lambda: drv.padded_drift(state), 64)
        sample_us = per_item_us(lambda: sample_batch(spec, range(256)), 256)
        print(f"{n:>3} {drift_us:>16.1f} {sample_us:>18.1f}")
    print()
    print("pairing cost, us per sample (batch of 2000 samples)")
    print(f"{'N':>3} {'drift dense':>12} {'drift struct':>13} {'exch dense':>11} {'exch closed':>12}")
    for n in (4, 8, 16):
        batch = sample_batch(MeasureSpec(cutoff=n, seed=SEED), range(2000))
        form = quadratic_coefficients(phi, n)
        exchange = exchange_kernel(n)
        row = [per_item_us(lambda: quadratic_pairing_batch(batch, n, form), 2000),
               per_item_us(lambda: drift_pairing_batch(batch, n, phi), 2000),
               per_item_us(lambda: quadratic_pairing_batch(batch, n, exchange), 2000),
               per_item_us(lambda: _exchange_pairing(batch, n), 2000)]
        print(f"{n:>3} {row[0]:>12.2f} {row[1]:>13.2f} {row[2]:>11.2f} {row[3]:>12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
