"""Benchmark of the enstrophy lab: one workload, timed end to end or traced by layer.

    python3 benchmark/run.py --workload sampling --seed 20260801 --seconds 35 --trace 0

Run from the root of a source checkout.  Each round starts a fresh workload
process (benchmark/child.py) that imports the package from src/ and runs the
workload's config through enstrophy_lab.cli.run, the function behind
`enstrophy-lab run`.  Rounds repeat until the next one would pass --seconds
(at least MIN_ROUNDS).  After each round, outside the timed region, the
artifacts and reports are checked (checks.py).

--trace 0 reports the medians of the end-to-end metrics.  --trace 1
alternates untraced and traced rounds and reports the per-layer metrics of
the traced ones (tracer.py) and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracer
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "enstrophy_lab")
OUT = os.path.join(ROOT, ".bench_out")
MIN_ROUNDS = 3
MIN_PAIRS = 2

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def run_round(cfg_path: str, out_dir: str, trace_path: str | None) -> dict:
    """One workload process; returns its timings and resource use."""
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path = out_dir + ".result.json"
    env = dict(os.environ)
    env.pop("ENSTROPHY_LAB_WORKERS", None)  # batteries in sequence, FFTs on every CPU
    with open(out_dir + ".log", "w") as log:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), cfg_path, out_dir, result_path,
             repr(spawn), trace_path or "-"],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}; see {out_dir}.log")
    with open(result_path) as fh:
        result = json.load(fh)
    if result["exit_code"] not in (0, 1):
        raise RuntimeError(f"cli.run returned {result['exit_code']}; see {out_dir}.log")
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["report_bytes"] = sum(os.path.getsize(os.path.join(out_dir, f))
                                 for f in os.listdir(out_dir))
    return result


def check_round(cfg: dict, out_dir: str) -> tuple[int, list[str], list[str]]:
    """Operations attempted, labels of the failed ones, and correctness problems."""
    battery_ops, problems = checks.check_batteries(cfg, out_dir)
    ops = battery_ops + checks.check_artifacts(out_dir)
    problems += checks.check_members(cfg)
    return len(ops), [label for label, ok in ops if not ok], problems


def src_lines() -> dict[str, int]:
    out, total = {}, 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                lines = sum(1 for _ in fh)
            total += lines
            if name[:-3] in tracer.MODULES:
                out[f"{name[:-3]}.src_lines"] = lines
    out["src.total_lines"] = total
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print(f"no enstrophy_lab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be nonnegative (it seeds numpy SeedSequence streams)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # for the member checks, which call into the package

    base = os.path.join(OUT, f"{args.workload}-{args.seed}")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
    cfg = WORKLOADS[args.workload](args.seed)
    cfg_path = os.path.join(base, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh, indent=1)

    plain, traced, layer_runs = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    kinds = (False, True) if args.trace else (False,)
    minimum = MIN_PAIRS * 2 if args.trace else MIN_ROUNDS
    start = time.monotonic()
    while True:
        for with_trace in kinds:
            trace_path = None
            if with_trace:
                trace_path = os.path.join(OUT, "trace",
                                          f"{args.workload}-{args.seed}-{len(traced)}.json")
            out_dir = os.path.join(base, "round")
            result = run_round(cfg_path, out_dir, trace_path)
            (traced if with_trace else plain).append(result)
            n_ops, failures, round_problems = check_round(cfg, out_dir)
            attempted += n_ops
            failed += len(failures)
            problems += [p for p in round_problems if p not in problems]
            if with_trace:
                with open(trace_path) as fh:
                    layer_runs.append(tracer.layer_metrics(json.load(fh)))
            print(f"round {len(plain) + len(traced)}{' traced' if with_trace else ''}: "
                  f"wall_s={result['wall_s']:.3f} cpu_s={result['cpu_s']:.3f} "
                  f"setup_s={result['setup_s']:.3f} peak_rss_mb={result['peak_rss_mb']:.1f} "
                  f"cli_exit={result['exit_code']} failed={failures}", flush=True)
        rounds = len(plain) + len(traced)
        if rounds >= minimum and (time.monotonic() - start) * (rounds + len(kinds)) / rounds \
                > args.seconds:
            break

    if args.trace:
        metrics = trace_metrics(plain, traced, layer_runs, problems)
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in plain), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(f"{len(plain)} untraced and {len(traced)} traced rounds in "
          f"{time.monotonic() - start:.1f} s")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def trace_metrics(plain, traced, layer_runs, problems) -> dict:
    """Medians of the traced rounds' layer times; counts must repeat exactly."""
    out = {}
    for name in layer_runs[0]:
        values = [m[name] for m in layer_runs]
        if name in tracer.COUNTS:
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced rounds: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        out[name] = {"value": value, "unit": tracer.UNITS.get(name, "s")}
    sizes = {r["report_bytes"] for r in plain + traced}
    if len(sizes) != 1:
        problems.append(f"report bytes differ between rounds: {sorted(sizes)}")
    out["cli.report_bytes"] = {"value": traced[0]["report_bytes"], "unit": "bytes"}
    for name, lines in src_lines().items():
        out[name] = {"value": lines, "unit": "lines"}
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


if __name__ == "__main__":
    sys.exit(main())
