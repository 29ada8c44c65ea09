"""Config validation, exit codes, manifests, reproducibility."""

import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import time

import pytest

import enstrophy_lab
from enstrophy_lab import measure, verify
from enstrophy_lab.cli import BATTERY_BUILDERS, ConfigError, load_config, main, run
from enstrophy_lab.measure import MeasureSpec
from enstrophy_lab.verify import TestReport


def write_cfg(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def assert_verdicts(out):
    """Every report in `out` is a verdict: no battery raised."""
    reports = [json.loads(p.read_text()) for p in out.glob("*.json") if p.name != "manifest.json"]
    assert reports
    for report in reports:
        assert not any("battery raised" in note for note in report["notes"]), report["notes"]


QUICK = {
    "seed": 7,
    "tests": [
        {"name": "wick_mean", "params": {"N": 2, "M": 2000, "kernel": "rank_one", "phi": "cos_x1"}},
        {"name": "dirichlet_kernel", "params": {"N_list": [2], "G": 16}},
    ],
}


class TestConfigValidation:
    def test_unknown_battery_named(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", {"seed": 1, "tests": [{"name": "bogus"}]})
        assert run(cfg, out_dir=str(tmp_path / "out")) == 2

    def test_fractional_steps_named_field(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 1,
            "tests": [{"name": "invariance",
                       "params": {"N": 2, "M": 50, "T": 0.25, "dt": 0.013}}],
        })
        assert run(cfg, out_dir=str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "tests[0].params" in err

    def test_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        assert run(str(path), out_dir=str(tmp_path / "out")) == 2

    def test_missing_file(self, tmp_path):
        assert run(str(tmp_path / "absent.json")) == 2

    @pytest.mark.parametrize("raw", [
        # bytes that are not UTF-8, and an integer beyond int's 4300-digit
        # parse limit: both exited 2 without naming the config
        b'{"seed": 1, "out_dir": "\x80"}',
        b'{"seed": 1' + b"0" * 4301 + b"}",
    ], ids=["not_utf8", "long_integer"])
    def test_unreadable_config_named(self, tmp_path, capsys, raw):
        path = tmp_path / "c.json"
        path.write_bytes(raw)
        out = tmp_path / "out"
        assert run(str(path), out_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config: invalid JSON: "), err
        assert not out.exists()
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert info.value.field == "config"

    def test_wrong_param_type(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 1,
            "tests": [{"name": "wick_mean", "params": {"N": "four"}}],
        })
        assert run(cfg, out_dir=str(tmp_path / "out")) == 2

    @pytest.mark.parametrize("name,params,field", [
        # a bool is neither an int nor a float (True ran as N=1 and passed)
        ("moment_bound", {"N": True, "M": 200}, "N"),
        ("invariance", {"N": 2, "M": 50, "T": True, "dt": 0.5}, "T"),
        ("exp_integrability", {"M": 200, "N_list": [2, False]}, "N_list[1]"),
        # cutoffs and counts below what the battery accepts (N=0 raised
        # inside the battery, exit 1; M=1 passed with a standard error of 0)
        ("moment_bound", {"N": 0, "M": 200}, "N"),
        ("moment_bound", {"N": 2, "M": 1}, "M"),
        ("wick_mean", {"N": 2, "M": 999, "kernel": "exchange"}, "M"),
        ("cauchy", {"N_list": [2, 4], "N_ref": 3, "M": 100}, "N_ref"),
        ("dirichlet_kernel", {"N_list": [2], "G": 13}, "G"),
        # the moment order
        ("moment_bound", {"N": 2, "M": 200, "p": 7}, "p"),
        ("moment_bound", {"N": 2, "M": 200, "p": 1}, "p"),
        # a key no battery reads (the typo "dT" was ignored)
        ("invariance", {"N": 2, "M": 50, "T": 0.02, "dT": 0.01}, "dT"),
        ("wick_variance", {"N": 2, "M": 200, "kernel": "exchange", "phi": "cos_x1"}, "phi"),
        # an unknown observable (raised inside the battery, exit 1)
        ("invariance", {"N": 2, "M": 50, "T": 0.02, "observables": ["cos_x1", "nope"]},
         "observables[1]"),
        # a zero horizon (the time ramp raised inside the battery, exit 1)
        ("transport", {"N": 2, "M": 50, "T": 0, "integrator": "rk4"}, "T"),
        # a repeated cutoff (cauchy passed vacuously, exp_integrability and
        # dirichlet_kernel wrote every row of it twice)
        ("cauchy", {"N_list": [2, 2], "M": 100}, "N_list"),
        ("exp_integrability", {"M": 200, "N_list": [4, 4]}, "N_list"),
        ("dirichlet_kernel", {"N_list": [2, 2]}, "N_list"),
        # a repeated exponent (exp_integrability wrote each of its rows twice)
        ("exp_integrability", {"M": 200, "N_list": [2, 4], "eps_list": [0.1, 0.1]}, "eps_list"),
        # a non-finite float: an infinite dt ran 0 steps and passed, an
        # infinite T raised OverflowError, an infinite eps wrote null rows,
        # and NaN named only the params
        ("invariance", {"N": 2, "M": 50, "T": 0.02, "dt": float("inf")}, "dt"),
        ("invariance", {"N": 2, "M": 50, "T": float("inf"), "dt": 0.01}, "T"),
        ("invariance", {"N": 2, "M": 50, "T": float("nan"), "dt": 0.01}, "T"),
        ("invariance_negative", {"N": 2, "M": 50, "T": 0.02, "shift_amp": float("nan")},
         "shift_amp"),
        ("exp_integrability", {"M": 200, "N_list": [2, 4], "eps_list": [0.1, float("inf")]},
         "eps_list[1]"),
        # an integer beyond the float range: float() raised OverflowError,
        # a traceback and exit 1
        ("invariance", {"N": 2, "M": 50, "T": 10 ** 400, "dt": 0.01}, "T"),
        ("exp_integrability", {"M": 200, "N_list": [2, 4], "eps_list": [10 ** 400, 0.1]},
         "eps_list[0]"),
        # a zero horizon that invariance passed after zero steps, which
        # checks nothing
        ("invariance", {"N": 2, "M": 50, "T": 0}, "T"),
        ("invariance_negative", {"N": 2, "M": 50, "T": 0}, "T"),
    ])
    def test_entries_checked_before_any_battery_runs(self, tmp_path, capsys, name, params, field):
        # a valid entry first: nothing may run, and no output directory appear
        cfg = write_cfg(tmp_path / "c.json", {"seed": 1, "tests": [
            {"name": "moment_bound", "params": {"N": 2, "M": 200, "p": 2}},
            {"name": name, "params": params}]})
        out = tmp_path / "out"
        assert run(cfg, out_dir=str(out)) == 2
        assert f"tests[1].params.{field}:" in capsys.readouterr().err
        assert not out.exists()

    VALID = {"name": "moment_bound", "params": {"N": 2, "M": 200, "p": 2}}

    @pytest.mark.parametrize("payload,field", [
        # a misspelt seed ran at seed 0 and exited 0
        ({"sead": 2, "tests": [VALID]}, "sead"),
        # a misspelt params ran the battery on its defaults
        ({"seed": 1, "tests": [VALID, {"name": "dirichlet_kernel", "parmas": {"N_list": [2, 9]}}]},
         "tests[1].parmas"),
        # a non-string out_dir crashed with a TypeError after the batteries ran
        ({"seed": 1, "out_dir": 5, "tests": [VALID]}, "out_dir"),
        # an empty one raised FileNotFoundError in os.makedirs, exit 1
        ({"seed": 1, "out_dir": "", "tests": [VALID]}, "out_dir"),
    ])
    def test_unknown_keys_and_bad_out_dir_checked_first(self, tmp_path, monkeypatch, capsys,
                                                        payload, field):
        monkeypatch.chdir(tmp_path)  # where the config's own out_dir would appear
        cfg = write_cfg(tmp_path / "c.json", payload)
        assert run(cfg) == 2
        assert f"config error: {field}:" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["c.json"]

    @pytest.mark.parametrize("flag,out", [
        # an existing file, or a path under one: os.makedirs raised
        # FileExistsError or NotADirectoryError, a traceback and exit 1
        *[(flag, out) for out in ("taken", os.path.join("taken", "sub")) for flag in (False, True)],
        # an empty --out-dir wrote into the config's out_dir
        (True, ""),
        # a NUL byte: os.makedirs raised ValueError, which named no field
        *[(flag, "a\x00b") for flag in (False, True)],
    ])
    def test_uncreatable_out_dir_named(self, tmp_path, monkeypatch, capsys, flag, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("kept")
        ran = []
        monkeypatch.setitem(BATTERY_BUILDERS, "dirichlet_kernel", lambda p, seed: lambda: ran.append(1))
        payload = {"seed": 1, "tests": [{"name": "dirichlet_kernel"}]}
        if flag:
            assert main(["run", write_cfg(tmp_path / "c.json", payload), "--out-dir", out]) == 2
        else:
            assert run(write_cfg(tmp_path / "c.json", dict(payload, out_dir=out))) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {'--out-dir' if flag else 'out_dir'}: "), err
        assert "Traceback" not in err and not ran
        assert (tmp_path / "taken").read_text() == "kept"

    @pytest.mark.parametrize("text,key", [
        # the last value won silently: a second seed replaced the first
        ('{"seed": 1, "seed": 2, "tests": []}', "seed"),
        # and params {"G": 8, "G": 10} ran with G = 10
        ('{"seed": 1, "tests": [{"name": "dirichlet_kernel", '
         '"params": {"N_list": [1], "G": 8, "G": 10}}]}', "G"),
    ], ids=["top_level", "params"])
    def test_repeated_key_named(self, tmp_path, capsys, text, key):
        path = tmp_path / "c.json"
        path.write_text(text)
        out = tmp_path / "out"
        assert run(str(path), out_dir=str(out)) == 2
        assert f"config error: {key}: repeated" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert info.value.field == key

    def test_load_config_reports_field(self, tmp_path):
        path = write_cfg(tmp_path / "c.json", {"seed": "x"})
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert info.value.field == "seed"

    @pytest.mark.parametrize("seed", [-3, True, False])
    def test_negative_or_bool_seed_rejected(self, tmp_path, capsys, seed):
        # SeedSequence raises on a negative seed inside every battery and
        # takes True as seed 1; both are config errors instead
        cfg = write_cfg(tmp_path / "c.json", dict(QUICK, seed=seed))
        out = tmp_path / "out"
        assert run(cfg, out_dir=str(out)) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ConfigError) as info:
            load_config(cfg)
        assert info.value.field == "seed"

    @pytest.mark.parametrize("seed", [-3, True])
    def test_bad_seed_override_rejected(self, tmp_path, capsys, seed):
        cfg = write_cfg(tmp_path / "c.json", QUICK)
        assert run(cfg, out_dir=str(tmp_path / "out"), seed_override=seed) == 2
        assert "--seed-override" in capsys.readouterr().err

    def test_negative_seed_override_flag(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", QUICK)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out"), "--seed-override", "-3"]) == 2
        assert "--seed-override" in capsys.readouterr().err

    # the params around a named field paired at cutoff n; an N_list starts
    # at n
    FIT_PARAMS = {
        "invariance": lambda n: {"N": n, "M": 50, "T": 0.02, "dt": 0.01},
        "invariance_negative": lambda n: {"N": n, "M": 50, "T": 0.02, "dt": 0.01},
        "transport": lambda n: {"N": n, "M": 50, "T": 0.02, "dt": 0.01},
        "cauchy": lambda n: {"N_list": [n, n + 1], "M": 50},
        "exp_integrability": lambda n: {"N_list": [n, n + 1], "M": 50},
        "wick_mean": lambda n: {"N": n, "M": 1000},
        "wick_variance": lambda n: {"N": n, "M": 50},
    }

    # named fields against the cutoffs they are paired at; a field beyond
    # one raised inside the battery (transport, cauchy), failed on a sigma
    # the projected pairing never sees (invariance), exited 1 (drift
    # exp_integrability) or passed on a form that is not <b_N(w), phi>
    # (drift wick_mean and wick_variance)
    @pytest.mark.parametrize("name,fields,field", [
        ("invariance", {"observables": ["cos_x1", "cos_2x1_plus_x2"]}, "observables[1]"),
        ("invariance_negative", {"observables": ["cos_2x1_plus_x2"]}, "observables[0]"),
        ("transport", {"tilt_phi": "cos_2x1_plus_x2"}, "tilt_phi"),
        ("transport", {"obs_phi": "cos_2x1_plus_x2"}, "obs_phi"),
        ("cauchy", {"phi": "cos_2x1_plus_x2"}, "phi"),
        ("exp_integrability", {"kernel": "drift", "phi": "cos_2x1_plus_x2"}, "phi"),
        ("wick_mean", {"kernel": "drift", "phi": "cos_2x1_plus_x2"}, "phi"),
        ("wick_variance", {"kernel": "drift", "phi": "cos_2x1_plus_x2"}, "phi"),
    ])
    @pytest.mark.parametrize("n", [1, 2])  # cos_2x1_plus_x2 has modes up to 2
    def test_named_fields_fit_their_cutoff(self, tmp_path, capsys, name, fields, field, n):
        cfg = write_cfg(tmp_path / "c.json", {"seed": 3, "tests": [
            {"name": name, "params": dict(self.FIT_PARAMS[name](n), **fields)}]})
        out = tmp_path / "out"
        code = run(cfg, out_dir=str(out))
        if n == 1:
            assert code == 2
            assert f"tests[0].params.{field}: 'cos_2x1_plus_x2' has modes up to 2, beyond the cutoff N=1" \
                in capsys.readouterr().err
            assert not out.exists()
        else:
            assert code in (0, 1)
            assert_verdicts(out)

    # the smallest config each battery and kernel kind accepts: cutoffs 1
    # and 2, the fewest samples, one step of each integrator
    @pytest.mark.parametrize("name,params", [
        *[("wick_mean", {"N": 1, "M": 1000, "kernel": k}) for k in ("drift", "rank_one", "exchange")],
        *[("wick_variance", {"N": 1, "M": 2, "kernel": k}) for k in ("drift", "rank_one", "exchange")],
        ("moment_bound", {"N": 1, "M": 2, "p": 2}),
        ("moment_bound", {"N": 1, "M": 2, "p": 6}),
        *[("exp_integrability", {"N_list": nl, "M": 2, "kernel": k})
          for k in ("exchange", "drift") for nl in ([1], [1, 2])],
        ("cauchy", {"N_list": [1, 2], "M": 2}),
        ("dirichlet_kernel", {"N_list": [1]}),
        *[(name, {"N": 1, "M": 2, "T": 0.01, "dt": 0.01, "integrator": i})
          for name in ("invariance", "invariance_negative", "transport")
          for i in ("rk4", "implicit_midpoint")],
    ])
    def test_smallest_accepted_config_ends_in_a_verdict(self, tmp_path, name, params):
        cfg = write_cfg(tmp_path / "c.json", {"seed": 3, "tests": [{"name": name, "params": params}]})
        out = tmp_path / "out"
        assert run(cfg, out_dir=str(out)) in (0, 1)
        assert_verdicts(out)


class TestRun:
    def test_empty_selection(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", {"seed": 1, "tests": []})
        out = tmp_path / "out"
        assert run(cfg, out_dir=str(out)) == 0
        assert (out / "summary.csv").read_text() == "name,passed\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert "summary.csv" in manifest["files"]

    def test_reports_and_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", QUICK)
        out = tmp_path / "out"
        assert run(cfg, out_dir=str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["files"].items():
            data = (out / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest
        assert manifest["seed"] == 7
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "name,passed"
        assert len(summary) == 3

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", QUICK)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(cfg, out_dir=str(out1)) == 0
        assert run(cfg, out_dir=str(out2)) == 0
        for name in os.listdir(out1):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_estimates(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", QUICK)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(cfg, out_dir=str(out1))
        run(cfg, out_dir=str(out2), seed_override=99)
        a = json.loads((out1 / "wick_mean.json").read_text())
        b = json.loads((out2 / "wick_mean.json").read_text())
        assert a["summary"]["mc_mean"] != b["summary"]["mc_mean"]
        assert b["seed"] == 99

    def test_fft_threads_do_not_change_bytes(self, tmp_path, monkeypatch):
        # both batteries move ensembles in chunks on a pool of
        # `_pool_threads()` threads; the thread count must not change any byte
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 11,
            "tests": [
                {"name": "invariance", "params": {"N": 4, "M": 200, "T": 0.05, "dt": 0.01,
                                                  "observables": ["cos_x1"]}},
                {"name": "transport", "params": {"N": 4, "M": 100, "T": 0.04, "dt": 0.01,
                                                 "integrator": "rk4"}},
            ],
        })
        codes, manifests = {}, {}
        for threads in (2, 1):
            monkeypatch.setattr(measure, "_pool_threads", lambda: threads)
            out = tmp_path / f"t{threads}"
            codes[threads] = run(cfg, out_dir=str(out))
            assert codes[threads] in (0, 1)
            manifests[threads] = (out / "manifest.json").read_bytes()
        assert codes[2] == codes[1]
        assert manifests[2] == manifests[1]
        assert len(json.loads(manifests[1])["files"]) == 5  # two reports, two tables, summary

    def test_workers_variable_has_no_effect(self, tmp_path, monkeypatch):
        # the pool follows the CPU affinity mask alone; a variable that once
        # capped it, set to a value it rejected, changes nothing
        cfg = write_cfg(tmp_path / "c.json", {"seed": 5, "tests": [
            {"name": "transport", "params": {"N": 2, "M": 300, "T": 0.02, "dt": 0.01}}]})
        manifests = []
        for value in (None, "abc"):
            if value is not None:
                monkeypatch.setenv("ENSTROPHY_LAB_WORKERS", value)
            out = tmp_path / f"v{value}"
            assert run(cfg, out_dir=str(out)) in (0, 1)
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]

    def test_thread_count_keeps_failure_report_bytes(self, tmp_path, monkeypatch):
        # the midpoint step fails at N=16 for some members of both 8-member
        # chunks; the report names them, and its bytes must not follow the
        # thread count
        monkeypatch.setattr(measure, "_CHUNK_MEMBERS", 8)
        cfg = write_cfg(tmp_path / "c.json", {"seed": 1, "tests": [
            {"name": "invariance", "params": {"N": 16, "M": 16, "T": 0.01, "dt": 0.01}}]})
        manifests = {}
        for threads in (1, 2):
            monkeypatch.setattr(measure, "_pool_threads", lambda: threads)
            out = tmp_path / f"t{threads}"
            assert run(cfg, out_dir=str(out)) == 1
            notes = json.loads((out / "invariance.json").read_text())["notes"]
            assert "PushforwardError" in notes[0], notes
            manifests[threads] = (out / "manifest.json").read_bytes()
        assert manifests[1] == manifests[2]

    def test_batteries_run_in_config_order_on_calling_thread(self, tmp_path, monkeypatch):
        # two threads step ensemble chunks inside a battery; the batteries
        # themselves run in turn on this thread
        monkeypatch.setattr(measure, "_pool_threads", lambda: 2)
        calls = []

        def recording(name):
            def build(p, seed):
                k = p.get("k", int, 0)

                def job():
                    calls.append((k, threading.get_ident()))
                    return TestReport(name=f"{name}_{k}", params={"k": k}, seed=seed,
                                      passed=True, summary={})
                return job
            return build

        for name in ("wick_mean", "cauchy"):
            monkeypatch.setitem(BATTERY_BUILDERS, name, recording(name))
        cfg = write_cfg(tmp_path / "c.json", {"seed": 1, "tests": [
            {"name": ("wick_mean", "cauchy")[k % 2], "params": {"k": k}} for k in range(6)]})
        assert run(cfg, out_dir=str(tmp_path / "out")) == 0
        assert [k for k, _ in calls] == list(range(6))
        assert {ident for _, ident in calls} == {threading.get_ident()}

    def test_raising_battery_prints_its_runtime(self, tmp_path, capsys, monkeypatch):
        # the runtime is measured around the battery, so one that raises
        # reports the time it took instead of 0.0s
        def slow_failure():
            time.sleep(0.25)
            raise RuntimeError("late failure")

        monkeypatch.setitem(BATTERY_BUILDERS, "wick_mean", lambda p, seed: slow_failure)
        cfg = write_cfg(tmp_path / "c.json", {"seed": 1, "tests": [{"name": "wick_mean"}]})
        assert run(cfg, out_dir=str(tmp_path / "out")) == 1
        line = capsys.readouterr().out.strip()
        match = re.fullmatch(r"\[FAIL\] wick_mean  \((\d+\.\d)s\)", line)
        assert match, line
        assert float(match.group(1)) >= 0.2

    def test_battery_failure_exits_one_and_preserves_artifacts(self, tmp_path):
        # a negative control without an actual drift shift must fail
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 3,
            "tests": [
                {"name": "wick_mean", "params": {"N": 2, "M": 2000, "kernel": "rank_one", "phi": "cos_x1"}},
                {"name": "invariance_negative",
                 "params": {"N": 2, "M": 200, "T": 0.1, "dt": 0.01,
                            "observables": ["cos_x1"], "shift_amp": 0.0}},
            ],
        })
        out = tmp_path / "out"
        assert run(cfg, out_dir=str(out)) == 1
        summary = (out / "summary.csv").read_text()
        assert "invariance_negative,false" in summary
        assert "wick_mean,true" in summary
        assert (out / "wick_mean.json").exists()


    @pytest.mark.parametrize("tests,pair", [
        ([{"name": "wick_mean", "params": {"N": 2, "M": 1000, "kernel": "exchange"}},
          {"name": "wick_mean", "params": {"N": 3, "M": 1000, "kernel": "exchange"}}], (0, 1)),
        ([{"name": "moment_bound", "params": {"N": 2, "M": 200, "p": 3}},
          {"name": "moment_bound", "params": {"N": 2, "M": 200, "p": 2}},
          {"name": "moment_bound", "params": {"N": 3, "M": 200}}], (1, 2)),
    ])
    def test_duplicate_report_names_rejected(self, tmp_path, capsys, tests, pair):
        # two entries that write one <name>.json: exit 2 naming both, and
        # leave every file in the output directory as it was
        cfg = write_cfg(tmp_path / "c.json", {"seed": 1, "tests": tests})
        out = tmp_path / "out"
        out.mkdir()
        stale = {"wick_mean.json": "old\n", "moment_bound_p2.json": "old\n"}
        for name, text in stale.items():
            (out / name).write_text(text)
        assert run(cfg, out_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert f"tests[{pair[0]}] and tests[{pair[1]}]" in err
        assert sorted(os.listdir(out)) == sorted(stale)
        for name, text in stale.items():
            assert (out / name).read_text() == text

    def test_reports_are_strict_json(self, tmp_path):
        # the transport report's route rows have no target: null, not NaN
        cfg = write_cfg(tmp_path / "c.json", {"seed": 2, "tests": [
            {"name": "transport", "params": {"N": 2, "M": 40, "T": 0.02, "dt": 0.01,
                                             "integrator": "rk4"}}]})
        out = tmp_path / "out"
        run(cfg, out_dir=str(out))

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads((out / "transport.json").read_text(), parse_constant=reject)
        targets = {row["quantity"]: row["target"] for row in report["table"]}
        assert targets["pushforward_route"] is None and targets["pullback_route"] is None
        manifest = json.loads((out / "manifest.json").read_text(), parse_constant=reject)
        assert manifest["version"] == enstrophy_lab.__version__

    def test_package_version_matches_pyproject(self):
        # the two are bumped by hand, together, whenever report bytes change
        tomllib = pytest.importorskip("tomllib")
        path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
        with open(path, "rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == enstrophy_lab.__version__


def _pairing_tests(n_small, n_big):
    """Every pairing battery: three moment orders share wick_mean's streams,
    and wick_variance, exp_integrability and cauchy share one measure at `n_big`."""
    return [
        {"name": "wick_mean", "params": {"N": n_small, "M": 1000, "kernel": "rank_one",
                                         "phi": "cos_x1"}},
        *({"name": "moment_bound", "params": {"N": n_small, "M": 1000, "p": p}} for p in (2, 3, 4)),
        {"name": "wick_variance", "params": {"N": n_big, "M": 700, "kernel": "rank_one",
                                             "phi": "cos_x1"}},
        {"name": "exp_integrability", "params": {"N_list": [2, n_big], "M": 1300,
                                                 "eps_list": [0.1, 0.4], "kernel": "drift"}},
        {"name": "cauchy", "params": {"N_list": [2, 4], "N_ref": n_big, "M": 900}},
    ]


class TestSharedDraws:
    """`run` draws each measure's streams in one pass that all its readers share."""

    def test_each_stream_drawn_once(self, tmp_path, monkeypatch):
        rows = []
        original = verify.sample_batch

        def counting(spec, indices):
            rows.extend((spec, int(i)) for i in indices)
            return original(spec, indices)

        monkeypatch.setattr(verify, "sample_batch", counting)
        cfg = write_cfg(tmp_path / "c.json", {"seed": 5, "tests": _pairing_tests(3, 6)})
        out = tmp_path / "out"
        assert run(cfg, out_dir=str(out)) in (0, 1)
        assert_verdicts(out)
        distinct = set(rows)
        assert len(distinct) == 1000 + 1300  # largest count under each measure
        # cauchy cross-checks sample 0 of its measure against the drift route
        assert len(rows) == len(distinct) + 1
        assert rows.count((MeasureSpec(cutoff=6, seed=5), 0)) == 2

    def test_shared_run_matches_solo_runs(self, tmp_path):
        # 700 and 900 are prefixes of the 1300-sample pass that are not
        # multiples of its 512-sample blocks
        tests = _pairing_tests(3, 6)
        cfg = write_cfg(tmp_path / "all.json", {"seed": 8, "tests": tests})
        assert run(cfg, out_dir=str(tmp_path / "all")) in (0, 1)
        assert_verdicts(tmp_path / "all")
        compared = 0
        for i, entry in enumerate(tests):
            cfg = write_cfg(tmp_path / f"{i}.json", {"seed": 8, "tests": [entry]})
            solo = tmp_path / f"solo{i}"
            run(cfg, out_dir=str(solo))
            for path in solo.iterdir():
                if path.suffix in (".json", ".csv") and path.stem not in ("manifest", "summary"):
                    assert path.read_bytes() == (tmp_path / "all" / path.name).read_bytes(), path
                    compared += 1
        assert compared == 2 * len(tests)

    def test_failing_pass_stays_contained(self, tmp_path, monkeypatch, capsys):
        passes = []
        original = verify.sample_batch

        def failing(spec, indices):
            if spec.cutoff == 6:
                passes.append(spec)
                raise RuntimeError("sampler down")
            return original(spec, indices)

        monkeypatch.setattr(verify, "sample_batch", failing)
        cfg = write_cfg(tmp_path / "c.json", {"seed": 5, "tests": _pairing_tests(3, 6)})
        out = tmp_path / "out"
        assert run(cfg, out_dir=str(out)) == 1
        assert len(passes) == 1  # the pass is not retried for later readers
        err = capsys.readouterr().err
        assert "Traceback" not in err
        # a battery that raises writes its report under its config entry's name
        for name in ("wick_mean", "moment_bound_p2", "moment_bound_p3", "moment_bound_p4",
                     "wick_variance", "exp_integrability", "cauchy"):
            report = json.loads((out / f"{name}.json").read_text())
            raised = [n for n in report["notes"] if n.startswith("battery raised")]
            if name in ("wick_variance", "exp_integrability", "cauchy"):
                assert raised == ["battery raised: RuntimeError('sampler down')"], name
                assert not report["passed"]
            else:
                assert not raised and report["passed"], name


class TestBundledConfig:
    def test_quickcheck_resource_parses(self):
        import importlib.resources as res

        with res.as_file(res.files("enstrophy_lab") / "configs" / "quickcheck.cfg") as p:
            cfg = load_config(str(p))
        assert cfg["tests"]
        assert all(t["name"] in BATTERY_BUILDERS for t in cfg["tests"])

    def test_quickcheck_copies_are_equal(self):
        # README runs the root copy; the acceptance gate pins the packaged one
        import importlib.resources as res

        packaged = (res.files("enstrophy_lab") / "configs" / "quickcheck.cfg").read_bytes()
        with open(os.path.join(os.path.dirname(__file__), os.pardir, "quickcheck.cfg"), "rb") as fh:
            assert fh.read() == packaged

    def test_readme_names_every_battery_and_test_field(self):
        # the README's config paragraph lists what a config can name
        with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
            readme = fh.read()
        batteries = re.search(r"Battery names:(.*?)\.\s+Test fields", readme, re.S).group(1)
        fields = re.search(r"Test fields are addressed by name \((.*?)\)", readme, re.S).group(1)
        assert sorted(re.findall(r"`(\w+)`", batteries)) == sorted(BATTERY_BUILDERS)
        assert sorted(re.findall(r"`(\w+)`", fields)) == sorted(verify._NAMED_FIELDS)


class TestMain:
    def test_import_leaves_out_scipy_signal(self):
        # a fresh process: the drift oracle is a numpy convolution, and the
        # KS p-value is computed in-tree (enstrophy_lab.ks)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(enstrophy_lab.__file__)))
        code = ("import sys, enstrophy_lab.cli; "
                "sys.exit('scipy.signal' in sys.modules or 'scipy.stats' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_cli_entry_run(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", {"seed": 1, "tests": []})
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 0
