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
from enstrophy_lab.cli import BATTERY_BUILDERS, ConfigError, load_config, main, run
from enstrophy_lab.dynamics import env_workers, fft_workers
from enstrophy_lab.verify import TestReport


def write_cfg(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


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

    @pytest.mark.parametrize("value", ["two", "0", "-1", "1.5"])
    def test_bad_workers_variable_named(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("ENSTROPHY_LAB_WORKERS", value)
        cfg = write_cfg(tmp_path / "c.json", QUICK)
        assert run(cfg, out_dir=str(tmp_path / "out")) == 2
        assert "ENSTROPHY_LAB_WORKERS" in capsys.readouterr().err
        with pytest.raises(ValueError, match="ENSTROPHY_LAB_WORKERS"):
            fft_workers()

    def test_workers_variable_caps_transforms(self, monkeypatch):
        monkeypatch.setenv("ENSTROPHY_LAB_WORKERS", "1")
        assert env_workers() == 1 and fft_workers() == 1
        monkeypatch.setenv("ENSTROPHY_LAB_WORKERS", "")
        assert env_workers() is None and fft_workers() == (os.cpu_count() or 1)


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

    def test_fft_threads_do_not_change_bytes(self, tmp_path):
        # both batteries step through padded_drift, whose transforms take
        # ENSTROPHY_LAB_WORKERS threads; the thread count must not change any byte
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 11,
            "tests": [
                {"name": "invariance", "params": {"N": 4, "M": 200, "T": 0.05, "dt": 0.01,
                                                  "observables": ["cos_x1"]}},
                {"name": "transport", "params": {"N": 4, "M": 100, "T": 0.04, "dt": 0.01,
                                                 "integrator": "rk4"}},
            ],
        })
        src = os.path.dirname(os.path.dirname(enstrophy_lab.__file__))
        codes, manifests = {}, {}
        for workers in ("2", "1"):
            env = dict(os.environ, ENSTROPHY_LAB_WORKERS=workers,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = tmp_path / f"w{workers}"
            proc = subprocess.run([sys.executable, "-m", "enstrophy_lab.cli", "run", cfg,
                                   "--out-dir", str(out)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode in (0, 1), proc.stderr
            codes[workers] = proc.returncode
            manifests[workers] = (out / "manifest.json").read_bytes()
        assert codes["2"] == codes["1"]
        assert manifests["2"] == manifests["1"]
        assert len(json.loads(manifests["1"])["files"]) == 5  # two reports, two tables, summary

    def test_batteries_run_in_config_order_on_calling_thread(self, tmp_path, monkeypatch):
        # ENSTROPHY_LAB_WORKERS caps FFT threads only; it starts no battery threads
        monkeypatch.setenv("ENSTROPHY_LAB_WORKERS", "2")
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


class TestBundledConfig:
    def test_quickcheck_resource_parses(self):
        import importlib.resources as res

        with res.as_file(res.files("enstrophy_lab") / "configs" / "quickcheck.cfg") as p:
            cfg = load_config(str(p))
        assert cfg["tests"]
        assert all(t["name"] in BATTERY_BUILDERS for t in cfg["tests"])


class TestMain:
    def test_cli_entry_run(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", {"seed": 1, "tests": []})
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 0
