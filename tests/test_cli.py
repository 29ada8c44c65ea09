"""Config validation, exit codes, manifests, reproducibility, bench."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import enstrophy_lab
from enstrophy_lab.cli import BATTERY_BUILDERS, ConfigError, bench, load_config, main, run
from enstrophy_lab.dynamics import env_workers, fft_workers


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

    def test_battery_threads_do_not_change_bytes(self, tmp_path):
        # batteries at two cutoffs share the sampler's layout cache across
        # the battery thread pool; worker count must not change any byte
        cfg = write_cfg(tmp_path / "c.json", {
            "seed": 11,
            "tests": [
                {"name": "wick_mean", "params": {"N": 3, "M": 3000, "kernel": "rank_one", "phi": "cos_x1"}},
                {"name": "moment_bound", "params": {"N": 5, "M": 3000, "p": 2}},
            ],
        })
        src = os.path.dirname(os.path.dirname(enstrophy_lab.__file__))
        digests = {}
        for workers in ("2", "1"):
            env = dict(os.environ, ENSTROPHY_LAB_WORKERS=workers,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = tmp_path / f"w{workers}"
            proc = subprocess.run([sys.executable, "-m", "enstrophy_lab.cli", "run", cfg,
                                   "--out-dir", str(out)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests[workers] = json.loads((out / "manifest.json").read_text())["files"]
        assert digests["2"] == digests["1"]
        assert len(digests["1"]) == 5  # two reports, two tables, summary

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


class TestBundledConfig:
    def test_quickcheck_resource_parses(self):
        import importlib.resources as res

        with res.as_file(res.files("enstrophy_lab") / "configs" / "quickcheck.cfg") as p:
            cfg = load_config(str(p))
        assert cfg["tests"]
        assert all(t["name"] in BATTERY_BUILDERS for t in cfg["tests"])


class TestBench:
    def test_bench_writes_table(self, tmp_path):
        assert bench(max_n=4, out_dir=str(tmp_path)) == 0
        lines = (tmp_path / "throughput.csv").read_text().splitlines()
        assert lines[0] == "N,grid,direct_evals_per_s,dealiased_evals_per_s,rel_dev"
        assert len(lines) == 3  # N = 2, 4


class TestMain:
    def test_cli_entry_run(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", {"seed": 1, "tests": []})
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 0

    def test_cli_entry_bench(self, capsys):
        assert main(["bench", "--max-n", "2"]) == 0
        assert "dealiased/s" in capsys.readouterr().out
