"""Smoke runs of the experiment scripts and the benchmark workloads at tiny sizes."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize("name, args, outputs", [
    ("breakdown_sweep", ["--n", "64", "--points", "5", "--bisect"], ["sweep.csv"]),
    ("long_time_profile", ["--n", "64", "--points", "5", "--t-max", "2"],
     ["profile.csv", "final_slope.csv"]),
    ("curvature_scan", ["--n", "64", "--points", "3", "--dims", "1"],
     ["family.csv", "planes.csv"]),
    ("closed_vs_stepping", ["--ns", "64", "--times", "0.1,0.3"], ["closed_vs_stepping.csv"]),
])
def test_script_runs(name, args, outputs, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, *args, "--out", str(tmp_path)])
    assert _main(name)() == 0
    assert "wrote" in capsys.readouterr().out
    for out in outputs:
        assert len((tmp_path / out).read_text().splitlines()) > 1


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs_clean(workload, trace):
    # one round of each workload, untraced and traced: the run breaks if a
    # call, a checked output or a name the tracer wraps no longer fits
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    res = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=False)
    assert res.returncode == 0, res.stderr
    summary = json.loads(res.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, summary
