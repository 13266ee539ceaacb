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


def _module(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, args, outputs", [
    ("breakdown_sweep", ["--n", "64", "--points", "5", "--bisect"], ["sweep.csv"]),
    ("long_time_profile", ["--n", "64", "--points", "5", "--t-max", "2"],
     ["profile.csv", "final_slope.csv"]),
    ("curvature_scan", ["--n", "64", "--points", "3", "--dims", "1"],
     ["family.csv", "planes.csv"]),
    ("closed_vs_stepping", ["--ns", "64", "--times", "0.1,0.3"], ["closed_vs_stepping.csv"]),
    ("output_battery", [], ["manifest.json"]),
])
def test_script_runs(name, args, outputs, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, *args, "--out", str(tmp_path)])
    assert _module(name).main() == 0
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


def test_output_battery_compares_two_manifests():
    # hand-made manifests: one run the same, one with a new file hash, a
    # new exit code and stderr, one only in the old, one only in the new
    battery = _module("output_battery")

    def run(argv, code=0, err="", files=None):
        return {"argv": argv.split(), "exit": code, "stdout": "ok\n", "stderr": err,
                "files": files or {"a.csv": "11", "b.csv": "22"}}

    old = [run("simulate --n 64"), run("geodesic --n 64"), run("blowup --n 64")]
    assert battery.compare(old, old) == []
    new = [run("simulate --n 64"), run("geodesic --n 64", files={"a.csv": "11", "b.csv": "23"}),
           run("compare --n 64", 1, "hs compare: refused\n")]
    assert battery.compare(old, new) == [
        "geodesic --n 64: files b.csv differ",
        "compare --n 64: not in the old manifest",
        "blowup --n 64: not in the new manifest",
    ]
    new[0] = run("simulate --n 64", 1, "hs simulate: refused\n", {"a.csv": "11"})
    assert battery.compare(old, new)[0] == "simulate --n 64: exit; stderr; files b.csv differ"
