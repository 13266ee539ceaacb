"""Smoke runs of the experiment scripts at tiny sizes."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
])
def test_script_runs(name, args, outputs, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, *args, "--out", str(tmp_path)])
    assert _main(name)() == 0
    assert "wrote" in capsys.readouterr().out
    for out in outputs:
        assert len((tmp_path / out).read_text().splitlines()) > 1
