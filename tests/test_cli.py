"""Command-line entry point: artifacts, reports, exit codes, determinism."""

import filecmp
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hsgeo
from hsgeo import data, engine, sphere, weak
from hsgeo.cli import main
from hsgeo.grid import derivative


def _run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_simulate_global_preset(tmp_path, capsys):
    out = tmp_path / "run"
    code, rep = _run_json(
        capsys, ["simulate", "--preset", "fig1c", "--times", "0,2.5,5", "--out", str(out)]
    )
    assert code == 0
    assert rep["schema"] == 1
    assert rep["admissible"] is True
    assert rep["global"] is True
    assert rep["t_star"] is None
    assert abs(rep["energy"] + 4.0) < 1e-12
    assert rep["energy_drift"] < 1e-8
    assert [f["t"] for f in rep["files"]] == [0.0, 2.5, 5.0]
    state = (out / "state_0001.csv").read_text().splitlines()
    assert state[0] == "x,u,rho,ux_along_flow"
    assert len(state) == 257
    assert json.loads((out / "simulate.json").read_text()) == rep


def test_simulate_refuses_continuation_of_breaking_data(capsys):
    code = main(["simulate", "--preset", "fig1a", "--t-max", "1"])
    assert code == 1
    assert "breakdown" in capsys.readouterr().err


def test_simulate_before_breakdown_still_works(capsys):
    code, rep = _run_json(capsys, ["simulate", "--preset", "fig1a", "--times", "0,0.3,0.5"])
    assert code == 0
    assert rep["admissible"] is False
    assert abs(rep["t_star"] - 0.5 * math.log(3.0)) < 1e-10
    assert abs(rep["energy"] + 4.0) < 1e-12
    assert rep["energy_drift"] < 1e-8


def test_simulate_positive_kappa(capsys):
    code, rep = _run_json(capsys, ["simulate", "--preset", "fig1c", "--kappa", "1", "--times", "0,0.4"])
    assert code == 0
    assert rep["kappa"] == 1
    assert rep["class"] == "spacelike"
    assert rep["global"] is True
    assert abs(rep["energy"] - 4.0) < 1e-12


def test_simulate_from_scenario_file(tmp_path, capsys):
    doc = {
        "schema": 1,
        "name": "demo",
        "u0x": {"cos": {"1": 1.0}},
        "rho0": {"const": 2.0, "cos": {"1": 1.0}},
        "kappa": -1,
        "n": 64,
        "times": [0.0, 0.5],
    }
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(doc))
    code, rep = _run_json(capsys, ["simulate", "--scenario", str(path)])
    assert code == 0
    assert rep["name"] == "demo"
    assert rep["n"] == 64
    assert rep["times"] == [0.0, 0.5]
    assert rep["admissible"] is True


@pytest.mark.parametrize("n, t", [(512, 2.6), (512, 5.0), (4096, 5.0)])
def test_simulate_through_a_degenerate_flow_map(tmp_path, capsys, n, t):
    # u0x = a cos 2 pi x, rho0 = a cos 2 pi x + 2 with a = 2: phi_x meets
    # its e^{-2t} floor at x = 1/2, and the weak flow is explicit,
    # phi = x + (1 - e^{-2t}) a sin(2 pi x) / (4 pi),
    # u(t, phi) = e^{-2t} a sin(2 pi x) / (2 pi)
    a = 2.0
    doc = {"u0x": {"cos": {"1": a}}, "rho0": {"const": 2.0, "cos": {"1": a}}, "n": n}
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    code, _ = _run_json(capsys, ["simulate", "--scenario", str(path), "--times", repr(t),
                                 "--out", str(out)])
    assert code == 0
    table = np.loadtxt(out / "state_0000.csv", delimiter=",", skiprows=1)
    y, u = table[:, 0], table[:, 1]
    amp = (1.0 - math.exp(-2.0 * t)) * a / (4.0 * math.pi)
    lo, hi = y - amp, y + amp
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        right = mid + amp * np.sin(2 * np.pi * mid) >= y
        lo, hi = np.where(right, lo, mid), np.where(right, mid, hi)
    x = 0.5 * (lo + hi)
    exact = math.exp(-2.0 * t) * a * np.sin(2 * np.pi * x) / (2 * np.pi)
    # relative to sup|u| = e^{-2t} a / (2 pi), which is 1.4e-5 at t = 5
    assert np.abs(u - exact).max() < 1e-10 * np.abs(exact).max()


def test_blowup_report(capsys):
    code, rep = _run_json(capsys, ["blowup", "--preset", "fig1a"])
    assert code == 0
    assert abs(rep["t_star"] - 0.5 * math.log(3.0)) < 1e-10
    assert abs(rep["t_star_bisect"] - rep["t_star"]) < 1e-8
    assert rep["global"] is False
    assert rep["class"] == "timelike"


def test_blowup_global_preset(capsys):
    code, rep = _run_json(capsys, ["blowup", "--preset", "fig1c"])
    assert code == 0
    assert rep["t_star"] is None
    assert rep["global"] is True


def test_blowup_positive_kappa(capsys):
    code, rep = _run_json(capsys, ["blowup", "--preset", "fig1a", "--kappa", "1"])
    assert code == 0
    assert abs(rep["t_star"] - math.pi / 2) < 1e-10


def test_geodesic_artifacts(tmp_path, capsys):
    out = tmp_path / "geo"
    code, rep = _run_json(
        capsys, ["geodesic", "--preset", "fig1b", "--times", "0,0.3", "--out", str(out)]
    )
    assert code == 0
    assert abs(rep["boundary_hit"] - 0.7594527081268350) < 1e-8
    assert rep["min_gap"][0] == 1.0
    lines = (out / "sphere_0001.csv").read_text().splitlines()
    assert lines[0] == "x,f1,f2"


def test_geodesic_gap_free_of_cancellation(capsys):
    # f1, f2 grow like e^t here; the gap is (1 + e^{-2t}) / 2 exactly
    code, rep = _run_json(capsys, ["geodesic", "--preset", "fig1c", "--times", "5,10,15,20"])
    assert code == 0
    for t, gap in zip(rep["times"], rep["min_gap"]):
        exact = 0.5 * (1.0 + math.exp(-2.0 * t))
        assert abs(gap - exact) < 1e-12 * exact


def test_geodesic_evaluates_its_branch_factors_once_per_frame(monkeypatch, capsys):
    calls = []

    def counted(f):
        calls.append(f)
        return derivative(f)

    for mod in (data, engine, sphere, weak):
        monkeypatch.setattr(mod, "derivative", counted)
    code, _ = _run_json(capsys, ["geodesic", "--preset", "fig1c", "--times", "0,1,2,3"])
    assert code == 0
    # one per frame, one for boundary_hit_time and one for the casimir
    assert len(calls) <= 6


def test_geodesic_needs_the_negative_coupling(capsys):
    assert main(["geodesic", "--preset", "fig1b", "--kappa", "1"]) == 2


def test_compare_report(capsys):
    for kappa in ("-1", "1"):
        code, rep = _run_json(capsys, ["compare", "--preset", "fig1c", "--n", "64",
                                       "--times", "0.1,0.3", "--kappa", kappa])
        assert code == 0
        assert rep["max_l2"] < 1e-5
        assert all(r["casimir_drift"] < 1e-8 for r in rep["rows"])


def test_curvature_identity_suite(capsys):
    code, rep = _run_json(capsys, ["curvature", "--samples", "10"])
    assert code == 0
    assert rep["pass"] is True
    assert set(rep["identities"]) == {
        "constant_curvature",
        "j_squared",
        "omega_compat",
        "anti_isometry",
        "nijenhuis",
    }
    code, rep = _run_json(capsys, ["curvature", "--samples", "10", "--kappa", "1"])
    assert code == 0
    assert list(rep["identities"]) == ["constant_curvature"]


def test_findim_random_check(capsys):
    code, rep = _run_json(capsys, ["findim", "--n", "1", "--samples", "20"])
    assert code == 0
    assert rep["pass"] is True
    assert rep["max_dev_from_4"] < 1e-10


def test_findim_plane_scan(tmp_path, capsys):
    out = tmp_path / "scan"
    code = main(["findim", "--n", "2", "--scan-planes", "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "a,b,sec"
    secs = {float(line.split(",")[2]) for line in lines[1:]}
    assert any(abs(s - 4.0) > 0.1 for s in secs)
    assert (out / "planes.csv").exists()


def test_outputs_are_deterministic(tmp_path, capsys):
    dirs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        assert main(["simulate", "--preset", "fig1b", "--times", "0,0.2", "--out", str(out),
                     "--seed", "3"]) == 0
        capsys.readouterr()
        dirs.append(out)
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
    assert mismatch == [] and errors == []


def test_invalid_preset_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--preset", "fig1z"])
    assert exc.value.code == 2


def test_descending_times_rejected(capsys):
    assert main(["blowup", "--times", "0.5,0.2"]) == 2
    assert "ascending" in capsys.readouterr().err


def test_missing_scenario_file_is_a_config_error(capsys):
    assert main(["simulate", "--scenario", "/nonexistent/scen.json"]) == 2


def test_dimension_bounds_checked(capsys):
    assert main(["findim", "--n", "0"]) == 2
    assert main(["findim", "--n", "65"]) == 2


def test_state_table_has_full_precision(tmp_path, capsys):
    out = tmp_path / "prec"
    assert main(["simulate", "--preset", "fig1c", "--times", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = (out / "state_0000.csv").read_text().splitlines()[1:]
    rho = np.array([float(r.split(",")[2]) for r in rows])
    x = np.arange(256) / 256
    assert np.abs(rho - (np.cos(2 * np.pi * x) + 2.0)).max() < 1e-15


def test_import_leaves_scipy_unloaded():
    code = ("import sys, hsgeo, hsgeo.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(hsgeo.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"
