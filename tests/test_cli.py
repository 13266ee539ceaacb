"""Command-line entry point: artifacts, reports, exit codes, determinism."""

import filecmp
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import hsgeo
from hsgeo import cli, data, engine, geometry, oracle, sphere, weak
from hsgeo.cli import main
from hsgeo.findim import fin_metric, j_action, quotient_sec, random_horizontal, random_point
from hsgeo.geometry import (
    KTangent,
    TangentPair,
    arnold_curvature,
    j_tensor,
    metric_G,
    metric_K,
    nijenhuis,
    omega_form,
)
from hsgeo.grid import Grid, derivative, mean_zero_project, write_table


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


def _degenerate_scenario(tmp_path, n, a=2.0):
    doc = {"u0x": {"cos": {"1": a}}, "rho0": {"const": 2.0, "cos": {"1": a}}, "n": n}
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(doc))
    return path


def _degenerate_exact_u(y, t, a=2.0):
    """u at the points y of the weak flow of u0x = a cos 2 pi x,
    rho0 = a cos 2 pi x + 2, which is explicit:
    phi = x + (1 - e^{-2t}) a sin(2 pi x) / (4 pi),
    u(t, phi) = e^{-2t} a sin(2 pi x) / (2 pi); labels by bisection."""
    amp = (1.0 - math.exp(-2.0 * t)) * a / (4.0 * math.pi)
    lo, hi = y - amp, y + amp
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        right = mid + amp * np.sin(2 * np.pi * mid) >= y
        lo, hi = np.where(right, lo, mid), np.where(right, mid, hi)
    x = 0.5 * (lo + hi)
    return math.exp(-2.0 * t) * a * np.sin(2 * np.pi * x) / (2 * np.pi)


@pytest.mark.parametrize("n, t", [(512, 2.6), (512, 5.0), (4096, 5.0)])
def test_simulate_through_a_degenerate_flow_map(tmp_path, capsys, n, t):
    # a = 2: phi_x meets its e^{-2t} floor at x = 1/2
    path = _degenerate_scenario(tmp_path, n)
    out = tmp_path / "run"
    code, _ = _run_json(capsys, ["simulate", "--scenario", str(path), "--times", repr(t),
                                 "--out", str(out)])
    assert code == 0
    table = np.loadtxt(out / "state_0000.csv", delimiter=",", skiprows=1)
    y, u = table[:, 0], table[:, 1]
    exact = _degenerate_exact_u(y, t)
    # relative to sup|u| = e^{-2t} a / (2 pi), which is 1.4e-5 at t = 5
    assert np.abs(u - exact).max() < 1e-10 * np.abs(exact).max()


@pytest.mark.parametrize("n", [128, 256, 512])
def test_simulate_reaches_the_floor_of_a_degenerate_flow_map(tmp_path, capsys, n):
    # at t = 20 the composed phi_x at y = 1/2 is rounding, at or below
    # its floor e^{-40}: 0.0 at n = 256 when each frame differentiated
    # phi - x, so rho0 / phi_x was 0/0, a warning and a refused NaN
    # (exit 2); it is now held at the floor
    path = _degenerate_scenario(tmp_path, n)
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = _run_json(capsys, ["simulate", "--scenario", str(path), "--times", "20",
                                       "--out", str(out)])
    assert code == 0 and rep["admissible"]
    table = np.loadtxt(out / "state_0000.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(table))
    assert np.abs(table[:, 1] - _degenerate_exact_u(table[:, 0], 20.0)).max() < 1e-16


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


def test_geodesic_analyses_its_datum_once_per_run(monkeypatch, capsys):
    # the frames, the boundary clock and the reported Casimir read one
    # analysis (five, one per frame and one for the clock, when each
    # frame analysed the datum again) of one derivative
    calls = []

    def counted(f):
        calls.append(f)
        return derivative(f)

    for mod in (data, engine, sphere, weak):
        monkeypatch.setattr(mod, "derivative", counted)
    work = _count_work(monkeypatch)
    code, rep = _run_json(capsys, ["geodesic", "--preset", "fig1c", "--times", "0,1,2,3"])
    assert code == 0 and len(rep["min_gap"]) == 4
    assert work["analyses"] == 1
    assert len(calls) == 1


def test_simulate_differentiates_its_datum_once(monkeypatch, capsys):
    calls = []

    def counted(f):
        calls.append(f)
        return derivative(f)

    monkeypatch.setattr(data, "derivative", counted)
    code, rep = _run_json(capsys, ["simulate", "--preset", "fig1c", "--n", "64", "--times", "0,1,2,5"])
    assert code == 0 and len(rep["times"]) == 4
    assert len(calls) == 1


def _count_work(monkeypatch):
    """Counters of the numpy FFT calls, the stencil passes of the
    nonuniform evaluator and the datum analyses of a run."""
    work = {"fft": 0, "passes": 0, "analyses": 0}
    for name in ("fft", "ifft", "rfft", "irfft"):
        fn = getattr(np.fft, name)

        def counted_fft(*a, _fn=fn, **k):
            work["fft"] += 1
            return _fn(*a, **k)

        monkeypatch.setattr(np.fft, name, counted_fft)
    interpolant = engine._interpolant

    def counted_interpolant(*columns):
        at = interpolant(*columns)

        def counted_at(pts):
            work["passes"] += 1
            return at(pts)

        return counted_at

    monkeypatch.setattr(engine, "_interpolant", counted_interpolant)
    analysis = engine._analysis

    def counted_analysis(*a):
        work["analyses"] += 1
        return analysis(*a)

    for mod in (engine, sphere, weak):
        monkeypatch.setattr(mod, "_analysis", counted_analysis)
    return work


@pytest.mark.parametrize("source", ["fig1c", "degenerate"])
def test_simulate_frames_stream_from_one_analysis(monkeypatch, capsys, tmp_path, source):
    # per frame: two FFT calls for phi and phi_t, two to oversample
    # phi - x and phi_x for Newton, two for the composed columns; two
    # Newton passes and one composition pass. The datum is analysed once
    # per run (16 FFT calls and 4 passes per frame, and 3 analyses per
    # frame, when every frame analysed it again)
    if source == "fig1c":
        argv = ["simulate", "--preset", "fig1c", "--n", "256"]
    else:
        argv = ["simulate", "--scenario", str(_degenerate_scenario(tmp_path, 512))]
    counts = {}
    for frames in (1, 6):
        work = _count_work(monkeypatch)
        times = ",".join(str(t) for t in [0.5, 1.2, 2.6, 5.0, 10.0, 20.0][:frames])
        code, rep = _run_json(capsys, argv + ["--times", times, "--out", str(tmp_path / "run")])
        assert code == 0 and len(rep["files"]) == frames
        counts[frames] = dict(work)
        monkeypatch.undo()
    assert counts[1]["analyses"] == counts[6]["analyses"] == 1
    assert counts[6]["fft"] - counts[1]["fft"] <= 6 * 5
    assert counts[6]["passes"] - counts[1]["passes"] <= 3 * 5
    assert counts[1]["fft"] <= 4 + 6 and counts[1]["passes"] <= 3  # the datum's own: 4


def test_simulate_of_breaking_data_analyses_it_twice_per_run(monkeypatch, capsys):
    # the admission check, and the classical flow at the normalized class
    counts = []
    for times in ("0.1", "0.1,0.2,0.3,0.4"):
        work = _count_work(monkeypatch)
        code, _ = _run_json(capsys, ["simulate", "--preset", "fig1a", "--times", times])
        assert code == 0
        counts.append(work["analyses"])
        monkeypatch.undo()
    assert counts == [2, 2]


def test_simulate_memory_stays_below_the_per_frame_analysis(tmp_path, capsys):
    # two frames of fig1c at n = 1024, tables written: 0.878e6 bytes
    # traced when each frame analysed its datum, differentiated phi - x
    # and built (n, 16) index arrays; 0.737e6 now. The bound is 90% of
    # the former
    argv = ["simulate", "--preset", "fig1c", "--n", "1024", "--times", "1.3,7.2",
            "--out", str(tmp_path / "run")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 0.9 * 0.878e6


def test_simulate_tables_match_the_reference_inversion(tmp_path, capsys):
    # x formatted per value, as tables were written; u and rho within
    # 1e-12 of the inversion that differentiated phi - x and started at
    # the secant point; the report's energy from the same states
    from test_engine import _reference_eulerian

    out = tmp_path / "run"
    times = [0.5, 2.6, 10.0]
    code, rep = _run_json(capsys, ["simulate", "--preset", "fig1c", "--times",
                                   ",".join(map(str, times)), "--out", str(out)])
    assert code == 0
    d = data.preset("fig1c")
    energies = []
    for f, t in zip(rep["files"], times):
        lines = (out / f["path"]).read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == [f"{x:.17g}" for x in d.grid.x]
        table = np.loadtxt(out / f["path"], delimiter=",", skiprows=1)
        s = weak.flow_state(d, t)
        energies.append(weak.energy(s))
        for got, want in zip(table.T[1:], (*_reference_eulerian(s), s.ux.values)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert abs(rep["energy"] - energies[0]) <= 1e-12 * abs(energies[0])
    assert abs(rep["energy_drift"] - max(abs(e - energies[0]) for e in energies)) <= 1e-12


def test_geodesic_tables_keep_their_bytes(tmp_path, capsys):
    # written through one row template per run, byte for byte the tables
    # of write_table on the full columns
    out = tmp_path / "geo"
    times = [0.0, 0.7, 3.0]
    code, rep = _run_json(capsys, ["geodesic", "--preset", "fig1b", "--n", "64", "--times",
                                   ",".join(map(str, times)), "--out", str(out)])
    assert code == 0
    d = data.preset("fig1b", 64)
    for f, t in zip(rep["files"], times):
        g = sphere.geodesic(d, t)
        write_table(tmp_path / "ref.csv", "x,f1,f2", [d.grid.x, g.f1.values, g.f2.values])
        assert (out / f["path"]).read_bytes() == (tmp_path / "ref.csv").read_bytes()


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
        assert main(["simulate", "--preset", "fig1b", "--times", "0,0.2", "--out", str(out)]) == 0
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
    for command in ("simulate", "geodesic", "compare"):
        assert main([command, "--times", "0.5,0.2"]) == 2
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


# ---- the curvature and findim suites against per-sample reference loops ----


def _random_pair(grid, rng, modes=6):
    x = grid.x
    u1 = np.zeros(grid.n)
    u2 = np.full(grid.n, rng.uniform(-1.0, 1.0))
    for m in range(1, modes + 1):
        a, b = rng.normal(size=2) / m
        u1 = u1 + a * np.sin(2 * np.pi * m * x) + b * (np.cos(2 * np.pi * m * x) - 1.0)
        c, e = rng.normal(size=2) / m
        u2 = u2 + c * np.sin(2 * np.pi * m * x) + e * np.cos(2 * np.pi * m * x)
    return TangentPair(grid.function(u1), grid.function(u2))


def _curvature_reference(n, samples, seed, kappa):
    """The identity suite of hs curvature as a loop over the public
    per-pair API, one TangentPair at a time: the worst error of each
    identity."""
    rng = np.random.default_rng(seed)
    grid = Grid(n)
    worst = {"constant_curvature": 0.0}
    if kappa == -1:
        worst.update({"j_squared": 0.0, "omega_compat": 0.0, "anti_isometry": 0.0, "nijenhuis": 0.0})
    for _ in range(samples):
        u = _random_pair(grid, rng)
        v = _random_pair(grid, rng)
        sec = arnold_curvature(u, v, kappa)
        prod = metric_G(u, u, kappa) * metric_G(v, v, kappa) - metric_G(u, v, kappa) ** 2
        worst["constant_curvature"] = max(
            worst["constant_curvature"], abs(sec - prod) / max(1.0, abs(prod)))
        if kappa != -1:
            continue
        uk = TangentPair(u.u1, mean_zero_project(u.u2))
        vk = TangentPair(v.u1, mean_zero_project(v.u2))
        ju, jv = j_tensor(uk), j_tensor(vk)
        jju = j_tensor(ju)
        worst["j_squared"] = max(worst["j_squared"],
                                 (jju.u1 - uk.u1).sup_norm(), (jju.u2 - uk.u2).sup_norm())
        worst["omega_compat"] = max(worst["omega_compat"], abs(
            omega_form(uk, vk) - metric_K(KTangent(ju.u1, ju.u2), KTangent(vk.u1, vk.u2))))
        worst["anti_isometry"] = max(worst["anti_isometry"], abs(
            metric_K(KTangent(ju.u1, ju.u2), KTangent(jv.u1, jv.u2))
            + metric_K(KTangent(uk.u1, uk.u2), KTangent(vk.u1, vk.u2))))
        nij = nijenhuis(uk, vk)
        worst["nijenhuis"] = max(worst["nijenhuis"], nij.u1.sup_norm(), nij.u2.sup_norm())
    return worst


def _findim_reference(n, samples, seed):
    """hs findim as a loop over the public API: the worst |sec(X, JX) - 4|
    and the number of samples not skipped as nearly null."""
    rng = np.random.default_rng(seed)
    worst, checked = 0.0, 0
    for _ in range(samples):
        p = random_point(n, rng)
        x = random_horizontal(p, rng)
        if abs(fin_metric(x, x)) < 1e-2:
            continue
        checked += 1
        worst = max(worst, abs(quotient_sec(x, j_action(x)) - 4.0))
    return worst, checked


@pytest.mark.parametrize("n, samples", [(64, 9), (256, 5)])
@pytest.mark.parametrize("seed", [0, 5, 12345])
def test_curvature_suite_reproduces_the_per_pair_loop(capsys, n, samples, seed):
    # the same planes, drawn in the same order, give the same errors bit for bit
    for kappa in (-1, 1):
        code, rep = _run_json(capsys, ["curvature", "--n", str(n), "--samples", str(samples),
                                       "--seed", str(seed), "--kappa", str(kappa)])
        assert code == 0
        want = _curvature_reference(n, samples, seed, kappa)
        assert {k: v["max_error"] for k, v in rep["identities"].items()} == want


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("seed", [1, 7, 2024])
def test_findim_suite_reproduces_the_per_sample_loop(capsys, n, seed):
    code, rep = _run_json(capsys, ["findim", "--n", str(n), "--seed", str(seed)])
    assert code == 0
    assert (rep["max_dev_from_4"], rep["checked"]) == _findim_reference(n, 100, seed)


def test_findim_reports_the_samples_it_checked(capsys):
    code, rep = _run_json(capsys, ["findim", "--n", "1", "--seed", "7"])
    assert code == 0 and rep["samples"] == 100 and rep["checked"] == 99
    # seed 53 draws one nearly null vector: nothing is checked, nothing passes
    code, rep = _run_json(capsys, ["findim", "--n", "1", "--samples", "1", "--seed", "53"])
    assert code == 1 and rep["checked"] == 0 and rep["pass"] is False


@pytest.mark.parametrize("command", ["curvature", "findim"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_suites_refuse_to_check_nothing(capsys, command, samples):
    assert main([command, "--samples", samples]) == 2
    assert "--samples" in capsys.readouterr().err


def test_compare_refuses_t_max(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--preset", "lightlike", "--n", "64", "--t-max", "0.6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --t-max" in capsys.readouterr().err


def test_compare_refuses_work_past_its_cap_before_building_the_datum(monkeypatch, capsys):
    # at n = 4096 and the largest step 0.5/n = 2^-13, 4096 steps fill
    # MAX_STEP_NODES = 2^24 exactly; t = 0.3 (2458 steps) must stay admitted
    dt = 0.5 / 4096
    for t in (0.3, 0.5):
        oracle._check_work(4096, [t], oracle.OracleConfig(dt=dt))

    def refuse(*args, **kwargs):
        raise AssertionError("the refused run built its datum or started its march")

    monkeypatch.setattr("hsgeo.cli.preset", refuse)
    monkeypatch.setattr("hsgeo.cli.compare", refuse)
    one_past = ["compare", "--n", "4096", "--dt", repr(dt), "--times", repr(4097 * dt)]
    for argv in (one_past, ["compare", "--dt", "1e-12"], ["compare", "--dt", "1e-320"],
                 ["compare", "--n", str(2**24 + 2), "--times", "0"]):
        tracemalloc.start()
        try:
            assert main(argv) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "MAX_STEP_NODES" in capsys.readouterr().err
        assert peak < 2**16


@pytest.mark.parametrize("command", ["simulate", "geodesic"])
def test_movies_refuse_frames_past_their_cap_before_building_them(monkeypatch, capsys, command):
    # one frame past MAX_FRAMES and an overflowing t-max / dt exit 2
    # before the time list is built or the run starts
    def refuse(*args, **kwargs):
        raise AssertionError("the refused run started")

    monkeypatch.setattr("hsgeo.cli.flow", refuse)
    monkeypatch.setattr("hsgeo.cli._geodesic_flow", refuse)
    cap = cli.MAX_FRAMES
    assert main([command, "--n", "64", "--dt", "nan"]) == 2  # builds the parser, before measuring
    for clock in (["--t-max", repr(cap * 0.5), "--dt", "0.5"], ["--t-max", "1e300", "--dt", "1e-300"]):
        tracemalloc.start()
        try:
            assert main([command, "--n", "64"] + clock) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "MAX_FRAMES" in capsys.readouterr().err
        assert peak < 2**17
    args = cli._build_parser().parse_args([command, "--t-max", repr((cap - 1) * 0.5), "--dt", "0.5"])
    assert len(cli._resolve_times(args)) == cap


@pytest.mark.parametrize("argv", [
    ["curvature", "--samples", "2", "--t-max", "3"],
    ["curvature", "--samples", "2", "--preset", "fig1a"],
    ["curvature", "--samples", "2", "--times", "0.5"],
    ["findim", "--samples", "2", "--dt", "0.1"],
    ["findim", "--samples", "2", "--kappa", "1"],
    ["blowup", "--t-max", "3"],
    ["blowup", "--dt", "0.2"],
    ["blowup", "--times", "0.5"],
    ["simulate", "--seed", "3"],
    ["geodesic", "--seed", "3"],
    ["compare", "--seed", "3"],
])
def test_commands_refuse_flags_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize("n, bound_mb", [(256, 0.2), (4096, 0.8)])
def test_curvature_suite_memory_stays_bounded(capsys, n, bound_mb):
    # samples go through in chunks sized from a byte budget: at n = 256 four
    # at a time peak at 0.19 MB (all 20 at once would take 0.88 MB); at
    # n = 4096 one at a time peaks at 0.73 MB (1.20 MB as TangentPair chains).
    argv = ["curvature", "--samples", "20", "--n", str(n), "--json"]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        main(argv)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= bound_mb * 2**20


def test_nijenhuis_bound_scales_with_n_and_still_sees_a_wrong_j(monkeypatch, capsys):
    # at n = 4096 the rounding of the nested derivatives reads 1.18e-7,
    # above the 1e-7 floor; a J off by a relative 1e-6 must still fail
    argv = ["curvature", "--samples", "20", "--n", "4096", "--json"]
    assert main(argv) == 0
    nij = json.loads(capsys.readouterr().out)["identities"]["nijenhuis"]
    assert 1e-7 < nij["max_error"] < nij["tolerance"]
    j = geometry._j_tensor
    monkeypatch.setattr(geometry, "_j_tensor", lambda U, px=None: (1.0 + 1e-6) * j(U, px))
    assert main(argv) == 1
    nij = json.loads(capsys.readouterr().out)["identities"]["nijenhuis"]
    assert nij["max_error"] > nij["tolerance"] and not nij["pass"]


def test_curvature_suite_batches_its_ffts(monkeypatch, capsys):
    # 800 numpy FFT calls for 20 samples at n = 256, chunked four samples
    # at a time; one TangentPair chain per sample made 3922
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
    assert main(["curvature", "--samples", "20", "--json"]) == 0
    capsys.readouterr()
    assert len(calls) <= 1000


def test_import_makes_no_fft_call():
    # import time is in every run's set-up: no spectral table may be built there
    code = ("import numpy as np\n"
            "calls = []\n"
            "for name in ('fft', 'ifft', 'rfft', 'irfft', 'fftfreq', 'rfftfreq'):\n"
            "    fn = getattr(np.fft, name)\n"
            "    setattr(np.fft, name, lambda *a, _fn=fn, _n=name, **k: calls.append(_n) or _fn(*a, **k))\n"
            "import hsgeo, hsgeo.cli\n"
            "print(calls)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(hsgeo.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"
