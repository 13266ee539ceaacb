"""The four benchmark workloads: inputs from a seed, timed calls, checks.

A workload hands out rounds, and one warm-up task that is run before
the timed rounds. A round is a list of tasks; a task is one
timed call into hsgeo that yields `frames` items. Every round of a
workload has the same make-up, so the share of items that fail on a
known program fault is the same in every run. Each task's check
compares the program's output with `refs` (exact solutions that do not
use hsgeo) or with identities the program pins, and returns one entry
per item: None if the item is right, else what was wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import hsgeo
import hsgeo.cli as cli
import refs

TOL = 1e-9  # relative; the spectrally accurate paths reach ~1e-13


@dataclass
class Task:
    frames: int
    run: Callable[[], object]
    check: Callable[[object], list]
    faults: tuple = ()  # per item: True where a named program fault is expected


class Workload:
    """Base of the four workloads; inputs and outputs go under `scratch`."""

    def __init__(self, scratch: Path):
        self.scratch = scratch


def _hs(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _rel(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300))


def _resolved(a: float, t: float, n: int) -> bool:
    """Whether rho0 / phi_x of the cosine family is resolved on n labels.

    phi_x = 1 + (1 - e^{-2t}) (a/2) cos 2 pi x vanishes at complex x a
    distance acosh(k) / (2 pi) from the real axis, k = 2 / ((1 - e^{-2t}) a),
    so the Fourier modes of rho along the flow decay like
    exp(-acosh(k) |m|). Resolved means the mode at n/2 is below e^-30.
    """
    g = (1.0 - math.exp(-2.0 * t)) * 0.5 * a
    if g <= 0.0:
        return True
    return g < 1.0 and 0.5 * n * math.acosh(1.0 / g) >= 30.0


def _movie_task(scenario: Path, a: float, n: int, times: list[float], out: Path,
                faults: tuple = ()) -> Task:
    argv = ["simulate", "--scenario", str(scenario), "--times", ",".join(map(repr, times)),
            "--out", str(out), "--json"]

    def check(result) -> list:
        code, text = result
        if code != 0:
            return [f"exit code {code}"] * len(times)
        rep = json.loads(text)
        common = []
        if not (rep["admissible"] and rep["global"]):
            common.append("not reported global and admissible")
        if abs(rep["energy"] + 4.0) > TOL or rep["energy_drift"] > 1e-8:
            common.append("energy is not -4")
        if [f["t"] for f in rep["files"]] != times:
            return ["output times differ"] * len(times)
        verdicts = []
        for f, t in zip(rep["files"], times):
            tab = np.loadtxt(out / f["path"], delimiter=",", skiprows=1)
            y = tab[:, 0]
            errs = list(common)
            if tab.shape != (n, 4) or np.any(y != np.arange(n) / n):
                errs.append("table is not on the grid")
            else:
                u, rho, ux, _ = refs.cosine_family(a, t, y)
                if _rel(tab[:, 1], u) > TOL:
                    errs.append("u")
                if _resolved(a, t, n):
                    if _rel(tab[:, 2], rho) > TOL:
                        errs.append("rho")
                    if _rel(tab[:, 3], ux) > TOL:
                        errs.append("ux_along_flow")
            verdicts.append(", ".join(errs) or None)
        return verdicts

    return Task(len(times), lambda: _hs(argv), check, faults)


def _scenario(path: Path, a: float, n: int) -> Path:
    doc = {"schema": 1, "name": f"cosine-a{a!r}", "kappa": -1, "n": n,
           "u0x": {"cos": {"1": a}}, "rho0": {"cos": {"1": a}, "const": 2.0}}
    path.write_text(json.dumps(doc))
    return path


class WeakMovie(Workload):
    """hs simulate at n = 1024 on admissible, non-degenerate cosine data.

    Round: one block of two frames, t1 in [0, 5) and t2 in [5, 10), with
    a drawn from [0.75, 1.25] (a = 1 is fig1c). Every frame takes the
    Newton inversion path.
    """

    n = 1024

    def setup(self) -> None:
        (self.scratch / "csv").mkdir(parents=True, exist_ok=True)

    def round(self, rng: np.random.Generator, k: int) -> list[Task]:
        a = float(rng.uniform(0.75, 1.25))
        times = [float(rng.uniform(0.0, 5.0)), float(rng.uniform(5.0, 10.0))]
        path = _scenario(self.scratch / f"weak-{k}.json", a, self.n)
        return [_movie_task(path, a, self.n, times, self.scratch / "csv")]

    def warmup(self) -> Task:
        path = _scenario(self.scratch / "weak-warm.json", 1.0, self.n)
        return _movie_task(path, 1.0, self.n, [1.0], self.scratch / "csv")


class DegenerateMovie(Workload):
    """hs simulate at n = 512 on u0x = 2 cos 2 pi x, rho0 = 2(1 + cos 2 pi x).

    min phi_x meets its e^{-2t} floor at x = 1/2. Round: one block of
    four frames, two seeded ones on the Newton path (t in [0.1, 0.8) and
    [0.9, 1.5)), then t = 2.6, where Newton runs out of iterations and
    falls back to PCHIP, and t = 5, where min phi_x < NEWTON_SLOPE sends
    the inversion to PCHIP at once. The last two do not depend on the
    seed; both lose u to about 5e-6 and are counted as failed.
    """

    n = 512
    a = 2.0
    fallback_times = [2.6, 5.0]

    def setup(self) -> None:
        (self.scratch / "csv").mkdir(parents=True, exist_ok=True)
        self.path = _scenario(self.scratch / "degenerate.json", self.a, self.n)

    def round(self, rng: np.random.Generator, k: int) -> list[Task]:
        newton = [float(rng.uniform(0.1, 0.8)), float(rng.uniform(0.9, 1.5))]
        times = newton + self.fallback_times
        return [_movie_task(self.path, self.a, self.n, times, self.scratch / "csv",
                            (False, False, True, True))]

    def warmup(self) -> Task:
        """One Newton frame and one PCHIP frame."""
        return _movie_task(self.path, self.a, self.n, [1.0, 5.0], self.scratch / "csv",
                           (False, True))


class BreakdownSweep(Workload):
    """Members of the amplitude and shift families at n = 4096.

    Both have u0x = cos 2 pi x; rho0 = r cos 2 pi x or cos 2 pi x + s.
    Round (66 members): r = 1 and s = 0 (lightlike edges), the sixteen
    s = 1.0, 1.1, ..., 2.5 (global data; fixed, they carry the
    BORDER_TOL fault), 32 r stratified over [0, 3] and 16 s stratified
    over [0.02, 0.98].
    """

    n = 4096
    fixed_shifts = [(10 + k) / 10 for k in range(16)]

    def setup(self) -> None:
        self.grid = hsgeo.Grid(self.n)
        self.base = np.cos(2.0 * np.pi * self.grid.x)
        self.u0x = self.grid.function(self.base)

    def _member(self, family: str, p: float, fault: bool) -> Task:
        rho0 = self.grid.function(p * self.base if family == "amplitude" else self.base + p)
        u0x = self.u0x
        t_ref, scale_ref = (refs.amplitude_clock if family == "amplitude" else refs.shift_clock)(p)
        expect_global = family == "shift" and p >= 1.0

        def run():
            d = hsgeo.InitialData.from_gradient(u0x, rho0, -1)
            norm, cls = hsgeo.normalize(d)
            t_unit = hsgeo.blowup_time(norm)
            literal = hsgeo.singular_time_literal(norm)
            bis = hsgeo.blowup_time_bisect(norm) if math.isfinite(t_unit) else math.inf
            return {
                "scale": cls.scale,
                "t_star": cls.scale * t_unit,
                "literal": cls.scale * literal,
                "bisect": cls.scale * bis,
                "global": hsgeo.is_global(norm),
                "admissible": hsgeo.admissibility(norm).admissible,
                "hit": hsgeo.boundary_hit_time(d),
            }

        def close(x: float) -> bool:
            if math.isinf(t_ref):
                return math.isinf(x)
            return abs(x - t_ref) <= TOL * t_ref

        def check(out) -> list:
            errs = []
            if abs(out["scale"] / scale_ref - 1.0) > TOL:
                errs.append("scale")
            for key in ("t_star", "hit"):
                if not close(out[key]):
                    errs.append(key)
            if math.isfinite(out["t_star"]) and not close(out["bisect"]):
                errs.append("bisect")
            if not out["literal"] >= t_ref * (1.0 - TOL):
                errs.append("literal before the first root")
            if out["global"] != expect_global or out["admissible"] != expect_global:
                errs.append("global/admissible")
            return [", ".join(errs) or None]

        return Task(1, run, check, (fault,))

    def round(self, rng: np.random.Generator, k: int) -> list[Task]:
        rs = 3.0 * (np.arange(32) + rng.uniform(size=32)) / 32
        rs = np.where(np.abs(rs - 1.0) < 1e-3, 1.0 + np.copysign(1e-3, rs - 1.0), rs)
        ss = 0.02 + 0.96 * (np.arange(16) + rng.uniform(size=16)) / 16
        tasks = [self._member("amplitude", 1.0, False), self._member("shift", 0.0, False)]
        tasks += [self._member("shift", s, True) for s in self.fixed_shifts]
        tasks += [self._member("amplitude", float(r), False) for r in rs]
        tasks += [self._member("shift", float(s), False) for s in ss]
        return tasks

    def warmup(self) -> Task:
        return self._member("amplitude", 2.0, False)


class SpectralChecks(Workload):
    """One item: hs compare (lightlike, n = 256, dt = 1e-3, 300 RK4 steps),
    hs curvature --samples 20 and hs findim --n 3, with seeded times and
    seeds."""

    n = 256
    # tolerances pinned by hs curvature and hs findim, and by the CLI tests for compare
    curvature_tols = {"constant_curvature": 1e-6, "j_squared": 1e-7, "omega_compat": 1e-7,
                      "anti_isometry": 1e-7, "nijenhuis": 1e-7}

    def setup(self) -> None:
        self.y = np.arange(self.n) / self.n

    def round(self, rng: np.random.Generator, k: int) -> list[Task]:
        steps = [int(rng.integers(50, 150)), int(rng.integers(150, 250)), 300]
        times = [s / 1000 for s in steps]
        seeds = [int(s) for s in rng.integers(0, 2**31, size=2)]
        argvs = [
            ["compare", "--preset", "lightlike", "--n", str(self.n), "--dt", "1e-3",
             "--times", ",".join(map(repr, times)), "--json"],
            ["curvature", "--samples", "20", "--seed", str(seeds[0]), "--json"],
            ["findim", "--n", "3", "--seed", str(seeds[1]), "--json"],
        ]

        def run():
            return [_hs(argv) for argv in argvs]

        def check(results) -> list:
            errs = []
            if any(code != 0 for code, _ in results):
                return [f"exit codes {[code for code, _ in results]}"]
            cmp, curv, fin = (json.loads(text) for _, text in results)
            if [r["t"] for r in cmp["rows"]] != times or not cmp["max_l2"] < 1e-5:
                errs.append("compare max_l2")
            if abs(cmp["blowup_time"] - 1.0) > TOL or abs(cmp["casimir"]) > TOL:
                errs.append("compare clock or casimir")
            # the closed form that compare measured the stepper against
            d = hsgeo.preset("lightlike", self.n)
            for t in times:
                u, rho = hsgeo.eulerian_solution(d, t)
                u_ref, rho_ref = refs.lightlike(t, self.y)
                if _rel(u.values, u_ref) > TOL or _rel(rho.values, rho_ref) > TOL:
                    errs.append(f"closed form at t = {t}")
            ids = curv["identities"]
            if set(ids) != set(self.curvature_tols) or any(
                    not ids[k]["max_error"] < tol for k, tol in self.curvature_tols.items()):
                errs.append("curvature identities")
            if not (fin["pass"] and fin["max_dev_from_4"] < 1e-10):
                errs.append("findim sec(X, JX) = 4")
            return [", ".join(errs) or None]

        return [Task(1, run, check)]

    def warmup(self) -> Task:
        return self.round(np.random.default_rng(0), 0)[0]


WORKLOADS = {
    "weak_movie": WeakMovie,
    "degenerate_movie": DegenerateMovie,
    "breakdown_sweep": BreakdownSweep,
    "spectral_checks": SpectralChecks,
}
