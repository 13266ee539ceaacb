"""Closed-form frames against RK4 time stepping, head to head.

For the lightlike preset (u0x = rho0 = cos 2 pi x, c = 0, breakdown at
t = 1) the exact solution is known in closed form along the flow:

  phi(t, x) = x + t sin(2 pi x) / (2 pi),
  u(t, phi) = sin(2 pi x) / (2 pi),
  rho(t, phi) = cos(2 pi x) / (1 + t cos 2 pi x).

For fig1c (u0x = cos 2 pi x, rho0 = cos 2 pi x + 2, c = -1, global) the
q-branch slope is -2 at every node, and

  phi(t, x) = x + (1 - e^{-2t}) sin(2 pi x) / (4 pi),
  u(t, phi) = e^{-2t} sin(2 pi x) / (2 pi),
  rho(t, phi) = rho0(x) / (1 + (1 - e^{-2t}) cos(2 pi x) / 2).

The exact Eulerian fields at the grid nodes come from inverting phi by
bisection, independently of the package. At each grid size the script
marches the RK4 oracle at the largest step it accepts, dt = 0.5/n, from
t = 0 to each output time and records its wall time; it times one
closed-form Eulerian frame at the same times (best of three). Both get
their sup-norm error against the exact fields. One
more row asks both engines for fig1c at t = 20 on the largest grid: the
closed form is one frame, while the march is over the work cap of
`hs compare` there (oracle.MAX_STEP_NODES) and, on grids small enough to
try, turns unstable before t = 20.

Writes closed_vs_stepping.csv with columns
case,n,t,engine,steps,wall_ms,err_u,err_rho,status.
"""

import argparse
import math
import pathlib
import sys
import time

import numpy as np

from hsgeo import OracleConfig, StepUnstable, eulerian_solution, evolve, preset
from hsgeo.oracle import MAX_STEP_NODES

TWO_PI = 2.0 * math.pi


def _invert(phi, y, reach):
    """Labels x with phi(x) = y for a nondecreasing phi with |phi(x) - x| <= reach."""
    lo, hi = y - reach - 1e-15, y + reach + 1e-15
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if np.array_equal(mid, lo) or np.array_equal(mid, hi):
            break
        right = phi(mid) >= y
        lo, hi = np.where(right, lo, mid), np.where(right, mid, hi)
    return 0.5 * (lo + hi)


def exact_lightlike(t, y):
    amp = t / TWO_PI
    x = _invert(lambda s: s + amp * np.sin(TWO_PI * s), y, amp)
    c = np.cos(TWO_PI * x)
    return np.sin(TWO_PI * x) / TWO_PI, c / (1.0 + t * c)


def exact_fig1c(t, y):
    grow = 1.0 - math.exp(-2.0 * t)
    amp = grow / (2.0 * TWO_PI)
    x = _invert(lambda s: s + amp * np.sin(TWO_PI * s), y, amp)
    c = np.cos(TWO_PI * x)
    return math.exp(-2.0 * t) * np.sin(TWO_PI * x) / TWO_PI, (c + 2.0) / (1.0 + 0.5 * grow * c)


def _errors(u, rho, exact):
    return float(np.abs(u - exact[0]).max()), float(np.abs(rho - exact[1]).max())


def _closed_form(d, t, exact):
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        u, rho = eulerian_solution(d, t)
        best = min(best, time.perf_counter() - t0)
    return best, _errors(u.values, rho.values, exact)


def lightlike_rows(n, times):
    d = preset("lightlike", n)
    cfg = OracleConfig(dt=0.5 / n)
    rows = []
    for t in times:
        exact = exact_lightlike(t, d.grid.x)
        t0 = time.perf_counter()
        u, rho = evolve(d, t, cfg)
        wall = time.perf_counter() - t0
        steps = math.ceil(t / cfg.dt - 1e-12)
        rows.append(("lightlike", n, t, "rk4", steps, wall, *_errors(u.values, rho.values, exact), "ok"))
        cf_wall, cf_err = _closed_form(d, t, exact)
        rows.append(("lightlike", n, t, "closed", 0, cf_wall, *cf_err, "ok"))
    return rows


def fig1c_rows(n, t=20.0):
    d = preset("fig1c", n)
    exact = exact_fig1c(t, d.grid.x)
    cfg = OracleConfig(dt=0.5 / n)
    steps = math.ceil(t / cfg.dt - 1e-12)
    wall, errs, status = 0.0, (math.nan, math.nan), "over the work cap"
    if steps * n <= MAX_STEP_NODES:
        t0 = time.perf_counter()
        try:
            u, rho = evolve(d, t, cfg)
            errs, status = _errors(u.values, rho.values, exact), "ok"
        except StepUnstable:
            status = "unstable"
        wall = time.perf_counter() - t0
    cf_wall, cf_err = _closed_form(d, t, exact)
    return [("fig1c", n, t, "rk4", steps, wall, *errs, status),
            ("fig1c", n, t, "closed", 0, cf_wall, *cf_err, "ok")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ns", default="256,1024,4096", help="comma-separated grid sizes")
    ap.add_argument("--times", default="0.1,0.2,0.3", help="ascending lightlike times, < 0.95")
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("closed_vs_stepping_out"))
    args = ap.parse_args()
    ns = [int(tok) for tok in args.ns.split(",")]
    times = [float(tok) for tok in args.times.split(",")]

    rows = []
    for n in ns:
        rows += lightlike_rows(n, times)
    rows += fig1c_rows(max(ns))

    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "closed_vs_stepping.csv"
    with open(path, "w") as fh:
        fh.write("case,n,t,engine,steps,wall_ms,err_u,err_rho,status\n")
        for case, n, t, eng, steps, wall, eu, er, status in rows:
            fh.write(f"{case},{n},{t:g},{eng},{steps},{wall * 1e3:.3f},{eu:.3e},{er:.3e},{status}\n")
    print(f"wrote {path} ({len(rows)} rows)")
    for case, n, t, eng, steps, wall, eu, er, status in rows:
        print(f"{case:9s} n={n:<5d} t={t:<4g} {eng:6s} {wall * 1e3:9.2f} ms  "
              f"err u {eu:.1e} rho {er:.1e}  {status}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
