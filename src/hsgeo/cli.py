"""Command line runner binding presets, flows, curvature checks and reports.

Every subcommand emits deterministic artifacts: CSV tables at 17
significant digits and JSON reports carrying a schema version.  Exit
status 0 means all requested invariants held, 1 means a domain
invariant failed (breakdown reached, identity out of tolerance), 2
means the configuration was invalid.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .data import (
    PRESET_NOTES,
    PRESETS,
    InitialData,
    classify,
    normalize,
    preset,
    scenario_from_file,
)
from .engine import _flow, _literal, _scan_bisect, eulerian_fields
from .errors import BlowupReached, HsError
from .findim import _draw_horizontal, _draw_point, holomorphic_sec, plane_scan
from .geometry import identity_defects
from .grid import EPS, Grid, write_table, write_text
from .oracle import OracleConfig, _check_work, compare
from .sphere import _geodesic_flow, _point
from .weak import energy, flow

SCHEMA = 1
# hs curvature checks its samples in chunks that keep about this many
# bytes in flight; a sample holds at most CURVATURE_ROWS arrays of n floats
# at once (measured under tracemalloc, its two pair arrays included)
CURVATURE_CHUNK_BYTES = 3 * 2**16
CURVATURE_ROWS = 22
# the nijenhuis defect is the rounding of nested spectral derivatives and
# grows like n^2 eps: at most 57.8 n^2 eps over seeds 0-49 at n = 1024,
# 2048 and 4096, so its bound is max(1e-7, NIJENHUIS_K n^2 eps), K four times that
NIJENHUIS_K = 232
# cap on the output times of one hs simulate or hs geodesic run
MAX_FRAMES = 2**16


def _finite(x: float):
    return None if (x is None or math.isinf(x) or math.isnan(x)) else float(x)


def _parse_times(text: str) -> list[float]:
    try:
        ts = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"could not parse time list {text!r}") from None
    if not ts:
        raise ValueError("time list is empty")
    if any(t < 0.0 for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("times must be nonnegative and strictly ascending")
    return ts


def _resolve_times(args, meta: dict | None = None) -> list[float]:
    if args.times is not None:
        return _parse_times(args.times)
    if meta and meta.get("times"):
        return [float(t) for t in meta["times"]]
    t_max = args.t_max if args.t_max is not None else 1.0
    dt = args.dt if args.dt is not None else 0.05
    if not (dt > 0.0 and t_max >= 0.0):  # nan too
        raise ValueError("need dt > 0 and t-max >= 0")
    ratio = t_max / dt + 1e-9
    if not ratio < MAX_FRAMES:  # also where the ratio overflows
        raise ValueError(f"t-max / dt asks for more than MAX_FRAMES = {MAX_FRAMES} frames")
    return [k * dt for k in range(int(ratio) + 1)]


def _load_data(args) -> tuple[InitialData, dict]:
    if getattr(args, "scenario", None):
        d, meta = scenario_from_file(args.scenario)
        d, _ = normalize(d)
        return d, meta
    d = preset(args.preset, args.n)
    if args.kappa != d.kappa:
        d = InitialData(d.u0, d.rho0, args.kappa)
        d, _ = normalize(d)
    return d, {"name": args.preset}


def _emit(report: dict, args, human_lines: list[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_text(out / f"{report['command']}.json", text)
    if args.json:
        sys.stdout.write(text)
    else:
        for line in human_lines:
            print(line)


# -- subcommands --------------------------------------------------------------


def _cmd_simulate(args) -> int:
    d, meta = _load_data(args)
    times = _resolve_times(args, meta)
    cls = classify(d)
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)

    run = flow(d)  # the datum's one analysis: class, slopes, clock and admission
    adm, tstar = run.admissible, run.t_star
    if not adm and times[-1] >= tstar:
        raise BlowupReached(
            f"requested t = {times[-1]:g} is not below the breakdown time {tstar:.6g} "
            "and the data does not admit the conservative continuation"
        )

    files = []
    energies = []
    for idx, t in enumerate(times):
        s = run.state(t)
        u, rho = eulerian_fields(s)
        energies.append(energy(s))
        if out:
            name = f"state_{idx:04d}.csv"
            write_table(out / name, "x,u,rho,ux_along_flow",
                        [d.grid.x, u.values, rho.values, s.ux.values])
            files.append({"t": t, "path": name})

    drift = max(abs(e - energies[0]) for e in energies)
    report = {
        "schema": SCHEMA,
        "command": "simulate",
        "name": meta.get("name", "custom"),
        "n": d.grid.n,
        "kappa": d.kappa,
        "casimir": cls.c,
        "class": cls.label.value,
        "admissible": adm,
        "global": math.isinf(tstar),
        "t_star": _finite(tstar),
        "times": times,
        "energy": energies[0],
        "energy_drift": drift,
        "files": files,
    }
    _emit(report, args, [
        f"{report['name']}: class {report['class']}, c = {cls.c:.12g}",
        f"admissible: {adm}, T* = {tstar:g}",
        f"energy = {energies[0]:.12g}, drift {drift:.3e} over {len(times)} times",
    ] + ([f"wrote {len(files)} state files to {out}"] if out else []))
    return 0


def _cmd_geodesic(args) -> int:
    d, meta = _load_data(args)
    if d.kappa != -1:
        raise ValueError("geodesic tracks the kappa = -1 chart image")
    times = _resolve_times(args, meta)
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    run = _geodesic_flow(d)  # the datum's one analysis
    files = []
    mins = []
    for idx, t in enumerate(times):
        (wp, _), (wq, _) = run.factors(t)
        f = _point(d.grid, wp, wq)
        mins.append(d.grid.function(wp * wq).min())
        if out:
            name = f"sphere_{idx:04d}.csv"
            write_table(out / name, "x,f1,f2", [d.grid.x, f.f1.values, f.f2.values])
            files.append({"t": t, "path": name})
    report = {
        "schema": SCHEMA,
        "command": "geodesic",
        "name": meta.get("name", "custom"),
        "n": d.grid.n,
        "casimir": run.c,
        "times": times,
        "min_gap": mins,
        "boundary_hit": _finite(run.t_star),
        "files": files,
    }
    lines = [f"{report['name']}: boundary hit at {run.t_star:g}"]
    lines += [f"  t = {t:g}: min(f1^2 - f2^2) = {m:.6g}" for t, m in zip(times, mins)]
    _emit(report, args, lines)
    return 0


def _cmd_blowup(args) -> int:
    d, meta = _load_data(args)
    run = _flow(d)  # the datum's one analysis: every clock reads its slopes
    closed = run.t_star
    glob = math.isinf(closed)  # is_global(d)
    literal = bisect = None
    if d.kappa == -1:
        literal = _literal(run.c, run.slopes)  # singular_time_literal(d)
        bisect = _scan_bisect(run.c, run.slopes, 20.0, 1e-3)  # blowup_time_bisect(d)
    cls = classify(d)
    report = {
        "schema": SCHEMA,
        "command": "blowup",
        "name": meta.get("name", "custom"),
        "n": d.grid.n,
        "kappa": d.kappa,
        "casimir": cls.c,
        "class": cls.label.value,
        "t_star": _finite(closed),
        "t_star_literal": None if literal is None else _finite(literal),
        "t_star_bisect": None if bisect is None else _finite(bisect),
        "global": glob,
    }
    detail = "" if literal is None else f" (literal {literal:g}, bisection {bisect:g})"
    _emit(report, args, [
        f"{report['name']}: class {report['class']}",
        f"T* = {closed:g}{detail}, global: {glob}",
    ])
    return 0


def _draw_pairs(rng, count: int, modes: int = 6) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of `count` random tangent pairs, drawn pair by pair:
    the constant of u2, then (a, b, c, e) / m for each mode m."""
    scale = np.arange(1, modes + 1)[:, None]
    consts, coeffs = [], []
    for _ in range(count):
        consts.append(rng.uniform(-1.0, 1.0))
        coeffs.append(rng.normal(size=(modes, 4)) / scale)
    return np.array(consts), np.array(coeffs)


def _random_pairs(x: np.ndarray, consts: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """(S, 2, n) pair arrays u1 = sum_m a sin 2 pi m x + b (cos 2 pi m x - 1),
    u2 = const + sum_m c sin 2 pi m x + e cos 2 pi m x."""
    out = np.zeros((consts.size, 2, x.size))
    out[:, 1] = consts[:, None]
    for m, (a, b, c, e) in enumerate(coeffs.transpose(1, 2, 0)[..., None], start=1):
        s, co = np.sin(2 * np.pi * m * x), np.cos(2 * np.pi * m * x)
        out[:, 0] = out[:, 0] + a * s + b * (co - 1.0)
        out[:, 1] = out[:, 1] + c * s + e * co
    return out


def _cmd_curvature(args) -> int:
    if args.samples < 1:
        raise ValueError("need --samples >= 1")
    grid = Grid(args.n)
    # u and v of each sample in turn, the order the generator draws them in
    consts, coeffs = _draw_pairs(np.random.default_rng(args.seed), 2 * args.samples)
    step = 2 * max(1, CURVATURE_CHUNK_BYTES // (CURVATURE_ROWS * 8 * grid.n))
    worst = {}
    for lo in range(0, consts.size, step):
        # the pair arrays are passed unnamed, so identity_defects can free them
        us, vs = slice(lo, lo + step, 2), slice(lo + 1, lo + step, 2)
        defects = identity_defects(_random_pairs(grid.x, consts[us], coeffs[us]),
                                   _random_pairs(grid.x, consts[vs], coeffs[vs]), args.kappa)
        for name, err in defects.items():  # np.maximum keeps a NaN defect, so it fails
            worst[name] = float(np.maximum(worst.get(name, 0.0), err.max()))

    tols = {"constant_curvature": 1e-6, "j_squared": 1e-7, "omega_compat": 1e-7,
            "anti_isometry": 1e-7, "nijenhuis": max(1e-7, NIJENHUIS_K * grid.n**2 * EPS)}
    identities = {
        name: {"max_error": err, "tolerance": tols[name], "pass": err < tols[name]}
        for name, err in worst.items()
    }
    ok = all(v["pass"] for v in identities.values())
    report = {
        "schema": SCHEMA,
        "command": "curvature",
        "kappa": args.kappa,
        "n": args.n,
        "samples": args.samples,
        "seed": args.seed,
        "max_rel_error": max(worst.values()),
        "identities": identities,
        "pass": ok,
    }
    lines = [f"{name}: max {v['max_error']:.3e} ({'pass' if v['pass'] else 'FAIL'})"
             for name, v in identities.items()]
    _emit(report, args, lines + [f"overall: {'pass' if ok else 'FAIL'}"])
    return 0 if ok else 1


def _cmd_compare(args) -> int:
    times = _parse_times(args.times) if args.times else [0.1, 0.2, 0.3]
    cfg = OracleConfig(dt=args.dt if args.dt is not None else 1e-3)
    _check_work(args.n, times, cfg)  # before the datum is built
    d, meta = _load_data(args)
    report = compare(d, times, cfg)
    report["command"] = "compare"
    report["name"] = meta.get("name", "custom")
    report["blowup_time"] = _finite(report["blowup_time"])
    lines = [f"{r['t']:g}: L2(u) {r['l2_u']:.3e}  L2(rho) {r['l2_rho']:.3e}  "
             f"casimir drift {r['casimir_drift']:.3e}" for r in report["rows"]]
    _emit(report, args, lines + [f"max L2 error {report['max_l2']:.3e}"])
    return 0


def _cmd_findim(args) -> int:
    n = args.n
    if not 1 <= n <= 64:
        raise ValueError("dimension parameter must be between 1 and 64")
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    if args.scan_planes:
        rows = plane_scan(n)
        text = "a,b,sec\n" + "".join(f"{a},{b},{s:.17g}\n" for a, b, s in rows)
        if out:
            write_text(out / "planes.csv", text)
        if args.json:
            report = {"schema": SCHEMA, "command": "findim", "n": n,
                      "planes": [{"a": a, "b": b, "sec": s} for a, b, s in rows]}
            sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        else:
            sys.stdout.write(text)
        return 0
    if args.samples < 1:
        raise ValueError("need --samples >= 1")
    rng = np.random.default_rng(args.seed)
    points, vectors = [], []
    for _ in range(args.samples):  # rejection sampling: each draw depends on the last
        points.append(_draw_point(n, rng))
        vectors.append(_draw_horizontal(points[-1], rng))
    sec = holomorphic_sec(np.array(points), np.array(vectors))
    worst = float(np.abs(sec - 4.0).max(initial=0.0))
    ok = sec.size > 0 and worst < 1e-10
    report = {
        "schema": SCHEMA,
        "command": "findim",
        "n": n,
        "samples": args.samples,
        "checked": sec.size,
        "seed": args.seed,
        "max_dev_from_4": worst,
        "pass": ok,
    }
    _emit(report, args, [f"sec(X, JX) over {sec.size} of {args.samples} samples at n = {n}: "
                         f"max deviation from 4 is {worst:.3e} ({'pass' if ok else 'FAIL'})"])
    return 0 if ok else 1


# -- argument plumbing ---------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    top = argparse.ArgumentParser(
        prog="hs",
        description="Two-component flows, breakdown detection and curvature checks "
                    "on the periodic circle.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    flags = {
        "--preset": dict(default="fig1c", choices=sorted(PRESETS),
                         help="named initial datum; " + "; ".join(
                             f"{k}: {v}" for k, v in sorted(PRESET_NOTES.items()))),
        "--n": dict(type=int, default=256, help="grid nodes (default 256)"),
        "--kappa": dict(type=int, default=-1, choices=(-1, 1), help="coupling sign"),
        "--times": dict(default=None, help="comma-separated ascending times"),
        "--t-max": dict(type=float, default=None, help="last output time"),
        "--dt": dict(type=float, default=None, help="output spacing"),
        "--seed": dict(type=int, default=0, help="random seed"),
    }

    def command(name, fn, help, names, override=None):
        """A subcommand with the shared flags it reads, --out and --json."""
        p = sub.add_parser(name, help=help)
        for flag in names:
            p.add_argument(flag, **{**flags[flag], **(override or {}).get(flag, {})})
        p.add_argument("--out", default=None, help="directory for artifact files")
        p.add_argument("--json", action="store_true", help="print the JSON report to stdout")
        p.set_defaults(fn=fn)
        return p

    datum, clock = ("--preset", "--n", "--kappa"), ("--times", "--t-max", "--dt")
    p = command("simulate", _cmd_simulate, "evolve a datum and emit per-time state tables",
                datum + clock)
    p.add_argument("--scenario", default=None, help="JSON scenario descriptor file "
                   "(data is rescaled to the unit Casimir class)")
    command("geodesic", _cmd_geodesic, "track the chart image on the unit level set",
            datum + clock)
    command("blowup", _cmd_blowup, "report breakdown times for a datum", datum)
    command("compare", _cmd_compare, "closed forms vs the spectral time stepper",
            datum + ("--times", "--dt"), {"--dt": dict(help="solver step (default 1e-3)")})
    p = command("curvature", _cmd_curvature, "curvature and structure identity suite",
                ("--n", "--kappa", "--seed"))
    p.add_argument("--samples", type=int, default=50, help="random tangent pairs")
    p = command("findim", _cmd_findim, "finite-dimensional quotient curvature checks",
                ("--n", "--seed"),
                {"--n": dict(default=2, help="dimension parameter of the quadric (default 2)")})
    p.add_argument("--samples", type=int, default=100, help="random horizontal samples")
    p.add_argument("--scan-planes", action="store_true",
                   help="emit the coordinate-pair plane table as CSV")

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except HsError as exc:
        print(f"hs {args.command}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"hs {args.command}: invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
