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
    casimir,
    classify,
    normalize,
    preset,
    scenario_from_file,
)
from .engine import (
    blowup_time,
    blowup_time_bisect,
    eulerian_fields,
    is_global,
    singular_time_literal,
)
from .errors import BlowupReached, HsError
from .findim import fin_metric, j_action, plane_scan, quotient_sec, random_horizontal, random_point
from .geometry import (
    KTangent,
    TangentPair,
    arnold_curvature,
    j_tensor,
    metric_G,
    metric_K,
    nijenhuis,
    omega_form,
)
from .grid import mean_zero_project, write_table, write_text
from .oracle import OracleConfig, compare
from .sphere import _geodesic_and_gap, boundary_hit_time
from .weak import admissibility, energy, flow_state

SCHEMA = 1


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
    if dt <= 0.0 or t_max < 0.0:
        raise ValueError("need dt > 0 and t-max >= 0")
    count = int(math.floor(t_max / dt + 1e-9))
    return [k * dt for k in range(count + 1)]


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

    adm = admissibility(d).admissible
    tstar = blowup_time(d)
    if not adm and times[-1] >= tstar:
        raise BlowupReached(
            f"requested t = {times[-1]:g} is not below the breakdown time {tstar:.6g} "
            "and the data does not admit the conservative continuation"
        )

    files = []
    energies = []
    for idx, t in enumerate(times):
        s = flow_state(d, t)
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
    hit = boundary_hit_time(d)
    files = []
    mins = []
    for idx, t in enumerate(times):
        f, gap = _geodesic_and_gap(d, t)
        mins.append(gap.min())
        if out:
            name = f"sphere_{idx:04d}.csv"
            write_table(out / name, "x,f1,f2", [d.grid.x, f.f1.values, f.f2.values])
            files.append({"t": t, "path": name})
    report = {
        "schema": SCHEMA,
        "command": "geodesic",
        "name": meta.get("name", "custom"),
        "n": d.grid.n,
        "casimir": casimir(d),
        "times": times,
        "min_gap": mins,
        "boundary_hit": _finite(hit),
        "files": files,
    }
    lines = [f"{report['name']}: boundary hit at {hit:g}"]
    lines += [f"  t = {t:g}: min(f1^2 - f2^2) = {m:.6g}" for t, m in zip(times, mins)]
    _emit(report, args, lines)
    return 0


def _cmd_blowup(args) -> int:
    d, meta = _load_data(args)
    closed = blowup_time(d)
    if d.kappa == -1:
        literal = singular_time_literal(d)
        bisect = blowup_time_bisect(d)
        glob = is_global(d)
    else:
        literal = None
        bisect = None
        glob = math.isinf(closed)
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


def _random_pair(grid, rng, modes: int = 6) -> TangentPair:
    x = grid.x
    u1 = np.zeros(grid.n)
    u2 = np.full(grid.n, rng.uniform(-1.0, 1.0))
    for m in range(1, modes + 1):
        a, b = rng.normal(size=2) / m
        u1 = u1 + a * np.sin(2 * np.pi * m * x) + b * (np.cos(2 * np.pi * m * x) - 1.0)
        c, e = rng.normal(size=2) / m
        u2 = u2 + c * np.sin(2 * np.pi * m * x) + e * np.cos(2 * np.pi * m * x)
    return TangentPair(grid.function(u1), grid.function(u2))


def _cmd_curvature(args) -> int:
    rng = np.random.default_rng(args.seed)
    grid = preset("fig1c", args.n).grid
    worst = {"constant_curvature": 0.0}
    if args.kappa == -1:
        worst.update({"j_squared": 0.0, "omega_compat": 0.0, "anti_isometry": 0.0, "nijenhuis": 0.0})
    for _ in range(args.samples):
        u = _random_pair(grid, rng)
        v = _random_pair(grid, rng)
        sec = arnold_curvature(u, v, args.kappa)
        prod = metric_G(u, u, args.kappa) * metric_G(v, v, args.kappa) - metric_G(u, v, args.kappa) ** 2
        worst["constant_curvature"] = max(
            worst["constant_curvature"], abs(sec - prod) / max(1.0, abs(prod)))
        if args.kappa != -1:
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

    tols = {"constant_curvature": 1e-6, "j_squared": 1e-7, "omega_compat": 1e-7,
            "anti_isometry": 1e-7, "nijenhuis": 1e-7}
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
    d, meta = _load_data(args)
    times = _parse_times(args.times) if args.times else [0.1, 0.2, 0.3]
    cfg = OracleConfig(n=d.grid.n, dt=args.dt if args.dt is not None else 1e-3)
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
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.samples):
        p = random_point(n, rng)
        x = random_horizontal(p, rng)
        if abs(fin_metric(x, x)) < 1e-2:
            continue
        worst = max(worst, abs(quotient_sec(x, j_action(x)) - 4.0))
    ok = worst < 1e-10
    report = {
        "schema": SCHEMA,
        "command": "findim",
        "n": n,
        "samples": args.samples,
        "seed": args.seed,
        "max_dev_from_4": worst,
        "pass": ok,
    }
    _emit(report, args, [f"sec(X, JX) over {args.samples} samples at n = {n}: "
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

    def common(p, n_default=256, n_help="grid nodes (default 256)"):
        p.add_argument("--preset", default="fig1c", choices=sorted(PRESETS),
                       help="named initial datum; " + "; ".join(
                           f"{k}: {v}" for k, v in sorted(PRESET_NOTES.items())))
        p.add_argument("--n", type=int, default=n_default, help=n_help)
        p.add_argument("--dt", type=float, default=None,
                       help="output spacing (simulate/geodesic) or solver step (compare)")
        p.add_argument("--t-max", type=float, default=None, help="last output time")
        p.add_argument("--times", default=None, help="comma-separated ascending times")
        p.add_argument("--kappa", type=int, default=-1, choices=(-1, 1), help="coupling sign")
        p.add_argument("--out", default=None, help="directory for artifact files")
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument("--json", action="store_true", help="print the JSON report to stdout")

    p = sub.add_parser("simulate", help="evolve a datum and emit per-time state tables")
    common(p)
    p.add_argument("--scenario", default=None, help="JSON scenario descriptor file "
                   "(data is rescaled to the unit Casimir class)")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("geodesic", help="track the chart image on the unit level set")
    common(p)
    p.set_defaults(fn=_cmd_geodesic)

    p = sub.add_parser("blowup", help="report breakdown times for a datum")
    common(p)
    p.set_defaults(fn=_cmd_blowup)

    p = sub.add_parser("compare", help="closed forms vs the spectral time stepper")
    common(p)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("curvature", help="curvature and structure identity suite")
    common(p)
    p.add_argument("--samples", type=int, default=50, help="random tangent pairs")
    p.set_defaults(fn=_cmd_curvature)

    p = sub.add_parser("findim", help="finite-dimensional quotient curvature checks")
    common(p, n_default=2, n_help="dimension parameter of the quadric (default 2)")
    p.add_argument("--samples", type=int, default=100, help="random horizontal samples")
    p.add_argument("--scan-planes", action="store_true",
                   help="emit the coordinate-pair plane table as CSV")
    p.set_defaults(fn=_cmd_findim)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.times is not None:
            _parse_times(args.times)
        return args.fn(args)
    except HsError as exc:
        print(f"hs {args.command}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"hs {args.command}: invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
