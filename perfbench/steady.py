"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--sets 2] [--seed0 1000]

Runs the BENCHMARK.json command once per seed, one run at a time, each
run with its own seed. For every workload and end-to-end metric it
prints each set's median and quartiles, the spread (q3 - q1) / median
against the metric's bound, and how far the later sets' medians move
from the first set's median in the worse direction. It also compares
the share of failed items between sets. Everything is also written to
perfbench/out/steady-<time>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(cmd, workload, seed, seconds):
    argv = [*cmd, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["wall_s"] = wall
    res["seed"] = seed
    return res


def quartiles(vals):
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10, help="runs per set (at least 2)")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    report = {"seconds": args.seconds, "workloads": {}}
    ok = True
    for wl in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                runs.append(run_once(bench["command"], wl, args.seed0 + s * args.runs + i,
                                     args.seconds))
                print(f"{wl} set {s} run {i}: wall {runs[-1]['wall_s']:.1f} s, "
                      + ", ".join(f"{k} {v['value']:.5g}" for k, v in runs[-1]["metrics"].items()),
                      file=sys.stderr, flush=True)
            sets.append(runs)
        rows = []
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [quartiles([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            spreads = [(q3 - q1) / med for q1, med, q3 in stats]
            sign = 1.0 if m["better"] == "lower" else -1.0
            drift = max(sign * (med - stats[0][1]) / stats[0][1] for _, med, _ in stats)
            good = drift <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok &= good
            rows.append({"metric": name, "bound": bound, "sets": stats, "spreads": spreads,
                         "worse_drift": drift, "ok": good})
            print(f"{wl:17s} {name:12s} bound {bound:.2f} | "
                  + " | ".join(f"q1 {q1:.5g} med {med:.5g} q3 {q3:.5g} spread {sp:.3f}"
                               for (q1, med, q3), sp in zip(stats, spreads))
                  + f" | worse drift {drift:+.3f} {'ok' if good else 'OVER'}")
        shares = sorted({f"{r['failed']}/{r['attempted']}" for runs in sets for r in runs})
        fail_ratio = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        same = len(fail_ratio) == 1
        ok &= same and all(r["correct"] for runs in sets for r in runs)
        print(f"{wl:17s} failed/attempted: {', '.join(shares)} "
              f"({'one share' if same else 'SHARES DIFFER'}); "
              f"wall per run {max(r['wall_s'] for runs in sets for r in runs):.1f} s max")
        report["workloads"][wl] = {"rows": rows, "runs": sets, "same_fail_share": same}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json").write_text(json.dumps(report, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
