"""Run one hsgeo benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs in one process pinned to one BLAS/OpenMP thread, on the hsgeo
sources in src/ next to this directory. With --trace 0 it times whole
rounds of items until S seconds have passed, checks every item, and
prints the end-to-end metrics; with --trace 1 it wraps the public
functions of every hsgeo layer, runs the same rounds, and prints the
per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The full result
(host facts, failures, per-task times) and, when traced, the spans go
to perfbench/out/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from tracer import LAYERS, Tracer, overhead_per_span_ns  # noqa: E402  (standard library only)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3


def _args():
    ap = argparse.ArgumentParser(description="Run one hsgeo benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def _import_program():
    src = ROOT / "src"
    if not (src / "hsgeo" / "__init__.py").is_file():
        sys.exit(f"run.py: no hsgeo sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import hsgeo

    if Path(hsgeo.__file__).resolve().parent != src / "hsgeo":
        sys.exit(f"run.py: imported hsgeo from {hsgeo.__file__}, not from {src}")


def host_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in (*THREAD_VARS, "HS_NUM_THREADS")},
    }


def _run_task(task, tracer=None):
    if tracer is not None:
        tracer.on = True
    t0 = time.perf_counter()
    try:
        out = task.run()
    finally:
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.on = False
    return out, dt


def _peak_mem_mb(tasks) -> float:
    """Largest traced allocation peak of any one task, in MB, untimed."""
    import tracemalloc

    tracemalloc.start()
    try:
        peaks = []
        for task in tasks:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            task.run()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return max(peaks) / 2**20


def layer_metrics(tracer, items: int, overhead_ns: float, item_ms: list) -> dict:
    tot = tracer.totals()

    def ms(*names):
        return sum(tot[n][0] for n in names) / items

    def calls(*names):
        return sum(tot[n][1] for n in names) / items

    def layer(prefix):
        return ms(*(n for n in tot if n.startswith(prefix + ".")))

    def layer_calls(prefix):
        return calls(*(n for n in tot if n.startswith(prefix + ".")))

    spectral = ("grid.derivative", "grid.antiderivative_from_zero", "grid.a_inverse")
    roots = ("engine.blowup_time", "engine.blowup_time_bisect", "engine.singular_time_literal")
    data_setup = ("data.preset", "data.scenario_from_dict", "data.scenario_from_file",
                  "data.normalize", "data.classify")
    vals = {
        "grid.eval_at_ms": (ms("grid.GridFunction.eval_at"), "ms"),
        "grid.eval_at_calls": (calls("grid.GridFunction.eval_at"), "count"),
        "grid.spectral_ms": (ms(*spectral), "ms"),
        "grid.spectral_calls": (calls(*spectral), "count"),
        "engine.compose_ms": (ms("engine.compose_with_inverse"), "ms"),
        "engine.compose_fallbacks": (tracer.counters["engine.pchip"] / items, "count"),
        "engine.roots_ms": (ms(*roots), "ms"),
        "engine.eulerian_ms": (ms("engine.eulerian_solution"), "ms"),
        "weak.state_ms": (ms("weak.weak_state"), "ms"),
        "weak.state_calls": (calls("weak.weak_state"), "count"),
        "weak.energy_ms": (ms("weak.energy"), "ms"),
        "sphere.boundary_hit_ms": (ms("sphere.boundary_hit_time"), "ms"),
        "data.setup_ms": (ms(*data_setup), "ms"),
        "oracle.rhs_ms": (ms("oracle.rhs"), "ms"),
        "oracle.rhs_calls": (calls("oracle.rhs"), "count"),
        "geometry.curvature_ms": (layer("geometry"), "ms"),
        "findim.ms": (layer("findim"), "ms"),
        "cli.self_ms": (ms("cli.main"), "ms"),
        "trace.overhead_ms": (overhead_ns * tracer.span_count() / items / 1e6, "ms"),
        "trace.spans": (tracer.span_count() / items, "count"),
        "trace.item_p50_ms": (statistics.median(item_ms), "ms"),
    }
    for name in ("grid", "data", "engine", "sphere", "weak", "oracle"):
        vals[f"{name}.self_ms"] = (layer(name), "ms")
    for name in LAYERS:
        vals[f"{name}.calls"] = (layer_calls(name), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in vals.items()}


def main() -> int:
    args = _args()
    _import_program()
    import numpy as np

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    import_s = time.perf_counter() - T_START
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = OUT / f"scratch-{tag}-{os.getpid()}"
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    # set-up: input generation and one warm-up item, repeated; the median counts
    setups = []
    for rep in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        wl = WORKLOADS[args.workload](scratch)
        wl.setup()
        warm = wl.warmup()
        warm.check(_run_task(warm)[0])
        setups.append(time.perf_counter() - t0)

    rng = np.random.default_rng(args.seed)
    tasks_log, item_ms, failures = [], [], {}
    attempted = failed = 0
    unexpected = []
    first_round = None
    loop_start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - loop_start < args.seconds:
        tasks = wl.round(rng, k)
        first_round = first_round or tasks
        for task in tasks:
            if tracer is not None:
                tracer.item = len(tasks_log)
            try:
                out, dt = _run_task(task, tracer)
            except Exception as exc:  # a call that raises fails its items; the run goes on
                out, dt = None, None
                verdicts = [f"raised {type(exc).__name__}: {exc}"] * task.frames
            else:
                verdicts = task.check(out)
            faults = task.faults or (False,) * task.frames
            for verdict, fault in zip(verdicts, faults):
                if verdict is not None:
                    failures[verdict] = failures.get(verdict, 0) + 1
                    if not fault:
                        unexpected.append(verdict)
            attempted += task.frames
            failed += sum(v is not None for v in verdicts)
            if dt is not None:
                tasks_log.append({"round": k, "frames": task.frames, "seconds": dt})
                item_ms.append(1e3 * dt / task.frames)
        k += 1
    loop_s = time.perf_counter() - loop_start
    timed_s = sum(t["seconds"] for t in tasks_log)
    timed_items = sum(t["frames"] for t in tasks_log)

    if tracer is None:
        metrics = {
            "items_per_s": {"value": timed_items / timed_s, "unit": "1/s"},
            "item_p50_ms": {"value": statistics.median(item_ms), "unit": "ms"},
            "peak_mem_mb": {"value": _peak_mem_mb(first_round), "unit": "MB"},
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
        }
    else:
        metrics = layer_metrics(tracer, attempted, overhead_per_span_ns(), item_ms)
    shutil.rmtree(scratch, ignore_errors=True)

    correct = not unexpected
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_facts(), "rounds": k, "tasks": len(tasks_log),
        "items": attempted, "loop_s": loop_s, "timed_s": timed_s, "import_s": import_s,
        "setup_repeats_s": setups, "failures": failures, "unexpected_failures": unexpected,
        "spans_dropped": tracer.dropped if tracer else None,
        "task_log": tasks_log, **summary,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"spans-{tag}.tsv")
    print(json.dumps({"host": detail["host"], "rounds": k, "items": attempted,
                      "p50_samples": len(item_ms), "failures": failures}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
