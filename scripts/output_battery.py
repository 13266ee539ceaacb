"""Run a fixed battery of `hs` commands and fingerprint every output.

The battery covers the flows and clocks of every preset:

  hs simulate   6 presets x kappa = +-1 x n in {64, 256, 1024} x the
                time lists 0,0.1,0.3 and 0,0.3,0.5,1,3,10,20;
  hs geodesic   the same presets, kappa and n, with the long time list;
  hs blowup     the same presets and kappa at n in {64, 256, 1024, 4096};
  hs compare    fig1c at n = 64, and fig1a at n = 64 up to t = 0.5,
                which its safety margin refuses;
  hs simulate   scenario files, with both time lists: the cosine data
                u0x = a cos 2 pi x, rho0 = a cos 2 pi x + 2 for
                a in {0.5, 1, 2, 2.5}, and the shift data u0x = cos 2 pi x,
                rho0 = cos 2 pi x + s for s in {1.9, 2 - 1e-10, 2 + 1e-10, 2.1}.

Every run goes through `hsgeo.cli.main` in this process, from --out as
the working directory, with its artifacts in a directory of its own
there. The manifest (manifest.json under --out) lists per run its argv,
whose paths are relative to --out, its exit code, its stdout and stderr,
and the sha256 of every file it wrote. Two trees give the same outputs
exactly when their manifests are equal:

  PYTHONPATH=src python scripts/output_battery.py --out before
  ... change the program ...
  PYTHONPATH=src python scripts/output_battery.py --out after --against before/manifest.json

With --against, the script lists every run whose exit code, stdout,
stderr or file hashes differ from the old manifest, and every run that
only one of them has, and exits 1 if there is any.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys

from hsgeo.cli import main as hs

PRESETS = ("fig1a", "fig1b", "fig1c", "lightlike", "spacelike", "stationary")
SHORT, LONG = "0,0.1,0.3", "0,0.3,0.5,1,3,10,20"


def _scenarios(out: pathlib.Path) -> list[str]:
    """Write the scenario files under out/scenarios; their paths relative to out."""
    docs = {f"cosine_{a:g}": {"u0x": {"cos": {"1": a}}, "rho0": {"const": 2.0, "cos": {"1": a}}}
            for a in (0.5, 1.0, 2.0, 2.5)}
    docs.update({f"shift_{s!r}": {"u0x": {"cos": {"1": 1.0}}, "rho0": {"const": s, "cos": {"1": 1.0}}}
                 for s in (1.9, 2.0 - 1e-10, 2.0 + 1e-10, 2.1)})
    (out / "scenarios").mkdir(parents=True, exist_ok=True)
    paths = []
    for name, doc in docs.items():
        rel = f"scenarios/{name}.json"
        (out / rel).write_text(json.dumps({"name": name, "n": 256, **doc}, sort_keys=True) + "\n")
        paths.append(rel)
    return paths


def battery(scenarios: list[str]) -> list[list[str]]:
    """The argv of every run, with --out left to the caller."""
    runs = []
    for name in PRESETS:
        for kappa in ("-1", "1"):
            datum = ["--preset", name, "--kappa", kappa]
            for n in ("64", "256", "1024"):
                for times in (SHORT, LONG):
                    runs.append(["simulate", *datum, "--n", n, "--times", times])
                runs.append(["geodesic", *datum, "--n", n, "--times", LONG])
            for n in ("64", "256", "1024", "4096"):
                runs.append(["blowup", *datum, "--n", n])
    runs.append(["compare", "--preset", "fig1c", "--n", "64"])
    runs.append(["compare", "--preset", "fig1a", "--n", "64", "--times", "0.1,0.5"])
    for path in scenarios:
        for times in (SHORT, LONG):
            runs.append(["simulate", "--scenario", path, "--times", times])
    return runs


def _sha(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@contextlib.contextmanager
def _inside(path: pathlib.Path):
    """Run the block with path as the working directory."""
    back = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(back)


def compare(old: list[dict], new: list[dict]) -> list[str]:
    """One line per run, keyed by its argv, that differs between two
    manifests: the fields that differ (the names of the files for
    `files`), or the manifest that lacks the run."""
    before = {" ".join(e["argv"]): e for e in old}
    lines = []
    for e in new:
        key = " ".join(e["argv"])
        o = before.pop(key, None)
        if o is None:
            lines.append(f"{key}: not in the old manifest")
            continue
        fields = [f for f in ("exit", "stdout", "stderr") if o[f] != e[f]]
        names = sorted(f for f in o["files"].keys() | e["files"].keys()
                       if o["files"].get(f) != e["files"].get(f))
        if names:
            fields.append("files " + " ".join(names))
        if fields:
            lines.append(f"{key}: {'; '.join(fields)} differ")
    return lines + [f"{key}: not in the new manifest" for key in before]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("battery_out"))
    ap.add_argument("--against", type=pathlib.Path, help="an old manifest.json to compare with")
    args = ap.parse_args()
    out = args.out
    entries = []
    for k, argv in enumerate(battery(_scenarios(out))):
        argv += ["--out", f"runs/{k:03d}"]
        so, se = io.StringIO(), io.StringIO()
        with _inside(out), contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
            code = hs(argv)
        run = out / argv[-1]
        files = sorted(p for p in run.rglob("*") if p.is_file())
        entries.append({"argv": argv, "exit": code, "stdout": so.getvalue(), "stderr": se.getvalue(),
                        "files": {str(p.relative_to(run)): _sha(p) for p in files}})
    path = out / "manifest.json"
    path.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    nfiles = sum(len(e["files"]) for e in entries)
    print(f"wrote {path} ({len(entries)} runs, {nfiles} files)")
    if args.against is None:
        return 0
    diffs = compare(json.loads(args.against.read_text()), entries)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} runs differ from {args.against}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
