#!/usr/bin/env python3
"""A/B benchmark: perfbench/run.py on a git revision against the working tree.

    python3 tools/ab_bench.py REV --workload W --seeds 21 22 ... \
        [--seconds 25] [--trace 0|1] [--claim METRIC] [--out BENCH_n.json]

REV is exported with `git archive` into a temporary directory (no worktree
metadata is left in .git, even if the run is interrupted), and the working
tree's src/ and perfbench/ are copied there without any __pycache__, so both
sides compile from source and neither reads stale bytecode. For each seed the
two sides run `perfbench/run.py` with identical arguments from their own
copy, one after the other: the parent side first on even pair indexes,
the change side first on odd ones. Each side reads only its own sources;
perfbench/ is read, never edited.

Results are merged into --out, in the layout of BENCH_4.json; every mode
needs at least two seeds, so that each side has a median and quartiles:
  * --trace 0: end_to_end[W] gets per-side runs, median and quartiles of
    every end-to-end metric, and a no_regression table: per metric the two
    medians, the relative change, the BENCHMARK.json bound and a verdict
    (see verdict()); with --claim METRIC also the per-pair values, the win
    count and the parent's interquartile range under "claim";
  * --trace 1: per_layer[W] gets per-side runs, median and quartiles of
    every metric of the traced runs, per-layer ones included, so a layer
    figure is compared against its spread, not as one pair of runs.
Both modes also record each side's incorrect runs (seed and FAILED lines)
under "incorrect". The tool exits 1, after writing --out, if any change-side
run was not correct or, with --trace 0, if any no_regression verdict reads
worse; it prints each such metric with the workload. Other keys already in
the file are kept. BENCHMARK.json and perfbench/ are read, never written.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload W --seed N --seconds 25 --trace T"


def export(rev: str, dest: Path) -> str:
    """Write the tree of rev into dest; return its full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             check=True, capture_output=True).stdout
    tar = dest / "rev.tar"
    tar.write_bytes(archive)
    with tarfile.open(tar) as t:
        t.extractall(dest / "tree")
    tar.unlink()
    return sha


def copy_tree(dest: Path, *dirs: str) -> Path:
    """Copy each of dirs from the working tree into dest without any
    __pycache__, as an export has none; return dest."""
    for d in dirs:
        shutil.copytree(ROOT / d, dest / d,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def run_side(side: str, root: Path, workload: str, seed: int, seconds: int,
             trace: int) -> tuple[dict, list]:
    """One perfbench run from root: the result JSON it prints last, and its
    FAILED lines if the run is not correct (printed too). A run that crashes
    has its side, seed and stderr tail printed, then re-raises."""
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=root, capture_output=True, text=True, check=True)
    except subprocess.CalledProcessError as exc:
        tail = "\n".join(exc.stderr.splitlines()[-20:])
        print(f"# {side} seed {seed} exited {exc.returncode}:\n{tail}",
              file=sys.stderr)
        raise
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    failed = []
    if not result["correct"]:
        failed = [line for line in proc.stdout.splitlines() if "FAILED" in line]
        print(f"# {side} seed {seed}: {failed}", file=sys.stderr)
    return result, failed


def summary(runs: list) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3,
            "runs": sorted(runs)}


def side_table(results: list) -> dict:
    metrics = results[0]["metrics"]
    return {name: {**summary([r["metrics"][name]["value"] for r in results]),
                   "unit": m["unit"]} for name, m in metrics.items()}


def end_to_end_spec() -> list:
    """BENCHMARK.json's end-to-end metrics: name, unit, better, bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def verdict(parent: list, change: list, lower: bool, bound: float) -> str:
    """ok, worse or unresolved for one end-to-end metric.

    unresolved: the parent's runs spread (IQR over median) wider than the
    bound, so a shift within it cannot be told from noise, unless every
    change run beats every parent run. worse: the change median is worse
    than the parent's by more than the bound, relatively.
    """
    sign = 1 if lower else -1
    if max(sign * y for y in change) < min(sign * x for x in parent):
        return "ok"
    pa, pb = summary(parent), summary(change)
    scale = abs(pa["median"])
    if scale and (pa["q3"] - pa["q1"]) / scale > bound:
        return "unresolved"
    drift = sign * (pb["median"] - pa["median"])
    return "worse" if drift > bound * scale else "ok"


def no_regression(parent: list, change: list) -> dict:
    """Per end-to-end metric of BENCHMARK.json: medians, relative change,
    bound and verdict."""
    table = {}
    for m in end_to_end_spec():
        a = [r["metrics"][m["name"]]["value"] for r in parent]
        b = [r["metrics"][m["name"]]["value"] for r in change]
        ma, mb = statistics.median(a), statistics.median(b)
        table[m["name"]] = {
            "parent_median": ma, "change_median": mb,
            "relative_change": mb / ma - 1 if ma else None,
            "bound": m["bound"],
            "verdict": verdict(a, b, m["better"] == "lower", m["bound"])}
    return table


def claim(metric: str, workload: str, seeds: list, parent: list,
          change: list) -> dict:
    a = [r["metrics"][metric]["value"] for r in parent]
    b = [r["metrics"][metric]["value"] for r in change]
    lower = {m["name"]: m["better"]
             for m in end_to_end_spec()}[metric] == "lower"
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    pa, pb = summary(a), summary(b)
    return {
        "metric": metric, "workload": workload, "pairs": len(seeds),
        "seeds": seeds,
        "order": "parent first on even pair index, change first on odd",
        "per_pair": [{"seed": s, "parent": x, "change": y}
                     for s, x, y in zip(seeds, a, b)],
        "change_wins": wins,
        "parent_median": pa["median"], "change_median": pb["median"],
        "parent_iqr": pa["q3"] - pa["q1"],
        "median_diff": pa["median"] - pb["median"],
        "relative_change": pb["median"] / pa["median"] - 1,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--claim", help="end-to-end metric to count wins on")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("at least two seeds are needed for medians and quartiles")

    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        sha = export(args.rev, Path(tmp))
        sides = {"parent": Path(tmp) / "tree",
                 "change": copy_tree(Path(tmp) / "change", "src", "perfbench")}
        got = {"parent": [], "change": []}
        incorrect = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result, failed = run_side(side, sides[side], args.workload,
                                          seed, args.seconds, args.trace)
                got[side].append(result)
                if not result["correct"]:
                    incorrect[side].append({"seed": seed, "failed": failed})
            if args.claim:
                x, y = (got[s][-1]["metrics"][args.claim]["value"]
                        for s in ("parent", "change"))
                print(f"seed {seed}: parent {x:.4g} change {y:.4g}",
                      file=sys.stderr)

    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out.setdefault("description", f"perfbench/run.py, parent {sha[:7]} "
                   "against the change, alternating which runs first.")
    out["host"] = {"python": platform.python_version(), "nproc": os.cpu_count()}
    out["command"] = COMMAND
    worse = []
    if args.trace:
        out.setdefault("per_layer", {})[args.workload] = {
            "seconds": args.seconds, "seeds": args.seeds, "trace": 1,
            **{s: side_table(got[s]) for s in ("parent", "change")},
            "incorrect": incorrect}
    else:
        table = no_regression(got["parent"], got["change"])
        worse = [m for m, row in table.items() if row["verdict"] == "worse"]
        out.setdefault("end_to_end", {})[args.workload] = {
            "seconds": args.seconds, "seeds": args.seeds,
            **{s: side_table(got[s]) for s in ("parent", "change")},
            "incorrect": incorrect,
            "failed": {s: sum(r["failed"] for r in got[s])
                       for s in ("parent", "change")},
            "no_regression": table}
        if args.claim:
            out["claim"] = claim(args.claim, args.workload, args.seeds,
                                 got["parent"], got["change"])
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for metric in worse:
        print(f"# worse: {metric} on {args.workload}", file=sys.stderr)
    return 1 if incorrect["change"] or worse else 0


if __name__ == "__main__":
    sys.exit(main())
