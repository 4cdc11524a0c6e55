#!/usr/bin/env python3
"""A/B cold start: what a fresh process waits for, on a git revision against
the working tree.

    python3 tools/ab_coldstart.py REV [--pairs 15] [--out BENCH_n.json]

REV is exported with `git archive` and the working tree's src/ is copied,
without any __pycache__, into one temporary directory, so both sides start
in the same bytecode state and nothing is registered in .git. Each pair
runs every probe once per side in fresh processes, the parent side first on
even pair indexes, the change side first on odd ones:
  * import: `import pairing381; pairing381.Engine().curve`, timed inside
    the process (perfbench's setup_s without its reference kernel);
  * words-curve: a first `Engine(backend="words").curve` after the import,
    timed inside the process;
  * cli-verify: one `pairing381 verify` call (cli.main) on fixed key and
    signature files written by the change side beforehand, the wall time of
    the whole process.
Every probe runs in two bytecode states, each the same on both sides:
  * source: PYTHONDONTWRITEBYTECODE=1 and no __pycache__ in either tree, so
    every package module compiles from source on each import (the state of
    a fresh checkout on a host that writes no bytecode);
  * bytecode: bytecode is written by one untimed run per side and probe,
    then read by every timed run.
The standard library loads from its installed bytecode in both states.

Results go under "cold_start" in --out (other keys are kept): per state and
probe, each side's runs, median and quartiles, the ratio of the medians,
change over parent, and the median and quartiles of the per-pair ratios,
which a drift in host load between pairs moves less.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ab_bench import copy_tree, export, summary

MSG = b"cold start"
PROBES = {   # name -> (untimed setup, timed statement)
    "import": ("", "import pairing381; pairing381.Engine().curve"),
    "words-curve": ("import pairing381",
                    "pairing381.Engine(backend='words').curve"),
}
TIMED = """import time
{}
t0 = time.perf_counter()
{}
print(time.perf_counter() - t0)
"""
CLI = "pairing381 verify --pk pk.bin --sig sig.bin --msg 'cold start'"


def run(src: Path, env: dict, argv: list) -> tuple[float, str]:
    """Wall seconds and stdout of one fresh interpreter on src."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, check=True, cwd=src.parent,
                          env={**env, "PYTHONPATH": str(src)})
    return time.perf_counter() - t0, done.stdout


def fixtures(src: Path, dest: Path) -> list:
    """Write a key and a signature on MSG with src; return cli-verify's
    argv, which exits 0 only if the signature verifies."""
    code = (
        "import sys\n"
        "from pairing381 import Engine, keygen, sign\n"
        "from pairing381.hashing import CsprngState\n"
        "e = Engine()\n"
        "sk, pk = keygen(e, CsprngState(bytes(32)))\n"
        "open(sys.argv[1], 'wb').write(pk.to_bytes())\n"
        f"open(sys.argv[2], 'wb').write(sign(e, sk, {MSG!r}).to_bytes())\n")
    pk, sig = dest / "pk.bin", dest / "sig.bin"
    run(src, dict(os.environ), ["-c", code, str(pk), str(sig)])
    return ["-c", "import sys; from pairing381.cli import main; "
            "sys.exit(main())", "verify", "--pk", str(pk), "--sig", str(sig),
            "--msg", MSG.decode()]


def measure(src: Path, env: dict, probe: str, cli: list) -> float:
    if probe == "cli-verify":
        return run(src, env, cli)[0]
    return float(run(src, env, ["-c", TIMED.format(*PROBES[probe])])[1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev")
    ap.add_argument("--pairs", type=int, default=15)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("at least two pairs are needed for medians and quartiles")

    probes = (*PROBES, "cli-verify")
    table = {}
    with tempfile.TemporaryDirectory(prefix="ab_coldstart-") as tmp:
        tmp = Path(tmp)
        sha = export(args.rev, tmp)
        copy_tree(tmp / "change", "src")
        srcs = {"parent": tmp / "tree" / "src",
                "change": tmp / "change" / "src"}
        cli = fixtures(srcs["change"], tmp)
        base = {k: v for k, v in os.environ.items()
                if k != "PYTHONDONTWRITEBYTECODE"}
        states = {"source": {**base, "PYTHONDONTWRITEBYTECODE": "1"},
                  "bytecode": base}
        for state, env in states.items():
            for src in srcs.values():
                for cache in src.rglob("__pycache__"):
                    shutil.rmtree(cache)
                if state == "bytecode":
                    for probe in probes:
                        measure(src, env, probe, cli)
            got = {p: {"parent": [], "change": []} for p in probes}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change",
                                                                 "parent")
                for probe in probes:
                    for side in order:
                        got[probe][side].append(
                            measure(srcs[side], env, probe, cli))
            if state == "source":
                assert not [c for s in srcs.values()
                            for c in s.rglob("__pycache__")]
            table[state] = {
                probe: {**{s: summary(runs[s]) for s in runs},
                        "ratio": statistics.median(runs["change"])
                        / statistics.median(runs["parent"]),
                        "pair_ratio": summary([c / p for p, c in zip(
                            runs["parent"], runs["change"])])}
                for probe, runs in got.items()}
            for probe, row in table[state].items():
                print(f"{state:8} {probe:12} parent "
                      f"{row['parent']['median'] * 1e3:7.1f} ms  change "
                      f"{row['change']['median'] * 1e3:7.1f} ms  ratio "
                      f"{row['ratio']:.3f}  pair ratio "
                      f"{row['pair_ratio']['median']:.3f}", file=sys.stderr)

    if args.out:
        out = json.loads(args.out.read_text()) if args.out.exists() else {}
        out["cold_start"] = {
            "description": f"tools/ab_coldstart.py: parent {sha[:7]} against "
                           "the change, fresh processes, alternating which "
                           "side runs first; seconds",
            "host": {"python": platform.python_version(),
                     "nproc": os.cpu_count()},
            "pairs": args.pairs,
            "probes": {**{p: "; ".join(filter(None, code))
                          for p, code in PROBES.items()},
                       "cli-verify": CLI + " (cli.main), whole process"},
            **table}
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
