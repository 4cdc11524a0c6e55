#!/usr/bin/env python3
"""A/B layer timings: a git revision's package against the working tree's,
both loaded in one process.

    python3 tools/ab_layers.py REV --out BENCH_n.json [--rounds 5] \
        [--cases dbl_step pairing ...] [--compile]

REV is exported with `git archive` and the working tree's src/ is copied,
without any __pycache__, into one temporary directory, so neither side reads
stale bytecode. Each load order runs in its own process, which imports both
packages, the first-named side first, keeping each side's modules and
swapping them into sys.modules before each of its cases, so that imports
made at call time resolve to its own tree. The package loaded first reads
faster (BENCH_9.json), so both orders are reported.

Every case runs once untimed (compiling its kernels), then once per round
and side, which side goes first alternating by round. A round times the
case's calls and records microseconds per call. Cases, all counted, on a
bigint engine at w=64 (the default is all of them):
  * each registered kernel by its op name (dbl_step, prep_step, fp12_mul,
    ...): one RawOps.apply on seeded random raw operands, 100 calls a round;
    a side without the kernel reports null;
  * miller_verify: multi_miller_loop over verify's live pairs
    [(H(m), pk), (sig, -G2)], -G2 prepared on a side that prepares it;
  * final_exp: the final exponentiation of that Miller value;
  * pairing: pairing of the two generators;
  * verify_from_bytes: decode the key and the signature, then verify;
  * hash_to_g1, sign and keygen under the protocol's defaults;
  * g1_decode, g2_decode and gt_decode of the signature, the key and a
    pairing value;
  * g1_on_curve and g2_on_curve: the signature's and the key's uncounted
    curve-membership checks, 100 calls a round;
  * g1_subgroup_check and g2_subgroup_check: the signature's and the key's
    subgroup checks, called directly and counted, 10 calls a round;
  * ecsm_g1: the constant-time ladder on the G1 generator, seeded scalar;
  * aggverify_5: aggregate_verify of 5 keys and distinct messages against
    their aggregate signature, keys and signature decoded beforehand.
The "layers" key of --out gets, per load order and case, each side's median
over the rounds, and the ratio of the medians, change over parent, with the
host and the bytecode state. Other keys already in the file are kept.

With --compile, the tool times the cold work of a first counted use instead,
under the "compile" key, and each measurement runs in a fresh process on one
side's tree (PYTHONDONTWRITEBYTECODE=1, so the package imports from source,
untimed), whose stores start empty. Per round, which side goes first
alternates. Rows, each side's median over the rounds:
  * each registered kernel by its op name (the --cases, default all), and
    all_ops, every one of them that the side registers, in one process
    (a side registering none reports null): per backend, walk_ms, the
    walks alone (fields._walk), then first_use_ms, the records' first
    counted use (walk, compile and install on bigint; walk and record on
    words) after the store is emptied again, and, of that first use,
    compile_ms (inside compile()), compiles and lines (the compiled
    source's);
  * verify_from_bytes: a first verify, key and signature decoded from bytes,
    in a fresh bigint process (Engine() included): ms, with the compile
    figures and the walks made.
Each row also gets the ratio of the sides' first_use_ms (ms for verify),
change over parent.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from functools import cached_property, partial
from pathlib import Path
from types import SimpleNamespace

from ab_bench import copy_tree, export

MSG = b"layer harness"
SIDES = ("parent", "change")


def _operand(rng, shape, x1, modulus):
    """A random nonzero raw int for each X1 slot of a placeholder shape."""
    if shape is x1:
        return rng.randrange(1, modulus)
    return tuple(_operand(rng, s, x1, modulus) for s in shape)


def purge():
    for name in [n for n in sys.modules if n.split(".")[0] == "pairing381"]:
        del sys.modules[name]


class Side:
    """One tree's package, and the inputs of its cases, built at first use
    while the side is active."""

    def __init__(self, src: Path):
        purge()
        sys.path.insert(0, str(src))
        try:
            import pairing381  # noqa: F401  imported for its modules
        finally:
            sys.path.remove(str(src))
        self.modules = {n: m for n, m in sys.modules.items()
                        if n.split(".")[0] == "pairing381"}
        purge()

    def activate(self):
        purge()
        sys.modules.update(self.modules)

    def mod(self, name):
        return self.modules["pairing381." + name]

    @property
    def lib(self):
        return self.modules["pairing381"]

    @cached_property
    def inputs(self) -> SimpleNamespace:
        """A bigint engine, a key pair, a signature over MSG, their points
        and bytes, a pairing value's bytes, verify's live pairs (-G2 prepared
        where this side prepares it) and their Miller value."""
        lib, pairing = self.lib, self.mod("pairing")
        e = lib.Engine()
        rng = lib.CsprngState(b"\x17" * 32)
        sk, pk = lib.keygen(e, rng)
        sig = lib.sign(e, sk, MSG)
        prepare = getattr(pairing, "prepared_neg_g2", None)
        neg = prepare(e) if prepare else -e.curve.g2_gen
        h = lib.hash_to_g1(e, MSG, self.mod("protocol").DEFAULT_DST)
        live = pairing._live_pairs([(h, pk.point), (sig.point, neg)])
        gt = lib.pairing(e.curve.g1_gen, e.curve.g2_gen)
        return SimpleNamespace(
            e=e, rng=rng, sk=sk, pk=pk.point, sig=sig.point,
            pkb=pk.to_bytes(), sigb=sig.to_bytes(),
            gtb=self.mod("encoding").gt_to_bytes(gt), live=live,
            f=pairing.multi_miller_loop(live))

    @cached_property
    def aggregate(self) -> tuple:
        """aggregate_verify's arguments for 5 signers, each key and the
        aggregate signature decoded from their bytes."""
        lib, x = self.lib, self.inputs
        msgs = [MSG + b" %d" % i for i in range(5)]
        pks, sigs = [], []
        for m in msgs:
            sk, pk = lib.keygen(x.e, x.rng)
            pks.append(lib.PublicKey.from_bytes(x.e, pk.to_bytes()))
            sigs.append(lib.sign(x.e, sk, m))
        agg = lib.aggregate(sigs).to_bytes()
        return pks, msgs, lib.Signature.from_bytes(x.e, agg)


def _kernel(side, op):
    """A counted RawOps.apply of op on seeded operands, or None."""
    fields = side.mod("fields")
    if op not in fields.KERNELS:
        return None
    e = side.inputs.e
    spec = e.fq_spec if op.startswith("jubjub") else e.fp_spec
    o, rng = e._ops[spec], random.Random(op)
    args = [_operand(rng, s, fields.X1, spec.modulus)
            for s in fields.KERNELS[op][2]]
    return lambda: o.apply(op, *args)


def _verify_from_bytes(side):
    lib, x = side.lib, side.inputs
    return lambda: lib.verify(lib.PublicKey.from_bytes(x.e, x.pkb), MSG,
                              lib.Signature.from_bytes(x.e, x.sigb))


KERNEL_CALLS = 100
CASES = {   # name -> (calls per round, build(side) -> callable)
    "miller_verify": (1, lambda s: partial(
        s.mod("pairing").multi_miller_loop, s.inputs.live)),
    "final_exp": (1, lambda s: partial(s.lib.final_exp, s.inputs.f)),
    "pairing": (1, lambda s: partial(s.lib.pairing, s.inputs.e.curve.g1_gen,
                                     s.inputs.e.curve.g2_gen)),
    "verify_from_bytes": (1, _verify_from_bytes),
    "hash_to_g1": (1, lambda s: partial(s.lib.hash_to_g1, s.inputs.e, MSG,
                                        s.mod("protocol").DEFAULT_DST)),
    "sign": (1, lambda s: partial(s.lib.sign, s.inputs.e, s.inputs.sk, MSG)),
    "keygen": (1, lambda s: partial(s.lib.keygen, s.inputs.e, s.inputs.rng)),
    "g1_decode": (1, lambda s: partial(s.mod("encoding").g1_from_bytes,
                                       s.inputs.e, s.inputs.sigb)),
    "g2_decode": (1, lambda s: partial(s.mod("encoding").g2_from_bytes,
                                       s.inputs.e, s.inputs.pkb)),
    "gt_decode": (1, lambda s: partial(s.mod("encoding").gt_from_bytes,
                                       s.inputs.e, s.inputs.gtb)),
    "g1_on_curve": (KERNEL_CALLS, lambda s: s.inputs.sig.on_curve),
    "g2_on_curve": (KERNEL_CALLS, lambda s: s.inputs.pk.on_curve),
    "g1_subgroup_check": (10, lambda s: partial(
        s.mod("curve").g1_subgroup_check, s.inputs.sig)),
    "g2_subgroup_check": (10, lambda s: partial(
        s.mod("curve").g2_subgroup_check, s.inputs.pk)),
    "ecsm_g1": (1, lambda s: partial(
        s.mod("curve").ecsm, random.Random("ecsm_g1").randrange(
            1, s.mod("params").Q), s.inputs.e.curve.g1_gen)),
    "aggverify_5": (1, lambda s: partial(s.lib.aggregate_verify,
                                         *s.aggregate)),
}


# One fresh process's cold work on its side's tree; prints a JSON object.
COLD = """import json, sys, time
import pairing381
from pairing381 import fields
import pairing381.jubjub, pairing381.pairing  # register every kernel
compiled = []


def spy(source, name, mode):
    t0 = time.perf_counter()
    code = compile(source, name, mode)
    compiled.append((time.perf_counter() - t0, source.count("\\n")))
    return code


def figures(**seconds):
    return {"compile_ms": sum(c for c, _ in compiled) * 1e3,
            "compiles": len(compiled), "lines": sum(n for _, n in compiled),
            **{k: t * 1e3 for k, t in seconds.items()}}


fields.compile = spy
mode, *args = sys.argv[1:]
if mode == "verify":
    pkb, sigb, msg = map(bytes.fromhex, args)
    t0 = time.perf_counter()
    e = pairing381.Engine()
    ok = pairing381.verify(pairing381.PublicKey.from_bytes(e, pkb), msg,
                           pairing381.Signature.from_bytes(e, sigb))
    out = figures(ms=time.perf_counter() - t0)
    if not ok:
        raise SystemExit("the signature did not verify")
    out["walks"] = sum(op in fields.KERNELS
                       for store in fields._STORES.values() for op in store)
    print(json.dumps(out))
    raise SystemExit
backend, *ops = args
ops = [op for op in ops if op in fields.KERNELS]   # those this side has
if not ops:
    print("null")
    raise SystemExit
e = pairing381.Engine(backend=backend)
specs = [e.fq_spec if op.startswith("jubjub") else e.fp_spec for op in ops]
t0 = time.perf_counter()
for spec, op in zip(specs, ops):
    fields._walk(spec, op)
walk = time.perf_counter() - t0
fields._STORES.clear()
e = pairing381.Engine(backend=backend)
t0 = time.perf_counter()
for spec, op in zip(specs, ops):
    e._ops[spec].records[op]
print(json.dumps(figures(first_use_ms=time.perf_counter() - t0,
                         walk_ms=walk)))
"""


def cold(src: Path, *argv: str):
    """What one fresh COLD process on src prints, parsed."""
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", COLD, *argv], env=env,
                          cwd=src.parent, capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout)


def cold_fixtures(src: Path) -> tuple:
    """The hex bytes of a key, a signature on MSG, made with src, and MSG."""
    code = ("from pairing381 import CsprngState, Engine, keygen, sign\n"
            "e = Engine()\n"
            "sk, pk = keygen(e, CsprngState(bytes(32)))\n"
            f"print(pk.to_bytes().hex(), sign(e, sk, {MSG!r}).to_bytes().hex())")
    env = {**os.environ, "PYTHONPATH": str(src)}
    return tuple(subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True,
                                check=True).stdout.split()) + (MSG.hex(),)


def _medians(runs: list):
    """Per figure, the median over rounds; None for a side without it."""
    if None in runs:
        return None
    return {k: round(statistics.median(r[k] for r in runs), 3)
            for k in runs[0]}


def _ratio(row: dict, key: str):
    p, c = row["parent"], row["change"]
    return round(c[key] / p[key], 3) if p and c and p[key] else None


def compile_table(srcs: dict, rounds: int, cases) -> dict:
    """The "compile" rows: per op and all_ops, per backend and side, and
    verify_from_bytes, per side, each figure's median over rounds."""
    if cases is None:
        code = ("import pairing381.jubjub, pairing381.pairing\n"
                "from pairing381.fields import KERNELS\nprint(*KERNELS)")
        cases = sorted(set().union(*(subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": str(src)}
        ).stdout.split() for src in srcs.values())))
    probes = {(op, backend): ("ops", backend, op)
              for op in cases for backend in ("bigint", "words")}
    probes.update({("all_ops", backend): ("ops", backend, *cases)
                   for backend in ("bigint", "words")})
    probes["verify_from_bytes", None] = ("verify",
                                        *cold_fixtures(srcs["change"]))
    runs = {(key, side): [] for key in probes for side in SIDES}
    for r in range(rounds):
        for key, argv in probes.items():
            for side in SIDES[::-1] if r % 2 else SIDES:
                runs[key, side].append(cold(srcs[side], *argv))
    rows = {}
    for (name, backend) in probes:
        row = {side: _medians(runs[(name, backend), side]) for side in SIDES}
        row["ratio"] = _ratio(row, "first_use_ms" if backend else "ms")
        if backend:
            rows.setdefault(name, {})[backend] = row
        else:
            rows[name] = row
    return rows


def run_order(first: str, srcs: dict, rounds: int, cases) -> dict:
    """Both packages in this process, first's loaded first: per case, each
    side's median microseconds per call (None without the case). cases
    None is every registered kernel of either side, then CASES."""
    order = (first, *[s for s in SIDES if s != first])
    sides = {name: Side(srcs[name]) for name in order}
    kernels = sorted(set().union(*(s.mod("fields").KERNELS
                                   for s in sides.values())))
    cases = cases or kernels + list(CASES)
    calls, times = {}, {}
    for case in cases:
        if case in CASES:
            n, build = CASES[case]
        elif case in kernels:
            n, build = KERNEL_CALLS, partial(_kernel, op=case)
        else:
            raise SystemExit(f"unknown case {case!r}")
        for name, side in sides.items():
            side.activate()
            fn = build(side)
            if fn is not None:
                fn()                      # warm: compiles its kernels
                calls[case, name], times[case, name] = (n, fn), []
    for r in range(rounds):
        for case in cases:
            for name in order[::-1] if r % 2 else order:
                if (case, name) not in calls:
                    continue
                n, fn = calls[case, name]
                sides[name].activate()
                t0 = time.perf_counter()
                for _ in range(n):
                    fn()
                times[case, name].append((time.perf_counter() - t0) / n * 1e6)
    return {case: {name: round(statistics.median(times[case, name]), 2)
                   if (case, name) in times else None for name in SIDES}
            for case in cases}


def load_order(args, first: str, srcs: dict) -> dict:
    """run_order in a fresh process: per case, each side's median and the
    ratio of the medians, change over parent."""
    proc = subprocess.run(
        [sys.executable, __file__, args.rev, "--out", str(args.out),
         "--rounds", str(args.rounds),
         *(["--cases", *args.cases] if args.cases else []),
         "--run", first, str(srcs["parent"]), str(srcs["change"])],
        stdout=subprocess.PIPE, text=True, check=True)
    medians = json.loads(proc.stdout.strip().splitlines()[-1])
    return {case: {**row, "ratio": round(row["change"] / row["parent"], 3)
                   if row["parent"] and row["change"] else None}
            for case, row in medians.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--cases", nargs="+", metavar="CASE",
                    help="kernel names or " + ", ".join(CASES))
    ap.add_argument("--compile", action="store_true",
                    help="time walks and compiles in fresh processes")
    ap.add_argument("--run", nargs=3, help=argparse.SUPPRESS,
                    metavar=("FIRST", "PARENT_SRC", "CHANGE_SRC"))
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    if args.run:       # one load order, in this process; prints its table
        first, *srcs = args.run
        print(json.dumps(run_order(first, dict(zip(SIDES, map(Path, srcs))),
                                   args.rounds, args.cases)))
        return 0

    with tempfile.TemporaryDirectory(prefix="ab_layers-") as tmp:
        sha = export(args.rev, Path(tmp))
        srcs = {"parent": Path(tmp) / "tree" / "src",
                "change": copy_tree(Path(tmp) / "change", "src") / "src"}
        if args.compile:
            key, body = "compile", {
                "method": f"tools/ab_layers.py --compile: parent {sha[:7]} "
                          "against the change, one fresh process per "
                          f"measurement, {args.rounds} rounds alternating "
                          "which side runs first, medians (rows in the "
                          "tool's docstring)",
                "bytecode": "both trees without __pycache__, each process "
                            "imports from source (PYTHONDONTWRITEBYTECODE=1)",
                "rows": compile_table(srcs, args.rounds, args.cases)}
        else:
            key, body = "layers", {
                "method": f"tools/ab_layers.py: parent {sha[:7]} against the "
                          "change, both packages in one process per load "
                          f"order, {args.rounds} rounds alternating which "
                          "side runs first, median microseconds per call, "
                          "warm, bigint engine at w=64 (cases in the tool's "
                          "docstring)",
                "bytecode": "both trees without __pycache__; "
                            f"sys.dont_write_bytecode={sys.dont_write_bytecode}",
                **{f"{first}_loaded_first": load_order(args, first, srcs)
                   for first in SIDES}}

    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out[key] = {"host": {"python": platform.python_version(),
                         "nproc": os.cpu_count()}, **body}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
