#!/usr/bin/env python3
"""A/B layer timings: a git revision's package against the working tree's,
both loaded in one process.

    python3 tools/ab_layers.py REV --out BENCH_n.json [--rounds 5] \
        [--cases dbl_step pairing ...]

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
    curve-membership checks, 100 calls a round.
The "layers" key of --out gets, per load order and case, each side's median
over the rounds, and the ratio of the medians, change over parent, with the
host and the bytecode state. Other keys already in the file are kept. Walk
and compile times are not measured.
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
}


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--cases", nargs="+", metavar="CASE",
                    help="kernel names or " + ", ".join(CASES))
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

    table = {}
    with tempfile.TemporaryDirectory(prefix="ab_layers-") as tmp:
        sha = export(args.rev, Path(tmp))
        change = copy_tree(Path(tmp) / "change", "src") / "src"
        for first in SIDES:
            proc = subprocess.run(
                [sys.executable, __file__, args.rev, "--out", str(args.out),
                 "--rounds", str(args.rounds),
                 *(["--cases", *args.cases] if args.cases else []),
                 "--run", first, str(Path(tmp) / "tree" / "src"), str(change)],
                stdout=subprocess.PIPE, text=True, check=True)
            medians = json.loads(proc.stdout.strip().splitlines()[-1])
            table[f"{first}_loaded_first"] = {
                case: {**row, "ratio": round(row["change"] / row["parent"], 3)
                       if row["parent"] and row["change"] else None}
                for case, row in medians.items()}

    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out["layers"] = {
        "method": f"tools/ab_layers.py: parent {sha[:7]} against the change, "
                  "both packages in one process per load order, "
                  f"{args.rounds} rounds alternating which side runs first, "
                  "median microseconds per call, warm, bigint engine at w=64 "
                  "(cases in the tool's docstring)",
        "host": {"python": platform.python_version(),
                 "nproc": os.cpu_count()},
        "bytecode": "both trees without __pycache__; "
                    f"sys.dont_write_bytecode={sys.dont_write_bytecode}",
        **table}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
