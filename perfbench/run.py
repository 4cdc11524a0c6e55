#!/usr/bin/env python3
"""BLS12-381 verify/sign benchmark in reference-normalized time.

    python3 perfbench/run.py --workload verify-fresh --seed 1 --seconds 25 --trace 0

Runs one workload against the package in ../src for --seconds, checks every
output, prints each metric by name and unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones, read from spans that wrap the package's public functions.

Times are in ref units: a request's wall time divided by the time of the
reference kernel (refkernel.py) run right before and during it. See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles

import refkernel
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

PRIMARY = {
    "verify-fresh": "verify",
    "aggverify-pool": "aggverify",
    "sign-keygen": "sign-keygen",
    "cost-report-words": "report",
}
# Every run starts with these requests, whatever its workload, so that each
# end-to-end metric is measured on each workload; the workload's own kind of
# request then fills the rest of the run. The *_m1eq metrics read the first
# requests of their kind, so for a given seed they cover the same inputs
# however many requests fit in the run.
PANEL = (("verify", 5), ("sign-keygen", 5), ("aggverify", 1), ("report", 1))
BATCH = 16          # signatures per aggregate verification
CHECK_BATCH = 8     # produced signatures verified together, untimed
POOL = 64           # validator keys the batches draw their signers from
SETUP_RUNS = 5
WORD_SIZE = 64
REPORT_OPS = ("pairing", "ecsm-g1", "ecsm-jubjub", "hash-g1")
# name: (measured landing, exact; paper figure, checked to +-5%)
ANCHORS = {
    "pairing": (15105, 15389),
    "miller": (6841, 7050),
    "final_exp": (8264, 8339),
    "g1_ladder": (4847, 4847),
}

# Set-up time is normalized like every other time, then scaled back to
# seconds at a nominal kernel time of 1 ms, so that a slow minute on the host
# does not read as a set-up regression.
NOMINAL_KERNEL_S = 0.001
SETUP_CODE = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import refkernel
meter = refkernel.Meter()
t0 = meter.start()
import pairing381
pairing381.Engine().curve
print(*meter.stop(t0))
"""


def measure_setup() -> tuple[list[float], list[float]]:
    """Import + Engine() + first .curve, each in a fresh process.

    Returns raw seconds and the same in nominal seconds (ref units times
    NOMINAL_KERNEL_S).
    """
    code = SETUP_CODE.format(bench=str(Path(__file__).resolve().parent),
                             src=str(SRC))

    def once() -> tuple[float, float]:
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=120)
        seconds, ref = map(float, done.stdout.split())
        return seconds, ref * NOMINAL_KERNEL_S

    once()      # the first import in a fresh checkout also writes bytecode
    raw, nominal = zip(*(once() for _ in range(SETUP_RUNS)))
    return list(raw), list(nominal)


def sha(*parts) -> bytes:
    return hashlib.sha256(":".join(map(str, parts)).encode()).digest()


class Inputs:
    """Every request input, drawn from the seed in a fixed order, untimed."""

    def __init__(self, lib, engine, seed: int):
        self.lib = lib
        self.engine = engine
        self.rng = {kind: lib.CsprngState(sha("perfbench", seed, kind))
                    for kind in ("verify", "aggverify", "sign-keygen", "report",
                                 "signers", "pool", "micro")}
        self.signers = self._key_stream(self.rng["signers"])
        self.pool = None
        self.counts = dict.fromkeys(("verify", "aggverify"), 0)

    def _key_stream(self, rng):
        """Keys sk_j = s0 + j*d with pk_j = pk_(j-1) + d*G2.

        Distinct valid key pairs at one G2 addition each, instead of one
        scalar multiplication each, which keeps generation short.
        """
        lib, q = self.lib, self.lib.params.Q
        g2 = self.engine.curve.g2_gen
        s0, d = rng.nonzero_below(q), rng.nonzero_below(q)
        sk, pk, step = s0, lib.g2_ecsm_split(s0, g2), lib.g2_ecsm_split(d, g2)
        while True:
            if sk:
                yield lib.SecretKey(sk), lib.PublicKey(pk).to_bytes()
            sk, pk = (sk + d) % q, pk.add(step)

    def verify(self):
        """One fresh signer and message; every fourth carries the wrong message."""
        lib, rng = self.lib, self.rng["verify"]
        sk, pkb = next(self.signers)
        msg = rng.bytes(32)
        sigb = lib.sign(self.engine, sk, msg).to_bytes()
        self.counts["verify"] += 1
        if self.counts["verify"] % 4 == 0:
            return pkb, rng.bytes(32), sigb, False
        return pkb, msg, sigb, True

    def aggverify(self):
        """16 distinct pool signers; every fourth batch has one swapped message."""
        lib, rng = self.lib, self.rng["aggverify"]
        if self.pool is None:
            stream = self._key_stream(self.rng["pool"])
            self.pool = [next(stream) for _ in range(POOL)]
        order = list(range(POOL))
        for i in range(BATCH):
            j = i + rng.below(POOL - i)
            order[i], order[j] = order[j], order[i]
        signers = [self.pool[i] for i in order[:BATCH]]
        msgs = [rng.bytes(32) for _ in range(BATCH)]
        agg = lib.aggregate([lib.sign(self.engine, sk, m)
                             for (sk, _), m in zip(signers, msgs)])
        self.counts["aggverify"] += 1
        expected = self.counts["aggverify"] % 4 != 0
        if not expected:
            msgs[rng.below(BATCH)] = rng.bytes(32)
        return [pkb for _, pkb in signers], msgs, agg.to_bytes(), expected

    def sign_keygen(self):
        rng = self.rng["sign-keygen"]
        return self.lib.CsprngState(rng.bytes(32)), rng.bytes(32)

    def report_seed(self) -> bytes:
        return self.rng["report"].bytes(32)


@dataclass
class Sample:
    seconds: float              # wall time without the kernel's
    ref: float
    m1eq: float
    traced: bool
    panel: bool
    delta: object = None        # the engine's OpCounter delta
    reports: dict = None        # run_bench output, for report samples


class Run:
    """Timed requests, their samples, and the checks made on their outputs."""

    def __init__(self, lib, engine, inputs):
        self.lib = lib
        self.engine = engine
        self.inputs = inputs
        self.tracer = None
        self.samples = {k: [] for k in ("verify", "aggverify", "keygen", "sign",
                                        "report")}
        self.meter = refkernel.Meter()
        self.units: dict[int, float] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: list[str] = []
        self._next_request = 0
        self._produced = []         # (pk bytes, message, signature bytes)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def timed(self, kind: str, fn, traced: bool):
        """Run fn as one request: (result or exception, seconds, ref, delta)."""
        rid = self._next_request
        self._next_request += 1
        tracer = self.tracer if traced else None
        counter = self.engine.counter
        with tracer.installed() if tracer else nullcontext():
            if tracer:
                tracer.request = rid
                root = tracer.open("request:" + kind, self.engine)
            c0 = counter.snapshot()
            t0 = self.meter.start()
            try:
                out = fn()
            except Exception as exc:        # counted as a failed operation
                out = exc
            seconds, ref = self.meter.stop(t0)
            delta = counter.delta(c0)
            if tracer:
                root.start, root.end = t0, t0 + seconds
                root.m1eq = delta.m1_equivalent()
                tracer.close()
        self.units[rid] = seconds / ref
        return out, seconds, ref, delta

    # ----- the four kinds of request -----

    def verify(self, traced: bool, panel: bool) -> None:
        lib, e = self.lib, self.engine
        pkb, msg, sigb, expected = self.inputs.verify()

        def request():
            pk = lib.PublicKey.from_bytes(e, pkb)
            sig = lib.Signature.from_bytes(e, sigb)
            return lib.verify(pk, msg, sig)

        out, s, ref, delta = self.timed("verify", request, traced)
        if self.check(out is expected, f"verify returned {out!r}, expected {expected}"):
            self.samples["verify"].append(
                Sample(s, ref, delta.m1_equivalent(), traced, panel, delta))

    def aggverify(self, traced: bool, panel: bool) -> None:
        lib, e = self.lib, self.engine
        pkbs, msgs, aggb, expected = self.inputs.aggverify()

        def request():
            pks = [lib.PublicKey.from_bytes(e, b) for b in pkbs]
            return lib.aggregate_verify(pks, msgs, lib.Signature.from_bytes(e, aggb))

        out, s, ref, delta = self.timed("aggverify", request, traced)
        if self.check(out is expected,
                      f"aggregate_verify returned {out!r}, expected {expected}"):
            self.samples["aggverify"].append(
                Sample(s, ref, delta.m1_equivalent(), traced, panel, delta))

    def sign_keygen(self, traced: bool, panel: bool) -> None:
        lib, e = self.lib, self.engine
        key_rng, msg = self.inputs.sign_keygen()

        def keygen():
            sk, pk = lib.keygen(e, key_rng)
            return sk, pk.to_bytes()

        kout, ks, kref, kdelta = self.timed("keygen", keygen, traced)
        if isinstance(kout, Exception):
            self.check(False, f"keygen raised {kout!r}")
            return
        sk, pkb = kout
        sout, ss, sref, sdelta = self.timed(
            "sign", lambda: lib.sign(e, sk, msg).to_bytes(), traced)
        if isinstance(sout, Exception):
            self.check(False, f"sign raised {sout!r}")
            return
        self.samples["keygen"].append(
            Sample(ks, kref, kdelta.m1_equivalent(), traced, panel, kdelta))
        self.samples["sign"].append(
            Sample(ss, sref, sdelta.m1_equivalent(), traced, panel, sdelta))
        self._produced.append((pkb, msg, sout))
        if len(self._produced) == CHECK_BATCH:
            self.check_produced()

    def check_produced(self) -> None:
        """Untimed: verify the produced signatures under their keys.

        One aggregate verification over up to CHECK_BATCH of them, decoded
        from their bytes, costs under half of verifying each alone. Every
        signature counts as one checked operation; if the batch fails, all
        of them count as failed.
        """
        lib, e = self.lib, self.engine
        batch, self._produced = self._produced, []
        if not batch:
            return
        try:
            ok = lib.aggregate_verify(
                [lib.PublicKey.from_bytes(e, pkb) for pkb, _, _ in batch],
                [msg for _, msg, _ in batch],
                lib.aggregate([lib.Signature.from_bytes(e, sb) for _, _, sb in batch]))
        except Exception as exc:
            ok = exc
        for _ in batch:
            self.check(ok is True, f"produced signatures failed to verify: {ok!r}")

    def report(self, traced: bool, panel: bool) -> None:
        """The cost report of `pairing381 bench`, one op at a time."""
        seed = self.inputs.report_seed()
        seconds = ref = 0.0
        reports = {}
        for op in REPORT_OPS:
            out, s, r, _ = self.timed(
                "report", lambda: self.lib.bench.run_bench(op, WORD_SIZE, seed),
                traced)
            if isinstance(out, Exception):
                self.check(False, f"run_bench({op!r}) raised {out!r}")
                return
            seconds, ref, reports[op] = seconds + s, ref + r, out
        ladder = reports["ecsm-g1"]["m1"] + reports["ecsm-g1"]["s1"]
        ok = (self.anchor("pairing", reports["pairing"]["m1_equivalent"])
              & self.anchor("g1_ladder", ladder))
        if self.check(ok, "cost report misses an anchor"):
            m1eq = sum(r["m1_equivalent"] for r in reports.values())
            self.samples["report"].append(
                Sample(seconds, ref, m1eq, traced, panel, reports=reports))

    def anchor(self, name: str, measured: int) -> bool:
        landing, paper = ANCHORS[name]
        ok = measured == landing and abs(measured / paper - 1) <= 0.05
        line = (f"anchor {name}: measured {measured}, landing {landing} (exact), "
                f"paper {paper} (+-5%: {measured / paper - 1:+.2%}) "
                f"{'ok' if ok else 'MISMATCH'}")
        if line not in self.notes:
            self.notes.append(line)
        return ok

    def check_pairing_split(self) -> None:
        """Miller loop and final exponentiation counts on the bigint engine."""
        lib, e = self.lib, self.engine
        rng = self.inputs.rng["report"]
        p = lib.ecsm(rng.nonzero_below(lib.params.Q), e.curve.g1_gen)
        q = lib.g2_ecsm_split(rng.nonzero_below(lib.params.Q), e.curve.g2_gen)
        c0 = e.counter.snapshot()
        f = lib.miller_loop(p, q)
        c1 = e.counter.snapshot()
        lib.final_exp(f)
        miller = c1.delta(c0).m1_equivalent()
        final = e.counter.delta(c1).m1_equivalent()
        ok = self.anchor("miller", miller) & self.anchor("final_exp", final)
        self.check(ok, "pairing split misses an anchor")


# ----- statistics -----

# Every _tail_ metric is this percentile, by nearest rank, whatever the
# number of samples. How many requests fit in a run depends on the host's
# speed and on the code under test; a rank chosen from that number would
# change the statistic a baseline is compared against.
TAIL = 90


def tail(values) -> float:
    """The TAIL-th percentile by nearest rank (the maximum below 10 samples)."""
    v = sorted(values)
    return v[math.ceil(TAIL * len(v) / 100) - 1]


def spread(values) -> float:
    q = quantiles(values, n=4)
    return (q[2] - q[0]) / median(values)


def end_to_end(run: Run, setup) -> tuple[dict, dict]:
    """The 15 end-to-end metrics, plus raw milliseconds for every _ref one."""
    s = run.samples
    refs = {k: [x.ref for x in v] for k, v in s.items()}
    ms = {k: [1e3 * x.seconds for x in v] for k, v in s.items()}
    first = dict(PANEL)
    first["keygen"] = first["sign"] = first["sign-keygen"]

    def m1eq(kind):
        return median([x.m1eq for x in s[kind][:first[kind]]])

    metrics = {
        "setup_s": (median(setup[1]), "s"),
        "ok_frac": (1 - len(run.failures) / run.attempted, "frac"),
        "verify_p50_ref": (median(refs["verify"]), "ref"),
        "verify_tail_ref": (tail(refs["verify"]), "ref"),
        "verify_m1eq": (m1eq("verify"), "M1"),
        "aggverify_per_sig_ref": (median(refs["aggverify"]) / BATCH, "ref"),
        "aggverify_tail_ref": (tail(refs["aggverify"]) / BATCH, "ref"),
        "aggverify_m1eq_per_sig": (m1eq("aggverify") / BATCH, "M1"),
        "sign_p50_ref": (median(refs["sign"]), "ref"),
        "sign_tail_ref": (tail(refs["sign"]), "ref"),
        "keygen_p50_ref": (median(refs["keygen"]), "ref"),
        "sign_m1eq": (m1eq("sign"), "M1"),
        "keygen_m1eq": (m1eq("keygen"), "M1"),
        "report_ref": (median(refs["report"]), "ref"),
        "report_m1eq": (m1eq("report"), "M1"),
    }
    wall = {
        "wall.setup_ms": (1e3 * median(setup[0]), "ms"),
        "wall.verify_p50_ms": (median(ms["verify"]), "ms"),
        "wall.verify_tail_ms": (tail(ms["verify"]), "ms"),
        "wall.aggverify_per_sig_ms": (median(ms["aggverify"]) / BATCH, "ms"),
        "wall.aggverify_tail_ms": (tail(ms["aggverify"]) / BATCH, "ms"),
        "wall.sign_p50_ms": (median(ms["sign"]), "ms"),
        "wall.sign_tail_ms": (tail(ms["sign"]), "ms"),
        "wall.keygen_p50_ms": (median(ms["keygen"]), "ms"),
        "wall.report_ms": (median(ms["report"]), "ms"),
    }
    return metrics, wall


# ----- per-layer metrics -----

SUBGROUP = ("g1_subgroup_check", "g2_subgroup_check")
DECODE = ("g1_from_bytes", "g2_from_bytes")
ROOTS = {"verify": ("request:verify",), "aggverify": ("request:aggverify",),
         "sign-keygen": ("request:keygen", "request:sign"),
         "report": ("request:report",)}
PRIMARY_SAMPLE = {"verify": "verify", "aggverify": "aggverify",
                  "sign-keygen": "sign", "report": "report"}


def span_metrics(run: Run, primary: str) -> dict:
    """Shares on the workload's own requests; per-call figures on all spans.

    Each metric is a (value, unit) pair.
    """
    tracer, engine, units = run.tracer, run.engine, run.units
    spans = tracer.spans
    selfs = tracer.self_times()
    root_of = []
    for i, sp in enumerate(spans):      # parents are recorded before children
        root_of.append(i if sp.parent is None else root_of[sp.parent])

    def roots(names):
        return {i for i, sp in enumerate(spans)
                if sp.parent is None and sp.name in names}

    own = roots(ROOTS[primary])
    own_time = sum(spans[i].duration for i in own)

    def share(names):
        return sum(sp.duration for i, sp in enumerate(spans)
                   if sp.name in names and root_of[i] in own) / own_time, "frac"

    def self_share(root_name, fn_name):
        rs = roots((root_name,))
        glue = sum(selfs[i] for i, sp in enumerate(spans)
                   if i in rs or (sp.name == fn_name and root_of[i] in rs))
        return glue / sum(spans[i].duration for i in rs), "frac"

    def bigint(names, pred=lambda sp: True):
        return [sp for sp in spans
                if sp.name in names and sp.engine is engine and pred(sp)]

    def ref(names, pred=lambda sp: True, per=lambda sp: 1):
        return median([sp.duration / units[sp.request] / per(sp)
                       for sp in bigint(names, pred)]), "ref"

    def m1eq(names, pred=lambda sp: True, per=lambda sp: 1):
        return median([sp.m1eq / per(sp) for sp in bigint(names, pred)]), "M1"

    def g1(sp):
        return sp.info == "G1Point"

    def pairs(sp):
        return sp.info

    checks = bigint(SUBGROUP)
    return {
        "protocol.verify.self_share": self_share("request:verify", "verify"),
        "protocol.aggverify.self_share":
            self_share("request:aggverify", "aggregate_verify"),
        "encoding.g1_decode_ref": ref(("g1_from_bytes",)),
        "encoding.g2_decode_ref": ref(("g2_from_bytes",)),
        "encoding.decode.share": share(DECODE),
        "curve.subgroup.share": share(SUBGROUP),
        "curve.subgroup_checks_per_point":
            (len(checks) / len({sp.info for sp in checks}), "ratio"),
        "curve.g1_ecsm_ref": ref(("ecsm",), g1),
        "curve.g1_ecsm_m1eq": m1eq(("ecsm",), g1),
        "curve.g2_split_ref": ref(("g2_ecsm_split",)),
        "pairing.miller.share": share(("multi_miller_loop",)),
        "pairing.miller_per_pair_ref": ref(("multi_miller_loop",), per=pairs),
        "pairing.miller.m1eq": m1eq(("multi_miller_loop",), per=pairs),
        "pairing.final_exp.share": share(("final_exp",)),
        "pairing.final_exp_ref": ref(("final_exp",)),
        "pairing.final_exp.m1eq": m1eq(("final_exp",)),
        "hashing.hash_to_g1_ref": ref(("hash_to_g1",)),
        "hashing.hash_to_g1.share": share(("hash_to_g1",)),
        "hashing.hash_to_g1.m1eq": m1eq(("hash_to_g1",)),
    }


def micro_metrics(lib, engine, rng, meter) -> dict:
    """Tower, field, CIOS and Jubjub primitives timed through public methods."""
    from pairing381.tower import Fp2El, Fp12El

    p = lib.params.P

    def fp2():
        return Fp2El.of(engine, rng.below(p), rng.below(p))

    a, b = fp2(), fp2()
    f = Fp12El.from_coeffs([fp2() for _ in range(6)])
    g = Fp12El.from_coeffs([fp2() for _ in range(6)])
    x, y = engine.fp(rng.below(p)), engine.fp(rng.nonzero_below(p))
    words = lib.Engine(word_size=WORD_SIZE, backend="words")
    wx, wy = words.fp(rng.below(p)), words.fp(rng.below(p))
    jub = words.jubjub.generator
    k = rng.nonzero_below(lib.params.JUBJUB_ELL)

    def per_call_ref(fn, calls: int, reps: int = 5) -> tuple[float, str]:
        """Median over reps of one call's time in ref units, timed in a loop."""
        vals = []
        for _ in range(reps):
            t0 = meter.start()
            for _ in range(calls):
                fn()
            vals.append(meter.stop(t0)[1] / calls)
        return median(vals), "ref"

    counted = per_call_ref(lambda: a * b, 400)
    with engine.uncounted():
        uncounted = per_call_ref(lambda: a * b, 400)
    return {
        "tower.fp2_mul_ref": counted,
        "tower.fp2_sqr_ref": per_call_ref(a.square, 400),
        "tower.fp12_mul_ref": per_call_ref(lambda: f * g, 20),
        "tower.fp12_sqr_ref": per_call_ref(f.square, 20),
        "tower.cyclotomic_sqr_ref": per_call_ref(f.cyclotomic_square, 20),
        "tower.frobenius_ref": per_call_ref(lambda: engine.tower.frobenius(f, 1), 20),
        "fields.fp_mul_ref": per_call_ref(lambda: x * y, 2000),
        "fields.fp_add_ref": per_call_ref(lambda: x + y, 2000),
        "fields.fp_inv_ref": per_call_ref(y.inverse, 5),
        "fields.counting_overhead": (counted[0] / uncounted[0], "ratio"),
        "cios.mont_mul_ref": per_call_ref(lambda: wx * wy, 100),
        "jubjub.ecsm_ref": per_call_ref(lambda: lib.jubjub_ecsm(k, jub), 1, reps=3),
    }


def per_layer(run: Run, primary: str, wall: dict) -> dict:
    s = run.samples
    own = [x for x in s[PRIMARY_SAMPLE[primary]] if not x.panel]
    traced = [x.ref for x in own if x.traced]
    plain = [x.ref for x in own if not x.traced]
    metrics = span_metrics(run, primary)
    metrics.update(micro_metrics(run.lib, run.engine, run.inputs.rng["micro"],
                                  run.meter))
    metrics.update({
        "tower.m2_per_verify": (median([x.delta.m2 for x in s["verify"]]), "count"),
        "tower.s2_per_verify": (median([x.delta.s2 for x in s["verify"]]), "count"),
        "cios.word_mul_per_report":
            (median([sum(r["word_mul"] for r in x.reports.values())
                     for x in s["report"]]), "count"),
        "trace.overhead": (median(traced) / median(plain) - 1, "ratio"),
        "ref.kernel_ms": (1e3 * median(run.meter.kernels), "ms"),
    })
    metrics.update(wall)
    return metrics


# ----- entry point -----


def execute(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    setup = measure_setup()
    sys.path.insert(0, str(SRC))
    import pairing381 as lib
    import pairing381.bench     # noqa: F401  so the tracer finds its imports

    engine = lib.Engine(word_size=WORD_SIZE)
    engine.curve
    inputs = Inputs(lib, engine, seed)
    run = Run(lib, engine, inputs)
    if trace:
        run.tracer = Tracer(clock=run.meter.now)
    primary = PRIMARY[workload]
    by_kind = {"verify": run.verify, "aggverify": run.aggverify,
               "sign-keygen": run.sign_keygen, "report": run.report}

    deadline = time.perf_counter() + seconds
    for kind, count in PANEL:
        for _ in range(count):
            by_kind[kind](trace, True)
    # the traced run alternates plain and traced requests; the pair gives
    # trace.overhead
    i = 0
    while time.perf_counter() < deadline or (trace and i < 2):
        by_kind[primary](trace and i % 2 == 1, False)
        i += 1
    run.check_produced()
    run.check_pairing_split()

    e2e, wall = end_to_end(run, setup)
    if trace:
        metrics = per_layer(run, primary, wall)
        problems = run.tracer.problems()
        glue = metrics["protocol.verify.self_share"][0]
        run.check(not problems and glue < 0.5,
                  f"trace inconsistent: {problems[:3]}, verify glue {glue:.3f}")
        OUT.mkdir(exist_ok=True)
        dump = [[sp.name, sp.parent, sp.request, sp.start, sp.end, sp.m1eq]
                for sp in run.tracer.spans]
        (OUT / f"spans-{workload}-{seed}.json").write_text(json.dumps(dump))
    else:
        metrics = e2e

    print(f"# workload={workload} seed={seed} seconds={seconds} trace={int(trace)}"
          f" python={platform.python_version()} nproc={os.cpu_count()}"
          f" backend={engine.backend} word_size={WORD_SIZE} report_backend=words")
    counts = " ".join(f"{k}={len(v)}" for k, v in run.samples.items())
    ranks = " ".join(f"{k}={math.ceil(TAIL * len(run.samples[k]) / 100)}"
                     f"/{len(run.samples[k])}" for k in ("verify", "aggverify", "sign"))
    print(f"# samples: {counts}; _tail_ metrics: p{TAIL} by nearest rank, "
          f"rank/samples {ranks}; setup runs={len(setup[0])}; "
          f"generation is outside every timed interval")
    kernels = run.meter.kernels
    print(f"# ref kernel: median {1e3 * median(kernels):.3f} ms, "
          f"quartile spread {spread(kernels):.3f} of median, {len(kernels)} runs")
    for line in run.notes:
        print("# " + line)
    for what in run.failures:
        print("# FAILED: " + what)
    for name, (v, unit) in metrics.items():
        raw = wall.get("wall." + name.removesuffix("_ref").removesuffix("_s") + "_ms")
        print(f"{name} {v:.6g} {unit}" + (f"  ({raw[0]:.2f} ms)" if raw else ""))
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PRIMARY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pairing381" / "__init__.py").is_file():
        print(f"perfbench: no pairing381 package under {SRC}", file=sys.stderr)
        return 2
    result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
