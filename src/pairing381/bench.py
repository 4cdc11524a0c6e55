"""Single-operation benchmark reports.

Each report comes from a fresh engine on the word-array execution path, so
the word_mul/word_add fields are measured rather than modeled. Its inputs are
drawn and prepared first on a bigint engine, which computes the same values
faster, and moved over by limb conversion (uncounted boundary work). Then the
counters are reset, exactly one operation runs, and the counter state is the
report. Counter fields are therefore deterministic for a fixed seed; only
wall_time varies. Engine constants are derived once per process, before the
clock starts.

Reported Fp counters are the direct ones (work nested inside Fp2 operations
has its own *_in2 buckets, which the report leaves out), so the stated
m1_equivalent convention holds literally on the report's own fields.
"""

import os
import time

from .cios import to_limbs
from .counters import FP2_INV_M1, FP_INV_MULS, OpCounter
from .curve import ecsm, g2_ecsm_split
from .fields import Engine
from .hashing import CsprngState, hash_to_g1
from .jubjub import jubjub_ecsm
from .pairing import (
    MULTI_PAIRING_MODES,
    final_exp,
    miller_loop,
    multi_pairing,
    pairing,
)
from .protocol import (
    DEFAULT_DST,
    CountermeasureConfig,
    hardened_ecsm,
    hardened_pairing,
)
from . import params

CONVENTION = (
    f"m1_equivalent = m1 + s1 + 3*m2 + 2*s2 + {FP_INV_MULS}*i1 + "
    f"{FP2_INV_M1}*i2 over direct ops; "
    "Fp work inside Fp2 ops and inversion-chain multiplications are not "
    "double-counted"
)

# The paper's cost figures as (value, relative tolerance) for the CLI
# selftest and the reports: 0 means the implementation must land exactly,
# None that the figure is informational. The test suite keeps its own copies
# as an independent spec.
PAPER_ANCHORS = {
    "miller": (7050, 0.05),
    "finalexp": (8339, 0.05),
    "pairing": (15389, 0.05),
    "ecsm-g1-mul": (4847, 0),
    "ecsm-g1-add": (14025, 0),
    "hash-g1": (1897, None),
}

IPE_MODES = ("plain", "splitscalar")

BENCH_OPS = (
    "pairing",
    "miller",
    "finalexp",
    "ecsm-g1",
    "ecsm-g2",
    "ecsm-g2-split",
    "ecsm-jubjub",
    "hash-g1",
    "multipairing:<n>:<mode>",
    "ipe:<n>:<mode>",
    "hardened-ecsm",
    "hardened-pairing",
)


_REPORTED = ("m1", "s1", "a1", "i1", "m2", "s2", "a2", "i2",
             "mq", "sq", "aq", "iq", "word_mul", "word_add")


def _rand_g1(engine, rng):
    return ecsm(rng.nonzero_below(params.Q), engine.curve.g1_gen)


def _rand_g2(engine, rng):
    return g2_ecsm_split(rng.nonzero_below(params.Q), engine.curve.g2_gen)


def _to_words(engine, x):
    """x, an element or point of a bigint engine, as one of the words engine
    (same word size): each raw Montgomery int becomes its limb tuple."""
    spec = x.o.spec

    def limbs(v):
        return to_limbs(v, spec) if type(v) is int else tuple(map(limbs, v))
    return type(x)._wrap(engine._ops[spec], limbs(x.val))


def _measure(engine, thunk):
    engine.counter.reset()
    t0 = time.perf_counter()
    out = thunk()
    wall = time.perf_counter() - t0
    return out, engine.counter.snapshot(), wall


def run_bench(op: str, word_size: int = 64, seed: bytes | None = None) -> dict:
    """Run one named operation on a fresh engine and report its exact cost."""
    if seed is None:
        seed = os.urandom(32)
    rng = CsprngState(seed)
    engine = Engine(word_size=word_size, backend="words")
    prep = Engine(word_size=word_size)      # draws and prepares the inputs
    extra: dict = {}
    if op not in ("ecsm-g1", "ecsm-g2", "ecsm-jubjub", "hash-g1",
                  "hardened-ecsm"):     # these read no curve constant
        engine.curve

    def g1():
        return _to_words(engine, _rand_g1(prep, rng))

    def g2():
        return _to_words(engine, _rand_g2(prep, rng))

    if op == "pairing":
        p, q = g1(), g2()
        _, counters, wall = _measure(engine, lambda: pairing(p, q))
    elif op == "miller":
        p, q = g1(), g2()
        _, counters, wall = _measure(engine, lambda: miller_loop(p, q))
    elif op == "finalexp":
        f = _to_words(engine, miller_loop(_rand_g1(prep, rng),
                                          _rand_g2(prep, rng)))
        _, counters, wall = _measure(engine, lambda: final_exp(f))
    elif op == "ecsm-g1":
        p = g1()
        k = rng.nonzero_below(params.Q)
        _, counters, wall = _measure(engine, lambda: ecsm(k, p))
    elif op == "ecsm-g2":
        q = g2()
        k = rng.nonzero_below(params.Q)
        _, counters, wall = _measure(engine, lambda: ecsm(k, q))
    elif op == "ecsm-g2-split":
        q = g2()
        k = rng.nonzero_below(params.Q)
        _, counters, wall = _measure(engine, lambda: g2_ecsm_split(k, q))
    elif op == "ecsm-jubjub":
        g = engine.jubjub.generator
        k = rng.nonzero_below(params.JUBJUB_ELL)
        _, counters, wall = _measure(engine, lambda: jubjub_ecsm(k, g))
    elif op == "hash-g1":
        msg = rng.bytes(32)
        _, counters, wall = _measure(
            engine, lambda: hash_to_g1(engine, msg, DEFAULT_DST))
        extra["m1_informational_anchor"] = PAPER_ANCHORS["hash-g1"][0]
    elif op.startswith("multipairing:"):
        n, mode = _parse_sized_op(op, MULTI_PAIRING_MODES)
        pairs = [(g1(), g2()) for _ in range(n)]
        _, counters, wall = _measure(engine, lambda: multi_pairing(pairs, mode))
        extra.update(n=n, mode=mode)
    elif op.startswith("ipe:"):
        n, mode = _parse_sized_op(op, IPE_MODES)
        t0 = time.perf_counter()
        report = ipe_encrypt_benchmark(engine, n, mode, rng)
        report.update(op=op, word_size=word_size, seed=seed.hex(),
                      wall_time=time.perf_counter() - t0)
        return report
    elif op == "hardened-ecsm":
        p = g1()
        k = rng.nonzero_below(params.Q)
        cfg = CountermeasureConfig(rng=rng, randomized_projective=True,
                                   scalar_splitting=True)
        _, counters, wall = _measure(engine, lambda: hardened_ecsm(k, p, cfg))
        _, base, _ = _measure(engine, lambda: ecsm(k, p))
        extra.update(_overhead(counters, base))
    elif op == "hardened-pairing":
        p, q = g1(), g2()
        cfg = CountermeasureConfig(rng=rng, randomized_pairing=True)
        _, counters, wall = _measure(
            engine, lambda: hardened_pairing(p, q, cfg))
        _, base, _ = _measure(engine, lambda: pairing(p, q))
        extra.update(_overhead(counters, base))
    else:
        raise ValueError(
            f"unknown op {op!r}; choose from: " + ", ".join(BENCH_OPS))

    report = {"op": op, "word_size": word_size, "seed": seed.hex()}
    report.update((k, getattr(counters, k)) for k in _REPORTED)
    report["m1_equivalent"] = counters.m1_equivalent()
    report["wall_time"] = wall
    report["convention"] = CONVENTION
    report.update(extra)
    return report


def ipe_encrypt_benchmark(engine, vector_len: int, mode: str,
                          rng: CsprngState) -> dict:
    """Cost report for a vector of G2 scalar multiplications.

    Both strategies run on the same drawn scalars: the requested one is the
    headline number, the other serves as the measured baseline for the ratio.
    The two result vectors are compared point by point.
    """
    mode = mode.lower()
    if mode not in IPE_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if vector_len < 1:
        raise ValueError("vector_len must be at least 1")
    scalars = [rng.nonzero_below(params.Q) for _ in range(vector_len)]
    base = engine.curve.g2_gen
    totals = {}
    results = {}
    for m in IPE_MODES:
        before = engine.counter.snapshot()
        if m == "plain":
            pts = [ecsm(k, base) for k in scalars]
        else:
            pts = [g2_ecsm_split(k, base) for k in scalars]
        totals[m] = engine.counter.delta(before).m1_equivalent()
        results[m] = pts
    agree = all(a == b for a, b in zip(results["plain"], results["splitscalar"]))
    per = {m: totals[m] / vector_len for m in IPE_MODES}
    return {
        "op": "ipe-encrypt",
        "mode": mode,
        "vector_len": vector_len,
        "m1_equivalent": totals[mode],
        "per_element_m1_equivalent": per[mode],
        "per_element_plain": per["plain"],
        "per_element_splitscalar": per["splitscalar"],
        "ratio_plain_over_split": per["plain"] / per["splitscalar"],
        "values_agree": agree,
    }


def _parse_sized_op(op: str, modes) -> tuple[int, str]:
    parts = op.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected {parts[0]}:<n>:<mode>, got {op!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise ValueError(f"bad size in {op!r}") from None
    if n < 1:
        raise ValueError("size must be at least 1")
    mode = parts[2].lower()
    if mode not in modes:
        raise ValueError(f"unknown mode {parts[2]!r}; choose from {modes}")
    return n, mode


def _overhead(hardened: OpCounter, baseline: OpCounter) -> dict:
    """Cost ratios with and without the final-inversion term.

    The affine normalization at the end of every scalar multiplication costs
    one field inversion; whether the published overhead figures include it is
    ambiguous, so both ratios are reported.
    """
    h, b = hardened.m1_equivalent(), baseline.m1_equivalent()
    h_no = h - FP_INV_MULS * hardened.i1 - FP2_INV_M1 * hardened.i2
    b_no = b - FP_INV_MULS * baseline.i1 - FP2_INV_M1 * baseline.i2
    return {
        "baseline_m1_equivalent": b,
        "overhead_ratio": h / b,
        "overhead_ratio_no_inversion": h_no / b_no if b_no else float("nan"),
    }


def sweep(word_sizes=None) -> list[dict]:
    """Word-operation cost per modular multiplication across word sizes.

    Sizes with an executable limb schedule (16, 32, 64) are measured on the
    word-array path and must match the analytic law exactly; the others are
    analytic only. The per-pairing column extrapolates with the measured
    m1-equivalent count of one pairing.
    """
    if word_sizes is None:
        word_sizes = params.ANALYTIC_WORD_SIZES
    pairing_cost = _pairing_m1_equivalent()
    rows = []
    for w in word_sizes:
        model_mul, model_add = params.cios_cost_model(w)
        row = {
            "word_size": w,
            "word_mul_per_mont_mul": model_mul,
            "word_add_per_mont_mul": model_add,
            "word_mul_per_pairing": model_mul * pairing_cost,
            "pairing_m1_equivalent": pairing_cost,
            "measured": w in params.EXECUTABLE_WORD_SIZES,
        }
        if row["measured"]:
            e = Engine(word_size=w, backend="words")
            x = e.fp(0x1234567890ABCDEF)
            y = e.fp(0xFEDCBA0987654321)
            e.counter.reset()
            x * y
            row["word_mul_measured"] = e.counter.word_mul
            row["word_add_measured"] = e.counter.word_add
        rows.append(row)
    return rows


def _pairing_m1_equivalent() -> int:
    e = Engine(word_size=64, backend="bigint")
    rng = CsprngState(b"\x42" * 32)
    p, q = _rand_g1(e, rng), _rand_g2(e, rng)
    e.counter.reset()
    pairing(p, q)
    return e.counter.m1_equivalent()
