"""Single-operation benchmark reports.

Each report comes from a fresh engine on the word-array execution path, so
the word_mul/word_add fields are measured rather than modeled. Its inputs are
drawn and prepared first on a bigint engine, which computes the same values
faster, and moved over by the words engine's conversion of each residue
(uncounted boundary work). Then
exactly one operation runs, and its counter delta is the report. Counter
fields are therefore deterministic for a fixed seed; only wall_time varies.
Engine constants are built before the clock starts.
Each op is declared once, in _OPS.

Reported Fp counters are the direct ones (work nested inside Fp2 operations
has its own *_in2 buckets, which the report leaves out), so the stated
m1_equivalent convention holds literally on the report's own fields.
"""

import os
import time
from typing import Callable, NamedTuple

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

_REPORTED = ("m1", "s1", "a1", "i1", "m2", "s2", "a2", "i2",
             "mq", "sq", "aq", "iq", "word_mul", "word_add")


class _Draw:
    """One report's inputs, drawn in order from its seed's stream on the
    bigint engine prep, whose raw values are residues, and moved to its
    words engine by that engine's conversion of each."""

    def __init__(self, engine, rng):
        self.engine = engine
        self.rng = rng
        self.prep = Engine(word_size=engine.params.word_size)

    def words(self, x):
        """x, an element or point of prep, as one of engine."""
        spec, e = x.o.spec, self.engine

        def raw(v):
            return e._raw(spec, v) if type(v) is int else tuple(map(raw, v))
        return type(x)._wrap(e._ops[spec], raw(x.val))

    def g1(self, prep=False):
        p = ecsm(self.k(), self.prep.curve.g1_gen)
        return p if prep else self.words(p)

    def g2(self, prep=False):
        q = g2_ecsm_split(self.k(), self.prep.curve.g2_gen)
        return q if prep else self.words(q)

    def k(self, bound=params.Q):
        return self.rng.nonzero_below(bound)


class _Op(NamedTuple):
    """A bench op: how its inputs are drawn, what runs, what it reports."""

    draw: Callable      # (d), or (d, n, mode) if sized: the inputs, in order
    run: Callable       # (*inputs): the call the report counts
    modes: tuple = ()   # sized as name:<n>:<mode>, mode one of these
    baseline: Callable | None = None    # (*inputs): an overhead ratio's base
    extra: Callable = lambda *sized: {}     # (*sized): the fields it adds
    own_report: bool = False                # run returns the report itself


# Every bench op. The lambdas name the functions they call, so a tracer that
# replaces this module's imports sees each call.
_OPS = {
    "pairing": _Op(lambda d: (d.g1(), d.g2()), lambda p, q: pairing(p, q)),
    "miller": _Op(lambda d: (d.g1(), d.g2()), lambda p, q: miller_loop(p, q)),
    "finalexp": _Op(lambda d: (d.words(miller_loop(d.g1(prep=True),
                                                   d.g2(prep=True))),),
                    lambda f: final_exp(f)),
    "ecsm-g1": _Op(lambda d: (d.g1(), d.k()), lambda p, k: ecsm(k, p)),
    "ecsm-g2": _Op(lambda d: (d.g2(), d.k()), lambda q, k: ecsm(k, q)),
    "ecsm-g2-split": _Op(lambda d: (d.g2(), d.k()),
                         lambda q, k: g2_ecsm_split(k, q)),
    "ecsm-jubjub": _Op(
        lambda d: (d.engine.jubjub.generator, d.k(params.JUBJUB_ELL)),
        lambda g, k: jubjub_ecsm(k, g)),
    "hash-g1": _Op(
        lambda d: (d.engine, d.rng.bytes(32)),
        lambda e, msg: hash_to_g1(e, msg, DEFAULT_DST),
        extra=lambda: dict(m1_informational_anchor=PAPER_ANCHORS["hash-g1"][0])),
    "multipairing": _Op(
        lambda d, n, mode: ([(d.g1(), d.g2()) for _ in range(n)], mode),
        lambda pairs, mode: multi_pairing(pairs, mode),
        modes=MULTI_PAIRING_MODES, extra=lambda n, mode: dict(n=n, mode=mode)),
    "ipe": _Op(lambda d, n, mode: (d.engine, n, mode, d.rng),
               lambda *args: ipe_encrypt_benchmark(*args),
               modes=IPE_MODES, own_report=True),
    "hardened-ecsm": _Op(
        lambda d: (d.g1(), d.k(), CountermeasureConfig(
            rng=d.rng, randomized_projective=True, scalar_splitting=True)),
        lambda p, k, cfg: hardened_ecsm(k, p, cfg),
        baseline=lambda p, k, cfg: ecsm(k, p)),
    "hardened-pairing": _Op(
        lambda d: (d.g1(), d.g2(),
                   CountermeasureConfig(rng=d.rng, randomized_pairing=True)),
        lambda p, q, cfg: hardened_pairing(p, q, cfg),
        baseline=lambda p, q, cfg: pairing(p, q)),
}

BENCH_OPS = tuple(name + (":<n>:<mode>" if op.modes else "")
                  for name, op in _OPS.items())


def run_bench(op: str, word_size: int = 64, seed: bytes | None = None) -> dict:
    """Run one named operation on a fresh engine and report its exact cost."""
    decl = _OPS.get(op.split(":")[0])
    if decl is None or (":" in op) != bool(decl.modes):
        raise ValueError(
            f"unknown op {op!r}; choose from: " + ", ".join(BENCH_OPS))
    sized = _parse_sized_op(op, decl.modes) if decl.modes else ()
    if seed is None:
        seed = os.urandom(32)
    engine = Engine(word_size=word_size, backend="words")
    engine.curve        # built before the clock, whether the op reads it or not
    inputs = decl.draw(_Draw(engine, CsprngState(seed)), *sized)
    counted = []    # the op's call, then its baseline's
    for call in filter(None, (decl.run, decl.baseline)):
        before = engine.counter.snapshot()
        t0 = time.perf_counter()
        out = call(*inputs)
        wall = time.perf_counter() - t0
        counted.append((out, engine.counter.delta(before), wall))
    (out, counters, wall), *baseline = counted
    report = {"op": op, "word_size": word_size, "seed": seed.hex()}
    if decl.own_report:
        return {**out, **report, "wall_time": wall}
    report.update((k, getattr(counters, k)) for k in _REPORTED)
    report["m1_equivalent"] = counters.m1_equivalent()
    report["wall_time"] = wall
    report["convention"] = CONVENTION
    report.update(decl.extra(*sized))
    for _, base, _ in baseline:
        report.update(_overhead(counters, base))
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
        mul = ecsm if m == "plain" else g2_ecsm_split
        before = engine.counter.snapshot()
        results[m] = [mul(k, base) for k in scalars]
        totals[m] = engine.counter.delta(before).m1_equivalent()
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
    models = [(w, *params.cios_cost_model(w)) for w in word_sizes]  # raises
    pairing_cost = _pairing_m1_equivalent()     # on a bad size, before this
    rows = []
    for w, model_mul, model_add in models:
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
    # a pairing's count does not depend on its (valid) inputs
    e = Engine(word_size=64, backend="bigint")
    e.counter.reset()
    pairing(e.curve.g1_gen, e.curve.g2_gen)
    return e.counter.m1_equivalent()
