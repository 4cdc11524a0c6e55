"""Command line surface: self-tests, benchmarks, sweeps, signature workflows.

Machine output is JSON, one object per line; --human switches to aligned
text. Exit codes: 0 success, 1 verification failure, 2 usage error,
3 invariant failure.
"""

import argparse
import json
import os
import sys

from . import params
from .bench import BENCH_OPS, PAPER_ANCHORS, run_bench, sweep
from .curve import (ecsm, g1_subgroup_check, g2_subgroup_check, plain_mul,
                    subgroup_check_canonical)
from .encoding import (
    EncodingError,
    g1_from_bytes,
    g1_to_bytes,
    g2_from_bytes,
    g2_to_bytes,
)
from .fields import Engine
from .hashing import CsprngState, hash_to_g1
from .pairing import gt_pow, final_exp, miller_loop, multi_pairing, pairing
from .params import _check
from .protocol import (
    DEFAULT_DST,
    PublicKey,
    SecretKey,
    Signature,
    aggregate,
    aggregate_verify,
    keygen,
    sign,
    verify,
)
from .tower import Fp12El

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3

_SELFTEST_SEED = bytes.fromhex(
    "6265206b696e6420746f20796f75722063757276657320746f6461792e2e2e21")


# ----- self-test suites -----
# Each suite raises on failure and returns a one-line detail. They all share
# one engine so that an injected fault propagates instead of being dodged by
# fresh pristine parameter sets.


def _suite_montgomery_constants(e, rng):
    _check(e.montgomery_sane(), "Montgomery round-trip broken")
    return "to/from round-trip and unit multiplication hold"


def _suite_fixed_constants(e, rng):
    for name, bits in (("P", 381), ("Q", 255), ("JUBJUB_ELL", 252)):
        n = getattr(params, name)
        _check(params._is_probable_prime(n) and n.bit_length() == bits, name)
    _check(g1_subgroup_check(e.curve.g1_gen), "G1 generator fails its check")
    _check(g2_subgroup_check(e.curve.g2_gen), "G2 generator fails its check")
    other = Engine()
    other.curve.omega = other.fp(params.OMEGA ** 2 % params.P)
    _check(not g1_subgroup_check(other.curve.g1_gen), "omega^2 passes G1's")
    return ("p, q and ell prime; the generators pass their subgroup checks, "
            "and omega^2 in place of omega fails the G1 one")


def _suite_inversion_chains(e, rng):
    before = e.counter.snapshot()
    e.fp(rng.nonzero_below(params.P)).inverse()
    d = e.counter.delta(before)
    _check(d.i1 == 1, f"fp inversion counted {d.i1} times")
    _check(d.inv_m1 == 608, f"fp chain ran {d.inv_m1} multiplications")
    before = e.counter.snapshot()
    e.fq(rng.nonzero_below(params.Q)).inverse()
    d = e.counter.delta(before)
    _check(d.iq == 1 and d.inv_mq == 417, f"fq chain ran {d.inv_mq}")
    return "fp inversion = 608 multiplications, fq inversion = 417"


def _suite_word_cost_law(e, rng):
    for w in params.EXECUTABLE_WORD_SIZES:
        ew = Engine(word_size=w, backend="words")
        x = ew.fp(rng.below(params.P))
        y = ew.fp(rng.below(params.P))
        ew.counter.reset()
        x * y
        mul_model, add_model = params.cios_cost_model(w)
        _check(ew.counter.word_mul == mul_model, f"w={w} word_mul")
        _check(ew.counter.word_add == add_model, f"w={w} word_add")
    return "word mul/add counts match s(2s+1) and 2(2s^2+2s+1) at w=16/32/64"


def _suite_field_oracle(e, rng):
    for _ in range(100):
        a, b = rng.below(params.P), rng.below(params.P)
        _check((e.fp(a) * e.fp(b)).to_int() == a * b % params.P, "fp product")
        a, b = rng.below(params.Q), rng.below(params.Q)
        _check((e.fq(a) * e.fq(b)).to_int() == a * b % params.Q, "fq product")
    for _ in range(10):
        a = rng.nonzero_below(params.P)
        _check(e.fp(a).inverse().to_int() == pow(a, -1, params.P),
               "fp inverse")
    return "100 multiplications and 10 inversions match the integer model"


def _suite_tower_laws(e, rng):
    x, y, z = (_rand_fp12(e, rng) for _ in range(3))
    _check((x * y) * z == x * (y * z), "fp12 product not associative")
    _check((x * x.inverse()).is_one(), "fp12 inverse")
    frob = e.tower.frobenius
    pi = [x]                          # pi[k] = pi^k(x), by pi alone
    for _ in range(12):
        pi.append(frob(pi[-1], 1))
    _check(pi[12] == x, "pi^12 is not the identity")
    _check(pi[2] == frob(x, 2), "pi o pi != pi^2")
    _check(frob(frob(x, 2), 1) == frob(x, 3), "pi o pi^2 != pi^3")
    _check(pi[6] == x.conjugate(), "pi^6 is not conjugation")
    return ("associativity and inverses hold in the tower; pi^12 = 1, "
            "pi o pi = pi^2, pi o pi^2 = pi^3, pi^6 = conjugation")


def _rand_fp12(e, rng):
    from .tower import Fp2El, Fp6El

    def r2():
        return Fp2El.of(e, rng.below(params.P), rng.below(params.P))

    return Fp12El(Fp6El(r2(), r2(), r2()), Fp6El(r2(), r2(), r2()))


def _suite_group_laws(e, rng):
    g1, g2 = e.curve.g1_gen, e.curve.g2_gen
    for g in (g1, g2):
        a = plain_mul(g, rng.nonzero_below(params.Q))
        b = plain_mul(g, rng.nonzero_below(params.Q))
        c = plain_mul(g, rng.nonzero_below(params.Q))
        _check(a.add(b).add(c) == a.add(c.add(b)), "addition not associative")
        _check(subgroup_check_canonical(g), "generator order is not q")
    ell_g = plain_mul(e.jubjub.generator, params.JUBJUB_ELL)
    _check(ell_g.is_identity(), "jubjub generator order is not ell")
    return "G1/G2 associativity, q-order generators, ell-order jubjub generator"


def _suite_exact_ecsm_counts(e, rng):
    k = rng.nonzero_below(params.Q)
    before = e.counter.snapshot()
    ecsm(k, e.curve.g1_gen)
    d = e.counter.delta(before)
    muls = PAPER_ANCHORS["ecsm-g1-mul"][0]
    adds = PAPER_ANCHORS["ecsm-g1-add"][0]
    _check(d.m1 + d.s1 == muls, f"G1 ladder ran {d.m1 + d.s1} mul+sqr")
    _check(d.a1 == adds, f"G1 ladder ran {d.a1} additions")
    _check(d.i1 == 1, f"G1 ladder ran {d.i1} inversions")
    return f"G1 ladder: {muls} mul+sqr, {adds} add, 1 inversion"


def _suite_pairing_costs(e, rng):
    p = ecsm(rng.nonzero_below(params.Q), e.curve.g1_gen)
    q = plain_mul(e.curve.g2_gen, rng.nonzero_below(params.Q)).to_affine()
    before = e.counter.snapshot()
    f = miller_loop(p, q)
    ml = e.counter.delta(before).m1_equivalent()
    before = e.counter.snapshot()
    final_exp(f)
    fe = e.counter.delta(before).m1_equivalent()
    before = e.counter.snapshot()
    pairing(p, q)
    total = e.counter.delta(before).m1_equivalent()
    for got, name in ((ml, "miller"), (fe, "finalexp"), (total, "pairing")):
        anchor, tol = PAPER_ANCHORS[name]
        _check(abs(got - anchor) / anchor <= tol, f"{name}: {got} vs {anchor}")
    return f"miller {ml}, finalexp {fe}, pairing {total} m1-equivalents"


def _suite_bilinearity(e, rng):
    a, b = rng.nonzero_below(params.Q), rng.nonzero_below(params.Q)
    g1, g2 = e.curve.g1_gen, e.curve.g2_gen
    base = pairing(g1, g2)
    lhs = pairing(ecsm(a, g1), plain_mul(g2, b).to_affine())
    _check(lhs == gt_pow(base, a * b % params.Q), "e(aP,bQ) != e(P,Q)^ab")
    _check(not base.is_one(), "pairing of the generators is degenerate")
    _check(gt_pow(base, params.Q).is_one(), "target value not of order q")
    return "e(aP,bQ) = e(P,Q)^ab, non-degenerate, order q"


def _suite_multi_pairing_modes(e, rng):
    pairs = [(ecsm(rng.nonzero_below(params.Q), e.curve.g1_gen),
              plain_mul(e.curve.g2_gen, rng.nonzero_below(params.Q)).to_affine())
             for _ in range(3)]
    vals = [multi_pairing(pairs, mode) for mode in
            ("naive", "sharedfe", "sharedmlfe")]
    _check(vals[0] == vals[1] == vals[2], "multi-pairing modes disagree")
    return "naive, sharedfe and sharedmlfe agree on a 3-product"


def _suite_constant_time_traces(e, rng):
    p = e.curve.g1_gen
    traces = []
    for _ in range(2):
        k = rng.nonzero_below(params.Q)
        with e.tracing([]) as sink:
            ecsm(k, p)
        traces.append(tuple(sink))
    _check(traces[0] == traces[1], "scalar value leaked into the trace")
    return "ladder operation sequences identical across scalars"


def _suite_encoding_roundtrip(e, rng):
    p = ecsm(rng.nonzero_below(params.Q), e.curve.g1_gen)
    q = plain_mul(e.curve.g2_gen, rng.nonzero_below(params.Q)).to_affine()
    for compressed in (True, False):
        _check(g1_from_bytes(e, g1_to_bytes(p, compressed)) == p, "G1 decode")
        _check(g2_from_bytes(e, g2_to_bytes(q, compressed)) == q, "G2 decode")
    bad = bytearray(g1_to_bytes(p, True))
    bad[1] = 0xFF  # x limb above the modulus
    bad[2] = 0xFF
    try:
        g1_from_bytes(e, bytes(bad))
    except EncodingError:
        pass
    else:
        raise AssertionError("corrupted encoding accepted")
    return "point serialization round-trips; corrupted input rejected"


def _suite_hash_to_g1(e, rng):
    seen = []
    for i in range(3):
        msg = rng.bytes(32)
        h1 = hash_to_g1(e, msg, DEFAULT_DST)
        h2 = hash_to_g1(e, msg, DEFAULT_DST)
        _check(h1 == h2, "hash-to-curve is not input-deterministic")
        with e.uncounted():
            _check(h1.on_curve() and subgroup_check_canonical(h1),
                   "hash output outside G1")
        _check(h1 != hash_to_g1(e, msg, b"other-domain"),
               "domains not separated")
        seen.append(h1)
    _check(seen[0] != seen[1] != seen[2], "distinct messages collide")
    return "deterministic, on-curve, in-subgroup, domain-separated"


def _suite_protocol_roundtrip(e, rng):
    sks, pks, msgs, sigs = [], [], [], []
    for i in range(3):
        sk, pk = keygen(e, rng)
        msg = b"message %d" % i
        sks.append(sk), pks.append(pk), msgs.append(msg)
        sigs.append(sign(e, sk, msg))
    _check(verify(pks[0], msgs[0], sigs[0]), "valid signature rejected")
    _check(not verify(pks[0], b"other message", sigs[0]),
           "signature accepted for another message")
    agg = aggregate(sigs)
    _check(aggregate_verify(pks, msgs, agg), "valid aggregate rejected")
    _check(not aggregate_verify(pks, [msgs[1], msgs[0], msgs[2]], agg),
           "aggregate accepted for swapped messages")
    return "sign/verify and 3-party aggregation behave end to end"


_SUITES = (
    ("montgomery-constants", _suite_montgomery_constants),
    ("fixed-constants", _suite_fixed_constants),
    ("inversion-chains", _suite_inversion_chains),
    ("word-cost-law", _suite_word_cost_law),
    ("field-oracle", _suite_field_oracle),
    ("tower-laws", _suite_tower_laws),
    ("group-laws", _suite_group_laws),
    ("exact-ecsm-counts", _suite_exact_ecsm_counts),
    ("pairing-costs", _suite_pairing_costs),
    ("bilinearity", _suite_bilinearity),
    ("multi-pairing-modes", _suite_multi_pairing_modes),
    ("constant-time-traces", _suite_constant_time_traces),
    ("encoding-roundtrip", _suite_encoding_roundtrip),
    ("hash-to-g1", _suite_hash_to_g1),
    ("protocol-roundtrip", _suite_protocol_roundtrip),
)


def cmd_selftest(args) -> int:
    engine = Engine()
    if args.inject_fault:
        engine.inject_fault()
    rng = CsprngState(_SELFTEST_SEED)
    failures = 0
    for name, fn in _SUITES:
        try:
            detail = fn(engine, rng)
            ok = True
        except Exception as exc:  # a faulted engine can break anywhere
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
            failures += 1
        _emit({"suite": name, "ok": ok, "detail": detail}, args.human)
    _emit({"selftest": "pass" if not failures else "fail",
           "suites": len(_SUITES), "failures": failures}, args.human)
    return EXIT_OK if not failures else EXIT_INVARIANT


# ----- bench / sweep -----


def cmd_bench(args) -> int:
    seed = bytes.fromhex(args.seed) if args.seed else None
    report = run_bench(args.op, word_size=args.word_size, seed=seed)
    _emit(report, args.human)
    return EXIT_OK


def cmd_sweep(args) -> int:
    sizes = args.word_sizes and [int(w) for w in args.word_sizes.split(",")]
    for row in sweep(sizes or None):    # sweep rejects a size with no law
        _emit(row, args.human)
    return EXIT_OK


# ----- signature workflows -----


def _read_msgs(args) -> list:
    if args.msg is not None:
        return [m.encode() for m in args.msg]
    out = []
    for path in args.msg_file:
        with open(path, "rb") as fh:
            out.append(fh.read())
    return out


def cmd_keygen(args) -> int:
    engine = Engine()
    seed = bytes.fromhex(args.seed) if args.seed else os.urandom(32)
    sk, pk = keygen(engine, CsprngState(seed))
    with open(args.sk_out, "wb") as fh:
        fh.write(sk.to_bytes())
    with open(args.pk_out, "wb") as fh:
        fh.write(pk.to_bytes())
    _emit({"wrote": [args.sk_out, args.pk_out], "seed": seed.hex()}, args.human)
    return EXIT_OK


def cmd_sign(args) -> int:
    engine = Engine()
    with open(args.sk, "rb") as fh:
        sk = SecretKey.from_bytes(fh.read())
    (msg,) = _read_msgs(args)
    sig = sign(engine, sk, msg)
    with open(args.sig_out, "wb") as fh:
        fh.write(sig.to_bytes())
    _emit({"wrote": args.sig_out}, args.human)
    return EXIT_OK


def cmd_aggregate(args) -> int:
    engine = Engine()
    sigs = []
    for path in args.sig:
        with open(path, "rb") as fh:
            sigs.append(Signature.from_bytes(engine, fh.read()))
    agg = aggregate(sigs)
    with open(args.out, "wb") as fh:
        fh.write(agg.to_bytes())
    _emit({"wrote": args.out, "aggregated": len(sigs)}, args.human)
    return EXIT_OK


def cmd_aggregate_verify(args) -> int:
    engine = Engine()
    try:
        pks = []
        for path in args.pk:
            with open(path, "rb") as fh:
                pks.append(PublicKey.from_bytes(engine, fh.read()))
        with open(args.sig, "rb") as fh:
            agg = Signature.from_bytes(engine, fh.read())
        msgs = _read_msgs(args)
        ok = aggregate_verify(pks, msgs, agg)
        reason = None if ok else "pairing equation does not hold"
    except EncodingError as exc:
        ok, reason = False, f"{type(exc).__name__}: {exc}"
    _emit({"verified": ok, **({"reason": reason} if reason else {})}, args.human)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


# ----- plumbing -----


def _emit(obj: dict, human: bool) -> None:
    if human:
        width = max(len(k) for k in obj)
        for k, v in obj.items():
            print(f"{k:<{width}}  {v}")
        print()
    else:
        print(json.dumps(obj))


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--human", action="store_true",
                        help="aligned text instead of JSON lines")
    ap = argparse.ArgumentParser(
        prog="pairing381",
        description="Instrumented BLS12-381 pairing engine")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("selftest", parents=[common],
                       help="run the invariant suites")
    p.add_argument("--inject-fault", action="store_true",
                   help="flip one Montgomery constant bit first")
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("bench", parents=[common],
                       help="cost report for one operation")
    p.add_argument("--op", required=True,
                   help="one of: " + ", ".join(BENCH_OPS))
    p.add_argument("--word-size", type=int, default=64,
                   choices=params.EXECUTABLE_WORD_SIZES)
    p.add_argument("--seed", help="64 hex chars; echoed for replay")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("sweep", parents=[common],
                       help="word-cost table across word sizes")
    p.add_argument("--word-sizes", help="comma separated, e.g. 16,24,32")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("keygen", parents=[common])
    p.add_argument("--sk-out", required=True)
    p.add_argument("--pk-out", required=True)
    p.add_argument("--seed", help="64 hex chars")
    p.set_defaults(fn=cmd_keygen)

    # repeated flags append one value per occurrence, so the i-th --pk is
    # verified against the i-th --msg / --msg-file; verify is the one-key case
    for name, fn, multi in (("sign", cmd_sign, False),
                            ("verify", cmd_aggregate_verify, False),
                            ("aggregate-verify", cmd_aggregate_verify, True)):
        p = sub.add_parser(name, parents=[common])
        if name == "sign":
            p.add_argument("--sk", required=True)
            p.add_argument("--sig-out", required=True)
        else:
            p.add_argument("--pk", required=True,
                           action="append" if multi else None,
                           nargs=None if multi else 1)
            p.add_argument("--sig", required=True)
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--msg", action="append" if multi else None,
                       nargs=None if multi else 1)
        g.add_argument("--msg-file", action="append" if multi else None,
                       nargs=None if multi else 1)
        p.set_defaults(fn=fn)

    p = sub.add_parser("aggregate", parents=[common])
    p.add_argument("--sig", required=True, action="append")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_aggregate)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
