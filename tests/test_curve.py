"""Curve groups over Fp and Fp2: complete-formula behavior, scalar
multiplication against a reference, exact operation counts of the
constant-time ladder, and the endomorphism-based scalar split."""

import hashlib
import random

import pytest

from pairing381 import Engine, OpCounter
from pairing381.curve import (
    G1Point,
    G2Point,
    ecsm,
    g1_subgroup_check,
    g2_ecsm_split,
    g2_subgroup_check,
    multi_exp,
    plain_mul,
    scalar_split,
    skew_frobenius,
    subgroup_check_canonical,
)
from pairing381.jubjub import JubjubPoint, jubjub_ecsm
from pairing381.pairing import multi_pairing, pairing
from pairing381.tower import Fp2El
from pairing381.params import JUBJUB_ELL, P, Q, U_SQ


def test_generators(engine):
    g1, g2 = engine.curve.g1_gen, engine.curve.g2_gen
    assert g1.on_curve() and g2.on_curve()
    assert subgroup_check_canonical(g1)
    assert subgroup_check_canonical(g2)
    assert plain_mul(g1, Q).is_identity()
    assert plain_mul(g2, Q).is_identity()


@pytest.mark.parametrize("gen", ["g1", "g2"])
def test_group_laws_and_complete_formulas(gen, engine, rng):
    g = getattr(engine.curve, f"{gen}_gen")
    ident = type(g).identity(engine)
    a = plain_mul(g, rng.randrange(1, Q))
    b = plain_mul(g, rng.randrange(1, Q))
    c = plain_mul(g, rng.randrange(1, Q))
    assert (a.add(b)).add(c) == a.add(b.add(c))
    assert a.add(b) == b.add(a)
    # the same addition routine must handle every special input
    assert a.add(ident) == a
    assert ident.add(a) == a
    assert a.add(-a) == ident
    assert a.add(a) == a.double()
    assert ident.double() == ident
    assert a.to_affine().on_curve()


def test_ecsm_matches_reference(engine, rng):
    g = engine.curve.g1_gen
    for _ in range(20):
        k = rng.randrange(Q)
        assert ecsm(k, g) == plain_mul(g, k)
    h = plain_mul(engine.curve.g2_gen, 7)
    k = rng.randrange(Q)
    assert ecsm(k, h) == plain_mul(h, k)


def test_ecsm_edge_scalars(engine):
    g = engine.curve.g1_gen
    assert ecsm(0, g).is_identity()
    assert ecsm(1, g) == g
    assert ecsm(Q - 1, g) == -g
    with pytest.raises(ValueError):
        ecsm(Q, g)
    with pytest.raises(ValueError):
        ecsm(-1, g)
    bad = G1Point.affine(engine, 1, 1)
    with pytest.raises(ValueError):
        ecsm(5, bad)
    for ident in (G1Point.identity(engine), G2Point.identity(engine)):
        assert ecsm(5, ident) is ident


def test_g1_ladder_exact_costs(engine, rng):
    g = engine.curve.g1_gen
    for k in (1, rng.randrange(1, Q), Q - 1):
        before = engine.counter.snapshot()
        ecsm(k, g)
        d = engine.counter.delta(before)
        assert d.m1 + d.s1 == 4847
        assert d.a1 == 14025
        assert d.i1 == 1
        assert d.m1_equivalent() == 5455


def test_g2_ladder_exact_costs(engine, rng):
    g = engine.curve.g2_gen
    before = engine.counter.snapshot()
    ecsm(rng.randrange(1, Q), g)
    d = engine.counter.delta(before)
    assert d.m2 == 4337
    assert d.s2 == 510
    assert d.a2 == 9435
    assert d.i2 == 1
    assert d.m1_equivalent() == 14643


def test_multi_exp_matches_sum(engine, rng):
    g = engine.curve.g1_gen
    h = plain_mul(g, 0xACE)
    for _ in range(5):
        k1 = rng.randrange(1 << 128)
        k2 = rng.randrange(1 << 128)
        want = plain_mul(g, k1).add(plain_mul(h, k2))
        assert multi_exp(k1, g, k2, h) == want
    with pytest.raises(ValueError):
        multi_exp(1 << 128, g, 1, h)


def test_scalar_split_reassembles(rng):
    for _ in range(50):
        k = rng.randrange(Q)
        k1, k2 = scalar_split(k)
        assert k1 + k2 * U_SQ == k
        assert k1.bit_length() <= 128 and k2.bit_length() <= 128


def test_skew_frobenius_is_multiplication_by_p(engine):
    g2 = engine.curve.g2_gen
    pt = plain_mul(g2, 0xBEEF)
    assert skew_frobenius(pt) == plain_mul(pt, P % Q)
    # phi^2 realizes the split divisor u^2
    assert skew_frobenius(skew_frobenius(pt)) == plain_mul(pt, U_SQ % Q)


def test_split_ladder_value_equality(engine, rng):
    g2 = engine.curve.g2_gen
    for _ in range(10):
        k = rng.randrange(Q)
        assert g2_ecsm_split(k, g2) == ecsm(k, g2)


def test_split_ladder_cost_and_ratio(engine, rng):
    g2 = engine.curve.g2_gen
    k = rng.randrange(1, Q)
    before = engine.counter.snapshot()
    g2_ecsm_split(k, g2)
    split_cost = engine.counter.delta(before).m1_equivalent()
    assert split_cost == 8090
    assert 14643 / split_cost >= 1.7


def test_subgroup_checks_reject_cofactor_points(engine, cofactor_points):
    p1, p2 = cofactor_points
    assert p1.on_curve() and p2.on_curve()
    assert not subgroup_check_canonical(p1)
    assert not subgroup_check_canonical(p2)
    assert not g1_subgroup_check(p1)
    assert not g2_subgroup_check(p2)
    # and the fast check agrees with the canonical one on a subgroup point
    assert g1_subgroup_check(engine.curve.g1_gen)
    assert g2_subgroup_check(engine.curve.g2_gen)


def test_ladder_trace_is_scalar_independent(engine, rng):
    g = engine.curve.g1_gen
    traces = []
    for k in (1, (1 << 254) + 1, rng.randrange(1, Q)):
        sink = []
        with engine.tracing(sink):
            ecsm(k, g)
        traces.append(tuple(sink))
    assert traces[0] == traces[1] == traces[2]
    assert len(traces[0]) == 19481


def test_point_operands_of_other_groups_or_engines_rejected(engine):
    """Points of two groups can share their coordinates' field and engine,
    so only the operand types tell them apart; points of two engines only
    their leaves. Both are rejected before any tally on either engine; a
    pairing of two engines' points before its subgroup checks."""
    g1, g2 = engine.curve.g1_gen, engine.curve.g2_gen
    jub, h2 = engine.jubjub.generator, Engine().curve.g2_gen
    before, h2_before = engine.counter.snapshot(), h2.engine.counter.snapshot()
    for op in (lambda: g1.add(g2), lambda: g2.add(g1), lambda: jub.add(g1),
               lambda: g1.add_mixed(g2), lambda: g1 + jub,
               lambda: g1.add(g1.x), lambda: g2.add(h2),
               lambda: g2.add_mixed(h2), lambda: h2 + g2,
               lambda: G1Point(g2.x, g2.y, g2.z), lambda: jubjub_ecsm(5, g1),
               lambda: ecsm(5, jub), lambda: g2_ecsm_split(5, g1),
               lambda: pairing(g1, h2), lambda: pairing(G1Point.identity(engine), h2),
               lambda: multi_pairing([(g1, g2), (g1, h2)])):
        with pytest.raises(TypeError):
            op()
    assert engine.counter == before and h2.engine.counter == h2_before


def test_a_scalar_that_is_not_an_int_is_rejected_before_any_tally(engine):
    g1, g2, jub = engine.curve.g1_gen, engine.curve.g2_gen, engine.jubjub.generator
    before = engine.counter.snapshot()
    for op in (lambda: ecsm(2.0, g1), lambda: ecsm(2.0, g2),
               lambda: g2_ecsm_split(2.0, g2), lambda: jubjub_ecsm(2.0, jub),
               lambda: multi_exp(1, g1, 2.0, g1), lambda: ecsm("2", g1)):
        with pytest.raises(TypeError, match="where int is expected"):
            op()
    assert engine.counter == before


def test_split_ladder_rejects_an_off_curve_point_before_any_tally(engine):
    """The entry check runs before the two skew Frobenius maps."""
    g2 = engine.curve.g2_gen
    off = G2Point(g2.x, g2.x, g2.z)
    assert not off.on_curve()
    before = engine.counter.snapshot()
    with pytest.raises(ValueError, match="not on curve"):
        g2_ecsm_split(5, off)
    assert engine.counter == before


def test_split_ladder_checks_the_curve_once(engine, monkeypatch):
    """The entry check is g2_ecsm_split's one curve check: its loop checks
    neither the input nor its skew image again."""
    checked = []
    on_curve = G2Point.on_curve
    monkeypatch.setattr(G2Point, "on_curve", lambda p: (
        checked.append(p) or on_curve(p)))
    g2 = engine.curve.g2_gen
    assert g2_ecsm_split(0xC0FFEE, g2) == plain_mul(g2, 0xC0FFEE)
    assert checked == [g2]


def test_points_and_elements_over_another_field_rejected(engine):
    """G1 and G2 points and the tower elements lie over Fp, Jubjub points
    over Fq: each constructor rejects coordinates of the other field before
    any tally, so no kernel runs its formula over the wrong modulus."""
    e = engine
    before = e.counter.snapshot()
    for op in (lambda: G1Point(e.fq(1), e.fq(2), e.fq(1)).double(),
               lambda: JubjubPoint(e.fp(0), e.fp(1), e.fp(1)).double(),
               lambda: Fp2El(e.fq(1), e.fq(2)).square()):
        with pytest.raises(TypeError, match="over"):
            op()
    assert e.counter == before


def test_equal_points_hash_equally(engine):
    """Every identity of a class hashes alike, however it was reached."""
    for g, order in ((engine.curve.g1_gen, Q), (engine.curve.g2_gen, Q),
                     (engine.jubjub.generator, JUBJUB_ELL)):
        idents = (type(g).identity(engine), plain_mul(g, order),
                  g.double().add(-g.double()))
        assert all(p.is_identity() for p in idents)
        assert len(set(idents)) == 1


def test_hash_and_equality_leave_counters_untouched(engine):
    for g in (engine.curve.g1_gen, engine.curve.g2_gen, engine.jubjub.generator):
        p, q = g.double(), g.add(g)      # projective forms of one point
        before = engine.counter.snapshot()
        assert hash(p) == hash(q) and p == q
        assert engine.counter.delta(before) == OpCounter()


POINT_OPS = ("g1_double", "g1_add_mixed", "g1_add", "g2_double",
             "g2_add_mixed", "g2_add", "jubjub_double", "jubjub_add")


def _point_call(op, e, rng):
    """A thunk running one point op on projective points drawn from rng (the
    mixed addition's second operand affine); inputs are prepared uncounted."""
    group, name = op.split("_", 1)
    g = {"g1": e.curve.g1_gen, "g2": e.curve.g2_gen,
         "jubjub": e.jubjub.generator}[group]
    with e.uncounted():
        a = plain_mul(g, rng.randrange(1, 1 << 16))
        b = plain_mul(g, rng.randrange(1, 1 << 16))
        b_affine = b.to_affine()
    return {"double": a.double, "add": lambda: a.add(b),
            "add_mixed": lambda: a.add_mixed(b_affine)}[name]


def _point_digest(p) -> str:
    """SHA-256 of the projective coordinates' Fp or Fq coefficients, x then y
    then z, each as 48 big-endian bytes."""
    ints = [i for c in (p.x, p.y, p.z)
            for i in (c.to_ints() if hasattr(c, "to_ints") else (c.to_int(),))]
    return hashlib.sha256(b"".join(i.to_bytes(48, "big")
                                   for i in ints)).hexdigest()


# Each point op at w = 64 on inputs from random.Random(0xC0FFEE): the counter
# delta in every field, the trace length and SHA-256, and the value's
# SHA-256; equal on both backends.
POINT_CONTRACT = {
    "g1_double": (
        {"m1": 6, "s1": 2, "a1": 20, "word_mul": 624, "word_add": 1619},
        28,
        "a2126b8ed848e25356256feb81d3cbab6e1e7ffc384f343a3ab1750b2b924b1a",
        "3f3de88d9d5dedd7d09c32b99a668f3bd94ee76a9553003596da8f1bbeef49bb"),
    "g1_add_mixed": (
        {"m1": 11, "a1": 35, "word_mul": 858, "word_add": 2322},
        46,
        "d987c6aabe391167569a3e0591585d9b8aadec2e9d17b704298f9a0f39e68075",
        "fe2c4289ae5f4e481d206986790f73c0de54e2b9e3be6c47b6491b894046825f"),
    "g1_add": (
        {"m1": 12, "a1": 41, "word_mul": 936, "word_add": 2568},
        53,
        "432b86f7877c4c6d0e4a177555544f91187c399792efaa6014ed78fd3818060a",
        "e55b713efe9ac7051d0b49df8acb3bf65632b693c4648d273fe476e6b002e12c"),
    "g2_double": (
        {"m2": 6, "s2": 2, "a2": 14, "word_mul": 1716, "word_add": 4549,
         "m1_in2": 22, "a1_in2": 64},
        108,
        "0a2c20022fb01ef59e045d1949e865b82bbe5f5ac3e89ed56515bf0ab3084fdf",
        "465eeb31a1138bd684c16616aec72f90b335a9a01b7ac3521354efebdb66ef6b"),
    "g2_add_mixed": (
        {"m2": 11, "a2": 23, "word_mul": 2574, "word_add": 6882,
         "m1_in2": 33, "a1_in2": 101},
        168,
        "e9d85fd665da51cf28ebabcabb4a2c487257f023080234891900cd13e5bb4000",
        "114b3e4ccdee12ad966b209bd98b71cb930bd69ef80aae4ce0dd150509759180"),
    "g2_add": (
        {"m2": 12, "a2": 29, "word_mul": 2808, "word_add": 7606,
         "m1_in2": 36, "a1_in2": 118},
        195,
        "d8184f45aacb839ea407729d6d41b667d8498270a5e08e3733540633bf62e0de",
        "a982170c64c246e8c83ba636625f4428ea76e745815bc3366c3493aa2f383069"),
    "jubjub_double": (
        {"mq": 3, "sq": 4, "aq": 8, "word_mul": 252, "word_add": 641},
        15,
        "e8f9cdd77bc866d865588be694612d9d1adb6588a5752d063a6a91917bbe36b3",
        "576c672c88e83648191980255d308050910097810999373cef61868516ba2675"),
    "jubjub_add": (
        {"mq": 11, "sq": 1, "aq": 7, "word_mul": 432, "word_add": 1044},
        19,
        "4bdd2f65a608c9d9a4cacf14e94f01263f51f7bfbbd98c865012bc5ac069c21a",
        "59c0c192250fd2226859abe0bab23b4e2f710dd8a37614c4b6b2d1d3a22c212d"),
}


@pytest.mark.parametrize("backend", [0, 1], ids=["bigint", "words"])
@pytest.mark.parametrize("op", POINT_OPS)
def test_point_op_contract(op, backend, twin_engines):
    e = twin_engines[backend]
    delta, length, trace_sha, value_sha = POINT_CONTRACT[op]
    run = _point_call(op, e, random.Random(0xC0FFEE))
    sink = []
    before = e.counter.snapshot()
    with e.tracing(sink):
        out = run()
    assert e.counter.delta(before) == OpCounter(**delta)
    assert len(sink) == length
    assert hashlib.sha256(" ".join(sink).encode()).hexdigest() == trace_sha
    assert _point_digest(out) == value_sha
