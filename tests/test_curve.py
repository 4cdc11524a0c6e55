"""Curve groups over Fp and Fp2: complete-formula behavior, scalar
multiplication against a reference, exact operation counts of the
constant-time ladder, and the endomorphism-based scalar split."""

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
from pairing381.params import P, Q, U_SQ


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


def test_subgroup_checks_reject_cofactor_points(engine):
    # find a curve point outside the order-q subgroup by direct search
    x = 1
    while True:
        rhs = (x * x * x + 4) % P
        y = pow(rhs, (P + 1) // 4, P)
        if y * y % P == rhs:
            pt = G1Point.affine(engine, x, y)
            if not subgroup_check_canonical(pt):
                break
        x += 1
    assert pt.on_curve()
    assert not g1_subgroup_check(pt)
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


def test_hash_and_equality_leave_counters_untouched(engine):
    for g in (engine.curve.g1_gen, engine.curve.g2_gen, engine.jubjub.generator):
        p, q = g.double(), g.add(g)      # projective forms of one point
        before = engine.counter.snapshot()
        assert hash(p) == hash(q) and p == q
        assert engine.counter.delta(before) == OpCounter()
