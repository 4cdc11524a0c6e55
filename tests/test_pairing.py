"""Optimal ate pairing: bilinearity, degeneracy rules, the published
operation budgets, product-of-pairings modes, and input validation."""

import hashlib
import importlib

import pytest

from pairing381 import Engine, OpCounter
from pairing381.curve import G1Point, G2Point, plain_mul
from pairing381.pairing import (
    MULTI_PAIRING_MODES,
    final_exp,
    gt_pow,
    miller_loop,
    multi_pairing,
    pairing,
)
from pairing381.params import Q
from pairing381.tower import Fp2El, Fp6El, Fp12El


def test_bilinearity(engine, rng):
    g1, g2 = engine.curve.g1_gen, engine.curve.g2_gen
    base = pairing(g1, g2)
    for _ in range(3):
        a = rng.randrange(1, Q)
        b = rng.randrange(1, Q)
        lhs = pairing(plain_mul(g1, a), plain_mul(g2, b))
        assert lhs == gt_pow(base, a * b % Q)


def test_nondegenerate_and_order_q(engine):
    e = pairing(engine.curve.g1_gen, engine.curve.g2_gen)
    assert not e.is_one()
    assert gt_pow(e, Q).is_one()
    # unitary: the conjugate is the inverse
    assert e * e.conjugate() == Fp12El.one(engine)
    assert e.cyclotomic_square() == e.square()


def test_identity_inputs_give_one(engine):
    g1, g2 = engine.curve.g1_gen, engine.curve.g2_gen
    assert pairing(G1Point.identity(engine), g2).is_one()
    assert pairing(g1, G2Point.identity(engine)).is_one()


def test_invalid_inputs_rejected(engine, cofactor_points):
    g1, g2 = engine.curve.g1_gen, engine.curve.g2_gen
    before = engine.counter.snapshot()
    off = G1Point.affine(engine, 1, 1)
    with pytest.raises(ValueError):
        pairing(off, g2)
    off2 = G2Point(Fp2El.of(engine, 1, 0), Fp2El.of(engine, 1, 0),
                   Fp2El.one(engine))
    with pytest.raises(ValueError):
        pairing(g1, off2)
    p1, p2 = cofactor_points      # on their curves, outside the subgroup
    with pytest.raises(ValueError, match="left pairing input invalid"):
        pairing(p1, g2)
    with pytest.raises(ValueError, match="right pairing input invalid"):
        pairing(g1, p2)
    assert engine.counter == before


def test_final_exp_and_frobenius_reject_a_non_fp12_before_any_tally(engine):
    before = engine.counter.snapshot()
    for x in (engine.fp(3), Fp2El.one(engine), Fp6El.one(engine)):
        for op in (final_exp, lambda x: engine.tower.frobenius(x, 1),
                   lambda x: engine.tower.frobenius(x, 6)):
            with pytest.raises(TypeError, match="Fp12El is expected"):
                op(x)
    assert engine.counter == before


@pytest.mark.parametrize("backend", ["bigint", "words"])
def test_final_exp_of_zero_raises_before_any_tally(backend):
    """The easy part inverts its input, so final_exp of the zero Fp12El
    raises ZeroDivisionError and charges and traces nothing."""
    e = Engine(backend=backend)
    zero = Fp12El(Fp6El.zero(e), Fp6El.zero(e))
    before, sink = e.counter.snapshot(), []
    with e.tracing(sink), pytest.raises(ZeroDivisionError,
                                        match="inversion of zero in Fp12El"):
        final_exp(zero)
    assert e.counter == before and sink == []


def test_inputs_of_the_wrong_class_rejected_before_any_tally(engine):
    g1, g2 = engine.curve.g1_gen, engine.curve.g2_gen
    before = engine.counter.snapshot()
    for op in (lambda: pairing(g2, g1), lambda: miller_loop(g2, g1),
               lambda: multi_pairing([(g1, g2), (g2, g1)]),
               lambda: pairing(g1, g1), lambda: miller_loop(g2, g2)):
        with pytest.raises(TypeError) as info:
            op()
        assert {"G1Point", "G2Point"} <= set(str(info.value).split())
    assert engine.counter == before


def test_miller_loop_cost(engine):
    g1, g2 = engine.curve.g1_gen, engine.curve.g2_gen
    before = engine.counter.snapshot()
    miller_loop(g1, g2)
    d = engine.counter.delta(before)
    assert d.m2 == 1889
    assert d.s2 == 451
    assert d.m1 == 272
    assert d.i1 == d.i2 == 0
    assert d.m1_equivalent() == 6841
    assert abs(d.m1_equivalent() - 7050) / 7050 <= 0.05


def test_final_exp_cost(engine):
    g1, g2 = engine.curve.g1_gen, engine.curve.g2_gen
    f = miller_loop(g1, g2)
    before = engine.counter.snapshot()
    final_exp(f)
    d = engine.counter.delta(before)
    assert d.i2 == 1
    assert d.m1_equivalent() == 8264
    assert abs(d.m1_equivalent() - 8339) / 8339 <= 0.05


def test_pairing_cost(engine):
    g1, g2 = engine.curve.g1_gen, engine.curve.g2_gen
    before = engine.counter.snapshot()
    pairing(g1, g2)
    d = engine.counter.delta(before)
    assert d.m1_equivalent() == 15105
    assert abs(d.m1_equivalent() - 15389) / 15389 <= 0.05


def test_multi_pairing_modes_agree(engine, rng):
    g1, g2 = engine.curve.g1_gen, engine.curve.g2_gen
    pairs = []
    want = Fp12El.one(engine)
    for _ in range(3):
        a, b = rng.randrange(1, Q), rng.randrange(1, Q)
        p, q = plain_mul(g1, a), plain_mul(g2, b)
        pairs.append((p, q))
        want = want * pairing(p, q)
    vals = {m: multi_pairing(pairs, mode=m) for m in MULTI_PAIRING_MODES}
    assert vals["naive"] == vals["sharedfe"] == vals["sharedmlfe"] == want


def test_every_pair_is_entry_checked_before_any_subgroup_check(engine,
                                                                monkeypatch):
    """A pair of the wrong class after a valid pair raises before the valid
    pair's subgroup checks run, and before any tally."""
    module = importlib.import_module("pairing381.pairing")
    g1, g2 = engine.curve.g1_gen, engine.curve.g2_gen
    checked = []
    for name in ("g1_subgroup_check", "g2_subgroup_check"):
        check = getattr(module, name)
        monkeypatch.setattr(module, name, lambda p, check=check: (
            checked.append(p) or check(p)))
    before = engine.counter.snapshot()
    with pytest.raises(TypeError):
        multi_pairing([(g1, g2), (g2, g1)])
    assert checked == [] and engine.counter == before
    multi_pairing([(g1, g2)])
    assert checked == [g1, g2]


def test_multi_pairing_skips_degenerate_pairs(engine):
    g1, g2 = engine.curve.g1_gen, engine.curve.g2_gen
    pairs = [(g1, g2), (G1Point.identity(engine), g2)]
    assert multi_pairing(pairs) == pairing(g1, g2)
    only = [(G1Point.identity(engine), g2)]
    assert multi_pairing(only).is_one()


def test_multi_pairing_validation(engine):
    with pytest.raises(ValueError):
        multi_pairing([], mode="naive")
    with pytest.raises(ValueError):
        multi_pairing([(engine.curve.g1_gen, engine.curve.g2_gen)],
                      mode="bogus")


def test_multi_pairing_costs_at_n8(engine, rng):
    g1, g2 = engine.curve.g1_gen, engine.curve.g2_gen
    pairs = [(plain_mul(g1, rng.randrange(1, Q)),
              plain_mul(g2, rng.randrange(1, Q))) for _ in range(8)]
    costs = {}
    for m in MULTI_PAIRING_MODES:
        before = engine.counter.snapshot()
        multi_pairing(pairs, mode=m)
        costs[m] = engine.counter.delta(before).m1_equivalent()
    assert costs["naive"] == 121218
    assert costs["sharedfe"] == 63370
    assert costs["sharedmlfe"] == 47116
    assert costs["naive"] / costs["sharedfe"] >= 1.8
    assert costs["sharedmlfe"] <= 0.75 * costs["sharedfe"]


def test_gt_pow_edges(engine):
    e = pairing(engine.curve.g1_gen, engine.curve.g2_gen)
    assert gt_pow(e, 0).is_one()
    assert gt_pow(e, 1) == e
    assert gt_pow(e, -1) == e.inverse()
    assert gt_pow(e, Q - 1) == e.inverse()


def test_pairing_trace_is_input_independent(engine, rng):
    g1, g2 = engine.curve.g1_gen, engine.curve.g2_gen
    traces = []
    for _ in range(2):
        p = plain_mul(g1, rng.randrange(1, Q))
        q = plain_mul(g2, rng.randrange(1, Q))
        sink = []
        with engine.tracing(sink):
            pairing(p, q)
        traces.append(tuple(sink))
    assert traces[0] == traces[1]


GENERATOR_PAIRING_DELTA = OpCounter(
    m1=292, m2=2531, s2=3304, a2=20667, i2=1, word_mul=1178190,
    word_add=3372574, inv_m1=608, m1_in2=14205, a1_in2=63897, i1_in2=1)


@pytest.mark.parametrize("backend", ["bigint", "words"])
def test_generator_pairing_trace_and_counters_pinned(backend):
    """e(G1, G2) at w = 64: the whole op trace by length and SHA-256, and the
    counter delta in every field, equal on both backends."""
    e = Engine(word_size=64, backend=backend)
    g1, g2 = e.curve.g1_gen, e.curve.g2_gen
    sink = []
    before = e.counter.snapshot()
    with e.tracing(sink):
        pairing(g1, g2)
    assert e.counter.delta(before) == GENERATOR_PAIRING_DELTA
    assert len(sink) == 105506
    assert hashlib.sha256(" ".join(sink).encode()).hexdigest() == (
        "43cbb95ab310c87073ea9df7c49b9523a3515f2e6265614057d3cb0fd35d11dd")
