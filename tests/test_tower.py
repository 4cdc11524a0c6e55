"""Extension tower: ring laws against random samples, inverse correctness,
Frobenius structure, and the Fp2 operation-counting conventions."""

import random

import pytest

from pairing381 import Engine
from pairing381.pairing import pairing
from pairing381.params import P
from pairing381.tower import Fp2El, Fp6El, Fp12El, fp2_sqrt, fp_sqrt


def rand_fp2(e, rng):
    return Fp2El.of(e, rng.randrange(P), rng.randrange(P))


def rand_fp6(e, rng):
    return Fp6El(rand_fp2(e, rng), rand_fp2(e, rng), rand_fp2(e, rng))


def rand_fp12(e, rng):
    return Fp12El(rand_fp6(e, rng), rand_fp6(e, rng))


def test_fp2_matches_complex_integer_model(engine, rng):
    for _ in range(100):
        a0, a1 = rng.randrange(P), rng.randrange(P)
        b0, b1 = rng.randrange(P), rng.randrange(P)
        x, y = Fp2El.of(engine, a0, a1), Fp2El.of(engine, b0, b1)
        # (a0 + a1*i)(b0 + b1*i) with i^2 = -1
        assert (x * y).to_ints() == (
            (a0 * b0 - a1 * b1) % P, (a0 * b1 + a1 * b0) % P)
        assert x.square().to_ints() == ((a0 * a0 - a1 * a1) % P,
                                        2 * a0 * a1 % P)
        assert (x + y).to_ints() == ((a0 + b0) % P, (a1 + b1) % P)
        assert x.conjugate().to_ints() == (a0, (-a1) % P)


@pytest.mark.parametrize("level", ["fp2", "fp6", "fp12"])
def test_ring_laws(level, engine, rng):
    make = {"fp2": rand_fp2, "fp6": rand_fp6, "fp12": rand_fp12}[level]
    one = {"fp2": Fp2El, "fp6": Fp6El, "fp12": Fp12El}[level].one(engine)
    for _ in range(10):
        a, b, c = make(engine, rng), make(engine, rng), make(engine, rng)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a * one == a
        assert a.square() == a * a
        assert a - a == a + (-a)


@pytest.mark.parametrize("level", ["fp2", "fp6", "fp12"])
def test_inverse(level, engine, rng):
    make = {"fp2": rand_fp2, "fp6": rand_fp6, "fp12": rand_fp12}[level]
    one = {"fp2": Fp2El, "fp6": Fp6El, "fp12": Fp12El}[level].one(engine)
    for _ in range(5):
        a = make(engine, rng)
        assert a * a.inverse() == one


def test_frobenius_structure(engine, rng):
    tw = engine.tower
    f = rand_fp12(engine, rng)
    g = rand_fp12(engine, rng)
    # multiplicativity and power composition
    assert tw.frobenius(f * g, 1) == tw.frobenius(f, 1) * tw.frobenius(g, 1)
    assert tw.frobenius(tw.frobenius(f, 1), 1) == tw.frobenius(f, 2)
    assert tw.frobenius(tw.frobenius(f, 1), 2) == tw.frobenius(f, 3)
    assert tw.frobenius(tw.frobenius(f, 3), 3) == tw.frobenius(f, 6)
    # applying the map twelve times is the identity
    acc = f
    for _ in range(12):
        acc = tw.frobenius(acc, 1)
    assert acc == f
    # an Fp scalar is fixed
    c = Fp12El.one(engine)
    assert tw.frobenius(c, 1) == c


def test_fp2_counter_conventions(engine, rng):
    x, y = rand_fp2(engine, rng), rand_fp2(engine, rng)
    before = engine.counter.snapshot()
    x * y
    d = engine.counter.delta(before)
    assert d.m2 == 1
    assert d.m1 == 0 and d.m1_in2 == 3        # Karatsuba internals, own bucket
    assert d.m1_equivalent() == 3             # counted once, not twice

    before = engine.counter.snapshot()
    x.square()
    d = engine.counter.delta(before)
    assert d.s2 == 1
    assert d.m1_equivalent() == 2

    before = engine.counter.snapshot()
    x.inverse()
    d = engine.counter.delta(before)
    assert d.i2 == 1
    assert d.m1_equivalent() == 612           # norm + fp chain + two muls


def test_fp2_nonresidue_and_xi(engine, rng):
    x = rand_fp2(engine, rng)
    alpha = Fp2El.of(engine, 0, 1)
    xi = Fp2El.of(engine, 1, 1)
    assert x.mul_by_xi() == x * xi
    assert alpha.square().to_ints() == (P - 1, 0)


def test_fp_and_fp2_square_roots(engine, rng):
    for _ in range(10):
        v = engine.fp(rng.randrange(P)).square()
        r = fp_sqrt(v)
        assert r is not None and r.square() == v
    for _ in range(5):
        s = rand_fp2(engine, rng).square()
        r = fp2_sqrt(s)
        assert r is not None and r.square() == s


def test_cyclotomic_square_agrees_on_cyclotomic_subgroup(engine, rng):
    # z = f^((p^6-1)(p^2+1)) has order dividing p^4 - p^2 + 1; the
    # compressed squaring is only claimed there
    f = rand_fp12(engine, rng)
    z = f.conjugate() * f.inverse()
    z = engine.tower.frobenius(z, 2) * z
    assert z.cyclotomic_square() == z.square()
    assert z * z.conjugate() == Fp12El.one(engine)


@pytest.fixture(scope="module")
def twin_engines():
    return Engine(), Engine(word_size=64, backend="words")


def _twin_op(name, e, rng):
    x, y = rand_fp2(e, rng), rand_fp2(e, rng)
    f, g = rand_fp12(e, rng), rand_fp12(e, rng)
    if name == "cyclotomic_sqr":
        z = f.conjugate() * f.inverse()
        f = e.tower.frobenius(z, 2) * z
    return {
        "fp2_mul": lambda: x * y,
        "fp2_sqr": x.square,
        "fp2_inv": x.inverse,
        "fp12_mul": lambda: f * g,
        "cyclotomic_sqr": f.cyclotomic_square,
        "pairing": lambda: pairing(e.curve.g1_gen, e.curve.g2_gen),
    }[name]


@pytest.mark.parametrize("name", ["fp2_mul", "fp2_sqr", "fp2_inv", "fp12_mul",
                                  "cyclotomic_sqr", "pairing"])
def test_backends_agree_on_counts_and_traces(name, twin_engines):
    runs = []
    for e in twin_engines:
        op = _twin_op(name, e, random.Random(0x5EED))   # same inputs on both
        sink = []
        before = e.counter.snapshot()
        with e.tracing(sink):
            op()
        runs.append((e.counter.delta(before), sink))
    (db, tb), (dw, tw) = runs
    assert db == dw
    assert tb == tw and tb
