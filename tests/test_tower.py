"""Extension tower: ring laws against random samples, inverse correctness,
Frobenius structure, and the Fp2 operation-counting conventions."""

import random

import pytest

from pairing381 import Engine, OpCounter
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


def _chain(modulus, f):
    """Trace of the fixed Fermat chain for modulus - 2: square per bit, then
    multiply on a one bit."""
    return tuple(k + f for bit in bin(modulus - 2)[3:]
                 for k in ("s", "sm")[bit == "1"])


# One Fp2 op at w = 64 (six limbs): a mont mul costs 78 word muls and 170 word
# adds, a mod add 13 word adds, a mod sub or neg 12.
FP2_CONTRACT = {
    "add": ({"a2": 1, "a1_in2": 2, "word_add": 26}, ("a2", "a1", "a1")),
    "sub": ({"a2": 1, "a1_in2": 2, "word_add": 24}, ("a2", "a1", "a1")),
    "neg": ({"a2": 1, "a1_in2": 2, "word_add": 24}, ("a2", "a1", "a1")),
    "conjugate": ({"a2": 1, "a1_in2": 1, "word_add": 12}, ("a2", "a1")),
    "mul_by_xi": ({"a2": 1, "a1_in2": 2, "word_add": 25}, ("a2", "a1", "a1")),
    "mul": ({"m2": 1, "m1_in2": 3, "a1_in2": 5, "word_mul": 234,
             "word_add": 572},
            ("m2", "m1", "m1", "a1", "a1", "a1", "m1", "a1", "a1")),
    "square": ({"s2": 1, "m1_in2": 2, "a1_in2": 3, "word_mul": 156,
                "word_add": 378}, ("s2", "a1", "a1", "m1", "m1", "a1")),
    "mul_fp": ({"m1": 2, "word_mul": 156, "word_add": 340}, ("m1", "m1")),
    "inverse": ({"i2": 1, "m1_in2": 4, "a1_in2": 2, "i1_in2": 1,
                 "inv_m1": 608, "word_mul": 47736, "word_add": 104065},
                ("i2", "m1", "m1", "a1", "i1") + _chain(P, "1")
                + ("m1", "m1", "a1")),
}


def _fp2_model(op, a0, a1, b0, b1):
    """The op on (a0 + a1 alpha) and (b0 + b1 alpha) as Python integers;
    mul_fp scales by b0."""
    if op == "inverse":
        n = pow(a0 * a0 + a1 * a1, -1, P)
        return a0 * n % P, -a1 * n % P
    return {
        "add": (a0 + b0, a1 + b1),
        "sub": (a0 - b0, a1 - b1),
        "neg": (-a0, -a1),
        "conjugate": (a0, -a1),
        "mul_by_xi": (a0 - a1, a0 + a1),
        "mul": (a0 * b0 - a1 * b1, a0 * b1 + a1 * b0),
        "square": (a0 * a0 - a1 * a1, 2 * a0 * a1),
        "mul_fp": (a0 * b0, a1 * b0),
    }[op]


def _fp2_call(op, x, y):
    return {
        "add": lambda: x + y,
        "sub": lambda: x - y,
        "neg": lambda: -x,
        "conjugate": x.conjugate,
        "mul_by_xi": x.mul_by_xi,
        "mul": lambda: x * y,
        "square": x.square,
        "mul_fp": lambda: x.mul_fp(y.c0),
        "inverse": x.inverse,
    }[op]


@pytest.mark.parametrize("backend", [0, 1], ids=["bigint", "words"])
@pytest.mark.parametrize("op", list(FP2_CONTRACT))
def test_fp2_op_contract(op, backend, twin_engines, rng):
    """Each Fp2 op: the exact counter delta in every field, the exact trace
    and the value, on both backends."""
    e = twin_engines[backend]
    delta, trace = FP2_CONTRACT[op]
    a0, a1, b0, b1 = (rng.randrange(1, P) for _ in range(4))
    x, y = Fp2El.of(e, a0, a1), Fp2El.of(e, b0, b1)
    sink = []
    before = e.counter.snapshot()
    with e.tracing(sink):
        out = _fp2_call(op, x, y)()
    assert e.counter.delta(before) == OpCounter(**delta)
    assert tuple(sink) == trace
    assert out.to_ints() == tuple(v % P for v in _fp2_model(op, a0, a1, b0, b1))


@pytest.mark.parametrize("backend", [0, 1], ids=["bigint", "words"])
def test_uncounted_fp2_ops_leave_counter_and_trace_alone(backend, twin_engines,
                                                         rng):
    e = twin_engines[backend]
    x, y = rand_fp2(e, rng), rand_fp2(e, rng)
    sink = []
    before = e.counter.snapshot()
    with e.tracing(sink), e.uncounted():
        for op in FP2_CONTRACT:
            _fp2_call(op, x, y)()
        e.fp(3).inverse()
        e.fq(3).inverse()
    assert e.counter == before
    assert sink == []


@pytest.mark.parametrize("backend", [0, 1], ids=["bigint", "words"])
def test_fp2_zero_inverse_raises_and_charges_nothing(backend, twin_engines):
    e = twin_engines[backend]
    before = e.counter.snapshot()
    with pytest.raises(ZeroDivisionError):
        Fp2El.zero(e).inverse()
    assert e.counter == before


def test_fp2_operands_from_other_engines_or_fields_rejected(engine, rng):
    other = Engine()                  # same parameters, different engine
    x, y = rand_fp2(engine, rng), rand_fp2(other, rng)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y,
               lambda: x.mul_fp(y.c0)):
        with pytest.raises(TypeError):
            op()
    mixed = Fp2El(engine.fp(1), engine.fq(1))
    for op in (mixed.square, mixed.mul_by_xi, mixed.inverse,
               lambda: mixed * x):
        with pytest.raises(TypeError):
            op()


def _twin_op(name, e, rng):
    x, y = rand_fp2(e, rng), rand_fp2(e, rng)
    f, g = rand_fp12(e, rng), rand_fp12(e, rng)
    if name == "cyclotomic_sqr":
        z = f.conjugate() * f.inverse()
        f = e.tower.frobenius(z, 2) * z
    if name.startswith("fp2_"):
        op = name[4:]
        return _fp2_call({"sqr": "square", "inv": "inverse"}.get(op, op), x, y)
    return {
        "fp_inv": x.c0.inverse,
        "fq_inv": e.fq(x.c0.to_int()).inverse,
        "fp12_mul": lambda: f * g,
        "cyclotomic_sqr": f.cyclotomic_square,
        "pairing": lambda: pairing(e.curve.g1_gen, e.curve.g2_gen),
    }[name]


@pytest.mark.parametrize("name", ["fp2_add", "fp2_sub", "fp2_neg",
                                  "fp2_conjugate", "fp2_mul_by_xi",
                                  "fp2_mul_fp", "fp2_mul", "fp2_sqr",
                                  "fp2_inv", "fp_inv", "fq_inv", "fp12_mul",
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
